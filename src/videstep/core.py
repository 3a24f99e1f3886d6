"""Core data types: problem definition, uniform mesh, and solver output.

The equations treated here are first-order Volterra integro-differential
equations in one unknown,

    y'(x) = f(x, y(x)) + integral from x0 to x of K(x, y(t), t) dt,
    y(x0) = y0,

discretised on a uniform mesh x_i = x0 + i*h. The problem object carries
the right-hand side, the kernel, and optional jacobians and exact
solution; the left endpoint x0 lives on the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonPositiveStep, NonTilingStep, TooManySteps

__all__ = [
    "VideProblem",
    "Mesh",
    "make_mesh",
    "MAX_STEPS",
    "Method",
    "StepDiagnostics",
    "Trajectory",
]

# Relative tolerance for deciding whether h tiles [x0, xf] exactly.
TILING_TOL = 1e-9

# Largest number of steps a mesh may have. A run allocates a few float
# arrays of n_steps + 1 entries (80 MB each at the cap) and takes one
# Python-level step per node, so larger meshes are refused up front.
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class VideProblem:
    """A single first-order Volterra integro-differential equation.

    Parameters
    ----------
    f : callable
        Non-integral right-hand side f(x, y).
    kernel : callable
        Kernel K(x, y, t) under the memory integral; the middle argument
        is the value of the unknown at the inner abscissa t, so the
        integrand at t is ``kernel(x, y(t), t)``.
    y0 : float
        Initial value y(x0).
    f_y : callable, optional
        Partial derivative of f with respect to y, as f_y(x, y).
    kernel_y : callable, optional
        Partial derivative of K with respect to its state argument, as
        kernel_y(x, y, t).
    exact : callable, optional
        Analytic solution x -> y(x) when one is known; must satisfy
        exact(x0) = y0, which the error analysis checks.
    kernel_depends_on_x : bool, default True
        Whether K depends on its outer abscissa x. This states a property
        of the equation: when it is False the solvers evaluate K once per
        node and keep a running sum of the trapezium row, so a run costs
        O(n_steps) kernel evaluations instead of O(n_steps**2). Declaring
        False for a kernel that does depend on x gives wrong answers.
    """

    f: Callable[[float, float], float]
    kernel: Callable[[float, float, float], float]
    y0: float
    f_y: Callable[[float, float], float] | None = None
    kernel_y: Callable[[float, float, float], float] | None = None
    exact: Callable[[float], float] | None = None
    kernel_depends_on_x: bool = True


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh over [x0, xf] with n_steps steps of size h.

    Nodes are computed as x_i = x0 + i*h rather than by cumulative
    addition, so positions do not drift over long runs.
    """

    x0: float
    xf: float
    h: float
    n_steps: int

    def nodes(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n_steps + 1)


def check_step_count(n_steps: int) -> None:
    """Raise TooManySteps when a mesh has more than MAX_STEPS steps."""
    if n_steps > MAX_STEPS:
        raise TooManySteps(f"{Decimal(int(n_steps)):.3e} steps exceed the cap of {MAX_STEPS}")


def make_mesh(x0: float, xf: float, h: float) -> Mesh:
    """Build a uniform mesh, checking that h tiles [x0, xf] into whole steps.

    Raises
    ------
    NonPositiveStep
        If h is not positive and finite, or xf > x0 does not hold (NaN
        ends included).
    NonTilingStep
        If (xf - x0)/h is not finite (an infinite end, or a quotient that
        overflows), or not a whole number to within a relative tolerance
        of 1e-9.
    TooManySteps
        If the mesh would have more than MAX_STEPS steps.
    """
    if not 0.0 < h < math.inf:
        raise NonPositiveStep(f"step size must be positive and finite, got h={h}")
    if not xf > x0:
        raise NonPositiveStep(f"interval must satisfy xf > x0, got [{x0}, {xf}]")
    steps = (xf - x0) / h
    if not math.isfinite(steps):
        raise NonTilingStep(f"h={h} does not tile [{x0}, {xf}] into finitely many steps")
    n_steps = int(round(steps))
    check_step_count(n_steps)
    if n_steps < 1 or abs(x0 + n_steps * h - xf) > TILING_TOL * max(1.0, abs(xf)):
        raise NonTilingStep(
            f"h={h} does not tile [{x0}, {xf}]: {(xf - x0) / h} steps is not whole"
        )
    return Mesh(x0=x0, xf=xf, h=h, n_steps=n_steps)


class Method(str, Enum):
    """Which Euler-Trapezium variant produced a trajectory."""

    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


class StepDiagnostics(NamedTuple):
    """What one step cost: solve iterations used and the final residual.

    Explicit steps need no iteration and record zeros. A NamedTuple, the
    cheapest record to build, as a run builds one per implicit step.
    """

    iterations: int
    last_residual: float


@dataclass
class Trajectory:
    """Numerical solution on a mesh.

    Attributes
    ----------
    mesh : Mesh
        The mesh the solution lives on.
    w : numpy.ndarray
        Approximations w_i at the mesh nodes; ``w[0]`` is the initial
        value exactly and the full length is ``n_steps + 1``. A run that
        overflowed is truncated after the offending node.
    method : Method
        Which stepper produced the values.
    step_diagnostics : list of StepDiagnostics
        One record per completed step.
    overflow_at : int or None
        Index of the first node whose magnitude exceeded the divergence
        cutoff, or None if the run stayed finite.
    error_estimate : float or None
        Estimated max|w_i - y(x_i)| of the extrapolated values returned by
        ``error_analysis.auto_reference``; None on an ordinary run.
    """

    mesh: Mesh
    w: np.ndarray
    method: Method
    step_diagnostics: list[StepDiagnostics] = field(default_factory=list)
    overflow_at: int | None = None
    error_estimate: float | None = None
