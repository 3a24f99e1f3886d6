"""Built-in problems with known structure for experiments and verification.

The main one is the linear test equation

    y'(x) = lam * (y(x) - 1) + gamma * integral from 0 to x of y(t) dt,
    y(0) = 2,

whose exact solution follows from differentiating once more: y'' = lam*y' +
gamma*y with y(0) = 2, y'(0) = lam. With d = lam**2 + 4*gamma the roots of
m**2 - lam*m - gamma are m = (lam -+ sqrt(d))/2 and

    y(x) = exp(m1*x) + exp(m2*x)                          if d >= 0,
    y(x) = 2*exp(lam*x/2)*cos(sqrt(-d)/2 * x)             if d < 0.

Both branches satisfy the initial conditions, and they agree in the limit
d -> 0. Negative lam and gamma give the stiff decaying regime; positive
coefficients are admitted too (growing solutions) even though the decaying
regime is the intended one.

Three manufactured problems with simpler structure round out the set, each
isolating one stepping code path:

    pure-ode         y' = -y,                K = 0,   exact y0*exp(-x)
    constant-kernel  y' = int 1 dt,          f = 0,   exact y0 + x**2/2
    cubic-kernel     y' = -y - int y(t)**3,  nonlinear, no closed form

All built-ins start at x0 = 0, and none of their kernels depends on the
outer abscissa x, so each declares ``kernel_depends_on_x=False`` and runs
with the O(n) running-sum memory term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import VideProblem
from .errors import UnknownProblem

__all__ = [
    "TestEquationParams",
    "test_equation",
    "test_equation_exact",
    "pure_ode",
    "constant_kernel",
    "cubic_kernel",
    "PROBLEM_IDS",
    "builtin_problem",
]


@dataclass(frozen=True)
class TestEquationParams:
    """Coefficients of the linear test equation.

    The discriminant d = lam**2 + 4*gamma decides the solution branch:
    real exponentials for d >= 0, a damped cosine for d < 0.
    """

    lam: float
    gamma: float


def test_equation_exact(params: TestEquationParams) -> Callable[[float], float]:
    """Exact solution of the test equation, valid on both discriminant branches.

    The returned callable accepts scalars or numpy arrays.
    """
    lam, gamma = params.lam, params.gamma
    d = lam * lam + 4.0 * gamma
    if d >= 0.0:
        root = math.sqrt(d)
        m1 = 0.5 * (lam - root)
        m2 = 0.5 * (lam + root)

        def exact(x):
            return np.exp(m1 * x) + np.exp(m2 * x)

    else:
        omega = 0.5 * math.sqrt(-d)

        def exact(x):
            return 2.0 * np.exp(0.5 * lam * x) * np.cos(omega * x)

    return exact


def test_equation(params: TestEquationParams) -> VideProblem:
    """The linear test equation as a VideProblem, jacobians and exact included."""
    lam, gamma = params.lam, params.gamma
    return VideProblem(
        f=lambda x, y: lam * (y - 1.0),
        kernel=lambda x, y, t: gamma * y,
        y0=2.0,
        f_y=lambda x, y: lam,
        kernel_y=lambda x, y, t: gamma,
        exact=test_equation_exact(params),
        kernel_depends_on_x=False,
    )


def pure_ode(y0: float = 1.0) -> VideProblem:
    """y' = -y with a zero kernel; exercises the f path alone."""
    return VideProblem(
        f=lambda x, y: -y,
        kernel=lambda x, y, t: 0.0 * y,
        y0=y0,
        f_y=lambda x, y: -1.0,
        kernel_y=lambda x, y, t: 0.0,
        exact=lambda x: y0 * np.exp(-x),
        kernel_depends_on_x=False,
    )


def constant_kernel(y0: float = 1.0) -> VideProblem:
    """y' = integral of 1; exercises the quadrature path alone. Exact y0 + x**2/2."""
    return VideProblem(
        f=lambda x, y: 0.0,
        kernel=lambda x, y, t: np.ones_like(np.asarray(y, dtype=float)),
        y0=y0,
        f_y=lambda x, y: 0.0,
        kernel_y=lambda x, y, t: 0.0,
        exact=lambda x: y0 + 0.5 * x * x,
        kernel_depends_on_x=False,
    )


def cubic_kernel(y0: float = 1.0) -> VideProblem:
    """y' = -y - integral of y**3; nonlinear kernel, no closed-form solution."""
    return VideProblem(
        f=lambda x, y: -y,
        kernel=lambda x, y, t: -(y**3),
        y0=y0,
        f_y=lambda x, y: -1.0,
        kernel_y=lambda x, y, t: -3.0 * y * y,
        exact=None,
        kernel_depends_on_x=False,
    )


PROBLEM_IDS = ("test-equation", "pure-ode", "constant-kernel", "cubic-kernel")


def builtin_problem(
    problem_id: str,
    params: TestEquationParams | None = None,
    y0: float = 1.0,
) -> VideProblem:
    """Look up a built-in problem by its string id.

    ``params`` applies only to "test-equation" (required there); ``y0``
    applies only to the manufactured problems.
    """
    if problem_id == "test-equation":
        if params is None:
            raise UnknownProblem("test-equation requires TestEquationParams")
        return test_equation(params)
    if problem_id == "pure-ode":
        return pure_ode(y0)
    if problem_id == "constant-kernel":
        return constant_kernel(y0)
    if problem_id == "cubic-kernel":
        return cubic_kernel(y0)
    raise UnknownProblem(f"no built-in problem with id {problem_id!r}")
