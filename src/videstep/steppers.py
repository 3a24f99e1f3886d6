"""Euler-Trapezium steppers for first-order Volterra integro-differential equations.

Both methods advance the differential part with Euler's method and
approximate the memory integral with the composite trapezium rule over the
nodes accumulated so far. Writing

    S(m, l; v) = (h**2/2) * ( sum_{j=0}^{l} 2*K(x_m, v_j, x_j)
                              - K(x_m, v_0, x_0) - K(x_m, v_l, x_l) ),

which is h times the trapezium approximation of the memory integral at x_m
using history values v_0..v_l, the two schemes are

    explicit:  w_{i+1} = w_i + h*f(x_i, w_i) + S(i, i; w)
    implicit:  w_{i+1} = w_i + h*f(x_{i+1}, w_{i+1}) + S(i+1, i+1; w)

with w_{i+1} appearing inside S in the implicit case. For i = 0 the
explicit kernel term vanishes identically (the trapezium weights cancel),
so the first explicit step is a plain Euler step.

The implicit update is solved per step as a scalar root-finding problem

    R(u) = u - w_i - h*f(x_{i+1}, u)
             - (h**2/2) * ( sum_{j=0}^{i} 2*K(x_{i+1}, w_j, x_j)
                            - K(x_{i+1}, w_0, x_0) + K(x_{i+1}, u, x_{i+1}) )

by Newton iteration with the scalar jacobian

    R'(u) = 1 - h*f_y(x_{i+1}, u) - (h**2/2)*kernel_y(x_{i+1}, u, x_{i+1}),

or by fixed-point iteration (the same update with denominator 1). The
unknown u carries net trapezium weight h**2/2: its endpoint correction
subtracts half of its interior weight. The history part of R is constant
during the solve and is computed once per step.

One loop applies this step to one of two histories v: ``integrate`` feeds
it its own output (v = w from y0; only such a run stops at an overflowing
node), ``seeded_steps`` a given history, such as the exact solution, whose
one-step values are not fed back. Both schemes need the sum of a kernel
row K(x_m, v_j, x_j), j <= l, with its first and last entries;
``_trapezium`` turns those into S. How the loop obtains the row depends
on what the problem declares:

- ``kernel_depends_on_x=False``: the row at outer node m+1 is the row at
  m plus one entry, so the loop keeps the running sum
  P_i = sum_{j<=i} K(x_j, v_j, x_j), O(n) per run: one kernel evaluation
  per node, or one row over a given history in the first step. On
  the implicit path a run takes the new entry from the last residual
  evaluation, at the accepted u.
- otherwise (the default, and the only correct path for kernels that
  depend on x): each step evaluates one full row at its outer node,
  O(n**2) per run. The implicit predictor reuses the previous step's row
  at x_i, completed by the new entry K(x_i, v_i, x_i): the kernel value of
  that step's last residual evaluation, or on a given history one scalar
  call.

A full row is one vector call when the kernel takes arrays and one scalar
call per node when it does not (see ``_on_nodes``, which evaluates every
user callback over nodes, the error analysis's included). A run decides
which once: the first vector row with two distinct history values is
compared with scalar calls at a few nodes, so that a kernel reducing over
its array argument (say ``np.max(y)``) is rejected instead of being
broadcast to a wrong row. A scalar row is one C-level ``map`` of the
kernel over the row, collected by ``np.fromiter``; the kernel receives
x_m as a float and each w_j and x_j as the NumPy float element of its
array.

Every kernel value that enters a trapezium row, whether a running-sum
entry, a vector row or a scalar row, follows one rule: NaN raises
StepEvaluationError naming its (x, y, t), and ±inf is kept, so that a run
ends at the overflowing node. Inside the implicit solve, and for f, every
callback value must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from numbers import Integral

import numpy as np

from .core import (
    Mesh,
    Method,
    StepDiagnostics,
    Trajectory,
    VideProblem,
    check_step_count,
)
from .errors import (
    InvalidSolveConfig,
    KernelCallMismatch,
    LengthMismatch,
    MissingJacobian,
    NoConvergence,
    NonFiniteInitialValue,
    SingularJacobian,
    StepEvaluationError,
    VidestepError,
)

__all__ = [
    "SolveStrategy",
    "ImplicitSolveConfig",
    "integrate",
    "seeded_steps",
    "OVERFLOW_CUTOFF",
]

# Magnitude beyond which a trajectory is declared divergent and truncated.
OVERFLOW_CUTOFF = 1e300

# Newton denominators smaller than this are treated as singular.
JACOBIAN_FLOOR = 1e-14

# Relative agreement required between a vector call of a callback (a
# kernel row, say) and scalar calls of the same callback; both evaluate the
# same formula, so they differ by a few ulps at most.
KERNEL_FORM_RTOL = 1e-12

_EXPLICIT_DIAGNOSTICS = StepDiagnostics(iterations=0, last_residual=0.0)


class SolveStrategy(str, Enum):
    """How the implicit step equation is solved."""

    NEWTON_WITH_JACOBIANS = "newton"
    FIXED_POINT = "fixed-point"


@dataclass(frozen=True)
class ImplicitSolveConfig:
    """Per-step nonlinear solve settings for the implicit method.

    Convergence is declared when the step residual satisfies
    |R(u)| <= abs_tol + rel_tol*|u|. The tolerances sit far below the
    O(h**2) local error being studied so the solve contributes nothing
    visible to the error analysis.

    Raises
    ------
    InvalidSolveConfig
        A tolerance is not positive (NaN included), or max_iterations is
        not an integer of at least 1.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_iterations: int = 50
    strategy: SolveStrategy = SolveStrategy.NEWTON_WITH_JACOBIANS

    def __post_init__(self):
        # Written as not (x > 0) so that NaN tolerances are rejected too.
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0
                and isinstance(self.max_iterations, Integral) and self.max_iterations >= 1):
            raise InvalidSolveConfig(
                "require rel_tol > 0, abs_tol > 0, integer max_iterations >= 1; got "
                f"rel_tol={self.rel_tol}, abs_tol={self.abs_tol}, "
                f"max_iterations={self.max_iterations}")


def _evaluate(fn, *args) -> float:
    """A user callback at scalar arguments, as a float, whatever its value.
    A failure becomes a StepEvaluationError; a VidestepError passes through."""
    try:
        return float(fn(*args))
    except VidestepError:
        raise
    except Exception as exc:
        raise _failure("failed", args) from exc


def _call(fn, *args, inf_ok: bool = False) -> float:
    """_evaluate that also refuses NaN and, unless ``inf_ok``, an infinite
    result, in one frame."""
    try:
        value = float(fn(*args))
    except VidestepError:
        raise
    except Exception as exc:
        raise _failure("failed", args) from exc
    if not math.isfinite(value) and not (inf_ok and value == value):
        raise _failure("returned non-finite value", args)
    return value


def _failure(what: str, args: tuple) -> StepEvaluationError:
    return StepEvaluationError(f"callback {what} at {tuple(map(float, args))}")


def _trapezium(h: float, total: float, first: float, last: float) -> float:
    """(h**2/2) * (2*total - first - last): the memory term S of a kernel
    row whose entries sum to ``total``. With last = 0.0 the final entry
    keeps its interior weight, as in the known part of the implicit step."""
    return 0.5 * h * h * (2.0 * total - first - last)


class _CallForm:
    """Whether a callback takes arrays, decided once per run for kernel rows.

    ``vector`` is None while undecided, True once a vector call with two
    distinct values per array argument has matched scalar calls, and False
    once a vector call has failed; the callback is then mapped over entries.
    """

    __slots__ = ("vector",)

    def __init__(self):
        self.vector = None


def _agree(a: float, b: float) -> bool:
    """Whether a vector and a scalar callback value agree (NaN agrees with NaN)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= KERNEL_FORM_RTOL * max(abs(a), abs(b)))


def _check_vector_call(fn, name: str, args: tuple, out: np.ndarray) -> bool:
    """Compare the output of one vector call of ``fn`` with scalar calls at
    its first and last entries and at the smallest and largest value of
    each array argument. A function that reduces over an array argument
    returns one value for all entries, which in general differs from the
    scalar call at the smallest or the largest value. Returns whether
    every array argument holds two distinct values, so that such a
    reduction would have shown.

    Raises
    ------
    KernelCallMismatch
        The vector output disagrees with a scalar call.
    """
    picks, spread = {0, out.size - 1}, True
    for a in args:
        if np.ndim(a):
            lo, hi = int(np.argmin(a)), int(np.argmax(a))
            picks.update((lo, hi))
            spread = spread and a[lo] != a[hi]
    for j in sorted(picks):
        scalar = _evaluate(fn, *_entry(args, j))
        if not _agree(float(out[j]), scalar):
            raise KernelCallMismatch(
                f"{name} called on arrays gives {float(out[j])!r} at entry {j}, "
                f"called on that entry alone {scalar!r}; "
                f"{name} must act elementwise on array arguments")
    return spread


def _on_nodes(fn, name: str, args: tuple, form: _CallForm | None = None,
              nan_ok: bool = True) -> np.ndarray:
    """``fn`` at each entry of the array arguments of ``args``, scalar
    arguments repeated: how every user callback is evaluated over nodes.

    - A function that takes arrays gets one vector call, and a constant
      return value is broadcast. While ``form`` is undecided (a fresh one
      when None) the output is compared with scalar calls
      (_check_vector_call), so that a reducing function raises
      KernelCallMismatch.
    - A TypeError or ValueError from the vector call means scalars only:
      ``fn`` is then called once per entry by one C-level ``map``, with no
      Python frame of this package in between, on the NumPy float
      elements of the arrays.
    - A VidestepError passes through. Any other exception becomes a
      StepEvaluationError chained from it, which for the ``map`` names the
      first failing entry, found by calling ``fn`` entry by entry again.
    - ±inf is returned as it is. NaN is too with ``nan_ok``; without it,
      NaN raises StepEvaluationError naming the first NaN entry.
    """
    if form is None:
        form = _CallForm()
    n = next(a.size for a in args if np.ndim(a))
    if form.vector is not False:
        try:
            out = np.asarray(fn(*args), dtype=float)
            if out.shape != (n,):
                out = np.broadcast_to(out, (n,))
        except (TypeError, ValueError):
            form.vector = False
        except VidestepError:
            raise
        except Exception as exc:
            raise StepEvaluationError(f"{name} failed when called on arrays") from exc
        else:
            if form.vector is None and _check_vector_call(fn, name, args, out):
                form.vector = True
    if form.vector is False:
        calls = map(fn, *[a if np.ndim(a) else repeat(a, n) for a in args])
        try:
            # float() per value only where NaN is kept, so that None raises.
            out = np.fromiter(map(float, calls) if nan_ok else calls, dtype=float, count=n)
        except VidestepError:
            raise
        except Exception as exc:
            for j in range(n):
                _evaluate(fn, *_entry(args, j))
            raise StepEvaluationError(
                "callback failed when called over a row, but not when called "
                "again entry by entry") from exc
    if not nan_ok:
        nan = np.isnan(out)
        if nan.any():
            raise _failure("returned non-finite value", _entry(args, int(nan.argmax())))
    return out


def _entry(args: tuple, j: int) -> tuple:
    return tuple(a[j] if np.ndim(a) else a for a in args)


def _kernel_row(problem: VideProblem, x_outer: float, values: np.ndarray,
                nodes: np.ndarray, form: _CallForm | None = None) -> np.ndarray:
    """K(x_outer, values[j], nodes[j]) for all j, by _on_nodes: NaN raises,
    ±inf is kept. ``form`` carries the call form across the rows of one run."""
    return _on_nodes(problem.kernel, "kernel", (x_outer, values, nodes), form, nan_ok=False)


def _row_sums(problem: VideProblem, x_outer: float, values: np.ndarray,
              nodes: np.ndarray, form: _CallForm) -> tuple[float, float, float]:
    """Sum, first entry and last entry of the kernel row at x_outer."""
    row = _kernel_row(problem, x_outer, values, nodes, form)
    return float(np.sum(row)), float(row[0]), float(row[-1])


def _solve(problem: VideProblem, x_next: float, known: float, u: float,
           h: float, cfg: ImplicitSolveConfig,
           ) -> tuple[float, float, StepDiagnostics]:
    """Solve the implicit step equation at x_next, starting from u.

    ``known`` is w_i plus the history part of the memory term. Returns the
    accepted u, the kernel value K(x_next, u, x_next) of the residual
    evaluation that accepted it, and the solve diagnostics. Raises
    MissingJacobian, SingularJacobian (|Newton denominator| < 1e-14) and
    NoConvergence: at the cap, or once the iterate repeats itself or the
    one before it, so that every later iteration would repeat.
    """
    f, kernel, f_y, kernel_y = problem.f, problem.kernel, problem.f_y, problem.kernel_y
    newton = cfg.strategy == SolveStrategy.NEWTON_WITH_JACOBIANS
    if newton and (f_y is None or kernel_y is None):
        raise MissingJacobian("Newton strategy requires f_y and kernel_y")
    abs_tol, rel_tol, cap = cfg.abs_tol, cfg.rel_tol, cfg.max_iterations
    half_h2 = 0.5 * h * h  # 0.5*h*h*k is (0.5*h*h)*k, bit for bit
    previous = None
    for k in range(1, cap + 1):
        f_u = _call(f, x_next, u)
        k_u = _call(kernel, x_next, u, x_next)
        r = u - known - h * f_u - half_h2 * k_u
        if abs(r) <= abs_tol + rel_tol * abs(u):
            return u, k_u, StepDiagnostics(iterations=k, last_residual=abs(r))
        if k == cap:
            raise NoConvergence(iterations=k, last_residual=abs(r))
        d = 1.0
        if newton:
            d = (1.0 - h * _call(f_y, x_next, u)
                 - half_h2 * _call(kernel_y, x_next, u, x_next))
            if abs(d) < JACOBIAN_FLOOR:
                raise SingularJacobian(f"Newton denominator {d:.3e} at x={x_next}")
        u_next = u - r / d
        if u_next == u or u_next == previous:
            raise NoConvergence(iterations=k, last_residual=abs(r))
        previous, u = u, u_next
    raise AssertionError("unreachable")


def _march(problem: VideProblem, mesh: Mesh, method: Method,
           cfg: ImplicitSolveConfig | None, seed,
           ) -> tuple[np.ndarray, list[StepDiagnostics], int | None]:
    """The stepping loop of both methods (see the module docstring): on its
    own output from y0 when ``seed`` is None, else on the history ``seed``.
    Returns the outputs, truncated after an overflowing node of an own
    run, one StepDiagnostics per step, and the overflow index or None.
    """
    check_step_count(mesh.n_steps)
    own = seed is None
    if own and not math.isfinite(problem.y0):
        raise NonFiniteInitialValue(f"y0 must be finite, got {problem.y0}")
    history = out = np.empty(mesh.n_steps + 1)
    if not own:
        history = np.asarray(seed, dtype=float)
        if history.size != mesh.n_steps + 1:
            raise LengthMismatch(f"{history.size} values for {mesh.n_steps + 1} nodes")
    out[0] = problem.y0 if own else history[0]
    if cfg is None:
        cfg = ImplicitSolveConfig()
    x0, h = mesh.x0, mesh.h
    nodes = mesh.nodes()
    running = not problem.kernel_depends_on_x
    implicit = method == Method.IMPLICIT
    form = _CallForm()
    # Sum, first and last entry of the kernel row at outer node i over
    # v_0..v_i: the memory of the explicit step from node i, and of the
    # implicit predictor.
    total = first = last = 0.0
    diagnostics: list[StepDiagnostics] = []
    for i in range(mesh.n_steps):
        x_i = x0 + h * i  # bitwise nodes[i]
        v_i = float(history[i])
        try:
            if running and (i == 0 or not implicit):
                # The one new kernel value of node i (after node 0 the
                # implicit path takes it at the end of the step instead).
                # A run takes it at history[i], a NumPy float, so an
                # overflowing kernel yields inf and ends the run.
                if own:
                    last = _call(problem.kernel, x_i, history[i], x_i, inf_ok=True)
                else:
                    if i == 0:
                        # K ignores x, so one row holds every entry K(., v_j, x_j).
                        row = _kernel_row(problem, x0, history, nodes, form)
                    last = float(row[i])
                total += last
                if i == 0:
                    first = last
            elif not (running or implicit) and i > 0:
                total, first, last = _row_sums(problem, x_i, history[: i + 1],
                                               nodes[: i + 1], form)
            memory = _trapezium(h, total, first, last) if i > 0 else 0.0
            v_next = v_i + h * _call(problem.f, x_i, v_i) + memory
            diag = _EXPLICIT_DIAGNOSTICS
            if implicit:
                x_next = x0 + h * (i + 1)
                if running:
                    row_total, row_first = total, first
                else:
                    row_total, row_first, _ = _row_sums(problem, x_next, history[: i + 1],
                                                        nodes[: i + 1], form)
                if not own:
                    # The new entry K(x_{i+1}, v_{i+1}, x_{i+1}) of a seed.
                    last = (float(row[i + 1]) if running else _call(
                        problem.kernel, x_next, history[i + 1], nodes[i + 1], inf_ok=True))
                known = v_i + _trapezium(h, row_total, row_first, 0.0)
                v_next, k_u, diag = _solve(problem, x_next, known, v_next, h, cfg)
                if own:
                    last = k_u
                total, first = row_total + last, row_first
        except VidestepError as exc:
            exc.step_index = i + 1
            raise
        diagnostics.append(diag)
        out[i + 1] = v_next
        if own and (not math.isfinite(v_next) or abs(v_next) > OVERFLOW_CUTOFF):
            return out[: i + 2], diagnostics, i + 1
    return out, diagnostics, None


def integrate(problem: VideProblem, mesh: Mesh, method: Method,
              cfg: ImplicitSolveConfig | None = None) -> Trajectory:
    """Run a full trajectory of ``method`` over ``mesh``.

    The initial node carries y0 exactly. When the problem declares
    ``kernel_depends_on_x=False`` the memory term is a running sum and
    each step costs one kernel evaluation, O(n_steps) in total. Otherwise
    the outer abscissa changes every step, invalidating any cached kernel
    values, so each step evaluates one full history row and the total
    kernel cost is O(n_steps**2).

    If a computed node exceeds 1e300 in magnitude (or is non-finite) the
    run stops there: the returned arrays are truncated after the offending
    node and ``overflow_at`` records its index, so unstable runs terminate
    with recorded growth instead of spreading non-finite values.
    Exceptions raised inside a step gain a ``step_index`` attribute
    identifying the node being computed.

    Raises
    ------
    TooManySteps
        The mesh has more than MAX_STEPS steps; checked before allocating.
    NonFiniteInitialValue
        y0 is infinite or NaN.
    """
    w, diagnostics, overflow_at = _march(problem, mesh, method, cfg, None)
    return Trajectory(mesh=mesh, w=w.copy(), method=method,
                      step_diagnostics=diagnostics, overflow_at=overflow_at)


def seeded_steps(problem: VideProblem, mesh: Mesh, method: Method, values,
                 cfg: ImplicitSolveConfig | None = None) -> np.ndarray:
    """One step of ``method`` from every prefix of a given history.

    Entry i+1 is the value the method computes for node i+1 from
    values[0..i], solving the step equation on the implicit path; entry 0
    is values[0]. With ``kernel_depends_on_x=False`` the kernel is
    evaluated once over all of ``values`` and each step's row sum is a
    running sum, O(n_steps) in all; otherwise each step evaluates one
    row, O(n_steps**2). Exceptions raised inside a step gain a
    ``step_index`` attribute, as in integrate.

    Raises
    ------
    TooManySteps
        The mesh has more than MAX_STEPS steps.
    LengthMismatch
        ``values`` does not hold one entry per mesh node.
    """
    return _march(problem, mesh, method, cfg, values)[0]
