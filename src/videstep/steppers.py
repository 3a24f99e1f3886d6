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

A run (``integrate``) applies this step to its own output from y0 node by
node; only a run stops at an overflowing node. ``seeded_steps`` applies
it to a given history v, such as the exact solution, in one array pass: a
C-level ``map`` per callback, and an elementwise Newton that makes the
run's scalar calls and arithmetic, so every value is the same bit for bit.
Both schemes need the sum of a kernel row K(x_m, v_j, x_j), j <= l, with
its first and last entries; ``_trapezium`` turns those into S. How a row
is obtained depends on what the problem declares:

- ``kernel_depends_on_x=False``: the row at outer node m+1 is the row at
  m plus one entry, so a run keeps the running sum
  P_i = sum_{j<=i} K(x_j, v_j, x_j), O(n) per run: one kernel evaluation
  per node, on the implicit path from the last residual evaluation, at
  the accepted u. Seeded steps take every P_i from the ``np.cumsum`` of
  one row over the whole history, which adds in the same order.
- otherwise (the default, and the only correct path for kernels that
  depend on x): each step evaluates one full row at its outer node,
  O(n**2) per run or seeded pass. The implicit predictor reuses the
  previous step's row at x_i, completed by the new entry K(x_i, v_i, x_i):
  the kernel value of that step's last residual evaluation, or on a given
  history one scalar call.

A full row is one vector call when the kernel takes arrays and one scalar
call per node when it does not (see ``_on_nodes``, which evaluates every
user callback over nodes, the error analysis's included). A run decides
which once: the first vector row with two distinct history values is
compared with scalar calls at a few nodes, so that a kernel reducing over
its array argument (say ``np.max(y)``) is rejected instead of being
broadcast to a wrong row. A scalar row is one C-level ``map`` of the
kernel over the row, collected by ``np.fromiter``; the kernel receives
x_m as a float and each w_j and x_j as a NumPy float equal to the element
of its array. Each of those NumPy floats is made once per run, when the
march first builds a row that holds node j, and every later row reuses it
(``_CallForm.boxed``), so that the O(n**2) calls of a run box O(n)
values instead of two per call. The kept floats cost about 80 bytes per
node reached (a NumPy float and a list slot for each of w_j and x_j)
until the run returns.

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
from numbers import Integral, Real

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

    ``strategy`` may be given by its value ("newton", "fixed-point") and
    is stored as a SolveStrategy.

    Raises
    ------
    InvalidSolveConfig
        A tolerance is not a positive real number (NaN included),
        max_iterations is not an integer of at least 1, or strategy names
        no SolveStrategy.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_iterations: int = 50
    strategy: SolveStrategy = SolveStrategy.NEWTON_WITH_JACOBIANS

    def __post_init__(self):
        try:
            object.__setattr__(self, "strategy", SolveStrategy(self.strategy))
        except ValueError:
            raise InvalidSolveConfig(
                f"strategy must be one of {[s.value for s in SolveStrategy]}, "
                f"got {self.strategy!r}") from None
        # Written as not (x > 0) so that NaN tolerances are rejected too.
        if not (isinstance(self.rel_tol, Real) and isinstance(self.abs_tol, Real)
                and self.rel_tol > 0.0 and self.abs_tol > 0.0
                and isinstance(self.max_iterations, Integral) and self.max_iterations >= 1):
            raise InvalidSolveConfig(
                "require real rel_tol > 0, real abs_tol > 0, integer max_iterations >= 1; "
                f"got rel_tol={self.rel_tol!r}, abs_tol={self.abs_tol!r}, "
                f"max_iterations={self.max_iterations!r}")


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
    """How a callback is called over nodes, decided once per run for kernel rows.

    ``vector`` is None while undecided, True once a vector call with two
    distinct values per array argument has matched scalar calls, and False
    once a vector call has failed; the callback is then mapped over entries.

    ``boxed`` keeps, by argument position, the list of NumPy floats a
    scalar-only callback has been given so far, so that each entry is
    boxed once per run, not once per row. A form is therefore shared only
    by calls whose array arguments are prefixes of the same unchanging
    arrays, as the history and the nodes of the rows of one run or seeded
    pass are; ``_on_nodes`` otherwise makes a fresh form per call.
    """

    __slots__ = ("vector", "boxed")

    def __init__(self):
        self.vector = None
        self.boxed = {}

    def columns(self, args: tuple, n: int) -> list:
        """The entries of each argument for n scalar calls: a scalar
        repeated n times, an array's NumPy float elements (the kept ones,
        extended to n)."""
        columns = []
        for k, a in enumerate(args):
            if not np.ndim(a):
                columns.append(repeat(a, n))
            else:
                box = self.boxed.setdefault(k, [])
                box.extend(a[len(box):])
                columns.append(box)
        return columns


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
      elements of the arrays that ``form`` keeps.
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
        calls = map(fn, *form.columns(args, n))
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


def _solver(problem: VideProblem, h: float, cfg: ImplicitSolveConfig):
    """A run's implicit solve, built once (or MissingJacobian): ``solve(x_next,
    known, u)`` solves the step equation at x_next from u, ``known`` being
    w_i plus the history part of the memory, into u, K(x_next, u, x_next)
    at that u and the StepDiagnostics; or raises SingularJacobian (|Newton
    denominator| < 1e-14) or NoConvergence: at the cap, or once the iterate
    repeats itself or the one before. ``at``: arity of the callback called.
    """
    f, kernel, f_y, kernel_y = problem.f, problem.kernel, problem.f_y, problem.kernel_y
    newton = cfg.strategy == SolveStrategy.NEWTON_WITH_JACOBIANS
    if newton and (f_y is None or kernel_y is None):
        raise MissingJacobian("Newton strategy requires f_y and kernel_y")
    abs_tol, rel_tol, cap = cfg.abs_tol, cfg.rel_tol, cfg.max_iterations
    half_h2, isfinite = 0.5 * h * h, math.isfinite  # (0.5*h*h)*k is 0.5*h*h*k

    def solve(x_next, known, u):
        previous = None
        try:
            for k in range(1, cap + 1):
                at = 2
                if not isfinite(f_u := float(f(x_next, u))):
                    raise _failure("returned non-finite value", (x_next, u))
                at = 3
                if not isfinite(k_u := float(kernel(x_next, u, x_next))):
                    raise _failure("returned non-finite value", (x_next, u, x_next))
                r = u - known - h * f_u - half_h2 * k_u
                if abs(r) <= abs_tol + rel_tol * abs(u):
                    return u, k_u, StepDiagnostics(k, abs(r))
                if k == cap:
                    raise NoConvergence(iterations=k, last_residual=abs(r))
                d = 1.0
                if newton:
                    at = 2
                    if not isfinite(d_f := float(f_y(x_next, u))):
                        raise _failure("returned non-finite value", (x_next, u))
                    at = 3
                    if not isfinite(d_k := float(kernel_y(x_next, u, x_next))):
                        raise _failure("returned non-finite value", (x_next, u, x_next))
                    d = 1.0 - h * d_f - half_h2 * d_k
                    if abs(d) < JACOBIAN_FLOOR:
                        raise SingularJacobian(f"Newton denominator {d:.3e} at x={x_next}")
                u_next = u - r / d
                if u_next == u or u_next == previous:
                    raise NoConvergence(iterations=k, last_residual=abs(r))
                previous, u = u, u_next
        except VidestepError:
            raise
        except Exception as exc:
            raise _failure("failed", (x_next, u, x_next)[:at]) from exc
    return solve


def _march(problem: VideProblem, mesh: Mesh, method: Method,
           cfg: ImplicitSolveConfig | None,
           ) -> tuple[np.ndarray, list[StepDiagnostics], int | None]:
    """The stepping loop of a run of both methods (see the module
    docstring). Returns the outputs, truncated after an overflowing node,
    one StepDiagnostics per step, and the overflow index or None.
    """
    check_step_count(mesh.n_steps)
    if not math.isfinite(problem.y0):
        raise NonFiniteInitialValue(f"y0 must be finite, got {problem.y0}")
    out = np.full(mesh.n_steps + 1, problem.y0, dtype=float)
    x0, h, nodes, form = mesh.x0, mesh.h, mesh.nodes(), _CallForm()
    running, implicit = not problem.kernel_depends_on_x, method == Method.IMPLICIT
    # Sum, first and last entry of the kernel row at outer node i over
    # w_0..w_i: the memory of the explicit step from node i and of the
    # implicit predictor.
    total = first = last = 0.0
    diagnostics: list[StepDiagnostics] = []
    for i in range(mesh.n_steps):
        x_i = x0 + h * i  # bitwise nodes[i]
        w_i = float(out[i])
        try:
            if running and (i == 0 or not implicit):
                # The new kernel value of node i (implicit: from the solve
                # after node 0), at out[i], a NumPy float, so that an
                # overflowing kernel yields inf and ends the run.
                last = _call(problem.kernel, x_i, out[i], x_i, inf_ok=True)
                total += last
                if i == 0:
                    first = last
            elif not (running or implicit) and i > 0:
                total, first, last = _row_sums(problem, x_i, out[: i + 1],
                                               nodes[: i + 1], form)
            memory = _trapezium(h, total, first, last) if i > 0 else 0.0
            w_next = w_i + h * _call(problem.f, x_i, w_i) + memory
            diag = _EXPLICIT_DIAGNOSTICS
            if implicit:
                x_next = x0 + h * (i + 1)
                if running:
                    row_total, row_first = total, first
                else:
                    row_total, row_first, _ = _row_sums(problem, x_next, out[: i + 1],
                                                        nodes[: i + 1], form)
                known = w_i + _trapezium(h, row_total, row_first, 0.0)
                if i == 0:  # built in the first step, so its error comes in call order
                    solve = _solver(problem, h, ImplicitSolveConfig() if cfg is None else cfg)
                w_next, last, diag = solve(x_next, known, w_next)
                total, first = row_total + last, row_first
        except VidestepError as exc:
            exc.step_index = i + 1
            raise
        diagnostics.append(diag)
        out[i + 1] = w_next
        if not math.isfinite(w_next) or abs(w_next) > OVERFLOW_CUTOFF:
            return out[: i + 2], diagnostics, i + 1
    return out, diagnostics, None


def integrate(problem: VideProblem, mesh: Mesh, method: Method,
              cfg: ImplicitSolveConfig | None = None) -> Trajectory:
    """Run a full trajectory of ``method`` over ``mesh``.

    The initial node carries y0 exactly. The kernel cost is O(n_steps)
    with ``kernel_depends_on_x=False`` (a running sum), otherwise one full
    history row per step, O(n_steps**2) (see the module docstring).

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
    w, diagnostics, overflow_at = _march(problem, mesh, method, cfg)
    return Trajectory(mesh=mesh, w=w.copy(), method=method,
                      step_diagnostics=diagnostics, overflow_at=overflow_at)


def _mapped(fn, columns: tuple, inf_ok: bool = False):
    """``fn`` at each entry of ``columns`` by one C-level ``map``, each value
    taken by float() and checked as _call checks it: the values before the
    first entry that fails, and its error or None. No call is repeated.
    """
    values, error = [], None
    try:
        values.extend(map(float, map(fn, *columns)))  # keeps what came before a raise
    except VidestepError as exc:
        error = exc
    except Exception as exc:
        error = _failure("failed", tuple(c[len(values)] for c in columns))
        error.__cause__ = exc
    out = np.array(values, dtype=float)
    for j in np.flatnonzero(np.isnan(out) if inf_ok else ~np.isfinite(out))[:1]:
        return out[:j], _failure("returned non-finite value", tuple(c[j] for c in columns))
    return out, error


def _solve_all(problem: VideProblem, x_next: np.ndarray, known: np.ndarray, u: np.ndarray,
               h: float, cfg: ImplicitSolveConfig):
    """The implicit step equations at ``x_next`` solved at once from ``u`` by
    an elementwise Newton (or fixed-point) iteration; a node retires when
    its residual test passes. Each node gets _solver's calls (by _mapped)
    and arithmetic, so its iterates and error are _solver's bit for bit.
    Returns the values before the first failing node, and its error.
    """
    f, kernel, f_y, kernel_y = problem.f, problem.kernel, problem.f_y, problem.kernel_y
    newton = cfg.strategy == SolveStrategy.NEWTON_WITH_JACOBIANS
    if newton and (f_y is None or kernel_y is None):
        return u[:0], MissingJacobian("Newton strategy requires f_y and kernel_y")
    half_h2, accepted = 0.5 * h * h, np.empty(u.size)
    # Arrays of the nodes still going, ``at`` their indices; ``failed``: the
    # first failing node so far and its error. NaN equals no iterate.
    at, previous, failed = np.arange(u.size), np.full(u.size, np.nan), [u.size, None]

    def fail(p: int, error) -> int:
        if error is not None:
            failed[:] = at[p], error
        return p

    def calls(fn, gn):  # fn(x, u), then gn(x, u, x), at each node
        xs, us = x_next.tolist(), u.tolist()
        a, e = _mapped(fn, (xs, us))
        p = fail(a.size, e)
        b, e = _mapped(gn, (xs[:p], us[:p], xs[:p]))
        return a[: b.size], b, fail(b.size, e)

    for k in range(1, cfg.max_iterations + 1):
        f_u, k_u, p = calls(f, kernel)
        with np.errstate(all="ignore"):  # as on floats: inf - inf is NaN
            r = u[:p] - known[:p] - h * f_u - half_h2 * k_u
            done = np.abs(r) <= cfg.abs_tol + cfg.rel_tol * np.abs(u[:p])
        accepted[at[:p][done]] = u[:p][done]
        going = np.flatnonzero(~done)
        at, x_next, known, u, previous, r = (a[going] for a in (at, x_next, known, u,
                                                                 previous, r))
        if at.size and k == cfg.max_iterations:
            fail(0, NoConvergence(iterations=k, last_residual=float(abs(r[0]))))
        if not at.size or k == cfg.max_iterations:
            break
        d, p = 1.0, at.size
        if newton:
            d_f, d_k, p = calls(f_y, kernel_y)
            with np.errstate(all="ignore"):
                d = 1.0 - h * d_f - half_h2 * d_k
            for j in np.flatnonzero(np.abs(d) < JACOBIAN_FLOOR)[:1]:
                p = fail(j, SingularJacobian(f"Newton denominator {d[j]:.3e} at x={x_next[j]}"))
            d = d[:p]
        with np.errstate(all="ignore"):
            u_next = u[:p] - r[:p] / d
        for j in np.flatnonzero((u_next == u[:p]) | (u_next == previous[:p]))[:1]:
            p = fail(j, NoConvergence(iterations=k, last_residual=float(abs(r[j]))))
        at, x_next, known, previous, u = at[:p], x_next[:p], known[:p], u[:p], u_next[:p]
    return accepted[: failed[0]], failed[1]


def seeded_steps(problem: VideProblem, mesh: Mesh, method: Method, values,
                 cfg: ImplicitSolveConfig | None = None) -> np.ndarray:
    """One step of ``method`` from every prefix of a given history.

    Entry i+1 is the value the method computes for node i+1 from
    values[0..i], solving the step equation on the implicit path; entry 0
    is values[0]. All steps are taken in one array pass, bit for bit as one
    at a time (see the module docstring): one call of f per node, of f, K,
    f_y and K_y per node and Newton iteration, and one kernel row over all
    ``values`` with ``kernel_depends_on_x=False``, else one per step. An
    exception gains the ``step_index`` of the first failing step. Raises
    TooManySteps (more than MAX_STEPS steps) and LengthMismatch (``values``
    does not hold one entry per mesh node).
    """
    check_step_count(mesh.n_steps)
    history = np.asarray(values, dtype=float)
    n, h = mesh.n_steps, mesh.h
    if history.size != n + 1:
        raise LengthMismatch(f"{history.size} values for {n + 1} nodes")
    implicit, running = method == Method.IMPLICIT, not problem.kernel_depends_on_x
    nodes, form = mesh.nodes(), _CallForm()
    x, v = nodes.tolist(), history.tolist()  # x[i] is x0 + h*i, bit for bit
    # Sum, first and last entry of the kernel row over v_0..v_i at x_i (rows
    # 0-2: explicit step, predictor) and at x_{i+1} (3-5: step equation).
    sums = np.zeros((6, n + 1))
    if running:
        try:  # K ignores x, so one row holds every entry K(., v_j, x_j)
            row = _kernel_row(problem, mesh.x0, history, nodes, form)
        except VidestepError as exc:
            exc.step_index = 1
            raise
        sums[[1, 4]], sums[2] = row[0], row
    # Calls are made for the steps before ``stop``, the first failed so far
    # (``error``). In step i a row at x_i comes before f, the rest after it.
    f_v, error = _mapped(problem.f, (x[:n], v[:n]))
    stop = f_v.size
    if not running:
        rows = sums[3:] if implicit else sums[:3]
        for i in range(1 - implicit, min(stop + 1 - implicit, n)):
            try:
                rows[:, i] = _row_sums(problem, x[i + implicit], history[: i + 1],
                                       nodes[: i + 1], form)
            except VidestepError as exc:
                stop, error = i, exc
                break
        if implicit:  # K(x_{i+1}, v_{i+1}, x_{i+1}) completes the row of step i+1
            new, e = _mapped(problem.kernel, (x[1: stop + 1], history[1: stop + 1],
                                              nodes[1: stop + 1]), inf_ok=True)
            if e is not None:
                stop, error = new.size, e
    out = history[: stop + 1].copy()
    with np.errstate(all="ignore"):  # as on floats: inf - inf is NaN
        if running:
            sums[[0, 3]] = np.cumsum(row)
        elif implicit:
            sums[:3, 1: stop + 1] = sums[3, :stop] + new[:stop], sums[4, :stop], new[:stop]
        memory = _trapezium(h, *sums[:3, :stop])
        memory[:1] = 0.0
        out[1:] = history[:stop] + h * f_v[:stop] + memory
        known = history[:stop] + _trapezium(h, *sums[3:5, :stop], 0.0)
    if implicit and stop:
        solved, e = _solve_all(problem, nodes[1: stop + 1], known, out[1:], h,
                               ImplicitSolveConfig() if cfg is None else cfg)
        if e is not None:
            stop, error = solved.size, e
        out[1: stop + 1] = solved
    if error is not None:
        error.step_index = stop + 1
        raise error
    return out
