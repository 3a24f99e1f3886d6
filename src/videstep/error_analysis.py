"""Error propagation analysis for the Euler-Trapezium methods.

Notation: Delta_i = w_i - y(x_i) is the global error at node i and eps_i
is the local error, the error committed by one step seeded entirely with
exact history. For the implicit method the seeded step still solves its
step equation, so its local error is measured at the solved value.

Global errors obey an exact propagation recurrence on problems linear in
y (and an O(h)-consistent one otherwise, with jacobians evaluated at
computed values as a surrogate for the unknowable Taylor points). With
the per-node amplification factors

    explicit:  alpha_i  = 1 + h*f_y(x_i, w_i) + (h**2/2)*K_y(x_i, w_i, x_i)
    implicit:  aalpha_i = (1 + h**2*K_y(x_i, w_i, x_i)) / D_{i+1},
               D_{i+1}  = 1 - h*f_y(x_{i+1}, w_{i+1})
                            - (h**2/2)*K_y(x_{i+1}, w_{i+1}, x_{i+1}),

and the memory moment s_i = sum_{j=1}^{i-1} Delta_j*K_y(x_j, w_j, x_j),
the recurrences (assuming Delta_0 = 0) read

    explicit:  Delta_{i+1} = eps_{i+1} + h**2*s_i + alpha_i*Delta_i
    implicit:  Delta_{i+1} = eps_{i+1} + (h**2/D_{i+1})*s_i + aalpha_i*Delta_i.

Running either recurrence backwards recovers the local errors from a
global error curve (recover_local_errors); running it forwards from
Delta_0 = 0 rebuilds the global errors from the local ones.

Bounding |Delta_i| by a geometric sum with uniform growth rate L and
amplitude C_tilde (|eps_tilde_i| <= C_tilde*h**2) yields the three-case
envelope

    L > 0 or L < 0:  U_i = |(C_tilde*h/L) * (exp((x_i - x0)*L) - 1)|
    L = 0:           U_i = C_tilde*(x_i - x0)*h,

where L is, for the explicit method, the node maximum of
f_y + (h/2)*K_y when that is positive somewhere and minus the maximum
magnitude when it is negative everywhere; for the implicit method the
same logic is applied to (f_y + (3h/2)*K_y)/(1 - h*f_y - (h**2/2)*K_y).
For strongly negative L the envelope plateaus at |C_tilde*h/L|. The
amplitude is estimated empirically from a run via the signed curve

    C_tilde_i*h/L = Delta_i / (exp((x_i - x0)*L) - 1)   if L != 0,
    C_tilde_i     = Delta_i / ((x_i - x0)*h)             if L = 0,

whose largest magnitude makes the bound dominate the observed errors at
every estimated node by construction.

Every formula above that involves the jacobians is evaluated from one
array evaluation of f_y and K_y over the nodes of the run, made as every
callback evaluation over nodes is (steppers._on_nodes): NaN and ±inf
values are kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Mesh, Method, Trajectory, VideProblem, check_step_count, make_mesh
from .errors import (
    ConfigurationWarning,
    DegenerateDenominator,
    InconsistentExact,
    LengthMismatch,
    MissingExact,
    MissingJacobian,
    RepeatedStep,
    SingularDenominator,
    ZeroError,
)
from .steppers import ImplicitSolveConfig, _on_nodes, integrate, seeded_steps

__all__ = [
    "ErrorSource",
    "SignCase",
    "BoundModel",
    "global_errors",
    "auto_reference",
    "growth_rate_L",
    "amplitude_curve",
    "fit_bound",
    "error_bound",
    "recover_local_errors",
    "direct_local_errors",
    "pairwise_order",
    "endpoint_error",
]

# |L| at or below this selects the Zero bound branch; below rounding noise
# the geometric-sum formula is numerically meaningless. Propagation
# denominators at or below it in magnitude are singular.
ZERO_L_TOL = 1e-14

# Nodes whose estimation denominator |exp((x-x0)L) - 1| falls below this
# are skipped (0/0 at the left endpoint).
DENOMINATOR_FLOOR = 1e-12

# exact(x0) may differ from y0 by this much, relative to max(1, |y0|):
# rounding in the closed form, not a solution that starts elsewhere.
EXACT_START_RTOL = 1e-12

# Stepsize divisors k of the runs at h/k behind a reference, each level
# halving the step of the one before (see auto_reference): the last two
# give the reference, the first its error estimate.
REFERENCE_LEVELS = (5, 10, 20)


class ErrorSource(str, Enum):
    """What the global errors were measured against."""

    AGAINST_EXACT = "against-exact"
    AGAINST_REFERENCE_RUN = "against-reference-run"


class SignCase(str, Enum):
    """Which branch of the global bound applies."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"


@dataclass(frozen=True)
class BoundModel:
    """Fitted global-error envelope: growth rate, amplitude, and branch.

    ``C_tilde`` is the amplitude max|C_tilde_i| (non-negative); in the
    Zero case it is estimated directly, otherwise it is the running
    maximum over all estimated nodes, initial transient included, of
    |C_tilde_i*h/L|, rescaled by |L|/h.
    """

    L: float
    C_tilde: float
    sign_case: SignCase
    h: float


def _exact_on(problem: VideProblem, nodes: np.ndarray) -> np.ndarray:
    """The exact solution at ``nodes``, whose first entry is x0, checked
    to start at y0 to within EXACT_START_RTOL."""
    y = _on_nodes(problem.exact, "exact", (nodes,))
    if not abs(y[0] - problem.y0) <= EXACT_START_RTOL * max(1.0, abs(problem.y0)):
        raise InconsistentExact(f"exact solution is {float(y[0])!r} at x0 = {float(nodes[0])!r}, "
                                f"not y0 = {problem.y0!r}")
    return y


def global_errors(trajectory: Trajectory, problem: VideProblem,
                  reference: Trajectory | None = None) -> np.ndarray:
    """Signed global errors Delta_i = w_i - y(x_i) per node.

    Uses the problem's exact solution when present, otherwise the supplied
    reference trajectory (such as auto_reference builds: the same method
    on the same interval, stepsize an integer divisor of this run's). For
    a truncated (overflowed) run the errors cover the emitted nodes only.

    Raises
    ------
    MissingExact
        Neither an exact solution nor a reference trajectory is available.
    InconsistentExact
        The exact solution does not start at y0 (see EXACT_START_RTOL).
    LengthMismatch
        The reference trajectory does not align with this run's nodes.
    """
    w = trajectory.w
    nodes = trajectory.mesh.nodes()[: w.size]
    if problem.exact is not None:
        return w - _exact_on(problem, nodes)
    if reference is None:
        raise MissingExact("problem has no exact solution and no reference run given")
    rmesh = reference.mesh
    mesh = trajectory.mesh
    ratio = int(round(mesh.h / rmesh.h))
    if (
        ratio < 1
        or abs(ratio * rmesh.h - mesh.h) > 1e-9 * mesh.h
        or abs(rmesh.x0 - mesh.x0) > 1e-12 * max(1.0, abs(mesh.x0))
        or reference.w.size <= ratio * (w.size - 1)
    ):
        raise LengthMismatch("reference run does not align with the trajectory nodes")
    return w - reference.w[: ratio * w.size : ratio]


def auto_reference(problem: VideProblem, trajectory: Trajectory,
                   cfg: ImplicitSolveConfig | None = None) -> Trajectory:
    """Reference for a problem without exact solution: the trajectory's
    method over the same interval at h/5, h/10 and h/20, extrapolated.

    Both methods are first order, w_h = y + h*e(x) + O(h**2), so
    R = 2*w_{h/20} - w_{h/10} on the h/10 mesh is second order. One level
    coarser, 2*w_{h/10} - w_{h/5} is off by about 4 times R's error, so
    ``error_estimate`` is max|(2*w_{h/10} - w_{h/5}) - R| / 3 over the
    h/5 nodes. The result carries the h/10 run's step diagnostics. When a
    level stops at an overflow, the reference ends at, and ``overflow_at``
    names, the last h/10 node every level reached. The runs take
    35*n_steps steps, one kernel evaluation each on the explicit
    running-sum path and about 262.5*n_steps**2 in all on the full-row path.
    """
    mesh = trajectory.mesh
    coarse, mid, fine = (integrate(problem, make_mesh(mesh.x0, mesh.xf, mesh.h / k),
                                   trajectory.method, cfg) for k in REFERENCE_LEVELS)
    n = min(mid.w.size, (fine.w.size + 1) // 2, 2 * coarse.w.size - 1)
    w = 2.0 * fine.w[: 2 * n - 1 : 2] - mid.w[:n]
    coarser = 2.0 * mid.w[:n:2] - coarse.w[: (n + 1) // 2]
    overflowed = any(run.overflow_at is not None for run in (coarse, mid, fine))
    return Trajectory(mesh=mid.mesh, w=w, method=trajectory.method,
                      step_diagnostics=mid.step_diagnostics[: n - 1],
                      overflow_at=n - 1 if overflowed else None,
                      error_estimate=float(np.max(np.abs(coarser - w[::2]))) / 3.0)


def _jacobians(problem: VideProblem, trajectory: Trajectory):
    """The nodes of a run; f_y(x_i, w_i) and K_y(x_i, w_i, x_i) there, one
    evaluation each; and D_i = 1 - h*f_y - (h**2/2)*K_y at the same nodes."""
    if problem.f_y is None or problem.kernel_y is None:
        raise MissingJacobian("operation requires f_y and kernel_y")
    w = trajectory.w
    h = trajectory.mesh.h
    nodes = trajectory.mesh.nodes()[: w.size]
    fy = _on_nodes(problem.f_y, "f_y", (nodes, w))
    ky = _on_nodes(problem.kernel_y, "kernel_y", (nodes, w, nodes))
    return nodes, fy, ky, 1.0 - h * fy - 0.5 * h * h * ky


def _nonsingular(den: np.ndarray, nodes: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(np.abs(den) <= ZERO_L_TOL)
    if bad.size:
        i = bad[0]
        raise SingularDenominator(f"{what} denominator {den[i]:.3e} at x={nodes[i]}")


def _coefficients(trajectory: Trajectory, nodes, fy, ky, den) -> np.ndarray:
    """Per-node amplification factors along a run, from _jacobians.
    Explicit: alpha_i for every node. Implicit: aalpha_i pairs node i with
    D_{i+1}, so the final entry is NaN; SingularDenominator when some
    |D_{i+1}| is at or below 1e-14."""
    h = trajectory.mesh.h
    if trajectory.method == Method.EXPLICIT:
        return 1.0 + h * fy + 0.5 * h * h * ky
    _nonsingular(den[1:], nodes[1:], "propagation")
    alphas = np.full(ky.size, np.nan)
    alphas[:-1] = (1.0 + h * h * ky[:-1]) / den[1:]
    return alphas


def growth_rate_L(problem: VideProblem, trajectory: Trajectory) -> float:
    """Growth rate L of the global bound, from per-node jacobian data.

    Explicit: the node maximum of g_i = f_y + (h/2)*K_y when positive
    somewhere; when negative everywhere, minus the maximum magnitude.
    Implicit: the same selection applied to the per-node values of
    (f_y + (3h/2)*K_y) / (1 - h*f_y - (h**2/2)*K_y), which reduces to the
    constant-coefficient formula on problems with constant jacobians and
    is a documented heuristic otherwise.
    """
    nodes, fy, ky, den = _jacobians(problem, trajectory)
    h = trajectory.mesh.h
    if trajectory.method == Method.EXPLICIT:
        g = fy + 0.5 * h * ky
    else:
        _nonsingular(den, nodes, "growth-rate")
        g = (fy + 1.5 * h * ky) / den
    g_max = float(np.max(g))
    g_abs_max = float(np.max(np.abs(g)))
    if g_max > ZERO_L_TOL:
        return g_max
    if g_abs_max <= ZERO_L_TOL:
        return 0.0
    return -g_abs_max


def amplitude_curve(deltas, L: float, mesh: Mesh) -> np.ndarray:
    """Signed per-node amplitude curve of the global bound.

    For L != 0, C_tilde_i*h/L = Delta_i / (exp((x_i - x0)*L) - 1), NaN
    where the denominator's magnitude is at or below 1e-12 (node 0
    always). For L == 0, the Zero case, C_tilde_i = Delta_i /
    ((x_i - x0)*h), NaN at node 0. The curve crosses zero exactly where
    the global error does; fit_bound estimates the amplitude from its
    absolute value.

    Raises
    ------
    DegenerateDenominator
        Every node is excluded, as when 0 < |L| is too small for any
        node's denominator to clear 1e-12.
    """
    deltas = np.asarray(deltas, dtype=float)
    xs = mesh.nodes()[: deltas.size] - mesh.x0
    if L == 0.0:
        den = xs * mesh.h
        mask = den > 0.0
    else:
        den = np.expm1(L * xs)
        mask = np.abs(den) > DENOMINATOR_FLOOR
    if not mask.any():
        raise DegenerateDenominator(
            f"no node to estimate the amplitude from (L = {L:.3g})")
    curve = np.full(deltas.size, np.nan)
    curve[mask] = deltas[mask] / den[mask]
    return curve


def fit_bound(problem: VideProblem, trajectory: Trajectory,
              deltas) -> tuple[BoundModel, np.ndarray]:
    """Fit the three-case bound to a run: growth rate, amplitude, branch.

    Returns the model together with the per-node estimation curve, the
    absolute value of amplitude_curve (|C_tilde_i*h/L|, or |C_tilde_i| in
    the Zero case). Warns with ConfigurationWarning when the Negative
    branch's stepsize condition 1 + h*L > 0 fails, in which case the
    bound is reported but not meaningful.
    """
    L = growth_rate_L(problem, trajectory)
    h = trajectory.mesh.h
    if abs(L) <= ZERO_L_TOL:
        L = 0.0
    curve = np.abs(amplitude_curve(deltas, L, trajectory.mesh))
    c_max = float(np.nanmax(curve))
    if L == 0.0:
        return BoundModel(L=0.0, C_tilde=c_max, sign_case=SignCase.ZERO, h=h), curve
    if L > 0.0:
        case = SignCase.POSITIVE
    else:
        case = SignCase.NEGATIVE
        if 1.0 + h * L <= 0.0:
            warnings.warn(
                f"1 + h*L = {1.0 + h * L:.3g} <= 0: stepsize too large for the "
                "negative-case bound to hold",
                ConfigurationWarning,
                stacklevel=2,
            )
    amplitude = c_max * abs(L) / h
    return BoundModel(L=L, C_tilde=amplitude, sign_case=case, h=h), curve


def error_bound(model: BoundModel, mesh: Mesh) -> np.ndarray:
    """Bound curve U_i at every mesh node.

    Positive/Negative: U_i = |(C_tilde*h/L) * (exp((x_i - x0)*L) - 1)|;
    Zero: U_i = C_tilde*(x_i - x0)*h. U_0 = 0 in every case. For strongly
    negative L the curve plateaus at |C_tilde*h/L|.
    """
    xs = mesh.nodes()
    if model.sign_case == SignCase.ZERO:
        return model.C_tilde * (xs - mesh.x0) * model.h
    return np.abs(model.C_tilde * model.h / model.L * np.expm1(model.L * (xs - mesh.x0)))


def recover_local_errors(deltas, problem: VideProblem,
                         trajectory: Trajectory) -> np.ndarray:
    """Run the propagation recurrence backwards: local errors from global ones.

    Explicit: eps_{i+1} = Delta_{i+1} - alpha_i*Delta_i - h**2*s_i, so
    eps_1 = Delta_1 and eps_2 = Delta_2 - alpha_1*Delta_1. Implicit:
    eps_{i+1} = Delta_{i+1} - aalpha_i*Delta_i - (h**2/D_{i+1})*s_i.
    Exact on problems linear in y; jacobians are evaluated at computed
    values otherwise. Entry 0 is 0.
    """
    nodes, fy, ky, den = _jacobians(problem, trajectory)
    deltas = np.asarray(deltas, dtype=float)
    w = trajectory.w
    if deltas.size != w.size:
        raise LengthMismatch(f"{deltas.size} deltas for {w.size} nodes")
    h = trajectory.mesh.h
    alphas = _coefficients(trajectory, nodes, fy, ky, den)
    # Memory moments s_i = sum_{j=1}^{i-1} Delta_j*K_y(x_j, w_j, x_j),
    # accumulated from s_0 = s_1 = 0.
    q = deltas * ky
    q[0] = 0.0
    s = np.zeros(w.size)
    s[1:] = np.cumsum(q[:-1])
    memory = h * h * s[:-1]
    if trajectory.method == Method.IMPLICIT:
        memory = memory / den[1:]
    eps = np.zeros(w.size)
    eps[1:] = deltas[1:] - alphas[:-1] * deltas[:-1] - memory
    return eps


def direct_local_errors(problem: VideProblem, mesh: Mesh, method: Method,
                        cfg: ImplicitSolveConfig | None = None) -> np.ndarray:
    """Local errors measured directly: one step from exact history, minus exact.

    eps_{i+1} = M(y(x_0)..y(x_i)) - y(x_{i+1}) with M the selected method;
    the implicit M solves its step equation seeded with the true history.
    Entry 0 is 0. O(h**2) per entry on smooth problems. Costs O(n_steps)
    kernel evaluations when the problem declares
    ``kernel_depends_on_x=False``, one row per step otherwise. Raises
    InconsistentExact when the exact solution does not start at y0.
    """
    if problem.exact is None:
        raise MissingExact("direct local errors need the exact solution")
    check_step_count(mesh.n_steps)
    y = _exact_on(problem, mesh.nodes())
    eps = seeded_steps(problem, mesh, method, y, cfg) - y
    eps[0] = 0.0
    return eps


def _log_step_ratio(h1: float, h2: float) -> float:
    """ln(h1/h2); RepeatedStep when it is 0, as for equal stepsizes."""
    log_ratio = math.log(h1 / h2)
    if log_ratio == 0.0:
        raise RepeatedStep(f"stepsizes {float(h1)!r} and {float(h2)!r} are equal "
                           "(ln(h1/h2) = 0); order undefined")
    return log_ratio


def pairwise_order(err1: float, err2: float, h1: float, h2: float) -> float:
    """Observed order p = ln(err1/err2) / ln(h1/h2) from two error magnitudes.

    Raises RepeatedStep when h1/h2 is 1 (ln(h1/h2) = 0), and ZeroError
    when either magnitude is below 1e-15 (the ratio is then rounding
    noise) or is not finite, so that the order is undefined.
    """
    log_ratio = _log_step_ratio(h1, h2)
    err1, err2 = abs(err1), abs(err2)
    if not (err1 < math.inf and err2 < math.inf):
        raise ZeroError(f"error magnitudes {err1!r} and {err2!r}; order undefined")
    if err1 < 1e-15 or err2 < 1e-15:
        raise ZeroError("error magnitude below 1e-15; order undefined")
    return math.log(err1 / err2) / log_ratio


def endpoint_error(problem: VideProblem, mesh: Mesh, method: Method,
                   cfg: ImplicitSolveConfig | None = None) -> float:
    """Signed global error at x_d = mesh.xf from one run on ``mesh``, against
    auto_reference's extrapolated reference when the problem has no exact
    solution. ZeroError when the run diverges before x_d, or y(x_d) is not finite.
    """
    trajectory = integrate(problem, mesh, method, cfg)
    if trajectory.overflow_at is not None:
        raise ZeroError("trajectory diverged before x_d; error there undefined")
    reference = None
    if problem.exact is None:
        reference = auto_reference(problem, trajectory, cfg)
    delta = float(global_errors(trajectory, problem, reference)[-1])
    if not math.isfinite(delta):
        raise ZeroError(f"w - y at x_d = {mesh.xf!r} is {delta!r}: the run is finite, the "
                        f"{'exact solution' if reference is None else 'reference'} is not")
    return delta
