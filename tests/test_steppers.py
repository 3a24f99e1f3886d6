import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videstep import (
    ImplicitSolveConfig,
    InvalidSolveConfig,
    KernelCallMismatch,
    LengthMismatch,
    Method,
    MissingJacobian,
    NoConvergence,
    NonFiniteInitialValue,
    OVERFLOW_CUTOFF,
    SingularJacobian,
    SolveStrategy,
    StepEvaluationError,
    TestEquationParams,
    VideProblem,
    VidestepError,
    constant_kernel,
    cubic_kernel,
    direct_local_errors,
    integrate,
    make_mesh,
    pure_ode,
    seeded_steps,
    test_equation,
)
from videstep import steppers


def identity_problem():
    return VideProblem(
        f=lambda x, y: 0.0,
        kernel=lambda x, y, t: 0.0 * y,
        y0=2.0,
        f_y=lambda x, y: 0.0,
        kernel_y=lambda x, y, t: 0.0,
    )


def step_from(problem, values, mesh, method, cfg=None):
    """The value ``method`` computes for node k from ``values`` = v_0..v_{k-1}:
    entry k of seeded_steps over them, padded with their last value to one
    entry per mesh node (the padding plays no part in that step)."""
    values = np.asarray(values, dtype=float)
    history = np.pad(values, (0, mesh.n_steps + 1 - values.size), mode="edge")
    return seeded_steps(problem, mesh, method, history, cfg)[values.size]


def memory(problem, values, mesh):
    """S(i, i; values) for i = len(values) - 1, the memory term of the
    explicit step from node i: that step with f = 0, less values[i]."""
    zero_f = dataclasses.replace(problem, f=lambda x, y: 0.0)
    return step_from(zero_f, values, mesh, Method.EXPLICIT) - values[-1]


# --- memory term (the trapezium history sum) -----------------------------------


@pytest.mark.parametrize("kernel", [
    lambda x, y, t: 1e6 * np.ones_like(np.asarray(y, dtype=float)),
    lambda x, y, t: -3.0 * y,
    lambda x, y, t: np.exp(y) + x * t,
])
def test_history_sum_first_node_is_exactly_zero(kernel):
    # trapezium weights cancel at node 0: 2K - K - K, whatever K is
    problem = VideProblem(f=lambda x, y: 0.0, kernel=kernel, y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    assert memory(problem, [1.0], mesh) == 0.0


@given(i=st.integers(min_value=1, max_value=40),
       h=st.floats(min_value=1e-3, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_history_sum_constant_kernel_closed_form(i, h):
    # K = 1: (h**2/2)*(2*(i+1) - 2) = i*h**2, independent of the values;
    # the step adds it to values[i], which rounds by at most one ulp
    problem = constant_kernel()
    mesh = make_mesh(0.0, 41 * h, h)
    values = np.linspace(1.0, 2.0, i + 1)
    got = memory(problem, values, mesh)
    assert got == pytest.approx(i * h * h, rel=1e-13, abs=math.ulp(values[-1] + got))


def test_history_sum_worked_example():
    # gamma=-2, h=0.1, values {2, 1.9, 1.8}:
    # (h**2/2)*gamma*(2*(2+1.9+1.8) - 2 - 1.8) = 0.005*(-2)*7.6 = -0.076
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    mesh = make_mesh(0.0, 1.0, 0.1)
    got = memory(problem, [2.0, 1.9, 1.8], mesh)
    assert got == pytest.approx(-0.076, rel=1e-13)


def test_history_sum_matches_independent_trapezium():
    # h * (composite trapezium of the kernel row) re-derived without the
    # weighted-sum form
    params = TestEquationParams(lam=-1.0, gamma=-2.0)
    problem = test_equation(params)
    mesh = make_mesh(0.0, 1.0, 0.1)
    values = np.array([2.0, 1.9, 1.8, 1.75])
    nodes = mesh.nodes()[:4]
    row = params.gamma * values
    expected = mesh.h * np.trapezoid(row, nodes)
    got = memory(problem, values, mesh)
    assert got == pytest.approx(expected, rel=1e-13)


def test_history_sum_scalar_only_kernel_falls_back():
    # a kernel using math.* cannot take arrays; results must agree anyway
    vec = VideProblem(f=lambda x, y: 0.0,
                      kernel=lambda x, y, t: np.exp(-y) + t, y0=1.0)
    scl = VideProblem(f=lambda x, y: 0.0,
                      kernel=lambda x, y, t: math.exp(-y) + t, y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    values = np.array([1.0, 0.9, 0.8])
    a = memory(vec, values, mesh)
    b = memory(scl, values, mesh)
    assert a == pytest.approx(b, rel=1e-15)


# --- explicit step ----------------------------------------------------------


def test_explicit_step_worked_example():
    # lam=-1, gamma=-2, h=0.005, w0=2: w1 = 2 + 0.005*(-1)*(2-1) = 1.995
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    mesh = make_mesh(0.0, 0.05, 0.005)
    got = step_from(problem, [2.0], mesh, Method.EXPLICIT)
    assert got == pytest.approx(1.995, rel=1e-14)


def test_explicit_first_step_has_no_kernel_term():
    # even a large kernel contributes nothing at i=0
    huge = VideProblem(f=lambda x, y: -y,
                       kernel=lambda x, y, t: 1e9 * np.ones_like(np.asarray(y, dtype=float)),
                       y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    assert step_from(huge, [1.0], mesh, Method.EXPLICIT) == pytest.approx(1.0 + 0.1 * (-1.0))


def test_explicit_step_identity_dynamics():
    mesh = make_mesh(0.0, 1.0, 0.1)
    assert step_from(identity_problem(), [2.0, 2.0], mesh, Method.EXPLICIT) == 2.0


def test_explicit_step_constant_rhs():
    problem = VideProblem(f=lambda x, y: 1.0,
                          kernel=lambda x, y, t: 0.0 * y, y0=3.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    got = step_from(problem, [3.0, 3.1], mesh, Method.EXPLICIT)
    assert got == pytest.approx(3.2, rel=1e-14)


def test_explicit_step_wraps_callback_failure():
    bad = VideProblem(f=lambda x, y: 1.0 / 0.0,
                      kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    with pytest.raises(StepEvaluationError):
        step_from(bad, [1.0], mesh, Method.EXPLICIT)


def test_explicit_step_rejects_nonfinite_callback():
    bad = VideProblem(f=lambda x, y: float("nan"),
                      kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    with pytest.raises(StepEvaluationError):
        step_from(bad, [1.0], mesh, Method.EXPLICIT)


# --- implicit step ----------------------------------------------------------


def first_implicit_step(problem, mesh, cfg=None):
    """The first implicit step from y0 and its solve diagnostics, from a run;
    the same value is the first step seeded with [y0]."""
    trajectory = integrate(problem, mesh, Method.IMPLICIT, cfg)
    assert trajectory.w[1] == step_from(problem, [problem.y0], mesh, Method.IMPLICIT, cfg)
    return trajectory.w[1], trajectory.step_diagnostics[0]


def test_implicit_step_linear_closed_form():
    # lam=-1, gamma=-2, h=0.1, w0=2: the step equation is linear,
    # 1.11*u = 2.08, solved exactly without iteration
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    mesh = make_mesh(0.0, 1.0, 0.1)
    w1, diag = first_implicit_step(problem, mesh)
    assert w1 == pytest.approx(2.08 / 1.11, rel=1e-11)
    assert diag.iterations == 2
    assert diag.last_residual <= 1e-14 + 1e-12 * abs(w1)


def test_implicit_step_identity_dynamics_one_iteration():
    mesh = make_mesh(0.0, 1.0, 0.1)
    w1, diag = first_implicit_step(identity_problem(), mesh)
    assert w1 == 2.0
    assert diag.iterations == 1


def test_implicit_step_residual_contract():
    # re-derive R(u) independently and check the accepted value satisfies it
    params = TestEquationParams(lam=-1.0, gamma=-2.0)
    problem = test_equation(params)
    mesh = make_mesh(0.0, 1.0, 0.1)
    values = [2.0, 1.87]
    cfg = ImplicitSolveConfig()
    u = step_from(problem, values, mesh, Method.IMPLICIT, cfg)
    h = mesh.h
    x2 = mesh.nodes()[2]
    kernel_row = params.gamma * np.array([2.0, 1.87])
    residual = (u - values[1] - h * params.lam * (u - 1.0)
                - 0.5 * h * h * (2.0 * kernel_row.sum() - kernel_row[0]
                                 + params.gamma * u))
    assert x2 == pytest.approx(0.2)
    assert abs(residual) <= cfg.abs_tol + cfg.rel_tol * abs(u)


def test_implicit_step_stiff_stays_bounded_where_explicit_grows():
    problem = test_equation(TestEquationParams(lam=-100.0, gamma=-200.0))
    mesh = make_mesh(0.0, 2.0, 0.05)
    w1_implicit = step_from(problem, [2.0], mesh, Method.IMPLICIT)
    w1_explicit = step_from(problem, [2.0], mesh, Method.EXPLICIT)
    assert abs(w1_implicit) <= 2.0
    assert abs(w1_explicit) > 2.0


def test_implicit_fixed_point_matches_newton():
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    mesh = make_mesh(0.0, 1.0, 0.1)
    newton, _ = first_implicit_step(
        problem, mesh, ImplicitSolveConfig(strategy=SolveStrategy.NEWTON_WITH_JACOBIANS))
    fixed, diag = first_implicit_step(
        problem, mesh, ImplicitSolveConfig(strategy=SolveStrategy.FIXED_POINT))
    assert fixed == pytest.approx(newton, abs=1e-10)
    assert diag.iterations > 2  # contraction is slower than Newton


def test_implicit_fixed_point_needs_no_jacobians():
    problem = VideProblem(f=lambda x, y: -y,
                          kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    w1 = step_from(problem, [1.0], mesh, Method.IMPLICIT,
                   ImplicitSolveConfig(strategy=SolveStrategy.FIXED_POINT))
    assert w1 == pytest.approx(1.0 / 1.1, rel=1e-10)


def test_implicit_newton_requires_jacobians():
    problem = VideProblem(f=lambda x, y: -y,
                          kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    with pytest.raises(MissingJacobian):
        step_from(problem, [1.0], mesh, Method.IMPLICIT)


def test_implicit_no_convergence_reports_state():
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    mesh = make_mesh(0.0, 1.0, 0.1)
    with pytest.raises(NoConvergence) as excinfo:
        step_from(problem, [2.0], mesh, Method.IMPLICIT,
                  ImplicitSolveConfig(max_iterations=1))
    assert excinfo.value.iterations == 1
    assert excinfo.value.last_residual > 0.0


def test_implicit_singular_jacobian():
    # f_y = 1/h makes the Newton denominator exactly zero
    h = 0.1
    problem = VideProblem(f=lambda x, y: y / h,
                          kernel=lambda x, y, t: 0.0 * y, y0=1.0,
                          f_y=lambda x, y: 1.0 / h,
                          kernel_y=lambda x, y, t: 0.0)
    mesh = make_mesh(0.0, 1.0, h)
    with pytest.raises(SingularJacobian):
        step_from(problem, [1.0], mesh, Method.IMPLICIT)


def test_implicit_stalled_iterate_stops_at_once():
    # tolerances below rounding: the iterate stops changing while the
    # residual stays above them, so the solve stops long before the cap
    cfg = ImplicitSolveConfig(rel_tol=5e-324, abs_tol=5e-324, max_iterations=10**6)
    with pytest.raises(NoConvergence) as excinfo:
        integrate(cubic_kernel(), make_mesh(0.0, 1.0, 0.5), Method.IMPLICIT, cfg)
    assert excinfo.value.iterations < 100
    assert 0.0 < excinfo.value.last_residual < 1e-15
    assert excinfo.value.step_index == 1


def test_implicit_two_cycle_stops_at_once():
    # f = -2y at h = 0.5: the fixed-point update is u -> 1 - u, which from
    # the predictor 0 cycles 0, 1, 0, ... with residuals -1, 1, -1, ...
    problem = VideProblem(f=lambda x, y: -2.0 * y, kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    cfg = ImplicitSolveConfig(max_iterations=10**6, strategy=SolveStrategy.FIXED_POINT)
    with pytest.raises(NoConvergence) as excinfo:
        step_from(problem, [1.0], make_mesh(0.0, 1.0, 0.5), Method.IMPLICIT, cfg)
    assert excinfo.value.iterations == 2
    assert excinfo.value.last_residual == 1.0


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0},
    {"abs_tol": -1.0},
    {"max_iterations": 0},
    {"rel_tol": math.nan},
    {"abs_tol": math.nan},
    {"max_iterations": 2.5},
    {"max_iterations": math.inf},
    {"strategy": "bogus"},
    {"rel_tol": "1e-3"},
])
def test_solve_config_validation(kwargs):
    # typed as a package error, and still a ValueError
    with pytest.raises(InvalidSolveConfig):
        ImplicitSolveConfig(**kwargs)
    assert issubclass(InvalidSolveConfig, VidestepError)
    assert issubclass(InvalidSolveConfig, ValueError)


def test_solve_config_reads_strategy_by_value():
    assert ImplicitSolveConfig(strategy="fixed-point").strategy is SolveStrategy.FIXED_POINT
    assert ImplicitSolveConfig().strategy is SolveStrategy.NEWTON_WITH_JACOBIANS


# --- integrate --------------------------------------------------------------


def test_integrate_initial_node_is_exact():
    problem = pure_ode(y0=0.3)
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)
    assert trajectory.w[0] == 0.3
    assert trajectory.w.size == 11
    assert len(trajectory.step_diagnostics) == 10


def test_integrate_identity_dynamics_constant_trajectory():
    trajectory = integrate(identity_problem(), make_mesh(0.0, 1.0, 0.1),
                           Method.EXPLICIT)
    assert np.all(trajectory.w == 2.0)


def test_integrate_explicit_tracks_exact_solution():
    # lam=-1, gamma=-2, h=5e-3 on [0,5]: global error stays under 5e-2
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    mesh = make_mesh(0.0, 5.0, 5e-3)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    exact = problem.exact(mesh.nodes())
    assert float(np.max(np.abs(trajectory.w - exact))) < 5e-2


def test_integrate_explicit_diagnostics_are_zero():
    problem = pure_ode()
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)
    assert all(d.iterations == 0 for d in trajectory.step_diagnostics)


def test_integrate_stiff_explicit_diverges_at_paper_scale():
    # lam=-100, gamma=-200, h=5e-2 on [0,5]: growth reaches ~1e61
    problem = test_equation(TestEquationParams(lam=-100.0, gamma=-200.0))
    mesh = make_mesh(0.0, 5.0, 5e-2)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    errors = trajectory.w - problem.exact(mesh.nodes()[: trajectory.w.size])
    peak = float(np.max(np.abs(errors)))
    assert 1e55 < peak < 1e70


def test_integrate_overflow_truncates_and_records():
    # w_{i+1} = 1001*w_i crosses 1e300 at step 100
    problem = VideProblem(f=lambda x, y: 1e3 * y,
                          kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    trajectory = integrate(problem, make_mesh(0.0, 120.0, 1.0), Method.EXPLICIT)
    assert trajectory.overflow_at == 100
    assert trajectory.w.size == 101
    assert abs(trajectory.w[-1]) > OVERFLOW_CUTOFF
    assert np.all(np.isfinite(trajectory.w))
    assert np.all(np.abs(trajectory.w[:-1]) <= OVERFLOW_CUTOFF)


def test_integrate_annotates_failing_step():
    def f(x, y):
        if x > 0.45:
            raise ValueError("boom")
        return -y

    problem = VideProblem(f=f, kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    with pytest.raises(StepEvaluationError) as excinfo:
        integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)
    # x_5 = 0.5 is the first rejected abscissa, consumed computing node 6
    assert excinfo.value.step_index == 6


def test_integrate_implicit_linear_iteration_counts():
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.IMPLICIT)
    assert all(d.iterations == 2 for d in trajectory.step_diagnostics)


# --- Euler equivalence for a vanishing kernel -------------------------------


def euler_explicit(f, y0, mesh):
    w = np.empty(mesh.n_steps + 1)
    w[0] = y0
    for i in range(mesh.n_steps):
        w[i + 1] = w[i] + mesh.h * f(mesh.nodes()[i], w[i])
    return w


def test_explicit_reduces_to_euler_without_kernel():
    problem = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 2.0, 0.05)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    oracle = euler_explicit(lambda x, y: -y, 1.0, mesh)
    assert float(np.max(np.abs(trajectory.w - oracle))) <= 1e-12


def test_implicit_reduces_to_backward_euler_without_kernel():
    # y' = -y: backward Euler has the closed form w_{i+1} = w_i/(1+h)
    problem = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 2.0, 0.05)
    trajectory = integrate(problem, mesh, Method.IMPLICIT)
    oracle = np.array([1.0 / (1.0 + mesh.h) ** i for i in range(mesh.n_steps + 1)])
    assert float(np.max(np.abs(trajectory.w - oracle))) <= 1e-12


# --- running-sum memory term -------------------------------------------------


BUILTINS = {
    "test-equation": lambda: test_equation(TestEquationParams(lam=-1.0, gamma=-2.0)),
    "pure-ode": pure_ode,
    "constant-kernel": constant_kernel,
    "cubic-kernel": lambda: cubic_kernel(y0=1.5),
}


@pytest.mark.parametrize("strategy", list(SolveStrategy))
@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("problem_id", sorted(BUILTINS))
def test_running_sum_matches_full_row(problem_id, method, strategy):
    # the built-ins declare that K ignores x; the full-row path must give
    # the same trajectory up to summation order, with the same solve cost
    problem = BUILTINS[problem_id]()
    assert problem.kernel_depends_on_x is False
    full_row = dataclasses.replace(problem, kernel_depends_on_x=True)
    mesh = make_mesh(0.0, 5.0, 0.01)
    cfg = ImplicitSolveConfig(strategy=strategy)
    fast = integrate(problem, mesh, method, cfg)
    slow = integrate(full_row, mesh, method, cfg)
    assert fast.overflow_at is None and slow.overflow_at is None
    assert np.all(np.abs(fast.w - slow.w) <= 1e-12 * np.maximum(1.0, np.abs(slow.w)))
    assert ([d.iterations for d in fast.step_diagnostics]
            == [d.iterations for d in slow.step_diagnostics])


def counting_cubic(depends_on_x):
    """The cubic kernel problem with a counter of kernel node evaluations."""
    count = [0]
    problem = cubic_kernel(y0=1.5)

    def kernel(x, y, t):
        count[0] += np.size(y)
        return -(y**3)

    return dataclasses.replace(problem, kernel=kernel,
                               kernel_depends_on_x=depends_on_x), count


@pytest.mark.parametrize("method", list(Method))
def test_kernel_evaluations_grow_linearly_on_running_sum(method):
    def evaluations(depends_on_x, h):
        problem, count = counting_cubic(depends_on_x)
        integrate(problem, make_mesh(0.0, 2.0, h), method)
        return count[0]

    running = [evaluations(False, h) for h in (0.01, 0.005)]
    full_row = [evaluations(True, h) for h in (0.01, 0.005)]
    assert running[1] <= 2 * running[0]
    assert full_row[1] >= 3.5 * full_row[0]


# y' = -y + int x*y(t) dt: the kernel depends on the outer abscissa
X_KERNEL = VideProblem(f=lambda x, y: -y, kernel=lambda x, y, t: x * y, y0=1.0,
                       f_y=lambda x, y: -1.0, kernel_y=lambda x, y, t: x)


def hand_rolled_x_kernel(h, n, implicit):
    """y' = -y + int x*y(t) dt by the O(n**2) trapezium loop; the step
    equation is linear in u, so the implicit step is solved in closed form."""
    x = h * np.arange(n + 1)
    w = np.empty(n + 1)
    w[0] = 1.0
    for i in range(n):
        if implicit:
            xn = x[i + 1]
            known = w[i] + 0.5 * h * h * xn * (2.0 * np.sum(w[: i + 1]) - w[0])
            w[i + 1] = known / (1.0 + h - 0.5 * h * h * xn)
        else:
            row = x[i] * w[: i + 1]
            w[i + 1] = w[i] - h * w[i] + h * h * (np.sum(row) - 0.5 * row[0] - 0.5 * row[-1])
    return w


@pytest.mark.parametrize("method", list(Method))
def test_x_dependent_kernel_matches_hand_rolled_trapezium(method):
    mesh = make_mesh(0.0, 3.0, 0.01)
    trajectory = integrate(X_KERNEL, mesh, method)
    oracle = hand_rolled_x_kernel(mesh.h, mesh.n_steps, method == Method.IMPLICIT)
    np.testing.assert_allclose(trajectory.w, oracle, rtol=1e-12, atol=1e-12)


def test_diverging_builtin_truncates_without_raising():
    # the kernel value overflows to inf in the running sum; the next node
    # is non-finite and the run ends there instead of raising
    problem = cubic_kernel(y0=-1e40)
    with np.errstate(over="ignore", invalid="ignore"):
        trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.01), Method.EXPLICIT)
    assert trajectory.overflow_at == 3
    assert trajectory.w.size == 4
    assert len(trajectory.step_diagnostics) == 3


@pytest.mark.parametrize("method", list(Method))
def test_running_sum_annotates_failing_kernel(method):
    def kernel(x, y, t):
        if x > 0.45:
            raise ValueError("boom")
        return -y

    problem = VideProblem(f=lambda x, y: -y, kernel=kernel, y0=1.0,
                          kernel_depends_on_x=False, f_y=lambda x, y: -1.0,
                          kernel_y=lambda x, y, t: -1.0)
    with pytest.raises(StepEvaluationError) as excinfo:
        integrate(problem, make_mesh(0.0, 1.0, 0.1), method)
    # explicit: K at x_5 = 0.5 enters the memory of node 6; implicit: the
    # residual of node 5 evaluates K at x_5
    assert excinfo.value.step_index == (6 if method == Method.EXPLICIT else 5)


@pytest.mark.parametrize("y0", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_nonfinite_initial_value(y0):
    with pytest.raises(NonFiniteInitialValue):
        integrate(pure_ode(y0=y0), make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)


# --- kernel call form ---------------------------------------------------------


@pytest.mark.parametrize("method", list(Method))
def test_scalar_only_kernel_fails_one_vector_call_per_run(method):
    failed = [0]

    def kernel(x, y, t):
        if np.ndim(y) > 0:
            failed[0] += 1
            raise TypeError("scalars only")
        return -2.0 * float(y)

    params = TestEquationParams(lam=-1.0, gamma=-2.0)
    vector = test_equation(params)
    scalar = dataclasses.replace(vector, kernel=kernel, kernel_depends_on_x=True)
    mesh = make_mesh(0.0, 2.0, 0.01)
    full_row = dataclasses.replace(vector, kernel_depends_on_x=True)
    got = integrate(scalar, mesh, method)
    assert failed[0] == 1
    np.testing.assert_array_equal(got.w, integrate(full_row, mesh, method).w)
    failed[0] = 0
    got = direct_local_errors(scalar, mesh, method)
    assert failed[0] == 1
    np.testing.assert_array_equal(got, direct_local_errors(full_row, mesh, method))


@pytest.mark.parametrize("method", list(Method))
def test_reducing_kernel_is_rejected(method):
    # -2*max(y) broadcast over the row is not the per-node -2*y(t)
    problem = VideProblem(f=lambda x, y: -y, kernel=lambda x, y, t: -2.0 * np.max(y),
                          y0=1.0, f_y=lambda x, y: -1.0, kernel_y=lambda x, y, t: -2.0)
    with pytest.raises(KernelCallMismatch):
        integrate(problem, make_mesh(0.0, 1.0, 0.1), method)
    with pytest.raises(KernelCallMismatch):
        memory(problem, [1.0, 0.5, 0.25], make_mesh(0.0, 1.0, 0.1))


@pytest.mark.parametrize("method", list(Method))
def test_constant_scalar_kernel_is_accepted(method):
    # a kernel returning one float for every node is a valid zero kernel
    problem = VideProblem(f=lambda x, y: -y, kernel=lambda x, y, t: 0.0, y0=1.0,
                          f_y=lambda x, y: -1.0, kernel_y=lambda x, y, t: 0.0)
    mesh = make_mesh(0.0, 2.0, 0.05)
    trajectory = integrate(problem, mesh, method)
    oracle = integrate(pure_ode(y0=1.0), mesh, method)
    np.testing.assert_allclose(trajectory.w, oracle.w, rtol=1e-14)


# --- seeded_steps ---------------------------------------------------------------


def per_prefix_steps(h, values, method, lam, b, c):
    """One step of ``method`` from each prefix v_0..v_i of ``values`` by the
    step equations, for f = lam*y + b and K = c(x)*y on nodes i*h. The
    implicit step equation is linear in u, so it is solved in closed form."""
    x = h * np.arange(values.size)
    out = np.empty(values.size)
    out[0] = values[0]
    for i in range(values.size - 1):
        v = values[: i + 1]
        if method == Method.IMPLICIT:
            c_next = c(x[i + 1])
            known = v[i] + h * b + 0.5 * h * h * c_next * (2.0 * np.sum(v) - v[0])
            out[i + 1] = known / (1.0 - h * lam - 0.5 * h * h * c_next)
        else:
            row = c(x[i]) * v
            out[i + 1] = (v[i] + h * (lam * v[i] + b)
                          + 0.5 * h * h * (2.0 * np.sum(row) - row[0] - row[-1]))
    return out


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("problem, coefficients", [
    (X_KERNEL, (-1.0, 0.0, lambda x: x)),
    # lam*(y - 1) with lam = -1, gamma = -2
    (test_equation(TestEquationParams(lam=-1.0, gamma=-2.0)), (-1.0, 1.0, lambda x: -2.0)),
], ids=["x-dependent", "running-sum"])
def test_seeded_steps_match_single_steps(problem, coefficients, method):
    # the per-prefix step equations are the reference; only summation
    # order and the solve tolerance differ
    mesh = make_mesh(0.0, 1.0, 0.05)
    values = np.cos(mesh.nodes()) + 1.0
    got = seeded_steps(problem, mesh, method, values)
    expected = per_prefix_steps(mesh.h, values, method, *coefficients)
    assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
    assert got[0] == values[0]


def test_seeded_steps_need_one_value_per_node():
    with pytest.raises(LengthMismatch):
        seeded_steps(pure_ode(), make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT, np.ones(10))


# --- scalar-only kernel rows ------------------------------------------------------


def scalar_only(kernel):
    """``kernel`` behind a guard that refuses arrays, as a kernel written
    with math.* or float() does, so that every row is built node by node."""
    def guarded(x, y, t):
        if np.ndim(y) > 0:
            raise TypeError("scalars only")
        return kernel(x, y, t)
    return guarded


def per_node_row(kernel, x_outer, values, nodes):
    """The reference row: one normalised scalar call per node."""
    return np.array([steppers._call(kernel, x_outer, values[j], nodes[j])
                     for j in range(values.size)])


SCALAR_X_KERNEL = dataclasses.replace(
    X_KERNEL, kernel=scalar_only(lambda x, y, t: x * float(y)))


@pytest.mark.parametrize("result", [
    lambda x, y, t: x * y * t + np.exp(-y),
    lambda x, y, t: np.array(x * y),
    lambda x, y, t: 3,
    lambda x, y, t: np.float32(x * y),
], ids=["float64", "0-d-array", "int", "float32"])
def test_scalar_row_equals_per_node_calls(result):
    kernel = scalar_only(result)
    problem = VideProblem(f=lambda x, y: -y, kernel=kernel, y0=1.0,
                          f_y=lambda x, y: -1.0, kernel_y=lambda x, y, t: 0.0)
    values = np.cos(np.linspace(0.0, 3.0, 31)) + 0.5
    nodes = 0.1 * np.arange(31)
    row = steppers._kernel_row(problem, 3.0, values, nodes)
    expected = per_node_row(kernel, 3.0, values, nodes)
    assert row.dtype == np.float64
    np.testing.assert_array_equal(row, expected)
    # every return type is accepted by both methods
    for method in Method:
        trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), method)
        assert trajectory.overflow_at is None


# The two kinds of run that build rows: own output and a given history.
ROW_RUNS = {
    "integrate": integrate,
    "direct_local_errors": lambda problem, mesh, method: direct_local_errors(
        dataclasses.replace(problem, exact=lambda x: np.exp(-x)), mesh, method),
}


def recording_rows(monkeypatch, kernel):
    """``kernel`` made scalar-only, recording the arguments of its calls
    while steppers builds a row: one list of (x, y, t) per row, holding
    the objects themselves, so that each stays alive and its identity can
    be compared after the run. Calls outside a row (the implicit solve's
    residuals, a seed's new entry) are not recorded."""
    rows, building = [], []

    def recorded(x, y, t):
        if building:
            rows[-1].append((x, y, t))
        return kernel(x, y, t)

    build = steppers._kernel_row

    def row(problem, x_outer, values, nodes, form=None):
        rows.append([])
        building.append(True)
        try:
            return build(problem, x_outer, values, nodes, form)
        finally:
            building.pop()

    monkeypatch.setattr(steppers, "_kernel_row", row)
    return scalar_only(recorded), rows


def test_scalar_row_passes_numpy_floats(monkeypatch):
    kernel, rows = recording_rows(monkeypatch, lambda x, y, t: x * float(y))
    problem = dataclasses.replace(SCALAR_X_KERNEL, kernel=kernel)
    for method in Method:
        for run in ROW_RUNS.values():
            rows.clear()
            run(problem, make_mesh(0.0, 1.0, 0.1), method)
            assert {tuple(map(type, args)) for row in rows for args in row} == {
                (float, np.float64, np.float64)}, (method, run)


@pytest.mark.parametrize("run", sorted(ROW_RUNS))
@pytest.mark.parametrize("method", list(Method))
def test_scalar_row_boxes_each_value_and_node_once_per_run(method, run, monkeypatch):
    # every row that holds inner node j hands the kernel the same NumPy
    # float for x_j, and the same one for the history value at j
    kernel, rows = recording_rows(monkeypatch, lambda x, y, t: x * float(y))
    problem = dataclasses.replace(SCALAR_X_KERNEL, kernel=kernel)
    mesh = make_mesh(0.0, 1.0, 0.1)
    out = ROW_RUNS[run](problem, mesh, method)
    history = out.w if run == "integrate" else np.exp(-mesh.nodes())
    assert len(rows) >= mesh.n_steps - 1
    for j in range(mesh.n_steps - 1):
        holding = [row[j] for row in rows if len(row) > j]
        assert len(holding) >= 2
        _, y, t = holding[0]
        assert y == history[j] and t == mesh.nodes()[j]
        assert all(other[1] is y and other[2] is t for other in holding), j


@pytest.mark.parametrize("method", list(Method))
def test_scalar_row_evaluates_each_entry_once(method, monkeypatch):
    # every kernel row is built with exactly one scalar call per entry, and
    # without a per-entry pass through the callback normaliser; the only
    # other kernel calls are the residual evaluations of the implicit solve
    calls = [0]
    normalised = [0]
    evaluate = steppers._evaluate

    def counted_evaluate(fn, *args):
        normalised[0] += 1
        return evaluate(fn, *args)

    monkeypatch.setattr(steppers, "_evaluate", counted_evaluate)

    def kernel(x, y, t):
        calls[0] += 1
        return x * float(y)

    problem = dataclasses.replace(SCALAR_X_KERNEL, kernel=scalar_only(kernel))
    build = steppers._kernel_row
    rows = []

    def counted(problem, x_outer, values, nodes, form=None):
        before, normalised_before = calls[0], normalised[0]
        row = build(problem, x_outer, values, nodes, form)
        made = calls[0] - before
        rows.append((values.size, made))
        assert normalised[0] == normalised_before
        np.testing.assert_array_equal(
            row, per_node_row(problem.kernel, x_outer, values, nodes))
        calls[0] = before + made  # the reference row's calls are not the run's
        return row

    monkeypatch.setattr(steppers, "_kernel_row", counted)
    mesh = make_mesh(0.0, 1.0, 0.05)
    for run in (lambda: integrate(problem, mesh, method),
                lambda: direct_local_errors(
                    dataclasses.replace(problem, exact=lambda x: np.exp(-x)),
                    mesh, method)):
        rows.clear()
        calls[0] = 0
        run()
        assert rows and all(entries == made for entries, made in rows)
        in_rows = sum(entries for entries, _ in rows)
        if method == Method.EXPLICIT:
            assert calls[0] == in_rows
        else:
            assert in_rows < calls[0] <= in_rows + mesh.n_steps * 50


def failing_at(t_bad, failure):
    """A scalar-only x-dependent kernel that calls ``failure()`` at the
    inner node t_bad of every row whose outer node lies beyond it, and
    returns x*y elsewhere (the implicit residual, at t = x, included)."""
    def kernel(x, y, t):
        if abs(t - t_bad) < 1e-12 and x > t + 1e-12:
            return failure()
        return x * float(y)
    return dataclasses.replace(SCALAR_X_KERNEL, kernel=scalar_only(kernel))


def first_failing_row(method, mesh, j):
    """(x, y, t) of the first row entry at inner node j with x beyond x_j,
    from the run of the same problem with a harmless kernel, and the step
    index of the step that builds that row."""
    w = integrate(SCALAR_X_KERNEL, mesh, method).w
    x = mesh.nodes()
    point = (float(x[j + 1]), float(w[j]), float(x[j]))
    # explicit: the row at x_{j+1} is the memory of step j+2; implicit: the
    # row at x_{j+1} over w_0..w_j is the known part of step j+1
    return point, (j + 2 if method == Method.EXPLICIT else j + 1)


@pytest.mark.parametrize("method", list(Method))
def test_scalar_row_failure_names_the_node(method):
    mesh = make_mesh(0.0, 1.0, 0.1)
    problem = failing_at(mesh.nodes()[3], lambda: 1.0 / 0.0)
    point, step = first_failing_row(method, mesh, 3)
    with pytest.raises(StepEvaluationError) as excinfo:
        integrate(problem, mesh, method)
    assert str(excinfo.value) == f"callback failed at {point}"
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
    assert excinfo.value.step_index == step
    # on the exact history the same row names y(x_3) in place of w_3
    x = mesh.nodes()
    seeded = (point[0], float(np.exp(-x)[3]), point[2])
    with pytest.raises(StepEvaluationError) as excinfo:
        ROW_RUNS["direct_local_errors"](problem, mesh, method)
    assert str(excinfo.value) == f"callback failed at {seeded}"
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
    assert excinfo.value.step_index == step


@pytest.mark.parametrize("method", list(Method))
def test_scalar_row_nonfinite_entry_names_the_node(method):
    mesh = make_mesh(0.0, 1.0, 0.1)
    problem = failing_at(mesh.nodes()[3], lambda: math.nan)
    point, step = first_failing_row(method, mesh, 3)
    with pytest.raises(StepEvaluationError) as excinfo:
        integrate(problem, mesh, method)
    assert str(excinfo.value) == f"callback returned non-finite value at {point}"
    assert excinfo.value.step_index == step
    with pytest.raises(StepEvaluationError, match="non-finite"):
        direct_local_errors(dataclasses.replace(problem, exact=lambda x: np.exp(-x)),
                            mesh, method)


@pytest.mark.parametrize("method", list(Method))
def test_scalar_row_passes_package_errors_through(method):
    raised = []

    class Refused(VidestepError):
        pass

    def refuse():
        raised.append(Refused("kernel refuses this node"))
        raise raised[-1]

    mesh = make_mesh(0.0, 1.0, 0.1)
    with pytest.raises(Refused) as excinfo:
        integrate(failing_at(mesh.nodes()[3], refuse), mesh, method)
    # the kernel's own exception, from its first and only failing call
    assert excinfo.value is raised[0] and len(raised) == 1


# --- one rule for kernel values in a trapezium row --------------------------------


def bad_entry_paths(t_bad, value):
    """y' = -y + int -y(t) dt, with K = ``value`` at the inner node t_bad,
    on the three ways a row is built: the running sum, vector rows and
    scalar rows. K ignores x, so all three solve the same equation."""
    def kernel(x, y, t):
        return np.where(t == t_bad, value, -y)

    base = VideProblem(f=lambda x, y: -y, kernel=kernel, y0=1.0,
                       f_y=lambda x, y: -1.0, kernel_y=lambda x, y, t: -1.0)
    vector = dataclasses.replace(base, kernel_depends_on_x=True)
    return {"running": dataclasses.replace(base, kernel_depends_on_x=False),
            "vector": vector,
            "scalar": dataclasses.replace(vector, kernel=scalar_only(kernel))}


def raised(run):
    with pytest.raises(StepEvaluationError) as excinfo:
        run()
    return str(excinfo.value), excinfo.value.step_index


@pytest.mark.parametrize("method", list(Method))
def test_nan_row_entry_raises_alike_on_every_path(method):
    mesh = make_mesh(0.0, 1.0, 0.1)
    x = mesh.nodes()
    paths = bad_entry_paths(x[3], math.nan)
    outcomes = {name: raised(lambda: integrate(problem, mesh, method))
                for name, problem in paths.items()}
    message, step = outcomes["running"]
    assert outcomes == dict.fromkeys(paths, (message, step))
    if method == Method.EXPLICIT:
        # K(x_3, w_3, x_3) enters the memory of the step to node 4
        w = integrate(bad_entry_paths(-1.0, math.nan)["vector"], mesh, method).w
        point = (float(x[3]), float(w[3]), float(x[3]))
        assert (message, step) == (f"callback returned non-finite value at {point}", 4)
    else:
        # the solve to node 3 evaluates K(x_3, u, x_3) first
        assert message.startswith(f"callback returned non-finite value at ({float(x[3])}, ")
        assert message.endswith(f", {float(x[3])})") and step == 3
    # on a given history the rule holds too, with the step index set
    history = np.cos(x)
    for problem in paths.values():
        text, step = raised(lambda: seeded_steps(problem, mesh, method, history))
        assert text.endswith(f", {float(history[3])}, {float(x[3])})") and step is not None


def test_minus_inf_row_entry_ends_every_explicit_path_as_a_divergence():
    mesh = make_mesh(0.0, 1.0, 0.1)
    runs = {name: integrate(problem, mesh, Method.EXPLICIT)
            for name, problem in bad_entry_paths(mesh.nodes()[3], -math.inf).items()}
    assert {name: run.overflow_at for name, run in runs.items()} == dict.fromkeys(runs, 4)
    for run in runs.values():
        np.testing.assert_array_equal(run.w, runs["running"].w)


# --- one stepping loop ------------------------------------------------------------


SEEDED_PROBLEMS = {
    **BUILTINS,
    "cubic-kernel-full-row": lambda: dataclasses.replace(cubic_kernel(y0=1.5),
                                                         kernel_depends_on_x=True),
    "x-dependent": lambda: X_KERNEL,
    "x-dependent-scalar-only": lambda: SCALAR_X_KERNEL,
}


@pytest.mark.parametrize("strategy", list(SolveStrategy))
@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("problem_id", sorted(SEEDED_PROBLEMS))
def test_seeded_steps_on_a_run_reproduce_it(problem_id, method, strategy):
    # a run is the stepping loop fed its own output: seeding the loop with
    # that output gives it back bit for bit
    problem = SEEDED_PROBLEMS[problem_id]()
    mesh = make_mesh(0.0, 2.0, 0.02)
    cfg = ImplicitSolveConfig(strategy=strategy)
    trajectory = integrate(problem, mesh, method, cfg)
    assert trajectory.overflow_at is None
    np.testing.assert_array_equal(seeded_steps(problem, mesh, method, trajectory.w, cfg),
                                  trajectory.w)


# --- callbacks inside the implicit solve -------------------------------------------


class SolveRefused(VidestepError):
    pass


def raising(exc_type, message):
    def fail():
        raise exc_type(message)
    return fail


# How the callback fails, and the type of the exception it raises.
SOLVE_FAILURES = {
    "raises": (raising(ValueError, "bad value"), ValueError),
    "nan": (lambda: math.nan, None),
    "videstep-error": (raising(SolveRefused, "refused"), SolveRefused),
}


def failing_in_solve(name, failure, x_bad):
    """The test equation with callback ``name`` calling ``failure()`` on
    its first call at abscissa x_bad, which with the implicit method is
    inside the Newton solve of the step to x_bad. Returns the problem and
    the list of (arguments, exception) of that call."""
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    fn, seen = getattr(problem, name), []

    def wrapped(x, *rest):
        if x == x_bad and not seen:
            seen.append([(x, *rest), None])
            try:
                return failure()
            except Exception as exc:
                seen[-1][1] = exc
                raise
        return fn(x, *rest)

    return dataclasses.replace(problem, **{name: wrapped}), seen


@pytest.mark.parametrize("failure", sorted(SOLVE_FAILURES))
@pytest.mark.parametrize("name", ["f", "kernel", "f_y", "kernel_y"])
def test_solve_callback_failure_contract(name, failure):
    mesh = make_mesh(0.0, 1.0, 0.1)
    x_bad = mesh.nodes()[3]
    make, raised_type = SOLVE_FAILURES[failure]
    problem, seen = failing_in_solve(name, make, x_bad)
    with pytest.raises(VidestepError) as excinfo:
        integrate(problem, mesh, Method.IMPLICIT)
    [(args, cause)] = seen
    # the solve's arguments: (x_{i+1}, u), and (x_{i+1}, u, x_{i+1}) for K and K_y
    assert args[0] == x_bad and type(args[1]) is float
    assert len(args) == (2 if name in ("f", "f_y") else 3)
    assert excinfo.value.step_index == 3
    if raised_type is SolveRefused:
        assert excinfo.value is cause
        return
    assert type(excinfo.value) is StepEvaluationError
    if raised_type is None:
        assert str(excinfo.value) == f"callback returned non-finite value at {args}"
        assert excinfo.value.__cause__ is None
    else:
        assert str(excinfo.value) == f"callback failed at {args}"
        assert excinfo.value.__cause__ is cause and type(cause) is raised_type


def test_implicit_newton_callback_counts_per_step():
    # on the linear test equation every Newton solve takes two residual
    # evaluations and one jacobian; per abscissa x_k the run calls f once
    # in the predictor from x_k and twice in the solve to x_k, K once at
    # x_0 for the running sum and twice per solve, f_y and K_y once per solve
    problem = test_equation(TestEquationParams(lam=-1.0, gamma=-2.0))
    mesh = make_mesh(0.0, 1.0, 0.01)
    calls = {name: [0] * (mesh.n_steps + 1) for name in ("f", "kernel", "f_y", "kernel_y")}

    def counted(name):
        fn = getattr(problem, name)

        def wrapped(x, *rest):
            calls[name][round(x / mesh.h)] += 1
            return fn(x, *rest)
        return wrapped

    counting = dataclasses.replace(problem, **{n: counted(n) for n in calls})
    trajectory = integrate(counting, mesh, Method.IMPLICIT)
    assert [d.iterations for d in trajectory.step_diagnostics] == [2] * mesh.n_steps
    inner = mesh.n_steps - 1
    assert calls["f"] == [1] + [3] * inner + [2]
    assert calls["kernel"] == [1] + [2] * mesh.n_steps
    assert calls["f_y"] == calls["kernel_y"] == [0] + [1] * mesh.n_steps
    assert [sum(c) for c in calls.values()] == [300, 201, 100, 100]


# --- the seeded array pass against the per-node loop it replaced -------------------


def solve_one(problem, x_next, known, u, h, cfg):
    """The per-node implicit solve of the loop below."""
    if cfg.strategy == SolveStrategy.NEWTON_WITH_JACOBIANS and (
            problem.f_y is None or problem.kernel_y is None):
        raise MissingJacobian("Newton strategy requires f_y and kernel_y")
    previous = None
    for k in range(1, cfg.max_iterations + 1):
        f_u = steppers._call(problem.f, x_next, u)
        k_u = steppers._call(problem.kernel, x_next, u, x_next)
        r = u - known - h * f_u - 0.5 * h * h * k_u
        if abs(r) <= cfg.abs_tol + cfg.rel_tol * abs(u):
            return u
        if k == cfg.max_iterations:
            raise NoConvergence(iterations=k, last_residual=abs(r))
        d = 1.0
        if cfg.strategy == SolveStrategy.NEWTON_WITH_JACOBIANS:
            d = (1.0 - h * steppers._call(problem.f_y, x_next, u)
                 - 0.5 * h * h * steppers._call(problem.kernel_y, x_next, u, x_next))
            if abs(d) < steppers.JACOBIAN_FLOOR:
                raise SingularJacobian(f"Newton denominator {d:.3e} at x={x_next}")
        u_next = u - r / d
        if u_next == u or u_next == previous:
            raise NoConvergence(iterations=k, last_residual=abs(r))
        previous, u = u, u_next


def seeded_loop(problem, mesh, method, values, cfg=None):
    """One step of ``method`` from each prefix of ``values``, one step at a
    time: the loop seeded_steps ran before it became one array pass, kept
    as its reference."""
    cfg = ImplicitSolveConfig() if cfg is None else cfg
    history = np.asarray(values, dtype=float)
    out = np.empty(mesh.n_steps + 1)
    out[0] = history[0]
    x0, h, nodes, form = mesh.x0, mesh.h, mesh.nodes(), steppers._CallForm()
    running, implicit = not problem.kernel_depends_on_x, method == Method.IMPLICIT
    total = first = last = 0.0
    for i in range(mesh.n_steps):
        x_i, v_i = x0 + h * i, float(history[i])
        try:
            if running and (i == 0 or not implicit):
                if i == 0:
                    row = steppers._kernel_row(problem, x0, history, nodes, form)
                    first = float(row[0])
                last = float(row[i])
                total += last
            elif not (running or implicit) and i > 0:
                total, first, last = steppers._row_sums(problem, x_i, history[: i + 1],
                                                        nodes[: i + 1], form)
            memory = steppers._trapezium(h, total, first, last) if i > 0 else 0.0
            v_next = v_i + h * steppers._call(problem.f, x_i, v_i) + memory
            if implicit:
                x_next = x0 + h * (i + 1)
                row_total, row_first = total, first
                if not running:
                    row_total, row_first, _ = steppers._row_sums(
                        problem, x_next, history[: i + 1], nodes[: i + 1], form)
                last = float(row[i + 1]) if running else steppers._call(
                    problem.kernel, x_next, history[i + 1], nodes[i + 1], inf_ok=True)
                known = v_i + steppers._trapezium(h, row_total, row_first, 0.0)
                v_next = solve_one(problem, x_next, known, v_next, h, cfg)
                total, first = row_total + last, row_first
        except VidestepError as exc:
            exc.step_index = i + 1
            raise
        out[i + 1] = v_next
    return out


def outcome(run):
    """The outputs of ``run`` as their bits, or its error's type, message,
    step index and the type of its cause."""
    try:
        return run().view(np.int64).tolist()
    except VidestepError as exc:
        return (type(exc), str(exc), exc.step_index, type(exc.__cause__))


def seeds(problem, mesh, method, cfg):
    """Histories to seed with: the run's own output, that output perturbed,
    and the exact solution where there is one."""
    own = integrate(problem, mesh, method, cfg).w
    x = mesh.nodes()
    found = {"own": own, "perturbed": own * (1.0 + 1e-3 * np.sin(7.0 * x)) + 1e-4 * np.cos(3.0 * x)}
    if problem.exact is not None:
        found["exact"] = np.array([problem.exact(t) for t in x])
    return found


@pytest.mark.parametrize("strategy", list(SolveStrategy))
@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("problem_id", sorted(SEEDED_PROBLEMS))
def test_seeded_steps_equal_the_per_node_loop(problem_id, method, strategy):
    # bit for bit, iteration caps that stop some nodes included
    problem = SEEDED_PROBLEMS[problem_id]()
    mesh = make_mesh(0.0, 2.0, 0.02)
    for cap in (50, 2, 1):
        cfg = ImplicitSolveConfig(strategy=strategy, max_iterations=cap)
        for seed_id, history in seeds(problem, mesh, method, ImplicitSolveConfig(
                strategy=strategy)).items():
            expected = outcome(lambda: seeded_loop(problem, mesh, method, history, cfg))
            got = outcome(lambda: seeded_steps(problem, mesh, method, history, cfg))
            assert got == expected, (seed_id, cap)


def planted(problem, **where):
    """``problem`` with each named callback returning NaN at the arguments
    for which its predicate holds (scalar calls only)."""
    def wrap(fn, holds):
        def wrapped(*args):
            if all(np.ndim(a) == 0 for a in args) and holds(*map(float, args)):
                return math.nan
            return fn(*args)
        return wrapped
    return dataclasses.replace(problem, **{name: wrap(getattr(problem, name), holds)
                                           for name, holds in where.items()})


def slowed_newton(problem, x_bad):
    """``problem`` whose f_y is wrong by 1,000/h at x_bad, so that the Newton
    solve to x_bad closes only 1% of its error per iteration and hits the cap."""
    f_y = problem.f_y
    return dataclasses.replace(
        problem, f_y=lambda x, y: f_y(x, y) - (1e3 if x == x_bad else 0.0))


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("problem_id", ["test-equation", "x-dependent",
                                        "x-dependent-scalar-only"])
def test_seeded_failures_equal_the_per_node_loop(problem_id, method):
    mesh = make_mesh(0.0, 1.0, 0.1)
    x = mesh.nodes().tolist()
    base = SEEDED_PROBLEMS[problem_id]()
    history = np.cos(mesh.nodes()) + 0.5
    cases = {
        "f-nan": planted(base, f=lambda s, y: s == x[5]),
        "kernel-nan": planted(base, kernel=lambda s, y, t: s == x[7]),
        "f_y-nan": planted(base, f_y=lambda s, y: s == x[4]),
        "kernel_y-nan": planted(base, kernel_y=lambda s, y, t: s == x[6]),
        "no-jacobian": dataclasses.replace(base, kernel_y=None),
        "singular": dataclasses.replace(base, f_y=lambda s, y: 1.0 / mesh.h),
        "slowed-3-nan-kernel-7": planted(slowed_newton(base, x[3]),
                                         kernel=lambda s, y, t: s == x[7]),
        "nan-kernel-3-slowed-7": planted(slowed_newton(base, x[7]),
                                         kernel=lambda s, y, t: s == x[3]),
    }
    for case, problem in cases.items():
        for strategy in SolveStrategy:
            cfg = ImplicitSolveConfig(strategy=strategy)
            expected = outcome(lambda: seeded_loop(problem, mesh, method, history, cfg))
            assert outcome(lambda: seeded_steps(problem, mesh, method, history, cfg)) \
                == expected, (case, strategy)
    # of two failing steps the lower is reported, whichever error comes first
    cfg = ImplicitSolveConfig()
    for case, error in [("slowed-3-nan-kernel-7", NoConvergence),
                        ("nan-kernel-3-slowed-7", StepEvaluationError)]:
        with pytest.raises(error) as excinfo:
            seeded_steps(cases[case], mesh, Method.IMPLICIT, history, cfg)
        assert excinfo.value.step_index == 3


@pytest.mark.parametrize("first", ["predictor", "row", "entry", "solve"])
def test_seeded_full_row_step_reports_its_first_call_to_fail(first):
    # in an implicit full-row step the calls come f, row at x_{i+1}, new
    # entry, solve; of several failures in step 3 the first in that order
    # is reported
    mesh = make_mesh(0.0, 1.0, 0.1)
    x = mesh.nodes().tolist()
    history = np.cos(mesh.nodes()) + 0.5
    v = history.tolist()
    failing = {
        "predictor": lambda p: planted(p, f=lambda s, y: s == x[3] and y == v[3]),
        "row": lambda p: dataclasses.replace(p, kernel=lambda s, y, t, k=p.kernel: np.where(
            (s == x[4]) & (np.asarray(t) == x[1]), math.nan, k(s, y, t))),
        "entry": lambda p: planted(p, kernel=lambda s, y, t: s == t == x[4] and y == v[4]),
        "solve": lambda p: planted(p, f=lambda s, y: s == x[4] and y != v[4]),
    }
    order = list(failing)
    problem = X_KERNEL
    for name in order[order.index(first):]:
        problem = failing[name](problem)
    expected = outcome(lambda: seeded_loop(problem, mesh, Method.IMPLICIT, history))
    got = outcome(lambda: seeded_steps(problem, mesh, Method.IMPLICIT, history))
    assert got == expected and got[2] == 4
    alone = outcome(lambda: seeded_steps(failing[first](X_KERNEL), mesh, Method.IMPLICIT,
                                         history))
    assert alone == got


def test_seeded_steps_take_no_step_by_step_run(monkeypatch):
    marched = []
    monkeypatch.setattr(steppers, "_march", lambda *args: marched.append(args))
    mesh = make_mesh(0.0, 1.0, 0.05)
    for problem_id in ("test-equation", "x-dependent"):
        problem = SEEDED_PROBLEMS[problem_id]()
        for method in Method:
            seeded_steps(problem, mesh, method, np.cos(mesh.nodes()) + 1.0)
    assert marched == []


@pytest.mark.parametrize("problem_id", ["test-equation", "x-dependent"])
def test_seeded_implicit_callback_counts_per_node(problem_id):
    # the array pass calls each callback at each abscissa as often as the
    # per-node loop does; on the running-sum test equation that is f once
    # in the predictor from x_k and twice in the solve to x_k, K once in the
    # row over the history (at x_0) and twice per solve, f_y and K_y once
    base = SEEDED_PROBLEMS[problem_id]()
    mesh = make_mesh(0.0, 1.0, 0.01)
    history = integrate(base, mesh, Method.IMPLICIT).w

    def counts(seeded):
        calls = {name: [0] * (mesh.n_steps + 1) for name in ("f", "kernel", "f_y", "kernel_y")}

        def counted(name):
            fn = getattr(base, name)

            def wrapped(x, *rest):
                calls[name][round(x / mesh.h)] += 1
                return fn(x, *rest)
            return wrapped

        seeded(dataclasses.replace(base, **{n: counted(n) for n in calls}), mesh,
               Method.IMPLICIT, history)
        return calls

    got = counts(seeded_steps)
    assert got == counts(seeded_loop)
    if problem_id == "test-equation":
        inner = mesh.n_steps - 1
        assert got["f"] == [1] + [3] * inner + [2]
        assert got["kernel"][1:] == [2] * mesh.n_steps
        assert got["f_y"] == got["kernel_y"] == [0] + [1] * mesh.n_steps


@pytest.mark.parametrize("failure", sorted(SOLVE_FAILURES))
@pytest.mark.parametrize("name", ["f", "kernel", "f_y", "kernel_y"])
def test_seeded_solve_callback_failure_contract(name, failure):
    # the fixture fails on its first call at x_3 only, so no call may be
    # made again to find the failing node. In one array pass every
    # predictor call f(x_i, v_i) comes before the solves, so f first meets
    # x_3 in the step from node 3; K, f_y and K_y first meet it in the
    # solve to x_3, as a run does
    mesh = make_mesh(0.0, 1.0, 0.1)
    x_bad = mesh.nodes()[3]
    make, raised_type = SOLVE_FAILURES[failure]
    problem, seen = failing_in_solve(name, make, x_bad)
    history = integrate(test_equation(TestEquationParams(lam=-1.0, gamma=-2.0)), mesh,
                        Method.IMPLICIT).w
    with pytest.raises(VidestepError) as excinfo:
        seeded_steps(problem, mesh, Method.IMPLICIT, history)
    [(args, cause)] = seen
    assert args[0] == x_bad and type(args[1]) is float
    assert len(args) == (2 if name in ("f", "f_y") else 3)
    assert excinfo.value.step_index == (4 if name == "f" else 3)
    if name == "f":
        assert args[1] == history[3]
    if raised_type is SolveRefused:
        assert excinfo.value is cause
        return
    assert type(excinfo.value) is StepEvaluationError
    if raised_type is None:
        assert str(excinfo.value) == f"callback returned non-finite value at {args}"
        assert excinfo.value.__cause__ is None
    else:
        assert str(excinfo.value) == f"callback failed at {args}"
        assert excinfo.value.__cause__ is cause and type(cause) is raised_type
