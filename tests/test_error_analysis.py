import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videstep import (
    BoundModel,
    ConfigurationWarning,
    DegenerateDenominator,
    ImplicitSolveConfig,
    InconsistentExact,
    KernelCallMismatch,
    LengthMismatch,
    Mesh,
    Method,
    MissingExact,
    RepeatedStep,
    SignCase,
    SingularDenominator,
    SolveStrategy,
    StepEvaluationError,
    TestEquationParams,
    Trajectory,
    VideProblem,
    ZeroError,
    amplitude_curve,
    auto_reference,
    constant_kernel,
    cubic_kernel,
    direct_local_errors,
    endpoint_error,
    error_bound,
    fit_bound,
    global_errors,
    growth_rate_L,
    integrate,
    make_mesh,
    pairwise_order,
    pure_ode,
    recover_local_errors,
    test_equation,
)
from videstep.error_analysis import _coefficients, _jacobians


def sign_change_count(values):
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] * signs[1:] < 0))


# --- global_errors ----------------------------------------------------------


def test_global_errors_zero_when_trajectory_is_exact(oscillatory_problem):
    mesh = make_mesh(0.0, 1.0, 0.1)
    w = oscillatory_problem.exact(mesh.nodes())
    trajectory = Trajectory(mesh=mesh, w=np.asarray(w, dtype=float),
                            method=Method.EXPLICIT)
    deltas = global_errors(trajectory, oscillatory_problem)
    assert np.all(deltas == 0.0)


def test_global_errors_single_step_worked_example(oscillatory_problem):
    # one explicit step at h=0.1: w1 = 1.9, y(0.1) = 2exp(-0.05)cos(sqrt7/2*0.1)
    mesh = make_mesh(0.0, 0.1, 0.1)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, oscillatory_problem)
    y1 = 2.0 * math.exp(-0.05) * math.cos(0.5 * math.sqrt(7.0) * 0.1)
    assert deltas[0] == 0.0
    assert deltas[1] == pytest.approx(1.9 - y1, rel=1e-12)


def test_global_errors_oscillatory_run_changes_sign(oscillatory_problem):
    mesh = make_mesh(0.0, 5.0, 5e-3)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, oscillatory_problem)
    assert sign_change_count(deltas[1:]) >= 2


def test_global_errors_needs_exact_or_reference():
    problem = cubic_kernel()
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)
    with pytest.raises(MissingExact):
        global_errors(trajectory, problem)


@pytest.mark.parametrize("method", list(Method))
def test_exact_solution_must_start_at_y0(oscillatory_problem, method):
    # the built-in solutions start at x = 0: from x0 = 1 the test
    # equation's reads 0.298 there against y0 = 2
    mesh = make_mesh(1.0, 2.0, 0.1)
    trajectory = integrate(oscillatory_problem, mesh, method)
    with pytest.raises(InconsistentExact, match=r"at x0 = 1\.0, not y0 = 2\.0"):
        global_errors(trajectory, oscillatory_problem)
    with pytest.raises(InconsistentExact):
        direct_local_errors(oscillatory_problem, mesh, method)
    with pytest.raises(InconsistentExact):
        endpoint_error(oscillatory_problem, mesh, method)
    # a problem without exact solution is measured against its reference
    problem = cubic_kernel()
    run = integrate(problem, mesh, method)
    assert np.all(np.isfinite(global_errors(run, problem, auto_reference(problem, run))))


@pytest.mark.parametrize("offset,refused", [(1e-13, False), (-1e-13, False),
                                            (1e-11, True), (math.nan, True)])
def test_exact_start_tolerance_is_rounding(offset, refused):
    # exact(x0) may miss y0 by 1e-12 relative to max(1, |y0|), no more
    problem = pure_ode(y0=1.0)
    shifted = dataclasses.replace(problem, exact=lambda x: np.exp(-x) + offset)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(shifted, mesh, Method.EXPLICIT)
    for analyse in (lambda: global_errors(trajectory, shifted),
                    lambda: direct_local_errors(shifted, mesh, Method.EXPLICIT)):
        if refused:
            with pytest.raises(InconsistentExact):
                analyse()
        else:
            analyse()


def test_global_errors_against_reference_run():
    # strip the exact solution and measure against the extrapolated
    # reference on the h/10 mesh; its error is second order, so it
    # contaminates the first-order Delta by well under 0.1%
    problem = pure_ode(y0=1.0)
    blind = dataclasses.replace(problem, exact=None)
    mesh = make_mesh(0.0, 1.0, 0.1)
    for method in Method:
        trajectory = integrate(blind, mesh, method)
        reference = auto_reference(blind, trajectory)
        assert reference.mesh.h == pytest.approx(mesh.h / 10.0)
        assert reference.method == method
        measured = global_errors(trajectory, blind, reference)
        truth = global_errors(trajectory, problem)
        assert measured[0] == 0.0
        np.testing.assert_allclose(measured[1:], truth[1:], rtol=1e-3)


REFERENCE_GRID = [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, -2.0), (1.0, 2.0),
                  (-50.0, -1.0)]


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("h", [0.01, 0.005])
@pytest.mark.parametrize("lam,gamma", REFERENCE_GRID)
def test_reference_run_accuracy_and_its_estimate(lam, gamma, h, method):
    # Delta measured against the extrapolated reference agrees with the
    # exact Delta to 0.2% of max|Delta|, and the reference's own error
    # estimate, made without the exact solution, is within a factor of 2
    # of its true max error
    problem = test_equation(TestEquationParams(lam=lam, gamma=gamma))
    blind = dataclasses.replace(problem, exact=None)
    trajectory = integrate(blind, make_mesh(0.0, 2.0 if lam == -50.0 else 5.0, h), method)
    reference = auto_reference(blind, trajectory)
    truth = global_errors(trajectory, problem)
    gap = np.max(np.abs(global_errors(trajectory, blind, reference) - truth))
    assert gap <= 2e-3 * np.max(np.abs(truth))
    true_error = np.max(np.abs(reference.w - problem.exact(reference.mesh.nodes())))
    assert true_error / 2.0 <= reference.error_estimate <= 2.0 * true_error
    assert trajectory.error_estimate is None


def test_reference_carries_the_h_over_10_run_diagnostics():
    problem = cubic_kernel(y0=1.0)
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.IMPLICIT)
    reference = auto_reference(problem, trajectory)
    mid = integrate(problem, make_mesh(0.0, 1.0, 0.01), Method.IMPLICIT)
    assert reference.step_diagnostics == mid.step_diagnostics
    assert reference.overflow_at is None


def test_reference_ends_where_the_shortest_level_ends():
    # y' = -300y on [0, 20] at h = 0.05: explicit Euler multiplies by
    # 1 - 300*h/k per step, -2 at h/5 (overflows near x = 10) and 0.5,
    # 0.25 at h/10, h/20 (stable); the reference stops where h/5 stopped
    problem = VideProblem(f=lambda x, y: -300.0 * y, kernel=lambda x, y, t: 0.0 * y,
                          y0=1.0, kernel_depends_on_x=False)
    trajectory = integrate(problem, make_mesh(0.0, 20.0, 0.05), Method.EXPLICIT)
    coarse = integrate(problem, make_mesh(0.0, 20.0, 0.01), Method.EXPLICIT)
    assert coarse.overflow_at == coarse.w.size - 1 < 1000
    reference = auto_reference(problem, trajectory)
    assert reference.w.size == 2 * coarse.w.size - 1
    assert reference.overflow_at == reference.w.size - 1
    assert len(reference.step_diagnostics) == reference.w.size - 1
    # the run itself reaches further than its reference
    assert trajectory.w.size > (reference.w.size - 1) // 10 + 1
    with pytest.raises(LengthMismatch):
        global_errors(trajectory, problem, reference)


@pytest.mark.parametrize("n", [50, 100])
def test_reference_kernel_call_count(n):
    # the three levels take 5n + 10n + 20n steps, one kernel call each on
    # the explicit running-sum path, where one run at h/100 took 100n; the
    # implicit solve calls K once per iteration, so it is held to 40% of
    # 2*100n, two iterations per step at h/100
    calls = []
    base = cubic_kernel(y0=1.0)

    def counting(x, y, t):
        calls.append(1)
        return base.kernel(x, y, t)

    problem = dataclasses.replace(base, kernel=counting)
    mesh = make_mesh(0.0, 5.0, 5.0 / n)
    for method in Method:
        trajectory = integrate(problem, mesh, method)
        calls.clear()
        auto_reference(problem, trajectory)
        if method == Method.EXPLICIT:
            assert len(calls) == 35 * n
        else:
            assert len(calls) < 0.4 * 2 * 100 * n


def test_global_errors_rejects_misaligned_reference():
    problem = pure_ode()
    blind = dataclasses.replace(problem, exact=None)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(blind, mesh, Method.EXPLICIT)
    coarser = integrate(blind, make_mesh(0.0, 1.0, 0.2), Method.EXPLICIT)
    shifted = integrate(blind, make_mesh(0.5, 1.5, 0.001), Method.EXPLICIT)
    short = integrate(blind, make_mesh(0.0, 0.5, 0.001), Method.EXPLICIT)
    for reference in (coarser, shifted, short):
        with pytest.raises(LengthMismatch):
            global_errors(trajectory, blind, reference)


# --- propagation coefficients -----------------------------------------------


def coefficients(problem, trajectory):
    """The per-node amplification factors, from one evaluation of the jacobians."""
    return _coefficients(trajectory, *_jacobians(problem, trajectory))


def one_step_trajectory(problem, h, w0, w1, method):
    """A hand-built run of one step of size h from x = 0."""
    return Trajectory(mesh=Mesh(x0=0.0, xf=h, h=h, n_steps=1),
                      w=np.array([w0, w1]), method=method)


def test_explicit_coefficient_worked_example(oscillatory_problem):
    # 1 + h*lam + (h**2/2)*gamma at h=0.005: 1 - 0.005 - 0.000025
    trajectory = integrate(oscillatory_problem, make_mesh(0.0, 0.01, 0.005),
                           Method.EXPLICIT)
    alphas = coefficients(oscillatory_problem, trajectory)
    assert alphas[0] == pytest.approx(0.994975, rel=1e-12)


def test_explicit_coefficient_stiff_magnitude(stiff_params):
    # 1 - 5 - 0.25 = -4.25: |alpha| > 1 is the blow-up mechanism
    problem = test_equation(stiff_params)
    trajectory = integrate(problem, make_mesh(0.0, 0.1, 0.05), Method.EXPLICIT)
    alphas = coefficients(problem, trajectory)
    assert alphas[0] == pytest.approx(-4.25, rel=1e-12)


def test_implicit_coefficient_worked_example(oscillatory_problem):
    trajectory = one_step_trajectory(oscillatory_problem, 0.005, 2.0, 1.99,
                                     Method.IMPLICIT)
    alpha, last = coefficients(oscillatory_problem, trajectory)
    expected = (1.0 - 5e-5) / (1.0 + 0.005 + 2.5e-5)
    assert alpha == pytest.approx(expected, rel=1e-12)
    assert alpha == pytest.approx(0.994950, rel=1e-6)
    assert np.isnan(last)


def test_implicit_coefficient_stiff_is_contractive(stiff_params):
    # (1 - 0.5)/(1 + 5 + 0.25) = 0.08: stable where explicit is not
    problem = test_equation(stiff_params)
    trajectory = one_step_trajectory(problem, 0.05, 2.0, 1.0, Method.IMPLICIT)
    alphas = coefficients(problem, trajectory)
    assert alphas[0] == pytest.approx(0.08, rel=1e-12)


def test_implicit_coefficient_singular_denominator():
    h = 0.1
    problem = VideProblem(f=lambda x, y: y / h,
                          kernel=lambda x, y, t: 0.0 * y, y0=1.0,
                          f_y=lambda x, y: 1.0 / h,
                          kernel_y=lambda x, y, t: 0.0)
    trajectory = one_step_trajectory(problem, h, 1.0, 1.0, Method.IMPLICIT)
    with pytest.raises(SingularDenominator):
        coefficients(problem, trajectory)


def test_coefficients_along_trajectory(oscillatory_problem):
    mesh = make_mesh(0.0, 1.0, 0.1)
    explicit = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    implicit = integrate(oscillatory_problem, mesh, Method.IMPLICIT)
    a = coefficients(oscillatory_problem, explicit)
    aa = coefficients(oscillatory_problem, implicit)
    # constant jacobians make every entry identical
    np.testing.assert_allclose(a, a[0], rtol=1e-14)
    assert np.isnan(aa[-1])
    np.testing.assert_allclose(aa[:-1], aa[0], rtol=1e-14)


# --- growth rate and the bound ----------------------------------------------


def test_growth_rate_explicit_stiff(stiff_params):
    # f_y + (h/2)K_y = -100 + 0.0025*(-200) = -100.5, negative everywhere
    problem = test_equation(stiff_params)
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 5e-3), Method.EXPLICIT)
    L = growth_rate_L(problem, trajectory)
    assert L == pytest.approx(-100.5, rel=1e-12)


def test_growth_rate_implicit_oscillatory(oscillatory_problem):
    trajectory = integrate(oscillatory_problem, make_mesh(0.0, 1.0, 5e-3),
                           Method.IMPLICIT)
    L = growth_rate_L(oscillatory_problem, trajectory)
    assert L == pytest.approx(-1.015 / 1.005025, rel=1e-12)


def test_growth_rate_positive_branch(growing_params):
    problem = test_equation(growing_params)
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 5e-3), Method.EXPLICIT)
    L = growth_rate_L(problem, trajectory)
    assert L == pytest.approx(1.0 + 0.0025 * 2.0, rel=1e-12)


def test_growth_rate_zero_case():
    problem = constant_kernel()
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)
    assert growth_rate_L(problem, trajectory) == 0.0


def test_estimate_c_tilde_synthetic():
    mesh = make_mesh(0.0, 1.0, 0.25)
    deltas = np.array([0.0, 0.1, -0.3, 0.2, 0.05])
    L = 2.0
    curve = np.abs(amplitude_curve(deltas, L, mesh))
    assert np.isnan(curve[0])  # excluded 0/0 node
    expected = [abs(deltas[i]) / abs(math.exp(L * mesh.nodes()[i]) - 1.0)
                for i in range(1, 5)]
    np.testing.assert_allclose(curve[1:], expected, rtol=1e-12)
    assert np.nanmax(curve) == pytest.approx(max(expected), rel=1e-12)


def test_estimate_c_tilde_degenerate_when_l_vanishes():
    mesh = make_mesh(0.0, 1.0, 0.25)
    with pytest.raises(DegenerateDenominator):
        amplitude_curve(np.array([0.0, 0.1, 0.2, 0.1, 0.0]), 1e-20, mesh)


def test_estimate_c_tilde_zero_synthetic():
    mesh = make_mesh(0.0, 1.0, 0.25)
    c = 0.7
    deltas = c * mesh.nodes() * mesh.h
    curve = amplitude_curve(deltas, 0.0, mesh)
    assert np.isnan(curve[0])
    np.testing.assert_allclose(curve[1:], c, rtol=1e-12)
    assert np.nanmax(curve) == pytest.approx(c, rel=1e-12)


def test_signed_curve_crosses_zero_with_the_error():
    mesh = make_mesh(0.0, 1.0, 0.125)
    deltas = np.array([0.0, 0.2, 0.1, -0.1, -0.3, 0.1, 0.2, -0.2, 0.1])
    curve = amplitude_curve(deltas, -1.0, mesh)
    assert np.isnan(curve[0])
    # the denominator has one sign for x > x0, so crossings coincide node-wise
    d_sign = np.sign(deltas[1:])
    c_sign = np.sign(curve[1:])
    assert np.all(d_sign * c_sign == (d_sign * c_sign)[0])
    assert sign_change_count(curve[1:]) == sign_change_count(deltas[1:])


def test_fit_bound_negative_case_dominates(oscillatory_problem):
    mesh = make_mesh(0.0, 5.0, 5e-3)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, oscillatory_problem)
    model, curve = fit_bound(oscillatory_problem, trajectory, deltas)
    assert model.sign_case == SignCase.NEGATIVE
    assert model.L < 0.0
    assert model.h == mesh.h
    c_max = float(np.nanmax(curve))
    assert model.C_tilde == pytest.approx(c_max * abs(model.L) / mesh.h, rel=1e-12)
    bound = error_bound(model, mesh)
    assert bound[0] == 0.0
    # dominance by construction, up to float round-trip
    assert np.all(np.abs(deltas) <= bound * (1.0 + 1e-12) + 1e-300)


def test_fit_bound_positive_case_dominates(growing_params):
    problem = test_equation(growing_params)
    mesh = make_mesh(0.0, 5.0, 5e-3)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, problem)
    model, _ = fit_bound(problem, trajectory, deltas)
    assert model.sign_case == SignCase.POSITIVE
    bound = error_bound(model, mesh)
    assert np.all(np.abs(deltas) <= bound * (1.0 + 1e-12) + 1e-300)


def test_fit_bound_zero_case():
    problem = constant_kernel()
    mesh = make_mesh(0.0, 2.0, 0.01)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, problem)
    model, _ = fit_bound(problem, trajectory, deltas)
    assert model.sign_case == SignCase.ZERO
    assert model.L == 0.0
    bound = error_bound(model, mesh)
    assert bound[0] == 0.0
    assert np.all(np.abs(deltas) <= bound * (1.0 + 1e-12) + 1e-300)


def test_fit_bound_warns_when_step_too_large_for_negative_case(stiff_params):
    # 1 + h*L = 1 - 5.25 < 0 at h=5e-2
    problem = test_equation(stiff_params)
    mesh = make_mesh(0.0, 2.0, 5e-2)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, problem)
    with pytest.warns(ConfigurationWarning):
        fit_bound(problem, trajectory, deltas)


def test_error_bound_zero_case_closed_form():
    # C=1, h=0.01, x-x0=2 -> U = 0.02
    model = BoundModel(L=0.0, C_tilde=1.0, sign_case=SignCase.ZERO, h=0.01)
    mesh = make_mesh(0.0, 2.0, 0.01)
    bound = error_bound(model, mesh)
    assert bound[0] == 0.0
    assert bound[-1] == pytest.approx(0.02, rel=1e-12)


def test_error_bound_plateau_for_strongly_negative_l(stiff_params):
    # L <= -50: U within 1% of |C*h/L| once x - x0 >= 0.1
    problem = test_equation(stiff_params)
    mesh = make_mesh(0.0, 5.0, 5e-3)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, problem)
    model, _ = fit_bound(problem, trajectory, deltas)
    assert model.L <= -50.0
    bound = error_bound(model, mesh)
    plateau = abs(model.C_tilde * model.h / model.L)
    xs = mesh.nodes()
    tail = bound[xs - mesh.x0 >= 0.1]
    np.testing.assert_allclose(tail, plateau, rtol=0.01)


def test_bound_model_is_frozen():
    model = BoundModel(L=-1.0, C_tilde=2.0, sign_case=SignCase.NEGATIVE, h=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.L = 1.0


# --- local-error recovery ---------------------------------------------------


def test_recovery_zero_deltas_give_zero_locals(oscillatory_problem):
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    eps = recover_local_errors(np.zeros(11), oscillatory_problem, trajectory)
    assert np.all(eps == 0.0)


def test_recovery_first_entry_equals_first_delta(oscillatory_problem):
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, oscillatory_problem)
    eps = recover_local_errors(deltas, oscillatory_problem, trajectory)
    assert eps[0] == 0.0
    assert eps[1] == pytest.approx(deltas[1], rel=1e-14)


def test_recovery_length_mismatch(oscillatory_problem):
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    with pytest.raises(LengthMismatch):
        recover_local_errors(np.zeros(7), oscillatory_problem, trajectory)


@pytest.mark.parametrize("method", [Method.EXPLICIT, Method.IMPLICIT])
def test_recovery_matches_direct_on_linear_problem(oscillatory_problem, method):
    # constant jacobians make the propagation recurrence exact
    mesh = make_mesh(0.0, 5.0, 5e-3)
    trajectory = integrate(oscillatory_problem, mesh, method)
    deltas = global_errors(trajectory, oscillatory_problem)
    recovered = recover_local_errors(deltas, oscillatory_problem, trajectory)
    direct = direct_local_errors(oscillatory_problem, mesh, method)
    assert float(np.max(np.abs(recovered - direct))) <= 1e-10


def test_recovery_zero_inputs(oscillatory_problem):
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    eps = recover_local_errors(np.zeros(11), oscillatory_problem, trajectory)
    assert np.all(eps == 0.0)


def test_recovered_locals_scale_quadratically_on_nonlinear_problem():
    # cubic kernel, no exact solution: reference-run deltas, recovered
    # locals still shrink ~4x when h halves
    problem = cubic_kernel(y0=1.0)
    peaks = []
    for h in (0.04, 0.02):
        mesh = make_mesh(0.0, 1.0, h)
        trajectory = integrate(problem, mesh, Method.EXPLICIT)
        reference = auto_reference(problem, trajectory)
        deltas = global_errors(trajectory, problem, reference)
        eps = recover_local_errors(deltas, problem, trajectory)
        peaks.append(float(np.max(np.abs(eps))))
    assert 3.0 <= peaks[0] / peaks[1] <= 5.5


def scalar_loop_analysis(problem, trajectory, deltas):
    """Coefficients and recovered local errors from the propagation
    formulas written node by node, one scalar jacobian call at a time."""
    w, h = trajectory.w, trajectory.mesh.h
    x = trajectory.mesh.nodes()[: w.size]

    def den(i):
        return (1.0 - h * problem.f_y(x[i], w[i])
                - 0.5 * h * h * problem.kernel_y(x[i], w[i], x[i]))

    alphas = np.full(w.size, np.nan)
    for i in range(w.size):
        if trajectory.method == Method.EXPLICIT:
            alphas[i] = (1.0 + h * problem.f_y(x[i], w[i])
                         + 0.5 * h * h * problem.kernel_y(x[i], w[i], x[i]))
        elif i + 1 < w.size:
            alphas[i] = (1.0 + h * h * problem.kernel_y(x[i], w[i], x[i])) / den(i + 1)
    s = np.zeros(w.size)
    for i in range(2, w.size):
        s[i] = s[i - 1] + deltas[i - 1] * problem.kernel_y(x[i - 1], w[i - 1], x[i - 1])
    eps = np.zeros(w.size)
    for i in range(w.size - 1):
        memory = h * h * s[i]
        if trajectory.method == Method.IMPLICIT:
            memory = memory / den(i + 1)
        eps[i + 1] = deltas[i + 1] - alphas[i] * deltas[i] - memory
    return alphas, eps


@pytest.mark.parametrize("method", list(Method))
def test_array_jacobians_match_scalar_loop_exactly(method):
    # cubic kernel: K_y = -3y**2 varies along the run, so every node's
    # coefficient and memory weight differ
    problem = cubic_kernel(y0=1.0)
    trajectory = integrate(problem, make_mesh(0.0, 2.0, 0.05), method)
    deltas = global_errors(trajectory, problem, auto_reference(problem, trajectory))
    alphas, eps = scalar_loop_analysis(problem, trajectory, deltas)
    assert np.unique(alphas[np.isfinite(alphas)]).size > 10
    assert np.array_equal(coefficients(problem, trajectory), alphas,
                          equal_nan=True)
    assert np.array_equal(recover_local_errors(deltas, problem, trajectory), eps)


def test_reducing_exact_is_rejected():
    # np.max over the node array would give every node the value at x_f
    problem = VideProblem(f=lambda x, y: -y, kernel=lambda x, y, t: 0.0 * y,
                          y0=1.0, exact=lambda x: np.exp(-np.max(x)))
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    with pytest.raises(KernelCallMismatch):
        global_errors(trajectory, problem)
    with pytest.raises(KernelCallMismatch):
        direct_local_errors(problem, mesh, Method.EXPLICIT)


def test_reducing_kernel_y_is_rejected():
    problem = dataclasses.replace(cubic_kernel(y0=1.0),
                                  kernel_y=lambda x, y, t: -3.0 * np.max(y) ** 2)
    trajectory = integrate(problem, make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)
    deltas = np.zeros(trajectory.w.size)
    with pytest.raises(KernelCallMismatch):
        coefficients(problem, trajectory)
    with pytest.raises(KernelCallMismatch):
        growth_rate_L(problem, trajectory)
    with pytest.raises(KernelCallMismatch):
        recover_local_errors(deltas, problem, trajectory)


@pytest.mark.parametrize("method", list(Method))
def test_constant_and_scalar_only_jacobians_are_accepted(method):
    # a jacobian returning one constant is broadcast over the nodes; one
    # that takes scalars only is called node by node; both give the values
    # of the vectorised built-in
    builtin = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(builtin, mesh, method)
    deltas = global_errors(trajectory, builtin)
    expected = coefficients(builtin, trajectory)
    scalar_only = dataclasses.replace(
        builtin, f_y=lambda x, y: -math.exp(0.0 * y),
        kernel_y=lambda x, y, t: 0.0 * math.exp(y))
    for problem in (dataclasses.replace(builtin, f_y=lambda x, y: -1.0), scalar_only):
        np.testing.assert_array_equal(coefficients(problem, trajectory),
                                      expected)
        np.testing.assert_array_equal(recover_local_errors(deltas, problem, trajectory),
                                      recover_local_errors(deltas, builtin, trajectory))


def test_scalar_only_exact_failure_names_the_node():
    # exact is called node by node; where it raises, the error is typed,
    # names that node and keeps the cause
    def exact(x):
        if x > 0.5:
            raise ZeroDivisionError("no value here")
        return math.exp(-x)

    problem = dataclasses.replace(pure_ode(y0=1.0), exact=exact)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    with pytest.raises(StepEvaluationError) as excinfo:
        global_errors(trajectory, problem)
    assert str(excinfo.value) == f"callback failed at {(float(mesh.nodes()[6]),)}"
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
    with pytest.raises(StepEvaluationError):
        direct_local_errors(problem, mesh, Method.IMPLICIT)


def test_scalar_only_exact_keeps_nonfinite_values_and_rejects_none():
    # a non-finite exact value is kept as it is; None is not a number
    def exact(x):
        return math.nan if x > 0.5 else math.exp(-x)

    problem = dataclasses.replace(pure_ode(y0=1.0), exact=exact)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, problem)
    assert np.all(np.isnan(deltas[6:])) and np.all(np.isfinite(deltas[:6]))
    nothing = dataclasses.replace(problem, exact=lambda x: None if x > 0.5 else math.exp(-x))
    with pytest.raises(StepEvaluationError) as excinfo:
        global_errors(trajectory, nothing)
    assert isinstance(excinfo.value.__cause__, TypeError)


@pytest.mark.parametrize("name", ["exact", "f_y", "kernel_y"])
def test_vector_callback_failure_is_typed(name):
    # an exception other than TypeError or ValueError from the array call
    # is not a scalars-only signal: it ends in StepEvaluationError, chained
    causes = []

    def divide(*args):
        causes.append(ZeroDivisionError("division by zero"))
        raise causes[-1]

    builtin = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(builtin, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, builtin)
    problem = dataclasses.replace(builtin, **{name: divide})
    runs = [lambda: recover_local_errors(deltas, problem, trajectory),
            lambda: growth_rate_L(problem, trajectory)]
    if name == "exact":
        runs = [lambda: global_errors(trajectory, problem),
                lambda: direct_local_errors(problem, mesh, Method.EXPLICIT)]
    for run in runs:
        with pytest.raises(StepEvaluationError) as excinfo:
            run()
        assert excinfo.value.__cause__ is causes[-1]
        assert str(excinfo.value) == f"{name} failed when called on arrays"


def test_scalar_only_jacobian_failure_is_typed():
    builtin = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(builtin, mesh, Method.IMPLICIT)
    deltas = global_errors(trajectory, builtin)
    broken = dataclasses.replace(builtin, kernel_y=lambda x, y, t: 0.0 * math.log(x))
    with pytest.raises(StepEvaluationError) as excinfo:
        recover_local_errors(deltas, broken, trajectory)
    assert isinstance(excinfo.value.__cause__, ValueError)  # log(0) at node 0


# --- direct local errors ----------------------------------------------------


def test_direct_local_errors_need_exact():
    with pytest.raises(MissingExact):
        direct_local_errors(cubic_kernel(), make_mesh(0.0, 1.0, 0.1),
                            Method.EXPLICIT)


def test_direct_local_errors_identity_dynamics():
    problem = VideProblem(f=lambda x, y: 0.0,
                          kernel=lambda x, y, t: 0.0 * y, y0=2.0,
                          exact=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)))
    eps = direct_local_errors(problem, make_mesh(0.0, 1.0, 0.1), Method.EXPLICIT)
    assert np.all(eps == 0.0)


def test_direct_local_errors_explicit_closed_form():
    # y' = -y: eps_{i+1} = y(x_i)*((1-h) - exp(-h))
    problem = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    eps = direct_local_errors(problem, mesh, Method.EXPLICIT)
    h = mesh.h
    expected = np.exp(-mesh.nodes()[:-1]) * ((1.0 - h) - math.exp(-h))
    assert eps[0] == 0.0
    np.testing.assert_allclose(eps[1:], expected, rtol=1e-12)


def test_direct_local_errors_implicit_closed_form():
    # backward Euler from exact history: eps_{i+1} = y(x_i)*(1/(1+h) - exp(-h))
    problem = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 1.0, 0.1)
    eps = direct_local_errors(problem, mesh, Method.IMPLICIT)
    h = mesh.h
    expected = np.exp(-mesh.nodes()[:-1]) * (1.0 / (1.0 + h) - math.exp(-h))
    np.testing.assert_allclose(eps[1:], expected, rtol=1e-9)


@pytest.mark.parametrize("strategy", list(SolveStrategy))
@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("problem", [
    test_equation(TestEquationParams(lam=-1.0, gamma=-2.0)),
    pure_ode(),
    constant_kernel(),
], ids=["test-equation", "pure-ode", "constant-kernel"])
def test_direct_local_errors_running_sum_matches_full_row(problem, method, strategy):
    # one cumulative-sum row against one row per step; eps = M - y cancels
    # the O(1) step values, so the agreement is relative to max(1, |y|)
    mesh = make_mesh(0.0, 5.0, 0.01)
    cfg = ImplicitSolveConfig(strategy=strategy)
    fast = direct_local_errors(problem, mesh, method, cfg)
    slow = direct_local_errors(dataclasses.replace(problem, kernel_depends_on_x=True),
                               mesh, method, cfg)
    scale = np.maximum(1.0, np.abs(problem.exact(mesh.nodes())))
    assert np.all(np.abs(fast - slow) <= 1e-12 * scale)


# --- order measurement ------------------------------------------------------


@given(c=st.floats(min_value=1e-4, max_value=1e3),
       p=st.floats(min_value=0.5, max_value=3.0),
       h1=st.floats(min_value=1e-2, max_value=0.5),
       ratio=st.floats(min_value=1.5, max_value=10.0))
@settings(max_examples=80, deadline=None)
def test_pairwise_order_recovers_synthetic_exponent(c, p, h1, ratio):
    h2 = h1 / ratio
    got = pairwise_order(c * h1 ** p, c * h2 ** p, h1, h2)
    assert got == pytest.approx(p, rel=1e-9, abs=1e-9)


def test_pairwise_order_linear_model_is_one():
    assert pairwise_order(0.02, 0.01, 0.02, 0.01) == pytest.approx(1.0, abs=1e-12)


def test_pairwise_order_zero_error():
    with pytest.raises(ZeroError):
        pairwise_order(1e-16, 1e-2, 0.02, 0.01)
    with pytest.raises(ZeroError):
        pairwise_order(1e-2, 0.0, 0.02, 0.01)


def test_pairwise_order_refuses_a_repeated_stepsize():
    # ln(h1/h2) = 0: a typed refusal, not a ZeroDivisionError
    with pytest.raises(RepeatedStep, match=r"stepsizes 0\.02 and 0\.02 are equal"):
        pairwise_order(0.02, 0.01, 0.02, 0.02)


def test_endpoint_error_matches_full_run(oscillatory_problem):
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(oscillatory_problem, mesh, Method.EXPLICIT)
    expected = global_errors(trajectory, oscillatory_problem)[-1]
    got = endpoint_error(oscillatory_problem, mesh, Method.EXPLICIT)
    assert got == pytest.approx(expected, rel=1e-14)


def test_endpoint_error_rejects_overflowed_run():
    problem = VideProblem(f=lambda x, y: 1e3 * y,
                          kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    with pytest.raises(ZeroError):
        endpoint_error(problem, make_mesh(0.0, 120.0, 1.0), Method.EXPLICIT)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_endpoint_error_refuses_a_non_finite_exact_solution():
    # the exact solution overflows near x = 7 while the explicit run stays
    # finite: the error at x_d = 20 is -inf, and the exact side is named
    problem = test_equation(TestEquationParams(lam=100.0, gamma=200.0))
    with pytest.raises(ZeroError, match=r"^w - y at x_d = 20\.0 is -inf: the run is "
                                        r"finite, the exact solution is not$"):
        endpoint_error(problem, make_mesh(0.0, 20.0, 0.5), Method.EXPLICIT)


@pytest.mark.parametrize("errors", [(math.inf, 1e-2), (1e-2, -math.inf), (math.nan, 1e-2),
                                    (math.inf, math.inf)])
def test_pairwise_order_refuses_a_non_finite_error(errors):
    with pytest.raises(ZeroError, match=r"order undefined$"):
        pairwise_order(*errors, 0.02, 0.01)


@pytest.mark.parametrize("method", [Method.EXPLICIT, Method.IMPLICIT])
def test_observed_order_first_order_on_test_equation(oscillatory_problem, method):
    h1, h2 = 0.01, 0.005
    p = pairwise_order(endpoint_error(oscillatory_problem, make_mesh(0.0, 5.0, h1), method),
                       endpoint_error(oscillatory_problem, make_mesh(0.0, 5.0, h2), method),
                       h1, h2)
    assert 0.85 <= p <= 1.15
