"""Acceptance suite: the shipped claims, one criterion per test.

Each test prints one PASS/FAIL line (visible with -v through the test
outcome, and in captured output with the measured numbers) and asserts at
the stated tolerance. Tolerances are written literally in each test; none
are loosened to accommodate the implementation.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from videstep import (
    ConfigurationWarning,
    ImplicitSolveConfig,
    Method,
    NoConvergence,
    TestEquationParams,
    constant_kernel,
    direct_local_errors,
    endpoint_error,
    figure_spec,
    global_errors,
    integrate,
    make_mesh,
    pairwise_order,
    pure_ode,
    recover_local_errors,
    run_experiment,
    test_equation,
)

OSCILLATORY = TestEquationParams(lam=-1.0, gamma=-2.0)
STIFF = TestEquationParams(lam=-100.0, gamma=-200.0)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# 1 ---------------------------------------------------------------------------


def test_criterion_1_global_first_order_convergence():
    problem = test_equation(OSCILLATORY)
    h_list = [0.02, 0.01, 0.005]
    started = time.perf_counter()
    orders = {}
    for method in (Method.EXPLICIT, Method.IMPLICIT):
        errs = [abs(endpoint_error(problem, 5.0, h, method)) for h in h_list]
        orders[method.value] = [
            pairwise_order(errs[k - 1], errs[k], h_list[k - 1], h_list[k])
            for k in range(1, len(h_list))
        ]
    runtime = time.perf_counter() - started
    all_p = [p for ps in orders.values() for p in ps]
    ok = all(0.85 <= p <= 1.15 for p in all_p) and runtime < 5.0
    report("global first-order convergence", ok,
           f"p={['%.4f' % p for p in all_p]} (need [0.85, 1.15]), "
           f"runtime {runtime:.2f}s (need < 5s)")
    assert ok


# 2 ---------------------------------------------------------------------------


def test_criterion_2_local_second_order_consistency():
    problem = test_equation(OSCILLATORY)
    h_list = [0.02, 0.01, 0.005]
    started = time.perf_counter()
    ratios, monotone = [], True
    for method in (Method.EXPLICIT, Method.IMPLICIT):
        peaks = [
            float(np.max(np.abs(direct_local_errors(
                problem, make_mesh(0.0, 5.0, h), method))))
            for h in h_list
        ]
        monotone = monotone and all(a > b for a, b in zip(peaks, peaks[1:]))
        ratios += [peaks[k - 1] / peaks[k] for k in range(1, len(peaks))]
    runtime = time.perf_counter() - started
    ok = (all(3.4 <= r <= 4.6 for r in ratios) and monotone and runtime < 5.0)
    report("local second-order consistency", ok,
           f"halving ratios={['%.3f' % r for r in ratios]} (need [3.4, 4.6]), "
           f"monotone={monotone}, runtime {runtime:.2f}s (need < 5s)")
    assert ok


# 3 ---------------------------------------------------------------------------


def test_criterion_3_propagation_recurrence_exact_on_linear():
    # Run the recurrence forwards from the direct local errors, with its
    # coefficients written out from f_y = lam and K_y = gamma, and compare
    # the result with the observed global errors.
    lam, gamma = OSCILLATORY.lam, OSCILLATORY.gamma
    problem = test_equation(OSCILLATORY)
    mesh = make_mesh(0.0, 5.0, 5e-3)
    h = mesh.h
    den = 1.0 - h * lam - 0.5 * h * h * gamma
    alpha = {Method.EXPLICIT: 1.0 + h * lam + 0.5 * h * h * gamma,
             Method.IMPLICIT: (1.0 + h * h * gamma) / den}
    memory_weight = {Method.EXPLICIT: h * h, Method.IMPLICIT: h * h / den}
    peaks = {}
    for method in (Method.EXPLICIT, Method.IMPLICIT):
        deltas = global_errors(integrate(problem, mesh, method), problem)
        eps = direct_local_errors(problem, mesh, method)
        forward = np.zeros(deltas.size)
        s = 0.0  # s_i = sum_{j=1}^{i-1} forward_j * gamma
        for i in range(deltas.size - 1):
            forward[i + 1] = eps[i + 1] + memory_weight[method] * s + alpha[method] * forward[i]
            if i >= 1:
                s += forward[i] * gamma
        peaks[method.value] = float(np.max(np.abs(forward - deltas)))
    ok = all(peak <= 1e-10 for peak in peaks.values())
    report("exact propagation recurrence", ok,
           f"max|forward - delta| explicit={peaks['explicit']:.2e}, "
           f"implicit={peaks['implicit']:.2e} (need <= 1e-10)")
    assert ok


# 4 ---------------------------------------------------------------------------


def test_criterion_4_local_error_recovery():
    problem = test_equation(OSCILLATORY)
    mesh = make_mesh(0.0, 5.0, 5e-3)
    trajectory = integrate(problem, mesh, Method.EXPLICIT)
    deltas = global_errors(trajectory, problem)
    recovered = recover_local_errors(deltas, problem, trajectory)
    direct = direct_local_errors(problem, mesh, Method.EXPLICIT)
    gap = float(np.max(np.abs(recovered - direct)))
    ok = gap <= 1e-10
    report("local-error recovery", ok,
           f"max|recovered - direct| = {gap:.2e} (need <= 1e-10)")
    assert ok


# 5 ---------------------------------------------------------------------------


def test_criterion_5_bound_dominance():
    overshoots = {}
    for figure_id in (1, 3, 4):
        table = run_experiment(figure_spec(figure_id))
        if figure_id == 4:
            delta_abs = np.abs(table.columns["delta"])
            bound = table.columns["bound_plus"]
        else:
            delta_abs = table.columns["delta_abs"]
            bound = table.columns["bound"]
        # float round-trip slack only; the bound is exact in real arithmetic
        overshoots[figure_id] = bool(
            np.all(delta_abs <= bound * (1.0 + 1e-12) + 1e-300))
    ok = all(overshoots.values())
    report("bound dominance (figures 1, 3, 4)", ok,
           f"|delta| <= U at every node: {overshoots}")
    assert ok


# 6 ---------------------------------------------------------------------------


# The documented figure runs: lam, gamma, h, xf, implicit (x0 = 0, y0 = 2).
FIGURE_RUNS = {
    1: (-100.0, -200.0, 5e-3, 5.0, False),
    3: (1.0, 2.0, 5e-3, 5.0, False),
    4: (-1.0, -2.0, 5e-3, 6.0, True),
}


def expansion_error(lam, gamma, implicit, xs):
    """Leading global-error coefficient e(x), with Delta ~ h*e(x).

    Euler's one-step defect is h**2*y''/2, so e solves the variational
    equation e' = lam*e + gamma*int e -+ y''/2, e(0) = 0 (minus for the
    explicit method, plus for the implicit one). The trapezium memory
    term only enters at O(h**2).
    """
    sign = 1.0 if implicit else -1.0

    def rhs(x, z):
        y, int_y, e, int_e = z
        dy = lam * (y - 1.0) + gamma * int_y
        d2y = lam * dy + gamma * y
        return [dy, y, lam * e + gamma * int_e + sign * 0.5 * d2y, e]

    sol = solve_ivp(rhs, (xs[0], xs[-1]), [2.0, 0.0, 0.0, 0.0],
                    method="Radau", t_eval=xs, rtol=1e-10, atol=1e-13)
    assert sol.success, sol.message
    return sol.y[2]


def post_transient_amplitude(xs, curve, L):
    """max|curve| over the nodes where e^{(x-x0)L} <= 1e-3; over every
    estimated (finite) node when none qualifies (L > 0, or L mild)."""
    finite = np.isfinite(curve)
    past = finite & (np.exp(L * (xs - xs[0])) <= 1e-3)
    return float(np.max(np.abs(curve[past if past.any() else finite])))


def test_criterion_6_figure_anchors():
    # Compared: the amplitude curve C~_i h/L past the initial transient.
    # metadata["c_tilde_max"] is the run maximum, which on figure 1 comes
    # from the first nodes (h*|fast root| ~ 0.49) and reads 0.26.
    # Expected: the first-order expansion Delta ~ h*e(x), fed through the
    # same curve. Figure 1 also keeps its literal anchor 0.0041. The old
    # figure 3 and 4 literals (2.5e-4, 1.14e-8) are not values of the
    # curve at any node of the documented runs: figure 3's curve rises
    # monotonically from 1.2e-2 to 5.0, and figure 4's (L < 0, so the
    # denominator is at most 1) stays above min|Delta_i| = 2.5e-6.
    literal = {1: [0.0041], 3: [], 4: []}
    measured, expected, oracle_gap, within = {}, {}, {}, {}
    for figure_id, (lam, gamma, h, xf, implicit) in FIGURE_RUNS.items():
        table = run_experiment(figure_spec(figure_id))
        L_run = table.metadata["L"]
        measured[figure_id] = post_transient_amplitude(
            table.columns["x"], table.columns["c_curve"], L_run)

        # growth rate from the documented constant-jacobian formula
        if implicit:
            L = (lam + 1.5 * h * gamma) / (1.0 - h * lam - 0.5 * h * h * gamma)
        else:
            L = lam + 0.5 * h * gamma
        xs = make_mesh(0.0, xf, h).nodes()
        h_e = h * expansion_error(lam, gamma, implicit, xs)
        curve = np.full(xs.size, np.nan)
        curve[1:] = h_e[1:] / np.expm1(L * xs[1:])
        expansion = post_transient_amplitude(xs, curve, L)
        expected[figure_id] = literal[figure_id] + [expansion]

        # the oracle must reproduce Delta itself, away from zero crossings
        # and past figure 1's transient
        delta_abs = np.abs(table.columns["delta" if figure_id == 4
                                         else "delta_abs"])
        window = xs > 0.2
        keep = window & (np.abs(h_e) >= 0.1 * np.max(np.abs(h_e[window])))
        oracle_gap[figure_id] = float(np.max(
            np.abs(np.abs(h_e[keep]) / delta_abs[keep] - 1.0)))

        within[figure_id] = (
            math.isclose(L, L_run, rel_tol=1e-12)
            and oracle_gap[figure_id] <= 0.05
            and all(value / 3.0 <= measured[figure_id] <= value * 3.0
                    for value in expected[figure_id]))
    ok = all(within.values())
    report("figure amplitude anchors", ok,
           ", ".join(f"figure {fid}: post-transient |C~h/L|="
                     f"{measured[fid]:.4e} vs "
                     f"{['%.3e' % v for v in expected[fid]]} (need within "
                     f"factor 3), |h*e/delta - 1| <= {oracle_gap[fid]:.3f} "
                     f"(need <= 0.05)"
                     for fid in FIGURE_RUNS))
    assert ok


def test_criterion_6_divergent_run_magnitude():
    with pytest.warns(ConfigurationWarning):
        table = run_experiment(figure_spec(2))
    peak = table.metadata["max_abs_delta"]
    ok = bool(table.metadata["diverged"]) and peak >= 1e10
    report("divergent-run magnitude", ok,
           f"diverged={table.metadata['diverged']}, "
           f"max|delta|={peak:.2e} (need >= 1e10)")
    assert ok


def test_criterion_6_amplitude_curve_superimposed_when_l_strongly_negative():
    # where e^{(x-x0)L} has fully decayed the estimation denominator is 1,
    # so the amplitude curve must lie on top of the error curve
    table = run_experiment(figure_spec(1))
    L = table.metadata["L"]
    xs = table.columns["x"]
    mask = np.abs(np.expm1(L * (xs - xs[0]))) >= 0.999
    delta_abs = table.columns["delta_abs"][mask]
    curve = table.columns["c_curve"][mask]
    keep = delta_abs > 0.0
    gap = float(np.max(np.abs(curve[keep] / delta_abs[keep] - 1.0)))
    ok = mask.sum() > 100 and gap <= 1e-3
    report("amplitude curve superimposed on error curve", ok,
           f"max relative gap {gap:.2e} over {int(mask.sum())} nodes "
           f"(need <= 1e-3)")
    assert ok


def test_criterion_6_oscillatory_error_sign_changes():
    table = run_experiment(figure_spec(4))
    delta = table.columns["delta"][1:]
    signs = np.sign(delta)
    signs = signs[signs != 0]
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    ok = changes >= 3
    report("oscillatory signed error", ok,
           f"{changes} sign changes (need >= 3)")
    assert ok


# 7 ---------------------------------------------------------------------------


def test_criterion_7_stiff_stability_contrast():
    problem = test_equation(STIFF)
    mesh = make_mesh(0.0, 2.0, 5e-2)
    explicit = integrate(problem, mesh, Method.EXPLICIT)
    implicit = integrate(problem, mesh, Method.IMPLICIT)
    explicit_peak = float(np.max(np.abs(explicit.w)))
    implicit_peak = float(np.max(np.abs(implicit.w)))
    ok = explicit_peak > 1e10 and implicit_peak <= 10.0
    report("stiff stability contrast", ok,
           f"explicit max|w|={explicit_peak:.2e} (need > 1e10), "
           f"implicit max|w|={implicit_peak:.2f} (need <= 10)")
    assert ok


# 8 ---------------------------------------------------------------------------


def equation_residual(problem, x, fd_step=1e-6):
    y = lambda s: float(problem.exact(s))
    dy = (y(x + fd_step) - y(x - fd_step)) / (2.0 * fd_step)
    integral, _ = quad(lambda t: float(problem.kernel(x, y(t), t)), 0.0, x,
                       epsabs=1e-10, epsrel=1e-10, limit=200)
    return dy - float(problem.f(x, y(x))) - integral


def test_criterion_8_oracle_equivalence():
    # hand-rolled Euler oracles for the kernel-free problem y' = -y
    problem = pure_ode(y0=1.0)
    mesh = make_mesh(0.0, 2.0, 0.05)
    forward = np.empty(mesh.n_steps + 1)
    forward[0] = 1.0
    for i in range(mesh.n_steps):
        forward[i + 1] = forward[i] + mesh.h * (-forward[i])
    backward = np.array([(1.0 / (1.0 + mesh.h)) ** i
                         for i in range(mesh.n_steps + 1)])
    explicit_gap = float(np.max(np.abs(
        integrate(problem, mesh, Method.EXPLICIT).w - forward)))
    implicit_gap = float(np.max(np.abs(
        integrate(problem, mesh, Method.IMPLICIT).w - backward)))

    # every built-in exact solution satisfies its own equation
    residuals = {}
    for name, candidate in [
        ("test-equation", test_equation(OSCILLATORY)),
        ("test-equation-stiff", test_equation(STIFF)),
        ("pure-ode", pure_ode()),
        ("constant-kernel", constant_kernel()),
    ]:
        residuals[name] = max(abs(equation_residual(candidate, x))
                              for x in (0.3, 0.9, 1.7))
    worst = max(residuals.values())
    ok = explicit_gap <= 1e-12 and implicit_gap <= 1e-12 and worst <= 1e-6
    report("oracle equivalence", ok,
           f"Euler gaps explicit={explicit_gap:.2e}, implicit={implicit_gap:.2e} "
           f"(need <= 1e-12); worst equation residual {worst:.2e} (need <= 1e-6)")
    assert ok


# 9 ---------------------------------------------------------------------------


def test_criterion_9_implicit_solver_contract():
    problem = test_equation(OSCILLATORY)
    mesh = make_mesh(0.0, 1.0, 0.1)
    trajectory = integrate(problem, mesh, Method.IMPLICIT)
    worst = max(d.iterations for d in trajectory.step_diagnostics)
    raised = False
    try:
        integrate(problem, mesh, Method.IMPLICIT,
                  ImplicitSolveConfig(max_iterations=1))
    except NoConvergence:
        raised = True
    ok = worst <= 2 and raised
    report("implicit solver contract", ok,
           f"max Newton iterations {worst} (need <= 2); "
           f"NoConvergence at cap 1: {raised}")
    assert ok
