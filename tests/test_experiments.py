import json

import numpy as np
import pytest

from videstep import (
    FIGURES,
    ConfigurationWarning,
    Method,
    MissingExact,
    NonPositiveStep,
    NonTilingStep,
    RepeatedStep,
    ResultTable,
    SignCase,
    TestEquationParams,
    TooManySteps,
    VideProblem,
    cubic_kernel,
    direct_local_errors,
    integrate,
    pure_ode,
    run_consistency_study,
    run_order_study,
    test_equation,
)
from videstep.cli import main


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return names, rows


def sign_change_count(values):
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def sidecar(tmp_path, *argv):
    """The metadata sidecar of one CLI run, which must exit 0."""
    out = tmp_path / "run.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads((tmp_path / "run.meta.json").read_text())


# --- figure presets ---------------------------------------------------------


@pytest.mark.parametrize("figure_id,lam,gamma,h,x0,xf", [
    (1, -100.0, -200.0, 5e-3, 0.0, 5.0),
    (2, -100.0, -200.0, 5e-2, 0.0, 2.0),
    (3, 1.0, 2.0, 5e-3, 0.0, 5.0),
    (4, -1.0, -2.0, 5e-3, 0.0, 6.0),
    (5, -1.0, -2.0, 5e-3, 0.0, 5.0),
])
def test_figure_spec_defaults(figure_id, lam, gamma, h, x0, xf):
    # a figure's spec is its preset: option defaults by config key
    options = FIGURES[figure_id].options
    assert (options["lambda"], options["gamma"]) == (lam, gamma)
    assert options["h"] == h
    assert options["x0"] == x0
    assert options["xf"] == xf


def test_figure_spec_unknown_id(tmp_path, capsys):
    # the presets are figures 1-5; a config naming another is refused
    assert 7 not in FIGURES
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"command": "figure", "id": 7}))
    assert main(["--config", str(config)]) == 2
    assert "'id'" in capsys.readouterr().err


# --- figures ----------------------------------------------------------------


def test_figure1_stable_stiff_run(figure_table, tmp_path):
    table = figure_table(1)
    assert list(table.columns) == ["i", "x", "delta_abs", "c_curve", "bound"]
    meta = table.metadata
    assert sidecar(tmp_path, "figure", "--id", "1")["kind"] == "figure-1"
    assert meta["method"] == Method.EXPLICIT
    assert meta["diverged"] is False
    assert meta["overflow_at"] is None
    assert meta["L"] == pytest.approx(-100.5, rel=1e-12)
    assert meta["sign_case"] == SignCase.NEGATIVE
    assert meta["c_tilde_max"] > 0.0
    # dominance at every node, up to float round-trip
    ok = table.columns["delta_abs"] <= table.columns["bound"] * (1 + 1e-12) + 1e-300
    assert np.all(ok)


def test_figure2_diverges_and_is_recorded(figure_table, tmp_path):
    with pytest.warns(ConfigurationWarning):
        table = figure_table(2)
    meta = table.metadata
    assert meta["diverged"] is True
    assert meta["max_abs_delta"] > 1e10
    with pytest.warns(ConfigurationWarning):
        config = sidecar(tmp_path, "figure", "--id", "2", "--allow-divergence")["config"]
    assert config["command"] == "figure"
    assert config["id"] == 2
    assert config["h"] == 5e-2


def test_figure3_growing_run(figure_table):
    table = figure_table(3)
    meta = table.metadata
    assert meta["sign_case"] == SignCase.POSITIVE
    assert meta["diverged"] is False
    ok = table.columns["delta_abs"] <= table.columns["bound"] * (1 + 1e-12) + 1e-300
    assert np.all(ok)


def test_figure4_oscillatory_signed_curves(figure_table):
    table = figure_table(4)
    assert list(table.columns) == ["i", "x", "delta", "c_curve",
                                   "bound_plus", "bound_minus"]
    meta = table.metadata
    assert meta["method"] == Method.IMPLICIT
    delta = table.columns["delta"]
    assert sign_change_count(delta[1:]) >= 3
    np.testing.assert_allclose(table.columns["bound_minus"],
                               -table.columns["bound_plus"], rtol=1e-14)
    slack = table.columns["bound_plus"] * (1 + 1e-12) + 1e-300
    assert np.all(np.abs(delta) <= slack)


def test_figure5_local_error_recovery(figure_table, figure_run):
    table = figure_table(5)
    assert list(table.columns) == ["i", "x", "delta", "epsilon"]
    meta = table.metadata
    assert meta["method"] == Method.EXPLICIT
    assert meta["max_abs_epsilon"] > 0.0
    problem, mesh, _ = figure_run(5)
    direct = direct_local_errors(problem, mesh, Method.EXPLICIT)
    assert float(np.max(np.abs(table.columns["epsilon"] - direct))) <= 1e-10


@pytest.mark.parametrize("figure_id", [4, 5])
def test_figure_sidecar_solver_block(figure_table, figure_run, figure_id):
    # figure 4 runs the implicit method with Newton, figure 5 the explicit
    table = figure_table(figure_id)
    problem, mesh, _ = figure_run(figure_id)
    run = integrate(problem, mesh, table.metadata["method"])
    iterations = [d.iterations for d in run.step_diagnostics]
    assert table.metadata["solver"] == {
        "max_iterations": max(iterations),
        "mean_iterations": float(np.mean(iterations)),
        "worst_residual": max(d.last_residual for d in run.step_diagnostics),
    }
    assert (table.metadata["solver"]["max_iterations"] > 0) == (figure_id == 4)


def test_run_experiment_method_override_is_honoured(tmp_path):
    meta = sidecar(tmp_path, "figure", "--id", "4", "--method", "explicit")
    assert meta["method"] == Method.EXPLICIT


# --- studies ----------------------------------------------------------------


def test_order_study_first_order(tmp_path):
    table = run_order_study(test_equation(TestEquationParams(-1.0, -2.0)), 5.0,
                            [0.02, 0.01, 0.005], Method.EXPLICIT)
    assert list(table.columns) == ["h", "delta_abs", "p"]
    p = table.columns["p"]
    assert np.isnan(p[0])
    assert np.all((p[1:] >= 0.85) & (p[1:] <= 1.15))
    config = sidecar(tmp_path, "order", "--lambda=-1", "--gamma=-2", "--x-d", "5",
                     "--h-list", "0.02,0.01,0.005")["config"]
    assert config["command"] == "order"
    assert config["h_list"] == [0.02, 0.01, 0.005]


@pytest.mark.parametrize("method", list(Method))
def test_order_study_cubic_kernel_against_reference(method):
    # no exact solution: every rung is measured against auto_reference
    table = run_order_study(cubic_kernel(y0=1.8), 5.0, [0.1, 0.05, 0.025], method)
    p = table.columns["p"][1:]
    assert np.all((p >= 0.8) & (p <= 1.2))


def test_consistency_study_second_order():
    table = run_consistency_study(test_equation(TestEquationParams(-1.0, -2.0)),
                                  [0.02, 0.01, 0.005], Method.EXPLICIT)
    assert list(table.columns) == ["h", "local_max", "q"]
    local_max = table.columns["local_max"]
    assert np.all(np.diff(local_max) < 0.0)  # consistency: shrinks with h
    q = table.columns["q"]
    assert np.isnan(q[0])
    assert np.all((q[1:] >= 1.7) & (q[1:] <= 2.3))


def test_consistency_study_manufactured_problem(tmp_path):
    table = run_consistency_study(pure_ode(y0=2.0), [0.04, 0.02], Method.IMPLICIT, xf=1.0)
    assert table.columns["local_max"][0] > table.columns["local_max"][1]
    config = sidecar(tmp_path, "consistency", "--problem", "pure-ode", "--y0", "2",
                     "--h-list", "0.04,0.02", "--method", "implicit", "--xf", "1")["config"]
    assert config["y0"] == 2.0


# Each study with its problem and method, over a stepsize list.
_STUDIES = {
    "order": lambda h_list: run_order_study(cubic_kernel(y0=1.8), 5.0, h_list,
                                            Method.EXPLICIT),
    "consistency": lambda h_list: run_consistency_study(
        test_equation(TestEquationParams(-1.0, -2.0)), h_list, Method.EXPLICIT),
}


@pytest.mark.parametrize("h_list,error,message", [
    ([0.002, 0.002], RepeatedStep, r"^stepsizes 0\.002 and 0\.002 are equal "),
    ([0.002, 0.3], NonTilingStep, r"^h=0\.3 does not tile \[0\.0, 5\.0\]"),
    ([0.002, 0.0], NonPositiveStep, r"^step size must be positive and finite, got h=0\.0$"),
    ([0.1, 1e-7], TooManySteps, r"^5\.000e\+7 steps exceed the cap"),
], ids=["repeated", "non-tiling", "zero", "too-many-steps"])
@pytest.mark.parametrize("study", sorted(_STUDIES))
def test_study_refuses_a_bad_list_before_any_rung_runs(march_calls, study, h_list, error,
                                                       message):
    with pytest.raises(error, match=message):
        _STUDIES[study](h_list)
    assert march_calls == []


def test_study_reports_an_input_fault_before_a_numerical_one(march_calls):
    # the first rung would diverge (ZeroError, exit 3); the second does not tile
    problem = VideProblem(f=lambda x, y: 1e3 * y, kernel=lambda x, y, t: 0.0 * y, y0=1.0)
    with pytest.raises(NonTilingStep):
        run_order_study(problem, 120.0, [1.0, 0.7], Method.EXPLICIT)
    assert march_calls == []


def test_consistency_study_needs_the_exact_solution(march_calls):
    with pytest.raises(MissingExact):
        run_consistency_study(cubic_kernel(), [0.1, 0.1], Method.EXPLICIT)
    assert march_calls == []


# --- ResultTable ------------------------------------------------------------


def test_result_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        ResultTable(columns={"a": np.zeros(3), "b": np.zeros(2)}, metadata={})


def test_result_table_csv_format(tmp_path):
    table = ResultTable(
        columns={"i": np.array([0, 1]), "x": np.array([0.0, 0.125])},
        metadata={"note": "x"},
    )
    out = tmp_path / "t.csv"
    written = table.write(out, "csv")
    assert written == [out, tmp_path / "t.meta.json"]
    names, rows = read_csv(out)
    assert names == ["i", "x"]
    assert rows[0][0] == "0" and rows[1][0] == "1"
    # 17 significant digits: float64 round-trips exactly
    assert float(rows[1][1]) == 0.125
    assert "e" in rows[1][1]


def test_result_table_csv_roundtrips_doubles(tmp_path):
    values = np.array([1.0 / 3.0, np.pi, 5e-3, 6.513893696314359e61])
    table = ResultTable(columns={"v": values}, metadata={})
    out = tmp_path / "v.csv"
    table.write(out, "csv")
    _, rows = read_csv(out)
    back = np.array([float(r[0]) for r in rows])
    assert np.all(back == values)


@pytest.mark.parametrize("block_rows", [65536, 3])
def test_result_table_csv_cells_pinned(tmp_path, monkeypatch, block_rows):
    # the cells of every row, byte for byte: the i column by str(int(v)),
    # the others by format(float(v), ".16e"), whatever the block size
    monkeypatch.setattr("videstep.experiments.CSV_BLOCK_ROWS", block_rows)
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                       1.7976931348623157e308, 1.0 / 3.0])
    columns = {"i": np.arange(values.size), "v": values, "w": values[::-1] * -1.0}
    out = tmp_path / "cells.csv"
    ResultTable(columns=columns, metadata={}).to_csv(out)
    expected = "i,v,w\n" + "".join(
        ",".join([str(int(i)), format(float(v), ".16e"), format(float(w), ".16e")]) + "\n"
        for i, v, w in zip(*columns.values()))
    assert out.read_bytes() == expected.encode()
    assert "\n3,-0.0000000000000000e+00,0.0000000000000000e+00\n" in expected
    assert "\n6,3.3333333333333331e-01,nan\n" in expected


def test_result_table_json_payload(tmp_path):
    table = ResultTable(
        columns={"i": np.array([0, 1]), "v": np.array([0.5, 1.5])},
        metadata={"method": Method.EXPLICIT, "sign_case": SignCase.ZERO,
                  "n": np.int64(3), "x": np.float64(0.25)},
    )
    out = tmp_path / "t.json"
    assert table.write(out, "json") == [out]
    payload = json.loads(out.read_text())
    assert payload["metadata"]["method"] == "explicit"
    assert payload["metadata"]["sign_case"] == "zero"
    assert payload["metadata"]["n"] == 3
    assert payload["columns"]["v"] == [0.5, 1.5]


def test_metadata_sidecar_reproduces_run(tmp_path):
    config = sidecar(tmp_path, "figure", "--id", "5")["config"]
    assert config == {
        "command": "figure", "id": 5, "lambda": -1.0, "gamma": -2.0,
        "x0": 0.0, "xf": 5.0, "h": 5e-3, "method": "explicit",
        "strategy": "newton", "rel_tol": 1e-12, "abs_tol": 1e-14,
        "max_iterations": 50, "format": "csv",
    }


def test_experiment_is_deterministic(figure_table, tmp_path):
    a = figure_table(5)
    b = figure_table(5)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
