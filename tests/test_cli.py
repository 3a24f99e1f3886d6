import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from videstep import (
    Method,
    TestEquationParams,
    auto_reference,
    cubic_kernel,
    integrate,
    make_mesh,
    test_equation,
)
from videstep.cli import _build_parser, _options, main
from videstep.test_problems import PROBLEM_IDS


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("VIDESTEP_OUT_DIR", str(tmp_path))
    return tmp_path


def test_solve_writes_trajectory_and_sidecar(outdir, capsys):
    code = main(["solve", "--problem", "pure-ode", "--xf", "1", "--h", "0.1",
                 "--out", "run.csv"])
    assert code == 0
    names, rows = read_csv(outdir / "run.csv")
    assert names == ["i", "x", "w"]
    assert len(rows) == 11
    assert float(rows[0][2]) == 1.0
    meta = json.loads((outdir / "run.meta.json").read_text())
    assert meta["problem"] == "pure-ode"
    assert meta["diverged"] is False
    # the written paths are reported on stdout
    printed = capsys.readouterr().out
    assert "run.csv" in printed and "run.meta.json" in printed


def test_solve_json_format_single_file(outdir):
    code = main(["solve", "--problem", "pure-ode", "--xf", "1", "--h", "0.1",
                 "--format", "json", "--out", "run.json"])
    assert code == 0
    payload = json.loads((outdir / "run.json").read_text())
    assert set(payload) == {"metadata", "columns"}
    assert len(payload["columns"]["w"]) == 11
    assert not (outdir / "run.meta.json").exists()


def test_errors_command_columns(outdir):
    code = main(["errors", "--problem", "test-equation", "--lambda", "-1",
                 "--gamma", "-2", "--xf", "1", "--h", "0.1", "--out", "e.csv"])
    assert code == 0
    names, rows = read_csv(outdir / "e.csv")
    assert names == ["i", "x", "w", "y", "delta"]
    # delta = w - y on every row
    for row in rows:
        w, y, delta = (float(v) for v in row[2:])
        assert delta == pytest.approx(w - y, abs=1e-15)


def test_bound_command_metadata(outdir):
    code = main(["bound", "--problem", "test-equation", "--lambda", "-1",
                 "--gamma", "-2", "--xf", "2", "--h", "0.01", "--out", "b.csv"])
    assert code == 0
    names, _ = read_csv(outdir / "b.csv")
    assert names == ["i", "x", "delta_abs", "c_curve", "bound"]
    meta = json.loads((outdir / "b.meta.json").read_text())
    assert meta["sign_case"] == "negative"
    assert meta["L"] < 0.0
    assert meta["c_tilde_max"] > 0.0


def test_local_command_recovered_matches_direct(outdir):
    code = main(["local", "--problem", "test-equation", "--lambda", "-1",
                 "--gamma", "-2", "--xf", "1", "--h", "0.01", "--out", "l.csv"])
    assert code == 0
    names, rows = read_csv(outdir / "l.csv")
    assert names == ["i", "x", "epsilon_recovered", "epsilon_direct"]
    rec = np.array([float(r[2]) for r in rows])
    direct = np.array([float(r[3]) for r in rows])
    assert float(np.max(np.abs(rec - direct))) <= 1e-10


@pytest.mark.parametrize("method", ["explicit", "implicit"])
def test_local_without_exact_solution_refuses_before_running(outdir, capsys,
                                                            monkeypatch, method):
    runs = []
    monkeypatch.setattr("videstep.cli.integrate", lambda *args: runs.append(args))
    code = main(["local", "--problem", "cubic-kernel", "--xf", "5", "--h", "0.1",
                 "--method", method])
    assert code == 2
    assert capsys.readouterr().err == "error: direct local errors need the exact solution\n"
    assert runs == []
    assert list(outdir.iterdir()) == []


def test_errors_sidecar_records_the_reference(outdir):
    code = main(["errors", "--problem", "cubic-kernel", "--xf", "5", "--h", "0.1",
                 "--out", "e.csv"])
    assert code == 0
    meta = json.loads((outdir / "e.meta.json").read_text())
    assert meta["source"] == "against-reference-run"
    problem = cubic_kernel()
    reference = auto_reference(problem, integrate(problem, make_mesh(0.0, 5.0, 0.1),
                                                  Method.EXPLICIT))
    assert meta["reference_h"] == reference.mesh.h == pytest.approx(0.01)
    assert meta["reference_error_estimate"] == reference.error_estimate > 0.0
    # a run against an exact solution names no reference
    main(["errors", "--problem", "pure-ode", "--xf", "1", "--h", "0.1", "--out", "x.csv"])
    meta = json.loads((outdir / "x.meta.json").read_text())
    assert meta["source"] == "against-exact"
    assert "reference_h" not in meta and "reference_error_estimate" not in meta


@pytest.mark.parametrize("method", ["explicit", "implicit"])
@pytest.mark.parametrize("command", ["solve", "errors", "bound", "local"])
def test_sidecar_solver_block_summarises_step_diagnostics(outdir, command, method):
    code = main([command, "--problem", "test-equation", "--lambda", "-1", "--gamma", "-2",
                 "--xf", "1", "--h", "0.1", "--method", method, "--out", "r.csv"])
    assert code == 0
    run = integrate(test_equation(TestEquationParams(-1.0, -2.0)),
                    make_mesh(0.0, 1.0, 0.1), Method(method))
    iterations = [d.iterations for d in run.step_diagnostics]
    expected = {
        "max_iterations": max(iterations),
        "mean_iterations": float(np.mean(iterations)),
        "worst_residual": max(d.last_residual for d in run.step_diagnostics),
    }
    assert json.loads((outdir / "r.meta.json").read_text())["solver"] == expected
    assert (expected["max_iterations"] > 0) == (method == "implicit")


def test_order_command(outdir):
    code = main(["order", "--problem", "pure-ode", "--x-d", "1",
                 "--h-list", "0.04,0.02", "--out", "o.csv"])
    assert code == 0
    names, rows = read_csv(outdir / "o.csv")
    assert names == ["h", "delta_abs", "p"]
    assert 0.85 <= float(rows[1][2]) <= 1.15


def test_consistency_command(outdir):
    code = main(["consistency", "--problem", "pure-ode", "--xf", "1",
                 "--h-list", "0.04,0.02", "--out", "c.csv"])
    assert code == 0
    names, rows = read_csv(outdir / "c.csv")
    assert names == ["h", "local_max", "q"]
    assert 1.7 <= float(rows[1][2]) <= 2.3


def test_figure_command_uses_per_figure_method_default(outdir):
    code = main(["figure", "--id", "4", "--xf", "1", "--out", "f4.csv"])
    assert code == 0
    meta = json.loads((outdir / "f4.meta.json").read_text())
    # figure 4 defaults to the implicit method; a plain run must keep it
    assert meta["method"] == "implicit"
    assert meta["config"]["xf"] == 1.0


# the divergent run legitimately warns about the bound-fit stepsize
@pytest.mark.filterwarnings("ignore::videstep.errors.ConfigurationWarning")
def test_figure_divergence_exit_code(outdir):
    assert main(["figure", "--id", "2", "--out", "f2.csv"]) == 3
    assert main(["figure", "--id", "2", "--allow-divergence",
                 "--out", "f2b.csv"]) == 0
    meta = json.loads((outdir / "f2b.meta.json").read_text())
    assert meta["diverged"] is True
    assert meta["max_abs_delta"] > 1e10


def test_solve_divergence_exit_code(outdir, capsys):
    args = ["solve", "--problem", "test-equation", "--lambda", "-100",
            "--gamma", "-200", "--xf", "2", "--h", "0.05", "--out", "d.csv"]
    assert main(args) == 3
    assert "--allow-divergence" in capsys.readouterr().err
    # output is still written for inspection
    assert (outdir / "d.csv").exists()
    assert main(args + ["--allow-divergence"]) == 0


def test_no_convergence_exits_numerical(outdir, capsys):
    code = main(["solve", "--problem", "test-equation", "--lambda", "-1",
                 "--gamma", "-2", "--xf", "1", "--h", "0.1",
                 "--method", "implicit", "--max-iterations", "1",
                 "--out", "n.csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "step 1" in err


def test_stalled_solve_stops_before_a_huge_iteration_cap(outdir, capsys):
    # tolerances below rounding: the residual stalls at 5.551e-17 and the
    # iterate stops changing, so the solve gives up long before 10**9
    code = main(["solve", "--problem", "cubic-kernel", "--xf", "1", "--h", "0.5",
                 "--method", "implicit", "--rel-tol", "5e-324", "--abs-tol", "5e-324",
                 "--max-iterations", "1000000000", "--out", "s.csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert "(last residual 5.551e-17)" in err
    assert int(err.split("no convergence after ")[1].split()[0]) < 100


def test_step_cap_message_reads_in_exponent_form(outdir, capsys):
    code = main(["solve", "--problem", "pure-ode", "--xf", "1e300", "--h", "0.25"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 4.000e+300 steps exceed the cap of 10000000\n")


def test_negative_number_in_exponent_form_needs_equals_sign(outdir):
    # argparse takes "-1e2" after a space for an option, not a number
    argv = ["solve", "--problem", "test-equation", "--gamma", "-2",
            "--xf", "1", "--h", "0.01", "--out", "l.csv"]
    assert _exit_code(argv + ["--lambda=-1e2"]) == (0, "")
    code, err = _exit_code(argv + ["--lambda", "-1e2"])
    assert code == 2
    assert "argument --lambda: expected one argument" in err
    assert "Traceback" not in err


def test_missing_required_option_is_usage_error(outdir, capsys):
    code = main(["solve", "--problem", "pure-ode", "--h", "0.1"])
    assert code == 2
    assert "--xf" in capsys.readouterr().err


def test_missing_lambda_reports_flag_spelling(outdir, capsys):
    code = main(["solve", "--problem", "test-equation", "--gamma", "-2",
                 "--xf", "1", "--h", "0.1"])
    assert code == 2
    assert "--lambda" in capsys.readouterr().err


def test_y0_rejected_for_test_equation(outdir, capsys):
    code = main(["solve", "--problem", "test-equation", "--lambda", "-1",
                 "--gamma", "-2", "--y0", "3", "--xf", "1", "--h", "0.1"])
    assert code == 2
    assert "y0" in capsys.readouterr().err


def test_lambda_rejected_for_manufactured_problem(outdir, capsys):
    code = main(["solve", "--problem", "pure-ode", "--lambda", "-1",
                 "--xf", "1", "--h", "0.1"])
    assert code == 2


def test_argparse_usage_errors_exit_two(outdir):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--problem", "no-such-problem", "--xf", "1", "--h", "0.1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_bad_mesh_is_usage_error(outdir, capsys):
    code = main(["solve", "--problem", "pure-ode", "--xf", "1", "--h", "0.3"])
    assert code == 2


def test_config_file_supplies_options(outdir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "pure-ode", "xf": 1.0, "h": 0.1}))
    code = main(["solve", "--config", str(config), "--out", "c.csv"])
    assert code == 0
    _, rows = read_csv(outdir / "c.csv")
    assert len(rows) == 11


def test_flags_override_config_file(outdir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "pure-ode", "xf": 1.0, "h": 0.1}))
    code = main(["solve", "--config", str(config), "--h", "0.05",
                 "--out", "c.csv"])
    assert code == 0
    _, rows = read_csv(outdir / "c.csv")
    assert len(rows) == 21


def test_unknown_config_key_rejected(outdir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "pure-ode", "xf": 1.0, "h": 0.1,
                                  "stepsize": 0.2}))
    code = main(["solve", "--config", str(config)])
    assert code == 2
    assert "stepsize" in capsys.readouterr().err


def test_config_key_valid_for_other_command_rejected(outdir, tmp_path, capsys):
    # h_list belongs to order/consistency, not solve
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "pure-ode", "xf": 1.0, "h": 0.1,
                                  "h_list": [0.1]}))
    assert main(["solve", "--config", str(config)]) == 2


def test_unreadable_config_rejected(outdir, capsys):
    assert main(["solve", "--config", "/nonexistent/cfg.json"]) == 2


def test_malformed_config_rejected(outdir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert main(["solve", "--config", str(config)]) == 2
    config.write_text(json.dumps([1, 2]))
    assert main(["solve", "--config", str(config)]) == 2


def test_sidecar_reruns_identically(outdir):
    first = main(["solve", "--problem", "test-equation", "--lambda", "-1",
                  "--gamma", "-2", "--xf", "1", "--h", "0.1",
                  "--out", "first.csv"])
    assert first == 0
    # the sidecar names the command, so no subcommand is needed
    rerun = main(["--config", str(outdir / "first.meta.json")])
    assert rerun == 0
    assert (outdir / "solve.csv").read_bytes() == (outdir / "first.csv").read_bytes()


def test_sidecar_rerun_for_figure(outdir):
    assert main(["figure", "--id", "5", "--out", "f5.csv"]) == 0
    rerun = main(["--config", str(outdir / "f5.meta.json")])
    assert rerun == 0
    assert (outdir / "fig5.csv").read_bytes() == (outdir / "f5.csv").read_bytes()


def test_bare_config_without_command_key(outdir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "pure-ode"}))
    assert main(["--config", str(config)]) == 2


def test_relative_out_honours_out_dir(tmp_path, monkeypatch):
    nested = tmp_path / "results" / "deep"
    monkeypatch.setenv("VIDESTEP_OUT_DIR", str(nested))
    code = main(["solve", "--problem", "pure-ode", "--xf", "1", "--h", "0.1",
                 "--out", "sub/run.csv"])
    assert code == 0
    assert (nested / "sub" / "run.csv").exists()


def test_absolute_out_ignores_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("VIDESTEP_OUT_DIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.csv"
    code = main(["solve", "--problem", "pure-ode", "--xf", "1", "--h", "0.1",
                 "--out", str(target)])
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("command,config,key", [
    ("solve", {"problem": "pure-ode", "xf": 1.0, "h": "abc"}, "h"),
    ("order", {"problem": "pure-ode", "x_d": 1.0, "h_list": 0.1}, "h_list"),
    ("solve", {"problem": "pure-ode", "xf": 1.0, "h": 0.1, "method": "bogus"}, "method"),
], ids=["h-not-a-number", "h-list-not-a-list", "method-not-a-choice"])
def test_wrongly_typed_config_value_is_usage_error(outdir, tmp_path, capsys,
                                                   command, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (outdir / f"{command}.csv").exists()


def test_empty_stepsize_list_is_usage_error(outdir, tmp_path, capsys):
    assert main(["order", "--problem", "pure-ode", "--x-d", "1",
                 "--h-list", "", "--out", "o.csv"]) == 2
    assert "--h-list" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "pure-ode", "xf": 1.0, "h_list": []}))
    assert main(["consistency", "--config", str(config), "--out", "c.csv"]) == 2
    assert not (outdir / "o.csv").exists() and not (outdir / "c.csv").exists()


def test_bare_config_with_equals_sign(outdir):
    assert main(["solve", "--problem", "pure-ode", "--xf", "1", "--h", "0.1",
                 "--out", "first.csv"]) == 0
    assert main([f"--config={outdir / 'first.meta.json'}"]) == 0
    assert (outdir / "solve.csv").read_bytes() == (outdir / "first.csv").read_bytes()


def test_bare_config_command_name_as_option_value(outdir):
    # "solve" is the value of --out here, not the command; the command is
    # the one the sidecar names
    assert main(["bound", "--problem", "pure-ode", "--xf", "1", "--h", "0.1",
                 "--out", "first.csv"]) == 0
    assert main(["--config", str(outdir / "first.meta.json"), "--out", "solve"]) == 0
    assert (outdir / "solve").read_bytes() == (outdir / "first.csv").read_bytes()


# --- the parser of one command -------------------------------------------------

_ACTION_FIELDS = ("option_strings", "dest", "type", "choices", "default", "nargs", "help")


def _described(parser):
    return [tuple(getattr(action, f) for f in _ACTION_FIELDS) for action in parser._actions]


@pytest.mark.parametrize("command", sorted(_build_parser()[1]))
def test_parser_of_one_command_matches_the_full_parser(command):
    full_parser, full = _build_parser()
    parser, subparsers = _build_parser(command)
    assert list(subparsers) == list(full)
    assert _described(subparsers[command]) == _described(full[command])
    assert subparsers[command].format_help() == full[command].format_help()
    assert parser.format_help() == full_parser.format_help()
    # the other commands are there with their help option only
    assert all(_described(p) == _described(subparsers[command])[:1]
               for name, p in subparsers.items() if name != command)


def _parse_exit(parse, argv):
    """Exit code, stdout and stderr of an argparse exit while parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          pytest.raises(SystemExit) as excinfo):
        parse(argv)
    return excinfo.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,line", [
    (["--help"], "    figure              reproduce one canned experiment (1-5)"),
    ([], "videstep: error: the following arguments are required: command"),
    (["nosuch"], "videstep: error: argument command: invalid choice: 'nosuch' "
                 "(choose from 'solve', 'errors', 'bound', 'local', 'order', "
                 "'consistency', 'figure')"),
    (["solve", "--h", "abc"], "videstep solve: error: argument --h: invalid float "
                              "value: 'abc'"),
    (["order", "--help"], "  --h-list H_LIST       comma-separated stepsizes, e.g. "
                          "0.02,0.01,0.005"),
    (["figure", "--nope"], "videstep: error: unrecognized arguments: --nope"),
], ids=["help", "bare", "unknown-command", "bad-float", "command-help", "unknown-option"])
def test_cli_messages_match_the_full_parser(outdir, monkeypatch, argv, line):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    code, out, err = _parse_exit(main, argv)
    assert (code, out, err) == _parse_exit(_build_parser()[0].parse_args, argv)
    assert code == (0 if "--help" in argv else 2)
    assert line in (out or err).splitlines()


def test_main_builds_the_options_of_the_named_command_only(outdir, monkeypatch):
    built = []

    def recording(command=None):
        built.append(command)
        return _build_parser(command)

    monkeypatch.setattr("videstep.cli._build_parser", recording)
    assert main(["bound", "--problem", "pure-ode", "--xf", "1", "--h", "0.1",
                 "--out", "b.csv"]) == 0
    # a bare --config takes its command from the file, first
    assert main(["--config", str(outdir / "b.meta.json"), "--out", "c.csv"]) == 0
    assert built == ["bound", "bound"]
    assert (outdir / "c.csv").read_bytes() == (outdir / "b.csv").read_bytes()


# --- fuzzed command lines ------------------------------------------------------

# Flag texts the fuzzer draws from: ordinary values by option (by type for
# an option not listed), the special values of at most two options per
# line, and the malformed value of at most one. Ordinary values keep every
# mesh to a few thousand steps (figure meshes included); the special ones
# give meshes that make_mesh or the step cap refuse before allocating.
# A huge iteration cap is fast too: a solve whose tolerances sit below
# rounding stalls within a few iterations and stops there.
_ORDINARY = {"x0": ["0", "-1"], "xf": ["1", "2"], "x_d": ["1", "2"],
             "h": ["0.25", "0.1"], "lambda": ["-1", "1"], "gamma": ["-2", "0.5"],
             "y0": ["1", "-0.5"], "rel_tol": ["1e-12"], "abs_tol": ["1e-14"],
             float: ["0.5", "1"], int: ["2", "50"],
             None: ["0.25,0.125", "0.5", "0.5,0.25"]}
_SPECIAL = {float: ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e300", "-1e300", "5e-324"],
            int: ["0", "-1", "-1000000000000000000000", "1000000000"],
            None: ["0.5,nan", "inf,0.25", "0,-1", "1e300,5e-324", "-inf"]}
_MALFORMED = ["", ",", "abc", "1.5", "0.25,,abc", "1e999999"]
_PRESENT = [True] * 7 + [False]
_COMMANDS = _build_parser()[1]


@st.composite
def _argv(draw):
    """A command line for one command, drawn from its parser's options
    (all but --out). Each option is present with probability 7/8. With
    the same probability the line names a problem and leaves out the
    options that do not apply to it (--y0 for the test equation, --lambda
    and --gamma for the others). Half of the lines hold one malformed
    value. So most lines get past argparse and the problem checks to the
    numbers."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = {key: action for key, action in _options(_COMMANDS[command]).items()
               if key != "out"}
    special = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    malformed = draw(st.sampled_from(sorted(options))) if draw(st.booleans()) else None
    present = {key for key in options if draw(st.sampled_from(_PRESENT))}
    argv = [command]
    if draw(st.sampled_from(_PRESENT)):
        problem = draw(st.sampled_from(PROBLEM_IDS))
        present -= {"problem", "y0"} if problem == "test-equation" else {"problem",
                                                                       "lambda", "gamma"}
        if "problem" in options:
            argv.append(f"--problem={problem}")
    for key, action in options.items():
        if key not in present:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
            continue
        if key == malformed:
            texts = _MALFORMED
        elif action.choices is not None:
            texts = [str(c) for c in action.choices]
        elif key in special:
            texts = _SPECIAL[action.type]
        else:
            texts = _ORDINARY.get(key) or _ORDINARY[action.type]
        argv.append(f"{flag}={draw(st.sampled_from(texts))}")
    return argv


def _exit_code(argv) -> tuple[int, str]:
    """main's exit code for argv and what it wrote to stderr; an exception
    other than argparse's SystemExit propagates, as a traceback would.
    Warnings (a bound outside its stepsize condition, overflow in NumPy)
    are not failures and are ignored."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_no_command_line_ends_in_a_traceback(outdir):
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(argv=_argv())
    @example(argv=["solve", "--problem=pure-ode", "--xf=1", "--h=0.1", "--rel-tol=-1"])
    @example(argv=["solve", "--problem=pure-ode", "--xf=1", "--h=0.1",
                   "--max-iterations=0"])
    @example(argv=["solve", "--problem=pure-ode", "--xf=1", "--h=nan"])
    @example(argv=["solve", "--problem=pure-ode", "--xf=inf", "--h=0.1"])
    @example(argv=["solve", "--problem=cubic-kernel", "--xf=1", "--h=0.5",
                   "--method=implicit", "--rel-tol=5e-324", "--abs-tol=5e-324",
                   "--max-iterations=1000000000"])
    def check(argv):
        code, err = _exit_code(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    check()


@pytest.mark.parametrize("flags", [
    ["--rel-tol", "-1"],
    ["--max-iterations", "0"],
    ["--rel-tol", "nan", "--method", "implicit"],
    ["--h", "nan"],
    ["--xf", "inf"],
])
def test_out_of_domain_number_is_usage_error(outdir, capsys, flags):
    argv = ["solve", "--problem", "pure-ode", "--xf", "1", "--h", "0.1"]
    assert main(argv + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
