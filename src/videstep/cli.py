"""Command-line interface: solve, error analysis, and experiment reproduction.

Commands map onto the library surface: solve, errors, bound and local run
one trajectory through run_experiment and emit its trajectory, global
errors, fitted error bound, or recovered next to directly measured local
errors; order and consistency run the stepsize studies; and figure
reproduces one of the five figures, each a preset of run_experiment on
the test equation (experiments.FIGURES).

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure (a NumericalFailure, or divergence without --allow-divergence).

Options resolve in layers, by config key: flags, then a JSON config file
(--config), then the figure's preset (figure only), then the defaults.
Unknown config keys are rejected, and each config value is checked with
its flag's type and choices. The metadata sidecar emitted next to every
CSV names the run and contains a "config" mapping that reproduces it, so
`videstep --config out.meta.json` reruns it. Relative output paths land
in $VIDESTEP_OUT_DIR when that is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .core import Method, VideProblem, make_mesh
from .errors import NumericalFailure, VidestepError
from .experiments import (
    FIGURES,
    ResultTable,
    run_consistency_study,
    run_experiment,
    run_order_study,
)
from .steppers import ImplicitSolveConfig
from .test_problems import PROBLEM_IDS, TestEquationParams, builtin_problem

# Values of the options that neither a flag, the config file nor a
# figure's preset sets, by config key; the solver settings default to
# ImplicitSolveConfig's own.
_DEFAULTS = {
    "problem": "test-equation",
    "x0": 0.0,
    "method": "explicit",
    "format": "csv",
    "allow_divergence": False,
    **asdict(ImplicitSolveConfig()),
}


# Options a command cannot run without; solve, errors, bound and local
# need xf and h, which a figure's preset gives.
_REQUIRED = {"order": ("x_d", "h_list"), "consistency": ("xf", "h_list"), "figure": ("id",)}


class UsageError(Exception):
    pass


# Each command and its help line, in the order --help lists them.
_COMMANDS = {
    "solve": "integrate and emit the trajectory",
    "errors": "emit per-node global errors",
    "bound": "fit the growth rate and emit the error bound",
    "local": "emit recovered and directly measured local errors",
    "order": "global-error order study over a stepsize ladder",
    "consistency": "local-error order study over a stepsize ladder",
    "figure": "reproduce one canned experiment (1-5)",
}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """Give the subparser ``p`` of ``command`` its options."""
    study, figure = command in ("order", "consistency"), command == "figure"
    p.add_argument("--config", help="JSON config file; flags override it")
    if not figure:
        p.add_argument("--problem", choices=PROBLEM_IDS)
    p.add_argument("--lambda", dest="lam", type=float,
                   help="test-equation coefficient of (y - 1)")
    p.add_argument("--gamma", type=float, help="test-equation kernel coefficient")
    if not figure:
        p.add_argument("--y0", type=float, help="initial value (manufactured problems only)")
    p.add_argument("--x0", type=float)
    if command != "order":
        p.add_argument("--xf", type=float)
    if not study:
        p.add_argument("--h", type=float)
    p.add_argument("--method", choices=["explicit", "implicit"])
    p.add_argument("--strategy", choices=["newton", "fixed-point"])
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])
    if not study:
        p.add_argument("--allow-divergence", action="store_true", default=None)
    if command == "order":
        p.add_argument("--x-d", dest="x_d", type=float, help="node at which errors are compared")
        p.add_argument("--h-list", dest="h_list",
                       help="comma-separated stepsizes, e.g. 0.02,0.01,0.005")
    elif command == "consistency":
        p.add_argument("--h-list", dest="h_list", help="comma-separated stepsizes")
    elif figure:
        p.add_argument("--id", dest="id", type=int, choices=[1, 2, 3, 4, 5])


def _build_parser(command: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the subparser of each command by name. Only the
    subparser of ``command`` gets its options (all of them when it is
    None); the top-level help, usage and errors are the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="videstep",
        description="Euler-Trapezium solvers and error analysis for "
                    "Volterra integro-differential equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        if command in (None, name):
            _add_options(p, name)
    return parser, sub.choices


def _options(parser: argparse.ArgumentParser) -> dict:
    """A command's options by config key: the flag without its dashes,
    words joined by underscores (--rel-tol is rel_tol)."""
    return {action.option_strings[0][2:].replace("-", "_"): action
            for action in parser._actions
            if action.option_strings and action.dest not in ("help", "config")}


def _read_config(path: str) -> dict:
    """The JSON object of a config file, or of a metadata sidecar's
    "config" block."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    # A metadata sidecar carries its reproduction config under "config".
    if isinstance(data.get("config"), dict):
        data = data["config"]
    return data


def _config_value(key: str, action: argparse.Action, value):
    """A config-file value, checked and converted as the flag's parser
    checks and converts the flag's text. A stepsize list may also be a
    JSON list, as sidecars write it."""
    given = value
    if key == "h_list" and isinstance(value, list):
        value = ",".join(map(str, value))
    if action.nargs == 0:  # a switch such as --allow-divergence
        ok = isinstance(value, bool)
    elif action.type is None:
        ok = isinstance(value, str)
    else:
        try:
            value, ok = action.type(str(value)), True
        except ValueError:
            ok = False
    if not ok or (action.choices is not None and value not in action.choices):
        raise UsageError(f"config key {key!r} has an invalid value {given!r}")
    return value


def _stepsizes(text: str) -> list[float]:
    try:
        h_list = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"cannot parse h-list {text!r}")
    if not h_list:
        raise UsageError("--h-list needs at least one stepsize")
    return h_list


def _resolve(args: argparse.Namespace, options: dict) -> dict:
    """Merge, by config key, flag values over config-file values over
    defaults: the figure's preset in FIGURES, then _DEFAULTS."""
    cfg = _read_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(options) - {"command"})
    if unknown:
        raise UsageError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    opts = {}
    for key, action in options.items():
        value = getattr(args, action.dest)
        if value is None and cfg.get(key) is not None:
            value = _config_value(key, action, cfg[key])
        opts[key] = value
    defaults = _DEFAULTS
    if opts.get("id") is not None:
        defaults = {**_DEFAULTS, **FIGURES[opts["id"]].options}
    opts = {key: defaults.get(key) if value is None else value
            for key, value in opts.items()}
    if opts.get("h_list") is not None:
        opts["h_list"] = _stepsizes(opts["h_list"])
    return opts


def _require(opts: dict, *keys: str) -> None:
    missing = [k for k in keys if opts.get(k) is None]
    if missing:
        raise UsageError("missing required option(s): "
                         + ", ".join("--" + k.replace("_", "-") for k in missing))


def _problem(problem_id: str, opts: dict) -> VideProblem:
    """The built-in problem: the test equation with its coefficients, or a
    manufactured problem with its initial value."""
    if problem_id == "test-equation":
        if opts.get("y0") is not None:
            raise UsageError("--y0 does not apply to test-equation (y0 = 2 by definition)")
        _require(opts, "lambda", "gamma")
        return builtin_problem(problem_id,
                               TestEquationParams(lam=opts["lambda"], gamma=opts["gamma"]))
    if opts.get("lambda") is not None or opts.get("gamma") is not None:
        raise UsageError(f"--lambda/--gamma do not apply to {problem_id}")
    return builtin_problem(problem_id, **({} if opts.get("y0") is None else {"y0": opts["y0"]}))


def _config_mapping(command: str, opts: dict) -> dict:
    """Reproduction config recorded in the metadata sidecar."""
    out = {"command": command}
    for key in sorted(opts):
        if opts[key] is not None and key not in ("out", "allow_divergence"):
            out[key] = opts[key]
    return out


def _run(command: str, opts: dict) -> ResultTable:
    """The table of ``command``, its metadata headed by the names of the
    run (command, figure kind, problem and its parameters) and closed by
    the config block that reproduces it."""
    _require(opts, *_REQUIRED.get(command, ("xf", "h")))
    # A figure has no --problem: its problem is the test equation.
    problem_id = opts.get("problem", _DEFAULTS["problem"])
    problem = _problem(problem_id, opts)
    method = Method(opts["method"])
    cfg = ImplicitSolveConfig(**{f.name: opts[f.name] for f in fields(ImplicitSolveConfig)})
    if command == "order":
        table = run_order_study(problem, opts["x_d"], opts["h_list"], method, cfg, opts["x0"])
    elif command == "consistency":
        table = run_consistency_study(problem, opts["h_list"], method, cfg,
                                      opts["x0"], opts["xf"])
    else:
        columns = FIGURES[opts["id"]].columns if command == "figure" else command
        mesh = make_mesh(opts["x0"], opts["xf"], opts["h"])
        table = run_experiment(columns, problem, mesh, method, cfg)
    names = {"command": command}
    if command == "figure":
        names["kind"] = f"figure-{opts['id']}"
    names["problem"] = problem_id
    names.update((k, opts[k]) for k in ("lambda", "gamma", "y0") if opts.get(k) is not None)
    table.metadata = {**names, **table.metadata, "config": _config_mapping(command, opts)}
    return table


def _emit(table: ResultTable, opts: dict, default_name: str) -> int:
    """Write the table to --out (default ``default_name``), under
    $VIDESTEP_OUT_DIR when that is set and the path is relative; print the
    paths written, and return the exit code: 3 for a diverged run without
    --allow-divergence, else 0."""
    out = Path(opts["out"]) if opts.get("out") else Path(default_name)
    base = os.environ.get("VIDESTEP_OUT_DIR")
    if base and not out.is_absolute():
        out = Path(base) / out
        out.parent.mkdir(parents=True, exist_ok=True)
    for path in table.write(out, opts["format"]):
        print(path)
    if table.metadata.get("diverged") and not opts.get("allow_divergence"):
        print("run diverged; pass --allow-divergence to accept", file=sys.stderr)
        return 3
    return 0


def _config_command(argv: list[str]) -> str | None:
    """The command that the config file of a bare `videstep --config FILE`
    names, or None when argv has no --config."""
    bare = argparse.ArgumentParser(prog="videstep", add_help=False)
    bare.add_argument("--config")
    path = bare.parse_known_args(argv)[0].config
    if path is None:
        return None
    command = _read_config(path).get("command")
    if not (isinstance(command, str) and command in _COMMANDS):
        raise UsageError(f"config file {path} names no valid command")
    return command


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = None
    try:
        # Bare `videstep --config file` takes its command from the file; a
        # command, when given, comes first, and only its options are built.
        if argv and argv[0] not in _COMMANDS and (found := _config_command(argv)):
            argv.insert(0, found)
        named = argv[0] if argv and argv[0] in _COMMANDS else None
        parser, subparsers = _build_parser(named)
        args = parser.parse_args(argv)
        command = args.command
        opts = _resolve(args, _options(subparsers[command]))
        name = f"fig{opts['id']}" if command == "figure" else command
        return _emit(_run(command, opts), opts, f"{name}.csv")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if command is not None:
            print(f"run `videstep {command} --help` for options", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        step = getattr(exc, "step_index", None)
        where = f" at step {step}" if step is not None else ""
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return 3
    except VidestepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
