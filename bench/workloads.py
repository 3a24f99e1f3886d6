"""The three workloads: the program calls one pass makes, and the checks
run on their outputs after the pass.

A command is one user-level job: one ``videstep`` CLI invocation, or on
scalar-kernel the library sequence integrate -> global_errors ->
recover_local_errors -> direct_local_errors. A pass times its commands
back to back; the checks run after the timed part. Each check compares
the outputs with values from ``oracle`` and returns a fingerprint of the
outputs. Identical inputs must give identical fingerprints in every pass,
traced or not.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import videstep
import videstep.cli as cli
from videstep.errors import ConfigurationWarning

import inputs
import oracle

# Recovered against direct local errors on a linear problem (acceptance
# criterion 4 of the package uses the same figure).
RECOVERY_TOL = 1e-10
# Program against the oracle's own run of the same scheme: the two differ
# only in summation order.
RUN_RTOL = 1e-8
RUN_ATOL = 1e-11
# Program's |Delta(x_d)| on the cubic kernel against the ODE-solver truth.
# The h/100 reference contaminates Delta by about 1%.
DELTA_REL_TOL = 0.05


@dataclass
class Outcome:
    failure: str | None
    fingerprint: bytes = b""
    delta_rel_err: float | None = None


@dataclass
class Command:
    label: str
    call: Callable[[], object]
    check: Callable[[object, list], Outcome]


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(actual, expected, what: str, rtol=RUN_RTOL, atol=RUN_ATOL,
           scale=None) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(actual.shape == expected.shape,
             f"{what}: shape {actual.shape} != {expected.shape}")
    if scale is None:
        scale = np.maximum(1.0, np.abs(expected))
    gap = np.abs(actual - expected) - (atol * scale + rtol * np.abs(expected))
    _require(bool(np.all(gap <= 0.0)),
             f"{what}: worst excess {float(np.max(gap)):.3e} over tolerance")


def config_warnings(caught: list) -> int:
    return sum(issubclass(w.category, ConfigurationWarning) for w in caught)


def run_cli(argv: list[str]):
    """One CLI invocation as a user makes it; output streams are kept."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_csv(path: Path) -> tuple[list[str], dict[str, np.ndarray], bytes]:
    raw = path.read_bytes()
    lines = raw.decode().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, {name: rows[:, k] for k, name in enumerate(header)}, raw


def _cli_outputs(result, csv_path: Path, expect_code: int, caught: list,
                 expect_warnings: int, header: list[str]):
    """Common checks of a CLI run: exit code, printed paths, warnings, the
    CSV header and the sidecar. Returns the columns, CSV bytes, sidecar."""
    code, out, err = result
    _require(code == expect_code, f"exit code {code}, expected {expect_code}: {err.strip()}")
    sidecar_path = csv_path.with_name(csv_path.stem + ".meta.json")
    _require(out.split() == [str(csv_path), str(sidecar_path)],
             f"printed {out.split()}")
    warned = config_warnings(caught)
    _require(warned == expect_warnings,
             f"{warned} ConfigurationWarning(s), expected {expect_warnings}")
    names, columns, raw = _read_csv(csv_path)
    _require(names == header, f"columns {names}, expected {header}")
    sidecar = json.loads(sidecar_path.read_text())
    return columns, raw, sidecar


def _checked(check):
    """Turn any exception raised while checking into a failed Outcome."""
    def run(result, caught):
        try:
            return check(result, caught)
        except Exception as exc:  # a malformed output is a failed check
            return Outcome(failure=f"{type(exc).__name__}: {exc}")
    return run


class LinearCase:
    """One test-equation run on [0, xf] at step h, with the oracle's values."""

    def __init__(self, lam: float, gam: float, h: float, xf: float, implicit: bool):
        self.lam, self.gam, self.h, self.xf, self.implicit = lam, gam, h, xf, implicit
        self.n = int(round(xf / h))
        self._cache = None

    @property
    def method(self) -> str:
        return "implicit" if self.implicit else "explicit"

    def expected(self):
        """(w, y, delta, direct local errors) from the oracle, computed once."""
        if self._cache is None:
            w = oracle.linear_trajectory(self.lam, self.gam, self.h, self.n, self.implicit)
            y = oracle.test_equation_exact(self.lam, self.gam)(oracle.nodes(self.h, self.n))
            direct = oracle.linear_direct_local_errors(self.lam, self.gam, self.h,
                                                       self.n, self.implicit)
            self._cache = (w, y, w - y, direct)
        return self._cache

    def check_nodes(self, columns) -> None:
        _require(columns["i"].size == self.n + 1,
                 f"{columns['i'].size} rows, expected {self.n + 1}")
        _require(bool(np.array_equal(columns["i"], np.arange(self.n + 1))), "node index column")
        _require(bool(np.array_equal(columns["x"], oracle.nodes(self.h, self.n))), "node column")

    def check_delta(self, delta, signed: bool) -> None:
        _, y, expected, _ = self.expected()
        if signed:
            _close(delta, expected, "delta", scale=np.maximum(1.0, np.abs(y)))
        else:
            _close(delta, np.abs(expected), "|delta|", scale=np.maximum(1.0, np.abs(y)))

    def check_local(self, recovered, direct) -> None:
        gap = float(np.max(np.abs(np.asarray(recovered) - np.asarray(direct))))
        _require(gap <= RECOVERY_TOL, f"max|recovered - direct| = {gap:.3e}")
        _close(direct, self.expected()[3], "direct local errors", rtol=RUN_RTOL, atol=1e-12)


# -- cubic-order ---------------------------------------------------------------


class CubicOrder:
    """Order study of the cubic kernel through the CLI; each rung runs
    integrate plus an auto_reference at h/100."""

    def __init__(self, seed: int, workdir: Path, truth: dict | None = None):
        self.y0 = inputs.cubic_y0(seed)
        self.x_d = inputs.CUBIC_X_D
        self.h_list = inputs.CUBIC_H_LIST
        self.out = workdir / "order.csv"
        self.argv = ["order", "--problem", "cubic-kernel", f"--y0={self.y0!r}",
                     f"--x-d={self.x_d!r}",
                     "--h-list=" + ",".join(repr(h) for h in self.h_list),
                     f"--out={self.out}"]
        self.truth = truth

    def commands(self, wrap_problem=None) -> list[Command]:
        return [Command("order cubic-kernel", functools.partial(run_cli, self.argv),
                        _checked(self.check))]

    def true_deltas(self) -> np.ndarray:
        """|w_h(x_d) - y(x_d)| per rung, from the oracle's own coarse runs."""
        if self.truth is None:
            self.truth = {"y_xd": oracle.cubic_truth(self.y0, self.x_d)}
        y_xd = self.truth["y_xd"]
        return np.array([abs(oracle.cubic_explicit_endpoint(self.y0, self.x_d, h) - y_xd)
                         for h in self.h_list])

    def check(self, result, caught) -> Outcome:
        columns, raw, sidecar = _cli_outputs(result, self.out, 0, caught, 0,
                                             ["h", "delta_abs", "p"])
        _require(bool(np.array_equal(columns["h"], self.h_list)), f"h column {columns['h']}")
        reported = columns["delta_abs"]
        truth = self.true_deltas()
        rel = np.abs(reported - truth) / truth
        worst = float(np.max(rel))
        _require(worst <= DELTA_REL_TOL,
                 f"|Delta| {reported} against truth {truth}: relative gap {worst:.3e}")
        p = columns["p"]
        h1, h2 = self.h_list
        expected_p = math.log(reported[0] / reported[1]) / math.log(h1 / h2)
        _require(math.isnan(p[0]) and abs(p[1] - expected_p) <= 1e-9 * abs(expected_p),
                 f"order column {p}, expected [nan, {expected_p}]")
        config = sidecar["config"]
        _require(config["problem"] == "cubic-kernel" and config["y0"] == self.y0
                 and config["x_d"] == self.x_d, f"sidecar config {config}")
        return Outcome(None, hashlib.sha256(raw).digest(), delta_rel_err=worst)


# -- sweep ---------------------------------------------------------------------

# Figure id -> (lam, gam, h, xf, implicit), the canned experiments' settings.
FIGURES = {
    1: (-100.0, -200.0, 5e-3, 5.0, False),
    2: (-100.0, -200.0, 5e-2, 2.0, False),
    3: (1.0, 2.0, 5e-3, 5.0, False),
    4: (-1.0, -2.0, 5e-3, 6.0, True),
    5: (-1.0, -2.0, 5e-3, 5.0, False),
}
BOUND_COLUMNS = ["i", "x", "delta_abs", "c_curve", "bound"]


class Sweep:
    """Figures 1-5, then a seeded (lam, gam) sweep through `bound` and
    `local`. Figure 2 diverges by design: it runs with --allow-divergence,
    must report diverged = true, and must raise one ConfigurationWarning
    (its step size breaks the negative-case bound condition 1 + h*L > 0)."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.cases = [LinearCase(lam, gam, inputs.LINEAR_H, inputs.LINEAR_XF, implicit)
                      for lam, gam, implicit in inputs.sweep_cases(seed)]
        self.figures = {k: LinearCase(*spec) for k, spec in FIGURES.items()}

    def commands(self, wrap_problem=None) -> list[Command]:
        commands = []
        for k, case in self.figures.items():
            out = self.workdir / f"fig{k}.csv"
            argv = ["figure", "--id", str(k), f"--out={out}"]
            if k == 2:
                argv.append("--allow-divergence")
            commands.append(Command(f"figure {k}", functools.partial(run_cli, argv),
                                    _checked(self._figure_check(k, case, out))))
        for j, case in enumerate(self.cases):
            for command in ("bound", "local"):
                out = self.workdir / f"{command}{j}.csv"
                argv = [command, "--problem", "test-equation", f"--lambda={case.lam!r}",
                        f"--gamma={case.gam!r}", "--x0=0", f"--xf={case.xf!r}",
                        f"--h={case.h!r}", f"--method={case.method}", f"--out={out}"]
                commands.append(Command(f"{command} case {j}", functools.partial(run_cli, argv),
                                        _checked(self._run_check(command, case, out))))
        return commands

    @staticmethod
    def _figure_check(k: int, case: LinearCase, out: Path):
        header = {4: ["i", "x", "delta", "c_curve", "bound_plus", "bound_minus"],
                  5: ["i", "x", "delta", "epsilon"]}.get(k, BOUND_COLUMNS)

        def check(result, caught) -> Outcome:
            columns, raw, sidecar = _cli_outputs(result, out, 0, caught,
                                                 1 if k == 2 else 0, header)
            case.check_nodes(columns)
            _require(sidecar["diverged"] is (k == 2), f"diverged = {sidecar['diverged']}")
            _require(sidecar["method"] == case.method
                     and sidecar["lambda"] == case.lam and sidecar["gamma"] == case.gam,
                     "sidecar run settings")
            if k in (4, 5):
                case.check_delta(columns["delta"], signed=True)
            else:
                case.check_delta(columns["delta_abs"], signed=False)
            if k == 5:
                gap = float(np.max(np.abs(columns["epsilon"] - case.expected()[3])))
                _require(gap <= RECOVERY_TOL, f"max|recovered - direct| = {gap:.3e}")
            return Outcome(None, hashlib.sha256(raw).digest())
        return check

    @staticmethod
    def _run_check(command: str, case: LinearCase, out: Path):
        header = (BOUND_COLUMNS if command == "bound"
                  else ["i", "x", "epsilon_recovered", "epsilon_direct"])

        def check(result, caught) -> Outcome:
            columns, raw, sidecar = _cli_outputs(result, out, 0, caught, 0, header)
            case.check_nodes(columns)
            config = sidecar["config"]
            _require(not sidecar["diverged"] and config["lambda"] == case.lam
                     and config["gamma"] == case.gam and config["method"] == case.method,
                     f"sidecar {config}")
            if command == "bound":
                case.check_delta(columns["delta_abs"], signed=False)
                _require(bool(np.all(columns["bound"] >= 0.0)), "negative bound")
            else:
                case.check_local(columns["epsilon_recovered"], columns["epsilon_direct"])
            return Outcome(None, hashlib.sha256(raw).digest())
        return check


# -- scalar-kernel -------------------------------------------------------------


def scalar_only_problem(lam: float, gam: float) -> videstep.VideProblem:
    """The test equation as a user might write it, for scalars only: float()
    of an array raises TypeError, so every vector kernel call fails and
    steppers falls back to calling K node by node."""
    return videstep.VideProblem(
        f=lambda x, y: lam * (float(y) - 1.0),
        kernel=lambda x, y, t: gam * float(y),
        y0=oracle.TEST_EQUATION_Y0,
        f_y=lambda x, y: lam,
        kernel_y=lambda x, y, t: gam,
        exact=oracle.test_equation_exact(lam, gam),
    )


class ScalarKernel:
    """Implicit Newton integrate, then global_errors, recover_local_errors and
    direct_local_errors, through the library API on a scalar-only problem."""

    def __init__(self, seed: int, workdir: Path):
        lam, gam = inputs.scalar_kernel_case(seed)
        self.case = LinearCase(lam, gam, inputs.LINEAR_H, inputs.LINEAR_XF, True)
        self.problem = scalar_only_problem(lam, gam)
        self.mesh = videstep.make_mesh(0.0, self.case.xf, self.case.h)

    def commands(self, wrap_problem=None) -> list[Command]:
        problem = self.problem if wrap_problem is None else wrap_problem(self.problem)
        mesh = self.mesh

        def analyse():
            trajectory = videstep.integrate(problem, mesh, videstep.Method.IMPLICIT)
            deltas = videstep.global_errors(trajectory, problem)
            recovered = videstep.recover_local_errors(deltas, problem, trajectory)
            direct = videstep.direct_local_errors(problem, mesh, videstep.Method.IMPLICIT)
            return trajectory, deltas, recovered, direct

        return [Command("scalar-kernel analysis", analyse, _checked(self.check))]

    def check(self, result, caught) -> Outcome:
        trajectory, deltas, recovered, direct = result
        case = self.case
        w, y, _, _ = case.expected()
        _require(trajectory.overflow_at is None, f"overflow at {trajectory.overflow_at}")
        _close(trajectory.w, w, "trajectory")
        case.check_delta(deltas, signed=True)
        case.check_local(recovered, direct)
        iterations = [d.iterations for d in trajectory.step_diagnostics]
        _require(len(iterations) == case.n and min(iterations) >= 1, "step diagnostics")
        _require(config_warnings(caught) == 0, "unexpected ConfigurationWarning")
        digest = hashlib.sha256()
        for array in (trajectory.w, deltas, recovered, direct):
            digest.update(np.ascontiguousarray(array).tobytes())
        return Outcome(None, digest.digest())


def build(name: str, seed: int, workdir: Path, truth: dict | None = None):
    """The workload's inputs for this seed; ``truth`` is the cubic-kernel
    y(x_d), computed on demand (with SciPy) when not given."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "cubic-order":
        return CubicOrder(seed, workdir, truth)
    return {"sweep": Sweep, "scalar-kernel": ScalarKernel}[name](seed, workdir)
