"""Experiment drivers: error-curve reproductions, order and consistency studies.

Five canned error-curve experiments exercise the full pipeline on the
linear test equation:

    1  lam=-100, gamma=-200, h=5e-3, explicit on [0, 5] — stable stiff run;
       |Delta_i|, the amplitude curve and the bound, which plateaus hard
       because L is strongly negative.
    2  same coefficients, h=5e-2, explicit on [0, 2] — the stepsize is
       too large, the run diverges and is recorded as such.
    3  lam=1, gamma=2, h=5e-3, explicit on [0, 5] — growing solution,
       positive-L branch of the bound.
    4  lam=-1, gamma=-2, h=5e-3, implicit on [0, 6] — oscillatory regime
       (complex discriminant branch); signed error against the signed
       amplitude curve and the two-sided bound, long enough to show three
       sign changes of the error.
    5  lam=-1, gamma=-2, h=5e-3, explicit on [0, 5] — global errors next
       to the local errors recovered from them.

The order study (run_order_study) measures endpoint global errors across
a stepsize ladder (expected slope 1); the consistency study
(run_consistency_study) measures max direct local errors (expected
slope 2).

Results are ResultTable objects: named columns plus a metadata dictionary
carrying the fitted bound data and a config mapping that reproduces the
run. Tables serialize to CSV (one row per node, scientific notation, 17
significant digits) with a JSON metadata sidecar, or to a single JSON
document.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .core import Mesh, Method, Trajectory, VideProblem, make_mesh
from .error_analysis import (
    ErrorSource,
    amplitude_curve,
    direct_local_errors,
    endpoint_error,
    error_bound,
    fit_bound,
    global_errors,
    pairwise_order,
    recover_local_errors,
)
from .errors import UnknownProblem
from .steppers import ImplicitSolveConfig, SolveStrategy, integrate
from .test_problems import TestEquationParams, builtin_problem, test_equation

__all__ = [
    "ExperimentKind",
    "ExperimentSpec",
    "ResultTable",
    "figure_spec",
    "run_experiment",
    "run_order_study",
    "run_consistency_study",
    "DIVERGENCE_THRESHOLD",
]

# A run whose values exceed this magnitude is flagged divergent in the
# result metadata even when it stayed under the hard overflow cutoff.
DIVERGENCE_THRESHOLD = 1e10

# Rows of a CSV table formatted as one piece of text.
CSV_BLOCK_ROWS = 65536


class ExperimentKind(str, Enum):
    FIGURE1 = "figure-1"
    FIGURE2 = "figure-2"
    FIGURE3 = "figure-3"
    FIGURE4 = "figure-4"
    FIGURE5 = "figure-5"
    ORDER_STUDY = "order-study"
    CONSISTENCY_STUDY = "consistency-study"


# Per-figure defaults: lam, gamma, h, x0, xf, method. Endpoints are
# reproduction parameters: the divergent run stops at xf=2 because longer
# runs are meaningless there, and the oscillatory run extends to xf=6 so
# the error's third zero crossing (near x = 5*pi/sqrt(7) ~ 5.94) is on
# the mesh.
_FIGURE_DEFAULTS = {
    1: (-100.0, -200.0, 5e-3, 0.0, 5.0, Method.EXPLICIT),
    2: (-100.0, -200.0, 5e-2, 0.0, 2.0, Method.EXPLICIT),
    3: (1.0, 2.0, 5e-3, 0.0, 5.0, Method.EXPLICIT),
    4: (-1.0, -2.0, 5e-3, 0.0, 6.0, Method.IMPLICIT),
    5: (-1.0, -2.0, 5e-3, 0.0, 5.0, Method.EXPLICIT),
}
_FIGURE_KINDS = {k: ExperimentKind(f"figure-{k}") for k in _FIGURE_DEFAULTS}
_FIGURE_IDS = {kind: k for k, kind in _FIGURE_KINDS.items()}

# Test-equation coefficients of a study that is given none.
_STUDY_PARAMS = TestEquationParams(lam=-1.0, gamma=-2.0)

# How each solver setting is read from an override map; settings that are
# not overridden keep ImplicitSolveConfig's defaults.
_SOLVER_SETTINGS = {"rel_tol": float, "abs_tol": float, "max_iterations": int,
                    "strategy": SolveStrategy}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment to run: kind, test-equation coefficients, mesh, and
    an override map (method, solver settings) on top of the kind's
    defaults."""

    kind: ExperimentKind
    params: TestEquationParams
    mesh: Mesh
    overrides: dict = field(default_factory=dict)


@dataclass
class ResultTable:
    """Named result columns of equal length plus run metadata."""

    columns: dict
    metadata: dict

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {lengths}")

    def to_csv(self, path) -> None:
        """Write the columns as CSV, ``i`` as integers and the others as
        '%.16e' % x (the bytes of format(x, ".16e"), nan, ±inf and -0.0
        included), one %-format per row and CSV_BLOCK_ROWS rows per write."""
        line = ",".join("%d" if name == "i" else "%.16e" for name in self.columns) + "\n"
        arrays = [np.asarray(column) for column in self.columns.values()]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            for start in range(0, len(arrays[0]) if arrays else 0, CSV_BLOCK_ROWS):
                block = [a[start:start + CSV_BLOCK_ROWS].tolist() for a in arrays]
                fh.write("".join([line % row for row in zip(*block)]))

    def to_json(self, path) -> None:
        payload = {
            "metadata": _jsonable(self.metadata),
            "columns": {n: [_jsonable(v) for v in col]
                        for n, col in self.columns.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def write(self, path, fmt: str = "csv") -> list[Path]:
        """Write the table as ``fmt`` ("csv" or "json").

        CSV output gets a JSON metadata sidecar named <stem>.meta.json
        next to it. Returns the paths written.
        """
        path = Path(path)
        if fmt == "json":
            self.to_json(path)
            return [path]
        self.to_csv(path)
        sidecar = path.with_name(path.stem + ".meta.json")
        with open(sidecar, "w") as fh:
            json.dump(_jsonable(self.metadata), fh, indent=2)
            fh.write("\n")
        return [path, sidecar]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def figure_spec(figure_id: int, overrides: dict | None = None) -> ExperimentSpec:
    """Spec for one of the five canned experiments, with optional overrides
    for lambda, gamma, h, x0, xf (mesh-level) and method, strategy,
    rel_tol, abs_tol, max_iterations (run-level)."""
    if figure_id not in _FIGURE_DEFAULTS:
        raise UnknownProblem(f"no figure experiment with id {figure_id}")
    overrides = dict(overrides or {})
    lam, gamma, h, x0, xf, _ = _FIGURE_DEFAULTS[figure_id]
    params = TestEquationParams(
        lam=float(overrides.pop("lam", lam)),
        gamma=float(overrides.pop("gamma", gamma)),
    )
    mesh = make_mesh(
        float(overrides.pop("x0", x0)),
        float(overrides.pop("xf", xf)),
        float(overrides.pop("h", h)),
    )
    return ExperimentSpec(kind=_FIGURE_KINDS[figure_id], params=params,
                          mesh=mesh, overrides=overrides)


def _solve_config(overrides: dict) -> ImplicitSolveConfig:
    return ImplicitSolveConfig(**{key: read(overrides[key])
                                  for key, read in _SOLVER_SETTINGS.items()
                                  if key in overrides})


def _divergence(trajectory: Trajectory) -> dict:
    """Metadata entries recording whether and where a run diverged."""
    return {
        "overflow_at": trajectory.overflow_at,
        "diverged": (trajectory.overflow_at is not None
                     or float(np.max(np.abs(trajectory.w))) > DIVERGENCE_THRESHOLD),
    }


def _solver(trajectory: Trajectory) -> dict:
    """The "solver" metadata block, from the run's step diagnostics:
    iterations per step (max, mean) and the worst final residual."""
    iterations = [d.iterations for d in trajectory.step_diagnostics]
    return {"max_iterations": max(iterations),
            "mean_iterations": sum(iterations) / len(iterations),
            "worst_residual": max(d.last_residual for d in trajectory.step_diagnostics)}


def _bound(problem: VideProblem, trajectory: Trajectory,
           deltas: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray, float]:
    """The fitted bound of a run: its metadata entries, the estimation
    curve, the bound at the emitted nodes, and the growth rate L."""
    model, curve = fit_bound(problem, trajectory, deltas)
    bound = error_bound(model, trajectory.mesh)[: deltas.size]
    metadata = {
        "L": model.L,
        "sign_case": model.sign_case,
        "c_tilde_max": float(np.nanmax(curve)),
        "c_tilde_amplitude": model.C_tilde,
    }
    return metadata, curve, bound, model.L


def _run_config(figure_id: int, spec: ExperimentSpec, method: Method,
                cfg: ImplicitSolveConfig) -> dict:
    """Config mapping that reproduces this run through the CLI."""
    return {
        "command": "figure",
        "id": figure_id,
        "lambda": spec.params.lam,
        "gamma": spec.params.gamma,
        "x0": spec.mesh.x0,
        "xf": spec.mesh.xf,
        "h": spec.mesh.h,
        "method": method.value,
        "strategy": cfg.strategy.value,
        "rel_tol": cfg.rel_tol,
        "abs_tol": cfg.abs_tol,
        "max_iterations": cfg.max_iterations,
    }


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute one canned figure experiment: integrate, then the error pipeline.

    Emits the per-node curves of the figure (see the module docstring);
    the divergent one is expected to end in recorded divergence, not
    failure, and emits all pre-divergence rows. The study kinds have
    their own drivers, run_order_study and run_consistency_study.

    Raises
    ------
    UnknownProblem
        ``spec.kind`` is not a figure experiment.
    """
    figure_id = _FIGURE_IDS.get(spec.kind)
    if figure_id is None:
        raise UnknownProblem(f"{spec.kind.value} is not a figure experiment")
    default_method = _FIGURE_DEFAULTS[figure_id][5]
    method = Method(spec.overrides.get("method", default_method))
    cfg = _solve_config(spec.overrides)

    started = time.perf_counter()
    problem = test_equation(spec.params)
    trajectory = integrate(problem, spec.mesh, method, cfg)
    deltas = global_errors(trajectory, problem)
    n_emitted = trajectory.w.size
    nodes = spec.mesh.nodes()[:n_emitted]
    index = np.arange(n_emitted)

    metadata = {
        "kind": spec.kind,
        "problem": "test-equation",
        "lambda": spec.params.lam,
        "gamma": spec.params.gamma,
        "h": spec.mesh.h,
        "x0": spec.mesh.x0,
        "xf": spec.mesh.xf,
        "method": method,
        "source": ErrorSource.AGAINST_EXACT,
        "max_abs_delta": float(np.max(np.abs(deltas))),
        **_divergence(trajectory),
        "solver": _solver(trajectory),
        "config": _run_config(figure_id, spec, method, cfg),
    }

    if figure_id == 5:
        epsilon = recover_local_errors(deltas, problem, trajectory)
        columns = {"i": index, "x": nodes, "delta": deltas, "epsilon": epsilon}
        metadata["max_abs_epsilon"] = float(np.max(np.abs(epsilon)))
    else:
        fitted, curve, bound, L = _bound(problem, trajectory, deltas)
        metadata.update(fitted)
        if figure_id == 4:
            columns = {
                "i": index,
                "x": nodes,
                "delta": deltas,
                "c_curve": amplitude_curve(deltas, L, spec.mesh),
                "bound_plus": bound,
                "bound_minus": -bound,
            }
        else:
            columns = {
                "i": index,
                "x": nodes,
                "delta_abs": np.abs(deltas),
                "c_curve": curve,
                "bound": bound,
            }
    metadata["runtime_s"] = time.perf_counter() - started
    return ResultTable(columns=columns, metadata=metadata)


def _study_problem(problem_id: str, params: TestEquationParams | None,
                   y0: float) -> tuple[VideProblem, dict]:
    """A study's problem, and the config entries that name its parameters."""
    if problem_id == "test-equation":
        params = params or _STUDY_PARAMS
        return test_equation(params), {"lambda": params.lam, "gamma": params.gamma}
    return builtin_problem(problem_id, y0=y0), {"y0": y0}


def _ladder(h_list, measure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stepsizes, one error magnitude ``measure(h)`` per stepsize, and the
    observed order between each rung and the previous one (NaN on the
    first)."""
    h_arr = np.asarray(list(h_list), dtype=float)
    errors = np.array([measure(h) for h in h_arr])
    orders = np.full(h_arr.size, np.nan)
    for k in range(1, h_arr.size):
        orders[k] = pairwise_order(errors[k - 1], errors[k], h_arr[k - 1], h_arr[k])
    return h_arr, errors, orders


def run_order_study(problem_id: str, x_d: float, h_list, method: Method,
                    params: TestEquationParams | None = None, y0: float = 1.0,
                    cfg: ImplicitSolveConfig | None = None,
                    x0: float = 0.0) -> ResultTable:
    """Endpoint global error across a stepsize ladder, with pairwise slopes.

    Emits one row per stepsize: h, |Delta(x_d)|, and the observed order p
    computed from the previous row (NaN on the first). Expected p is about
    1 on smooth problems.
    """
    problem, named = _study_problem(problem_id, params, y0)
    started = time.perf_counter()
    h_arr, delta_abs, p = _ladder(
        h_list, lambda h: abs(endpoint_error(problem, x_d, h, method, cfg, x0)))
    metadata = {
        "kind": ExperimentKind.ORDER_STUDY,
        "problem": problem_id,
        "x_d": x_d,
        "method": method,
        "runtime_s": time.perf_counter() - started,
        "config": {
            "command": "order",
            "problem": problem_id,
            "x_d": x_d,
            "h_list": [float(h) for h in h_arr],
            "method": method.value,
            "x0": x0,
            **named,
        },
    }
    return ResultTable(columns={"h": h_arr, "delta_abs": delta_abs, "p": p},
                       metadata=metadata)


def run_consistency_study(problem_id: str, h_list, method: Method,
                          params: TestEquationParams | None = None,
                          y0: float = 1.0,
                          cfg: ImplicitSolveConfig | None = None,
                          x0: float = 0.0, xf: float = 5.0) -> ResultTable:
    """Max direct local error across a stepsize ladder, with pairwise slopes.

    Emits one row per stepsize: h, max|eps|, and the observed local order
    q from the previous row (NaN on the first). Expected q is about 2 on
    smooth problems with an exact solution.
    """
    problem, named = _study_problem(problem_id, params, y0)
    started = time.perf_counter()
    h_arr, local_max, q = _ladder(h_list, lambda h: float(np.max(np.abs(
        direct_local_errors(problem, make_mesh(x0, xf, h), method, cfg)))))
    metadata = {
        "kind": ExperimentKind.CONSISTENCY_STUDY,
        "problem": problem_id,
        "method": method,
        "runtime_s": time.perf_counter() - started,
        "config": {
            "command": "consistency",
            "problem": problem_id,
            "h_list": [float(h) for h in h_arr],
            "method": method.value,
            "x0": x0,
            "xf": xf,
            **named,
        },
    }
    return ResultTable(columns={"h": h_arr, "local_max": local_max, "q": q},
                       metadata=metadata)
