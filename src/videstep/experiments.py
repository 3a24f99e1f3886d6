"""Experiments: the single-run pipeline, the figure presets, and the
order and consistency studies.

run_experiment runs one trajectory on a problem and mesh and emits one of
six column layouts: the four single-run commands ("solve", "errors",
"bound", "local") and two figure layouts ("signed-bound", "recovery").

A figure is a preset of that pipeline on the linear test equation
(FIGURES): the defaults of its options, by config key, and its layout.

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

Figures 1-3 emit the "bound" columns, so each equals `bound` on the test
equation with its options; figure 4 emits them signed, and figure 5 the
Delta of `errors` with the recovered epsilon of `local`.

The order study (run_order_study, endpoint |Delta|, expected slope 1)
and the consistency study (run_consistency_study, max direct local
error, expected slope 2) are presets of one stepsize ladder, which
checks every rung's mesh and stepsize before the first rung runs.

Results are ResultTable objects: named columns plus a metadata dictionary
of what the run computed (the command line adds the names of the run and
the config that reproduces it). Tables serialize to CSV (one row per
node, scientific notation, 17 significant digits) with a JSON metadata
sidecar, or to a single JSON document.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import Mesh, Method, VideProblem, make_mesh
from .error_analysis import (
    ErrorSource,
    _log_step_ratio,
    amplitude_curve,
    auto_reference,
    direct_local_errors,
    endpoint_error,
    error_bound,
    fit_bound,
    global_errors,
    pairwise_order,
    recover_local_errors,
)
from .errors import MissingExact
from .steppers import ImplicitSolveConfig, integrate

__all__ = [
    "ExperimentKind",
    "FIGURES",
    "ResultTable",
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

# The column layouts of run_experiment.
LAYOUTS = ("solve", "errors", "bound", "local", "signed-bound", "recovery")


class ExperimentKind(str, Enum):
    ORDER_STUDY = "order-study"
    CONSISTENCY_STUDY = "consistency-study"


class Figure(NamedTuple):
    """A figure as a preset of run_experiment: the defaults of its options
    by config key, and its column layout."""

    options: dict
    columns: str


# Endpoints are reproduction parameters: the divergent run stops at xf=2
# because longer runs are meaningless there, and the oscillatory run
# extends to xf=6 so the error's third zero crossing (near
# x = 5*pi/sqrt(7) ~ 5.94) is on the mesh.
FIGURES = {
    1: Figure({"lambda": -100.0, "gamma": -200.0, "h": 5e-3, "x0": 0.0, "xf": 5.0,
               "method": "explicit"}, "bound"),
    2: Figure({"lambda": -100.0, "gamma": -200.0, "h": 5e-2, "x0": 0.0, "xf": 2.0,
               "method": "explicit"}, "bound"),
    3: Figure({"lambda": 1.0, "gamma": 2.0, "h": 5e-3, "x0": 0.0, "xf": 5.0,
               "method": "explicit"}, "bound"),
    4: Figure({"lambda": -1.0, "gamma": -2.0, "h": 5e-3, "x0": 0.0, "xf": 6.0,
               "method": "implicit"}, "signed-bound"),
    5: Figure({"lambda": -1.0, "gamma": -2.0, "h": 5e-3, "x0": 0.0, "xf": 5.0,
               "method": "explicit"}, "recovery"),
}


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


def run_experiment(columns: str, problem: VideProblem, mesh: Mesh, method: Method,
                   cfg: ImplicitSolveConfig | None = None) -> ResultTable:
    """Integrate ``problem`` on ``mesh``, then emit the ``columns`` layout:

    - "solve": i, x, w;
    - "errors": i, x, w, y, delta;
    - "bound": i, x, delta_abs, the amplitude curve |C~_i h/L| and the
      fitted bound;
    - "local": i, x, recovered and direct local errors;
    - "signed-bound": i, x, delta, the signed amplitude curve and the
      bound as +U and -U;
    - "recovery": i, x, delta and the recovered local errors.

    Delta is measured against the exact solution, or against the
    auto_reference of a problem without one. The metadata records the
    run (method, mesh, divergence, a "solver" block from the step
    diagnostics), what Delta was measured against, and the fitted bound.
    A diverged run emits its rows up to the overflow.

    Raises
    ------
    ValueError
        ``columns`` is not one of LAYOUTS.
    MissingExact
        "local" on a problem without exact solution, before integrating.
    """
    if columns not in LAYOUTS:
        raise ValueError(f"no column layout {columns!r}; expected one of {LAYOUTS}")
    if columns == "local" and problem.exact is None:
        # Refused before the run, as direct_local_errors would refuse after it.
        raise MissingExact("direct local errors need the exact solution")
    started = time.perf_counter()
    trajectory = integrate(problem, mesh, method, cfg)
    w = trajectory.w
    diagnostics = trajectory.step_diagnostics
    iterations = [d.iterations for d in diagnostics]
    table = {"i": np.arange(w.size), "x": mesh.nodes()[: w.size]}
    metadata = {
        "method": method,
        "h": mesh.h,
        "x0": mesh.x0,
        "xf": mesh.xf,
        "overflow_at": trajectory.overflow_at,
        "diverged": (trajectory.overflow_at is not None
                     or float(np.max(np.abs(w))) > DIVERGENCE_THRESHOLD),
        "solver": {"max_iterations": max(iterations),
                   "mean_iterations": sum(iterations) / len(iterations),
                   "worst_residual": max(d.last_residual for d in diagnostics)},
    }

    if columns == "solve":
        table["w"] = w
    else:
        reference = None
        if problem.exact is None:
            reference = auto_reference(problem, trajectory, cfg)
        deltas = global_errors(trajectory, problem, reference)
        if reference is None:
            metadata["source"] = ErrorSource.AGAINST_EXACT
        else:
            metadata.update(source=ErrorSource.AGAINST_REFERENCE_RUN,
                            reference_h=reference.mesh.h,
                            reference_error_estimate=reference.error_estimate)
        metadata["max_abs_delta"] = float(np.max(np.abs(deltas)))
        if columns == "errors":
            table.update(w=w, y=w - deltas, delta=deltas)
        elif columns in ("bound", "signed-bound"):
            model, curve = fit_bound(problem, trajectory, deltas)
            bound = error_bound(model, mesh)[: w.size]
            metadata.update(L=model.L, sign_case=model.sign_case,
                            c_tilde_max=float(np.nanmax(curve)),
                            c_tilde_amplitude=model.C_tilde)
            if columns == "bound":
                table.update(delta_abs=np.abs(deltas), c_curve=curve, bound=bound)
            else:
                table.update(delta=deltas, c_curve=amplitude_curve(deltas, model.L, mesh),
                             bound_plus=bound, bound_minus=-bound)
        else:
            epsilon = recover_local_errors(deltas, problem, trajectory)
            if columns == "local":
                direct = direct_local_errors(problem, mesh, method, cfg)[: w.size]
                table.update(epsilon_recovered=epsilon, epsilon_direct=direct)
            else:
                table.update(delta=deltas, epsilon=epsilon)
                metadata["max_abs_epsilon"] = float(np.max(np.abs(epsilon)))

    metadata["runtime_s"] = time.perf_counter() - started
    return ResultTable(columns=table, metadata=metadata)


def _ladder(h_list, x0: float, xf: float, names: tuple[str, str], measure,
            metadata: dict) -> ResultTable:
    """A stepsize study: per stepsize, h, ``measure(mesh)`` on its mesh over
    [x0, xf] and the observed order against the previous row (NaN on the
    first), the last two columns named ``names``; ``metadata`` plus
    runtime_s. Every mesh is built, and each stepsize checked against the
    one before it, before the first rung is measured.
    """
    started = time.perf_counter()
    h_arr = np.asarray(list(h_list), dtype=float)
    meshes = [make_mesh(x0, xf, h) for h in h_arr]
    for h1, h2 in zip(h_arr, h_arr[1:]):
        _log_step_ratio(h1, h2)
    errors = np.array([measure(mesh) for mesh in meshes])
    orders = np.full(h_arr.size, np.nan)
    for k in range(1, h_arr.size):
        orders[k] = pairwise_order(errors[k - 1], errors[k], h_arr[k - 1], h_arr[k])
    metadata["runtime_s"] = time.perf_counter() - started
    return ResultTable(columns=dict(zip(("h", *names), (h_arr, errors, orders))),
                       metadata=metadata)


def run_order_study(problem: VideProblem, x_d: float, h_list, method: Method,
                    cfg: ImplicitSolveConfig | None = None,
                    x0: float = 0.0) -> ResultTable:
    """Endpoint global error across a stepsize ladder, with pairwise slopes.

    Emits one row per stepsize: h, |Delta(x_d)| from a run over [x0, x_d],
    and the observed order p computed from the previous row (NaN on the
    first). Expected p is about 1 on smooth problems.
    """
    return _ladder(h_list, x0, x_d, ("delta_abs", "p"),
                   lambda mesh: abs(endpoint_error(problem, mesh, method, cfg)),
                   {"kind": ExperimentKind.ORDER_STUDY, "x_d": x_d, "method": method})


def run_consistency_study(problem: VideProblem, h_list, method: Method,
                          cfg: ImplicitSolveConfig | None = None,
                          x0: float = 0.0, xf: float = 5.0) -> ResultTable:
    """Max direct local error across a stepsize ladder, with pairwise slopes.

    Emits one row per stepsize: h, max|eps| over [x0, xf], and the
    observed local order q from the previous row (NaN on the first).
    Expected q is about 2 on smooth problems with an exact solution; a
    problem without one raises MissingExact before the stepsizes are read.
    """
    if problem.exact is None:
        raise MissingExact("direct local errors need the exact solution")
    return _ladder(h_list, x0, xf, ("local_max", "q"),
                   lambda mesh: float(np.max(np.abs(
                       direct_local_errors(problem, mesh, method, cfg)))),
                   {"kind": ExperimentKind.CONSISTENCY_STUDY, "method": method})
