"""One fresh benchmark process: import videstep, build the inputs, then
run timed passes of one workload and write the measurements as JSON.

    python3 bench/worker.py --job JOB.json --result RESULT.json [--setup-only]

``bench/run.py`` starts it with ``src`` on PYTHONPATH and the BLAS/OpenMP
thread variables pinned to 1. The set-up time covers the import of
videstep and the building of the inputs. With ``--setup-only`` the
process stops there.

Untraced mode runs passes for the whole time budget. Traced mode runs
untraced passes for half of it and traced passes for the other half; the
ratio of their medians is the tracing overhead. Every pass must produce
the same output fingerprints, so traced outputs are checked bit for bit
against untraced ones.
"""

from __future__ import annotations

import time

# Set-up time runs from here: after interpreter start-up, before the
# imports of NumPy and videstep (through workloads).
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports NumPy, videstep and videstep.cli)

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# No pass starts after this moment once a pass of its kind has run, even
# below the minimum count, so that a much slower program still finishes
# within the run's 180 s limit.
PASS_DEADLINE = STARTED + 100.0
# Span self times must add up to the pass time measured around them.
ADDITIVITY_TOL = 1e-3
# Counters that must repeat exactly from pass to pass.
EXACT_COUNTS = ("steppers.kernel_evals", "steppers.kernel_calls",
                "steppers.kernel_vector_fallbacks", "steppers.newton_iters",
                "steppers.steps", "error_analysis.reference_steps",
                "steppers.row_bytes_computed", "test_problems.jac_calls",
                "experiments.config_warnings")


def run_pass(commands, tracer=None) -> dict:
    """Time the commands back to back, then check their outputs."""
    raw = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = time.perf_counter()
        if tracer is not None:
            tracer.enter("bench.pass")
        for command in commands:
            seen = len(caught)
            begin = time.perf_counter()
            try:
                result, error = command.call(), None
            except Exception as exc:  # a program failure is a failed operation
                result, error = None, exc
            raw.append((result, error, time.perf_counter() - begin, caught[seen:]))
        if tracer is not None:
            tracer.exit()
        wall = time.perf_counter() - started

    failures, fingerprints, errors = [], [], []
    for index, (command, (result, error, _, caught_here)) in enumerate(zip(commands, raw)):
        if error is not None:
            outcome = workloads.Outcome(failure=f"{type(error).__name__}: {error}")
        else:
            outcome = command.check(result, caught_here)
        if outcome.failure is not None:
            failures.append((index, f"{command.label}: {outcome.failure}"))
        if outcome.delta_rel_err is not None:
            errors.append(outcome.delta_rel_err)
        fingerprints.append(outcome.fingerprint.hex())
    return {
        "wall_s": wall,
        "latencies_s": [entry[2] for entry in raw],
        "failures": failures,
        "fingerprints": fingerprints,
        "delta_rel_err": max(errors) if errors else None,
        "config_warnings": sum(workloads.config_warnings(entry[3]) for entry in raw),
    }


def run_passes(commands, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    passes = []
    started = time.perf_counter()
    while True:
        now = time.perf_counter()
        if passes and (now >= PASS_DEADLINE
                       or (len(passes) >= min_passes and now - started >= seconds)):
            return passes
        if tracer is not None:
            tracer.reset()
        record = run_pass(commands, tracer)
        record["traced"] = tracer is not None
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, record)
            record["spans"] = tracer.spans
        passes.append(record)


def layer_metrics(tracer, record: dict) -> dict:
    """Per-layer figures of one traced pass."""
    t = tracer.total
    metrics = {
        "cli.main_s": t("cli.main"),
        "cli.self_s": tracer.self_time("cli"),
        "experiments.run_experiment_s": t("experiments.run_experiment"),
        "experiments.run_order_study_s": t("experiments.run_order_study"),
        "experiments.write_s": t("experiments.ResultTable.write"),
        "experiments.self_s": tracer.self_time("experiments"),
        "experiments.bytes_written": tracer.counts["experiments.bytes_written"],
        "experiments.config_warnings": record["config_warnings"],
        "error_analysis.auto_reference_s": t("error_analysis.auto_reference"),
        "error_analysis.reference_steps": tracer.counts["error_analysis.reference_steps"],
        "error_analysis.global_errors_s": t("error_analysis.global_errors"),
        "error_analysis.fit_bound_s": t("error_analysis.fit_bound"),
        "error_analysis.recover_local_errors_s": t("error_analysis.recover_local_errors"),
        "error_analysis.direct_local_errors_s": t("error_analysis.direct_local_errors"),
        "error_analysis.self_s": tracer.self_time("error_analysis"),
        "error_analysis.delta_rel_err": record["delta_rel_err"] or 0.0,
        "steppers.integrate_s": t("steppers.integrate"),
        "steppers.self_s": tracer.self_time("steppers"),
        "steppers.steps": tracer.counts["steppers.steps"],
        "steppers.newton_iters": tracer.counts["steppers.newton_iters"],
        "steppers.kernel_calls": tracer.calls("test_problems.kernel"),
        "steppers.kernel_evals": tracer.counts["steppers.kernel_evals"],
        "steppers.kernel_vector_fallbacks": tracer.counts["steppers.kernel_vector_fallbacks"],
        "steppers.row_bytes_computed": tracer.counts["steppers.row_bytes_computed"],
        "test_problems.kernel_s": t("test_problems.kernel"),
        "test_problems.f_s": t("test_problems.f"),
        "test_problems.jac_s": t("test_problems.f_y") + t("test_problems.kernel_y"),
        "test_problems.jac_calls": (tracer.calls("test_problems.f_y")
                                    + tracer.calls("test_problems.kernel_y")),
        "bench.self_s": tracer.self_time("bench"),
    }
    span_self = sum(stat[2] for stat in tracer.stats.values())
    metrics["trace.self_sum_gap"] = abs(span_self - record["wall_s"]) / record["wall_s"]
    return metrics


def summarise(passes: list[dict]) -> dict:
    """Operations attempted and failed over a list of passes.

    An operation fails on an exception, a failed output check, or outputs
    that differ from those of the first pass. A pass-level failure (a
    counter that did not repeat, span times that do not add up) is
    charged to the pass's first operation.
    """
    reference = passes[0]["fingerprints"]
    failed, reasons = set(), []
    for k, record in enumerate(passes):
        for index, fingerprint in enumerate(record["fingerprints"]):
            if fingerprint != reference[index]:
                record["failures"].append((index, f"command {index}: outputs differ "
                                                  "from the first pass"))
        for index, reason in record["failures"]:
            failed.add((k, index))
            reasons.append(f"pass {k}: {reason}")
    return {"attempted": sum(len(p["latencies_s"]) for p in passes),
            "failed": len(failed), "failures": reasons}


def run(workload, job: dict) -> dict:
    seconds = float(job["seconds"])
    if not job["trace"]:
        passes = run_passes(workload.commands(), seconds, MIN_PASSES)
        summary = summarise(passes)
        return {"passes": strip(passes), **summary}

    from tracing import Tracer

    untraced = run_passes(workload.commands(), seconds / 2, MIN_TRACED_PASSES)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload.commands(tracer.wrap_problem), seconds / 2,
                            MIN_TRACED_PASSES, tracer)
    finally:
        tracer.uninstall()
    first = traced[0]["layers"]
    for record in traced:
        layers = record["layers"]
        for name in EXACT_COUNTS:
            if layers[name] != first[name]:
                record["failures"].append((0, f"{name} = {layers[name]}, the first "
                                              f"traced pass had {first[name]}"))
        if layers["trace.self_sum_gap"] > ADDITIVITY_TOL:
            record["failures"].append((0, "span self times miss the pass time by "
                                          f"{layers['trace.self_sum_gap']:.2e} of it"))
    summary = summarise(untraced + traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in first}
    layers.update({name: first[name] for name in EXACT_COUNTS})
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {"passes": strip(untraced) + strip(traced), "layers": layers,
            "spans": traced[0]["spans"][:5000], **summary}


def strip(passes: list[dict]) -> list[dict]:
    return [{k: v for k, v in p.items() if k not in ("spans", "fingerprints")}
            for p in passes]


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    Linux carries ru_maxrss across exec, so a worker started by a large
    parent would report the parent's peak; VmHWM is reset by exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    job = json.loads(Path(args.job).read_text())
    workload = workloads.build(job["workload"], job["seed"], Path(job["workdir"]),
                               job.get("truth"))
    setup_s = time.perf_counter() - STARTED

    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run(workload, job))
        result["peak_rss_mb"] = peak_rss_mb()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
