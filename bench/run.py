"""videstep benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {cubic-order,sweep,scalar-kernel} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is used from ``src``
as it stands, with nothing installed. The steps are:

1. Draw the inputs from the seed. On cubic-order, also compute the truth
   y(x_d) with SciPy's ODE solver; this happens in this process, so the
   timed process never imports SciPy.
2. Start fresh processes (``bench/worker.py``), each with ``src`` on
   PYTHONPATH and the BLAS/OpenMP thread variables pinned to 1. Several
   of them only import videstep and build the inputs; their median is
   ``setup_s``. The last one also runs the timed passes and checks every
   output.
3. Print a summary, save the full result with its run context under
   ``bench/results/``, and print one JSON line last:
   ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
   the metrics are the end-to-end ones; with ``--trace 1`` they are the
   per-layer ones.

It exits with 2, printing no result, when the checkout has no
``src/videstep`` package. See ``bench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "videstep" / "__init__.py"
SETUP_SAMPLES = 7
# Every run must end within 180 s; leave room for this process's own work.
RUN_DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Metric names and units are those of BENCHMARK.json at the repository root.
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="videstep benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def run_context(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_variables": {name: "1" for name in THREAD_VARIABLES},
        "started_unix": time.time(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def run_worker(job_path: Path, result_path: Path, deadline: float,
               setup_only: bool) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--job", str(job_path), "--result", str(result_path)]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the worker could start")
    # subprocess.run kills and reaps the worker when the timeout expires.
    done = subprocess.run(command, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def quantile(values: list[float], k: int, n: int) -> float:
    return statistics.quantiles(values, n=n, method="inclusive")[k - 1]


def command_latencies(passes: list[dict]) -> list[float]:
    """Each command's median latency over the passes.

    Commands of one pass differ in cost by whole factors (explicit
    ``bound`` against implicit ``local``), so pooled samples form
    clusters, and a percentile of the pool can fall in the gap between
    two of them, where host noise moves it by the width of the gap. A
    percentile over the per-command medians is always one command's
    median.
    """
    per_command = zip(*(p["latencies_s"] for p in passes))
    return [statistics.median(samples) for samples in per_command]


def percentile(values: list[float], k: int, n: int) -> float:
    return quantile(values, k, n) if len(values) > 1 else values[0]


def end_to_end(result: dict, setup: list[float]) -> dict:
    walls = [p["wall_s"] for p in result["passes"]]
    latencies = command_latencies(result["passes"])
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "cmd_p50_s": statistics.median(latencies),
        "cmd_p80_s": percentile(latencies, 4, 5),
    }


def summary_lines(args, result: dict, setup: list[float], metrics: dict) -> list[str]:
    passes = [p for p in result["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in passes]
    latencies = command_latencies(passes)
    errors = [p["delta_rel_err"] for p in passes if p["delta_rel_err"] is not None]
    lines = [
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} untraced passes, "
        f"wall_s median {statistics.median(walls):.4f} "
        f"q1 {quantile(walls, 1, 4):.4f} q3 {quantile(walls, 3, 4):.4f}",
        f"# commands: {len(latencies)} per pass, each the median of {len(passes)} samples; "
        f"over them p50 {statistics.median(latencies):.4f} s, "
        f"p80 {percentile(latencies, 4, 5):.4f} s; setup_s median of {len(setup)} "
        f"fresh processes {statistics.median(setup):.4f}",
        f"# failed_frac {result['failed']}/{result['attempted']} (every pass)"
        + (f"; delta_rel_err {max(errors):.5f}" if errors else ""),
    ]
    if args.trace:
        lines.append(f"# tracing overhead {metrics['trace.overhead_frac']:+.3f} of the "
                     "untraced pass time; the program is single-threaded, so no layer "
                     "waits on another and no wait time is reported")
    lines += [f"# failure: {f}" for f in result["failures"][:10]]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: no videstep package at {PACKAGE.relative_to(ROOT)}; run from "
              "the root of a videstep checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    context = run_context(args)

    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace)}
    if args.workload == "cubic-order":
        import oracle

        y0 = inputs.cubic_y0(args.seed)
        job["truth"] = {"y_xd": oracle.cubic_truth(y0, inputs.CUBIC_X_D)}

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    job["workdir"] = str(workdir / "out")
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job))
        setup = [run_worker(job_path, workdir / f"setup{k}.json", deadline, True)["setup_s"]
                 for k in range(SETUP_SAMPLES - 1)]
        result = run_worker(job_path, workdir / "result.json", deadline, False)
        setup.append(result["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, declared = result["layers"], spec["per_layer"]
    else:
        metrics, declared = end_to_end(result, setup), spec["end_to_end"]
    for line in summary_lines(args, result, setup, result.get("layers", {})):
        print(line)

    failed = result["failed"]
    line = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared}}

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    saved = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps({"context": context, "setup_s_samples": setup,
                                 "result": result, "line": line}, indent=1))
    print(f"# saved {saved.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
