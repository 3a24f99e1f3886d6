"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

Run from the root of a checkout; exits 0 when every check passes. It checks:

1. the truth solver (the ODE-system route used for the cubic kernel)
   reproduces the closed-form solution of the test equation on both
   discriminant branches;
2. the callback wrappers keep callback semantics: a scalar-only kernel
   given an array raises the same exception, wrapped or not, and the
   failed vector call is counted;
3. on every workload, a traced pass gives outputs bit-identical to an
   untraced pass, span self times add up to the traced pass time, and
   the counters repeat exactly between two traced passes.

Step 3 runs each workload for a few passes and takes about 30 s.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TRUTH_TOL = 1e-9


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def check_truth_solver() -> bool:
    xs = np.linspace(0.0, 5.0, 101)
    ok = True
    for lam, gam in ((-3.0, -2.0), (-1.0, -2.0), (1.0, 2.0)):
        exact = oracle.test_equation_exact(lam, gam)(xs)
        gap = float(np.max(np.abs(oracle.test_equation_truth(lam, gam, xs) - exact)
                           / np.maximum(1.0, np.abs(exact))))
        ok &= report(f"truth solver, lam={lam}, gam={gam}", gap <= TRUTH_TOL,
                     f"max|ODE solver - closed form| / max(1, |y|) = {gap:.2e} "
                     f"(need <= {TRUTH_TOL:g})")
    return ok


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return None


def check_callback_semantics() -> bool:
    problem = workloads.scalar_only_problem(-1.0, -2.0)
    tracer = Tracer()
    wrapped = tracer.wrap_problem(problem)
    tracer.enter("bench.pass")
    values = np.array([1.0, 2.0, 3.0])
    plain, traced = _raised(problem.kernel, 0.5, values, values), \
        _raised(wrapped.kernel, 0.5, values, values)
    scalar_same = wrapped.kernel(0.5, np.float64(2.0), 0.0) == problem.kernel(0.5, 2.0, 0.0)
    tracer.exit()
    fallbacks = tracer.counts["steppers.kernel_vector_fallbacks"]
    ok = plain is not None and plain == traced and scalar_same and fallbacks == 1
    return report("callback wrapper semantics", ok,
                  f"unwrapped raised {plain}, wrapped raised {traced}, scalar result "
                  f"unchanged: {scalar_same}, counted fallbacks: {fallbacks}")


def check_tracing(name: str, workdir: Path) -> bool:
    workload = workloads.build(name, 7, workdir / name)
    untraced = worker.run_pass(workload.commands())
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for _ in range(2):
            tracer.reset()
            record = worker.run_pass(workload.commands(tracer.wrap_problem), tracer)
            record["layers"] = worker.layer_metrics(tracer, record)
            traced.append(record)
    finally:
        tracer.uninstall()
    failures = untraced["failures"] + [f for r in traced for f in r["failures"]]
    identical = all(r["fingerprints"] == untraced["fingerprints"] for r in traced)
    gaps = [r["layers"]["trace.self_sum_gap"] for r in traced]
    repeats = [c for c in worker.EXACT_COUNTS
               if traced[0]["layers"][c] != traced[1]["layers"][c]]
    ok = (not failures and identical and max(gaps) <= worker.ADDITIVITY_TOL
          and not repeats)
    return report(f"tracing on {name}", ok,
                  f"output checks failed: {failures[:3]}, traced outputs bit-identical "
                  f"to untraced: {identical}, span self-time gap {max(gaps):.1e} of the "
                  f"pass (need <= {worker.ADDITIVITY_TOL:g}), counters that did not "
                  f"repeat: {repeats}")


def main() -> int:
    ok = check_truth_solver()
    ok &= check_callback_semantics()
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name in inputs.WORKLOADS:
            ok &= check_tracing(name, Path(tmp))
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
