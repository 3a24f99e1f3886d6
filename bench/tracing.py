"""Spans and counters around videstep, installed from outside the package.

``Tracer.install()`` replaces the public functions of the layer modules
(and ``steppers._kernel_row``, where history rows are built) with wrappers
that record a span per call. Modules import functions by name, so the
wrapper is written into every module that holds the function, including
the package namespace: ``cli.integrate``, ``error_analysis.integrate``,
``videstep.integrate`` and so on all get the same wrapper.
``uninstall()`` puts the originals back.

Problem callbacks form the ``test_problems`` layer. Problems built by
``builtin_problem`` or ``test_equation`` inside the program, and problems
passed to ``wrap_problem``, get their f, K, f_y and K_y wrapped. The
wrappers return the callback's own result and re-raise its own exception.
A scalar-only kernel called with an array therefore still raises the
error that makes steppers fall back to a per-node loop. Each such failed
vector call is counted.

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans add up to the root span. Every call
is aggregated by span name. Full span records (id, parent, name, start,
end) are kept only for spans that are not per step or per callback, since
those run millions of times in one pass. The program is single-threaded,
so no span waits on another and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import replace

# Modules whose public functions are spans; the layer is the last name part.
LAYER_MODULES = ("videstep.cli", "videstep.experiments",
                 "videstep.error_analysis", "videstep.steppers")
# Namespaces patched: each layer module plus the package, which re-exports.
PATCHED_MODULES = ("videstep",) + LAYER_MODULES
PRIVATE_SPANS = {("videstep.steppers", "_kernel_row")}
PROBLEM_FACTORIES = {"builtin_problem", "test_equation"}
# Spans that run once per step, per node or per callback: aggregated only.
UNRECORDED = {
    "steppers.explicit_step", "steppers.implicit_step", "steppers.history_sum",
    "steppers._kernel_row", "error_analysis.propagation_coefficient_explicit",
    "error_analysis.propagation_coefficient_implicit",
    "test_problems.f", "test_problems.kernel", "test_problems.f_y",
    "test_problems.kernel_y",
}
COUNTERS = (
    "steppers.steps", "steppers.kernel_evals", "steppers.kernel_vector_fallbacks",
    "steppers.newton_iters", "steppers.row_bytes_computed",
    "error_analysis.reference_steps", "experiments.bytes_written",
)


class Tracer:
    """Span statistics and counters for one pass at a time (see ``reset``)."""

    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self) -> None:
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans = []  # (id, parent id, name, start, end)
        self._stack = []  # open spans: [name, start, child seconds, id]
        self._next_id = 0

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        self._close(name, end - start, child)
        if name not in UNRECORDED:
            parent = self._stack[-1][3] if self._stack else 0
            self.spans.append((span_id, parent, name, start, end))

    def _close(self, name: str, duration: float, child: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            finally:
                self.exit()
        return wrapper

    def _callback(self, name: str, fn, is_kernel: bool = False):
        # Callbacks are leaves: no child spans, so no stack entry is pushed.
        @functools.wraps(fn)
        def wrapper(*args):
            start = time.perf_counter()
            try:
                out = fn(*args)
            except (TypeError, ValueError):
                if is_kernel and hasattr(args[1], "ndim") and args[1].ndim > 0:
                    self.counts["steppers.kernel_vector_fallbacks"] += 1
                raise
            finally:
                self._close(name, time.perf_counter() - start, 0.0)
            if is_kernel:
                self.counts["steppers.kernel_evals"] += getattr(args[1], "size", 1)
            return out
        return wrapper

    def wrap_problem(self, problem):
        """The same problem with its f, K, f_y and K_y timed and counted."""
        wrapped = {"f": self._callback("test_problems.f", problem.f),
                   "kernel": self._callback("test_problems.kernel", problem.kernel,
                                            is_kernel=True)}
        for field in ("f_y", "kernel_y"):
            fn = getattr(problem, field)
            if fn is not None:
                wrapped[field] = self._callback("test_problems." + field, fn)
        return replace(problem, **wrapped)

    def _count(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _after_hooks(self) -> dict:
        count = self._count
        return {
            "steppers.integrate":
                lambda t: count("steppers.steps", t.w.size - 1),
            "error_analysis.auto_reference":
                lambda t: count("error_analysis.reference_steps", t.w.size - 1),
            "steppers.implicit_step":
                lambda out: count("steppers.newton_iters", out[1].iterations),
            "steppers._kernel_row":
                lambda row: count("steppers.row_bytes_computed", row.nbytes),
            "experiments.ResultTable.write":
                lambda paths: count("experiments.bytes_written",
                                    sum(os.path.getsize(p) for p in paths)),
        }

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = self._after_hooks()
        made = {}  # id(original) -> wrapper, so every namespace shares one

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.wrap_problem(fn(*args, **kwargs))
            return wrapper

        for module_name in PATCHED_MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if home == "videstep.test_problems" and attr in PROBLEM_FACTORIES:
                    make = factory
                elif home in LAYER_MODULES and (not attr.startswith("_")
                                                or (home, attr) in PRIVATE_SPANS):
                    name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    make = functools.partial(self._span, name, after=hooks.get(name))
                else:
                    continue
                if id(obj) not in made:
                    made[id(obj)] = make(obj)
                setattr(module, attr, made[id(obj)])
                self._patched.append((module, attr, obj))

        table = importlib.import_module("videstep.experiments").ResultTable
        original = table.__dict__["write"]
        name = "experiments.ResultTable.write"
        table.write = self._span(name, original, after=hooks[name])
        self._patched.append((table, "write", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
