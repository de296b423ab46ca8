"""Span tracer that times crossolve's layers from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, in every crossolve module that holds a reference to it:
`experiments`, `dynamics` and `generators` bind their callees at import
(`from .x import f`), so a function is wrapped where it is looked up, not
only where it is defined. The cached property `FeedbackSystem.m_eigenvalues`
is re-registered around a wrapped function, and the scenario task mapper is
wrapped so that each scenario task is a span of its own.

Each thread keeps its own span stack and its own counters, so self times
stay correct when a scenario runs tasks on worker threads. Counters are
summed over threads when read; busy times of different threads then add up
and can exceed the wall time of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("generators", "devices", "spectral", "dynamics", "baselines", "experiments")

# Step-cost buckets of the transient loop, split at the geometric midpoints
# between n = 3, 30 and 300.
STEP_BUCKETS = ((9.5, "n3"), (95.0, "n30"), (float("inf"), "n300"))


def step_bucket(n: int) -> str:
    return next(label for limit, label in STEP_BUCKETS if n < limit)


def _simulate_counts(counts, args, result, self_s):
    n = args[0].a.shape[0]
    bucket = step_bucket(n)
    counts["dynamics.simulate.steps"] += result.steps
    counts["dynamics.simulate.flops"] += 2.0 * n * n * result.steps
    counts[f"dynamics.simulate.steps.{bucket}"] += result.steps
    counts[f"dynamics.simulate.self_s.{bucket}"] += self_s


def _cg_counts(counts, args, result, self_s):
    counts["baselines.conjugate_gradient.iterations"] += result.iterations


EXTRA_COUNTS = {
    "dynamics.simulate": _simulate_counts,
    "baselines.conjugate_gradient": _cg_counts,
}


class Tracer:
    """Per-thread span stacks and counters for wrapped functions.

    For every span name the counters hold `<name>.calls` and `<name>.self_s`,
    the span's time not covered by child spans on the same thread.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[defaultdict] = []
        self._undo: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = defaultdict(float)
            with self._lock:
                self._tables.append(local.counts)
        return local

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called name."""
        extra = EXTRA_COUNTS.get(name)
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            frame = [0.0]  # time covered by child spans
            state.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state.stack.pop()
                if state.stack:
                    state.stack[-1][0] += elapsed
                self_s = elapsed - frame[0]
                counts = state.counts
                counts[calls_key] += 1
                counts[self_key] += self_s
            if extra is not None:
                extra(state.counts, args, result, self_s)
            return result

        return traced

    def counts(self) -> dict[str, float]:
        """Counters summed over every thread that recorded a span."""
        total: defaultdict = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for key, value in table.items():
                    total[key] += value
        return dict(total)

    def reset(self) -> None:
        """Forget every counter and every thread seen so far."""
        with self._lock:
            self._local = threading.local()
            self._tables = []

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer functions in every loaded crossolve module."""
        wrapped = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"crossolve.{short}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for prop_name, prop in list(vars(obj).items()):
                        if isinstance(prop, functools.cached_property):
                            replacement = functools.cached_property(self.wrap(f"{short}.{prop_name}", prop.func))
                            replacement.__set_name__(obj, prop_name)
                            self._rebind(obj, prop_name, replacement)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "crossolve" or module_name.startswith("crossolve.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(module, attr, wrapped[value])

        experiments = sys.modules["crossolve.experiments"]
        map_tasks = experiments._map_tasks
        run_task = self.wrap("experiments.task", lambda task: task())

        def traced_map(tasks, threads):
            return map_tasks([functools.partial(run_task, task) for task in tasks], threads)

        self._rebind(experiments, "_map_tasks", self.wrap("experiments.map_tasks", traced_map))

    def uninstall(self) -> None:
        """Restore every binding `install` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
