"""In-memory span tracer that wraps smaup's public functions from outside.

Each wrapped call records a span ``[name, start, end, parent]`` in a list
owned by one :class:`Tracer`; nothing is written until the caller asks.
Wrappers are installed in every ``smaup`` module namespace that holds the
original function, so a caller such as ``smaup.experiments`` finds the
wrapper when it looks ``levene_test`` up at call time. A name the program
no longer defines is skipped, and its layer reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# (module, attribute path, span name). Span names are "<layer>.<function>".
TARGETS = (
    ("smaup.weights", "build_lattice_rook", "weights.build_lattice_rook"),
    ("smaup.weights", "from_geojson", "weights.from_geojson"),
    ("smaup.weights", "SpatialWeights.from_json", "weights.SpatialWeights.from_json"),
    ("smaup.weights", "is_connected", "weights.is_connected"),
    ("smaup.sar", "generate_sar", "sar.generate_sar"),
    ("smaup.sar", "estimate_rho", "sar.estimate_rho"),
    ("smaup.sar", "generate_with_target_rho", "sar.generate_with_target_rho"),
    ("smaup.regionalize", "random_regions", "regionalize.random_regions"),
    ("smaup.regionalize", "aggregate_mean", "regionalize.aggregate_mean"),
    ("smaup.stats", "levene_test", "stats.levene_test"),
    ("smaup.stats", "welch_t_test", "stats.welch_t_test"),
    ("smaup.seeding", "derive_seed", "seeding.derive_seed"),
    ("smaup.seeding", "derive_rng", "seeding.derive_rng"),
    ("smaup.core", "smaup_test", "core.smaup_test"),
    ("smaup.core", "scan_k", "core.scan_k"),
    ("smaup.core", "min_safe_k", "core.min_safe_k"),
    ("smaup.critical_values", "CriticalValueTable.lookup", "critical_values.CriticalValueTable.lookup"),
    ("smaup.experiments", "generate_null", "experiments.generate_null"),
    ("smaup.experiments", "effects_experiment", "experiments.effects_experiment"),
    # private, but it is where the program counts the k draws of one instance
    ("smaup.experiments", "_accepted_instance", "experiments._accepted_instance"),
)

# Layer functions whose ``.calls`` and ``.self_s`` are reported.
LAYER_FUNCTIONS = tuple(
    name for _, _, name in TARGETS if not name.startswith("experiments.")
)
CLI_COMMANDS = ("weights", "simulate", "test", "scan")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._seen_weights: dict[int, weakref.ref] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                return self.span(name, fn, *args, **kwargs)
            start = len(self.spans)
            result = self.span(name, fn, *args, **kwargs)
            hook(self, self.spans[start], args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every target in the loaded ``smaup`` modules by a wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "smaup" or n.startswith("smaup."))]
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._patch(cls, attr, patched)
                continue
            original = getattr(module, path, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        experiments = sys.modules.get("smaup.experiments")
        if experiments is not None and getattr(experiments, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            self._patch(experiments, "ProcessPoolExecutor", _counting_pool(self))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans (one JSON list per line) and counters to ``path``."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    @staticmethod
    def load(path) -> tuple[list[list], Counter]:
        with open(path) as fh:
            head = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        return spans, Counter(head["counters"])


def self_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Per-name call counts and self seconds (duration minus child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    own: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - child[i]
    return calls, own


def merge(parts: list[tuple[list[list], Counter]]) -> tuple[list[list], Counter]:
    """Concatenate span lists of several processes, re-basing parent links."""
    spans: list[list] = []
    counters: Counter = Counter()
    for part_spans, part_counters in parts:
        base = len(spans)
        spans.extend([n, s, e, p + base if p >= 0 else -1] for n, s, e, p in part_spans)
        counters.update(part_counters)
    return spans, counters


# -- hooks that read counts off a wrapped call's result -----------------------


def _first_rho(tracer: Tracer, record, args, kwargs, result) -> None:
    # the first estimate_rho on a weights object pays for its eigenvalue cache
    w = args[0] if args else kwargs.get("w")
    ref = tracer._seen_weights.get(id(w))
    if ref is not None and ref() is w:
        return
    tracer._seen_weights[id(w)] = weakref.ref(w)
    tracer.counters["sar.estimate_rho.first_s"] += record[2] - record[1]


def _target_attempts(tracer: Tracer, record, args, kwargs, result) -> None:
    tracer.counters["sar.generate_with_target_rho.attempts"] += int((result.meta or {}).get("attempts", 0))


def _instance_trials(tracer: Tracer, record, args, kwargs, result) -> None:
    tracer.counters["experiments.trials"] += int(result.get("trials", 0))
    tracer.counters["experiments.accepted"] += 1


def _effects_instances(tracer: Tracer, record, args, kwargs, result) -> None:
    tracer.counters["experiments.accepted"] += int(result.instances)


_HOOKS = {
    "sar.estimate_rho": _first_rho,
    "sar.generate_with_target_rho": _target_attempts,
    "experiments._accepted_instance": _instance_trials,
    "experiments.effects_experiment": _effects_instances,
}


def _counting_pool(tracer: Tracer):
    """ProcessPoolExecutor that counts tasks, pickled bytes and result waits.

    Byte counts are the pickled sizes of each (function, chunk) the pool
    sends and of each result it returns, computed here, not read off the
    pipe.
    """

    class CountingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, timeout=None, chunksize=1):
            items = list(zip(*iterables))
            tracer.counters["experiments.pool.tasks"] += len(items)
            for start in range(0, len(items), chunksize):
                chunk = items[start:start + chunksize]
                tracer.counters["experiments.pool.bytes_sent"] += len(
                    pickle.dumps((fn, chunk), pickle.HIGHEST_PROTOCOL))
            results = super().map(fn, *zip(*items), timeout=timeout, chunksize=chunksize)
            return _timed(results)

    def _timed(results):
        while True:
            start = perf_counter()
            try:
                value = next(results)
            except StopIteration:
                return
            finally:
                tracer.counters["experiments.pool.wait_s"] += perf_counter() - start
            tracer.counters["experiments.pool.bytes_received"] += len(
                pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
            yield value

    return CountingPool
