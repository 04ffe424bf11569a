"""Per-layer span tracing, installed from outside the program.

Each layer of the DIAC stack is timed at its public entry points.
:meth:`Tracer.install` swaps every binding of those entry points for a
wrapper that records a span: the home module's attribute, every
``from``-imported copy held by another ``repro`` module (the explorer,
``core.diac``, ``evaluation`` and the analysis modules each hold their
own), and the class attribute for methods.  A standard-library entry
point (``time.sleep``, the service's idle wait) is patched on its own
module.  :meth:`Tracer.uninstall` puts the originals back, including in
modules imported while tracing.

Spans live in memory, one list per thread, and are folded into
per-layer figures once, after the run (:meth:`Tracer.fold`).  A span's
self time is its duration minus the time of its direct child spans;
coverage is the union of top-level work spans over the traced window.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

#: Layer -> entry points as ``module:qualname``.  Classes listed with
#: ``*`` contribute every public method they define themselves (plus
#: ``__init__``, which opens the connection).
LAYERS: dict[str, tuple[str, ...]] = {
    "circuits.load": ("repro.suite.registry:load_circuit",),
    "tech.synthesize": ("repro.tech.synthesis:synthesize",),
    "core.tree": ("repro.core.tree_generator:build_task_graph",),
    "core.policies": (
        "repro.core.policies:apply_policy",
        "repro.core.policies:config_for_graph",
    ),
    "dse.synth_cache": ("repro.dse.explorer:SynthesisCache.stage_for",),
    "core.replacement": ("repro.core.replacement:insert_nvm",),
    "core.codegen": ("repro.core.codegen:generate_code",),
    "core.validate": ("repro.core.codegen:GeneratedCode.roundtrip_check",),
    "energy.environment": ("repro.evaluation:build_environment",),
    "sim.executor": (
        "repro.dse.batch:run_batch",
        "repro.sim.intermittent:IntermittentExecutor.run",
    ),
    "analysis.bounds": ("repro.analysis.intervals:bounds_for_point",),
    "analysis.screen": ("repro.analysis.screen:StaticScreener.screen",),
    # Only search-halving builds a strategy; grid requests never do.
    "dse.strategy": (
        "repro.dse.strategies:SuccessiveHalvingStrategy.ask",
        "repro.dse.strategies:SuccessiveHalvingStrategy.tell",
    ),
    "dse.store": ("repro.dse.sqlite_store:SqliteResultStore.*",),
    "service.queue": ("repro.service.queue:LeaseQueue.*",),
    # The coordinator and the worker sleep between queue polls; nothing
    # else in a workload sleeps.  This is waiting, not work.
    "service.poll": ("time:sleep",),
}
#: Layers whose spans are waiting, not work (see :meth:`Tracer.fold`).
WAIT_LAYERS = frozenset({"service.poll"})

#: Store methods that write records (``append`` one, ``extend`` a list).
_STORE_WRITES = ("append", "extend")
#: Store methods that read records.
_STORE_READS = ("load", "keys", "get", "iter_records")


@dataclass
class _Thread:
    """One thread's spans: ``[layer, start, end, parent, child_s]``."""

    spans: list[list] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)


@dataclass
class LayerFold:
    """Per-layer totals over a set of traced windows."""

    wall_s: float = 0.0
    covered_s: float = 0.0
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)


class Tracer:
    """Records layer spans while installed; see the module docs."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []
        self.counters: Counter = Counter()
        #: (owner, attribute, original, wrapper) for every patched binding.
        self._patched: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- recording ------------------------------------------------------

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _Thread()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _enter(self, layer: str) -> tuple[_Thread, int]:
        state = self._thread()
        parent = state.stack[-1] if state.stack else -1
        index = len(state.spans)
        state.spans.append([layer, time.perf_counter(), 0.0, parent, 0.0])
        state.stack.append(index)
        return state, index

    @staticmethod
    def _exit(state: _Thread, index: int) -> float:
        span = state.spans[index]
        span[2] = time.perf_counter()
        state.stack.pop()
        elapsed = span[2] - span[1]
        if span[3] >= 0:
            state.spans[span[3]][4] += elapsed
        return elapsed

    def _count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer._before(layer, name, args)
            state, index = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._exit(state, index)
            tracer._after(layer, name, args, result, elapsed, before)
            return result

        return traced

    def _wrap_generator(self, layer: str, name: str, fn):
        """Time every ``next()`` of a generator entry point as a span.

        The only generator entry point is the store's ``iter_records``,
        so its items count as store reads.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(f"{layer}.calls")
            tracer._count(f"{layer}.read_calls")
            iterator = fn(*args, **kwargs)
            while True:
                state, index = tracer._enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer._count(f"{layer}.read_s", tracer._exit(state, index))
                    return
                except BaseException:
                    tracer._exit(state, index)
                    raise
                tracer._count(f"{layer}.read_s", tracer._exit(state, index))
                tracer._count(f"{layer}.read_records")
                yield item

        return traced

    def _before(self, layer: str, name: str, args: tuple) -> object:
        if layer == "dse.synth_cache":
            return args[0].synthesize_calls
        return None

    def _after(self, layer, name, args, result, elapsed, before) -> None:
        """Layer-specific counters, measured where the work happens."""
        counts = Counter({f"{layer}.calls": 1})
        if layer == "dse.synth_cache":
            counts["dse.synth_cache.hits"] += (
                args[0].synthesize_calls == before
            )
        elif layer == "sim.executor":
            counts["sim.executor.lanes"] += (
                len(args[0]) if name == "run_batch" else 1
            )
        elif layer == "analysis.screen":
            counts["analysis.screen.points_in"] += len(args[1])
            counts["analysis.screen.points_kept"] += len(result)
        elif layer == "dse.store":
            if name in _STORE_WRITES:
                counts["dse.store.write_calls"] += 1
                counts["dse.store.write_records"] += (
                    1 if name == "append" else len(args[1])
                )
                counts["dse.store.write_s"] += elapsed
            elif name in _STORE_READS:
                counts["dse.store.read_calls"] += 1
                if name == "get":
                    counts["dse.store.read_records"] += result is not None
                else:
                    counts["dse.store.read_records"] += len(result)
                counts["dse.store.read_s"] += elapsed
        elif layer == "service.queue" and name == "claim":
            counts["service.queue.claims"] += 1
            if result:
                counts["service.queue.leases"] += 1
                counts["service.queue.leased_tasks"] += len(result)
        with self._lock:
            self.counters.update(counts)

    # -- installing -----------------------------------------------------

    @staticmethod
    def _entry_points(target: str) -> list[tuple[object, str, object]]:
        """``(owner, attribute, function)`` for one ``module:qualname``."""
        module_name, qualname = target.split(":")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if attr != "*":
            return [(owner, attr, vars(owner)[attr])]
        return [
            (owner, name, value)
            for name, value in vars(owner).items()
            if inspect.isfunction(value)
            and (name == "__init__" or not name.startswith("_"))
        ]

    def install(self) -> None:
        """Patch every binding of every layer entry point."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                for owner, attr, fn in self._entry_points(target):
                    wrapper = self._wrap(layer, attr, fn)
                    self._wrappers[id(wrapper)] = (wrapper, fn)
                    if inspect.isclass(owner) or owner not in modules:
                        self._patch(owner, attr, fn, wrapper)
                    if inspect.isclass(owner):
                        continue
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is fn:
                                self._patch(module, name, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Restore every original, also in modules imported meanwhile."""
        for owner, attr, original, _wrapper in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._wrappers = {}

    # -- folding --------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Every span as Chrome trace-event JSON (opens in Perfetto)."""
        events = [
            {
                "name": layer, "ph": "X", "pid": 0, "tid": tid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
            }
            for tid, state in enumerate(self._threads)
            for layer, start, end, _parent, _child_s in state.spans
        ]
        return {"traceEvents": events}

    def fold(self, windows: list[tuple[float, float]]) -> LayerFold:
        """Per-layer self time and coverage over the traced windows.

        Spans must all lie inside one of ``windows`` (tracing is only
        installed while a traced iteration runs).  Coverage is the union
        of top-level work spans across threads, so a coordinator thread
        that waits while a worker thread computes still counts as
        covered.  A waiting span (``WAIT_LAYERS``) counts only where
        every thread active in the window is waiting: a thread that
        sleeps must not hide a gap in another thread's work.
        """
        out = LayerFold(counters=Counter(self.counters))
        work: list[tuple[float, float]] = []
        waits: list[list[tuple[float, float]]] = []
        for state in self._threads:
            mine = []
            for layer, start, end, parent, child_s in state.spans:
                out.self_s[layer] += (end - start) - child_s
                if parent < 0:
                    (mine if layer in WAIT_LAYERS else work).append(
                        (start, end)
                    )
            waits.append(sorted(mine))
        for lo, hi in windows:
            out.wall_s += hi - lo
            active = [
                [(max(a, lo), min(b, hi)) for a, b in mine if b > lo and a < hi]
                for state, mine in zip(self._threads, waits)
                if any(b > lo and a < hi for _l, a, b, _p, _c in state.spans)
            ]
            idle = functools.reduce(_intersect, active) if active else []
            cursor = lo
            for start, end in sorted(work + idle):
                start, end = max(start, cursor), min(end, hi)
                if end > start:
                    out.covered_s += end - start
                    cursor = end
        return out


def _intersect(a: list[tuple[float, float]],
               b: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Intersection of two sorted lists of disjoint intervals."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        start, end = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if end > start:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out
