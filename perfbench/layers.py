"""Per-layer tracing for the benchmark's traced runs.

:class:`LayerTracer` patches timing wrappers around the public entry
points of each layer (module attributes and class methods of the
unchanged engine) and restores the originals on :meth:`LayerTracer.remove`.
Each wrapper records one span — layer, start, end, depth — and keeps
running per-layer totals, so a layer's *self* time is its span time
minus the time its child spans cover.  Spans are kept in memory (up to
``SPAN_CAP``) and written out when the run ends.

Work inside forked worker lanes cannot be wrapped from the parent; for
that the engine's own :class:`~repro.obs.trace.Tracer` is attached with
:class:`LaneSink`, which folds the lane-side ``chunk`` spans (dwell,
``prepare``, ``attempt:<decider>``) into counters as traces finish.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from time import perf_counter

import repro.engine.batch as batch_module
import repro.engine.executors as executors_module
import repro.sat.planner as planner_module
import repro.sat.registry as decider_registry
from repro.engine.cache import DecisionCache
from repro.engine.batch import BatchEngine
from repro.engine.executors import PersistentPoolExecutor, WorkerRuntime
from repro.engine.statetier import StateTier

#: the deciders whose per-decider metrics the benchmark always reports
DECIDERS = (
    "bounded", "conjunctive", "disjunction_free", "downward",
    "exptime_types", "exptime_types_bits", "nexptime", "no_dtd",
    "positive", "realworld", "sibling", "universal_family",
)

#: spans kept in memory for the spans file (totals count every span)
SPAN_CAP = 200_000

#: layers of the self-time breakdown, outermost first; ``perfbench.stamp``
#: is the benchmark's own result callback, timed so that it is not
#: counted as ``engine.batch`` self time
LAYERS = (
    "engine.batch", "xpath.parser", "xpath.canonical", "engine.cache",
    "sat.planner", "engine.executors", "sat.prepare", "engine.statetier",
) + tuple(f"sat.decider.{name}" for name in DECIDERS) + ("perfbench.stamp",)


class LayerTracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.total = {layer: 0.0 for layer in LAYERS}
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.conclusive = {name: 0 for name in DECIDERS}
        self.counts: dict[str, float] = {
            "cache.gets": 0, "cache.hits": 0, "cache.puts": 0,
            "planner.plan_calls": 0, "chunks.runs": 0, "chunks.ms": 0.0,
        }
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._registry_before: dict | None = None

    # -- recording ----------------------------------------------------------
    def _close(self, layer: str, frame: list[float], start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        elapsed = end - start
        self.calls[layer] += 1
        self.total[layer] += elapsed
        self.self_time[layer] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        if len(self.spans) < SPAN_CAP:
            self.spans.append((layer, start, end, len(self._stack)))

    def wrap(self, layer: str, fn, on_result=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, frame, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, layer: str, fn):
        """Time each ``next()`` of a generator method (the parent blocking
        on the layer), not the consumer's work between items."""
        stack = self._stack

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(layer, frame, start)
                    return
                except BaseException:
                    self._close(layer, frame, start)
                    raise
                self._close(layer, frame, start)
                yield item

        return traced

    # -- patching -----------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> "LayerTracer":
        counts = self.counts

        def on_get(entry) -> None:
            counts["cache.gets"] += 1
            if entry is not None:
                counts["cache.hits"] += 1

        def on_put(_result) -> None:
            counts["cache.puts"] += 1

        def on_plan(_plan) -> None:
            counts["planner.plan_calls"] += 1

        def on_chunk(outcome) -> None:
            counts["chunks.runs"] += 1
            counts["chunks.ms"] += outcome.elapsed_ms

        self._patch(BatchEngine, "run", self.wrap("engine.batch", BatchEngine.run))
        self._patch(batch_module, "parse_query",
                    self.wrap("xpath.parser", batch_module.parse_query))
        self._patch(batch_module, "canonicalize",
                    self.wrap("xpath.canonical", batch_module.canonicalize))
        self._patch(batch_module, "decision_key_for",
                    self.wrap("engine.cache", batch_module.decision_key_for))
        self._patch(DecisionCache, "get",
                    self.wrap("engine.cache", DecisionCache.get, on_get))
        self._patch(DecisionCache, "put",
                    self.wrap("engine.cache", DecisionCache.put, on_put))
        self._patch(planner_module.Planner, "plan_for",
                    self.wrap("sat.planner", planner_module.Planner.plan_for, on_plan))
        for module in (batch_module, executors_module):
            self._patch(module, "execute_plan",
                        self.wrap("sat.planner", module.execute_plan))
        self._patch(WorkerRuntime, "run_chunk",
                    self.wrap("engine.executors", WorkerRuntime.run_chunk, on_chunk))
        self._patch(PersistentPoolExecutor, "submit",
                    self.wrap("engine.executors", PersistentPoolExecutor.submit))
        self._patch(PersistentPoolExecutor, "drain",
                    self.wrap_generator("engine.executors",
                                        PersistentPoolExecutor.drain))
        self._patch(StateTier, "load", self.wrap("engine.statetier", StateTier.load))
        self._patch(StateTier, "save", self.wrap("engine.statetier", StateTier.save))
        self._install_deciders()
        return self

    def _install_deciders(self) -> None:
        decider_registry.load()
        registry = decider_registry._REGISTRY
        self._registry_before = dict(registry)
        for name, spec in list(registry.items()):
            layer = f"sat.decider.{name}"
            if layer not in self.calls:
                self.calls[layer] = 0
                self.total[layer] = self.self_time[layer] = 0.0
                self.conclusive[name] = 0

            def on_result(result, name=name) -> None:
                if result.satisfiable is not None:
                    self.conclusive[name] += 1

            changes = {"fn": self.wrap(layer, spec.fn, on_result)}
            if spec.prepare is not None:
                changes["prepare"] = self.wrap("sat.prepare", spec.prepare)
                # deciders called without a context run their prepare
                # hook through the defining module's global name
                module = sys.modules.get(spec.prepare.__module__)
                hook = spec.prepare.__name__
                if module is not None and getattr(module, hook, None) is spec.prepare:
                    self._patch(module, hook, changes["prepare"])
            registry[name] = dataclasses.replace(spec, **changes)

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        if self._registry_before is not None:
            decider_registry._REGISTRY.update(self._registry_before)
            self._registry_before = None

    # -- output -------------------------------------------------------------
    def write_spans(self, path: str, origin: float) -> int:
        with open(path, "w") as handle:
            for layer, start, end, depth in self.spans:
                handle.write(json.dumps({
                    "layer": layer,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "ms": round((end - start) * 1e3, 4),
                    "depth": depth,
                }) + "\n")
        return len(self.spans)


class LaneSink:
    """A :class:`~repro.obs.trace.Tracer` sink that keeps no records: it
    folds every pooled ``chunk`` span into lane-side counters.  The first
    job of each chunk carries the chunk's ``prepare`` child, so chunk
    counts and chunk wall times are read from those spans only."""

    def __init__(self) -> None:
        self.attempts = {name: 0 for name in DECIDERS}
        self.attempt_ms = {name: 0.0 for name in DECIDERS}
        self.conclusive = 0
        self.prepare_calls = 0
        self.prepare_ms = 0.0
        self.chunks = 0
        self.chunk_ms = 0.0

    def emit(self, record: dict) -> None:
        if record.get("route") != "pool":
            return
        for span in record.get("spans", ()):
            if span.get("name") != "chunk":
                continue
            for child in span.get("children", ()):
                name = child.get("name", "")
                if name == "prepare":
                    self.chunks += 1
                    self.chunk_ms += span.get("attrs", {}).get("chunk_ms", 0.0)
                    if child.get("ms", 0.0) > 0.0:
                        self.prepare_calls += 1
                        self.prepare_ms += child["ms"]
                elif name.startswith("attempt:"):
                    decider = name.split(":", 1)[1]
                    self.attempts[decider] = self.attempts.get(decider, 0) + 1
                    self.attempt_ms[decider] = (
                        self.attempt_ms.get(decider, 0.0) + child.get("ms", 0.0)
                    )
                    if child.get("attrs", {}).get("verdict") in ("sat", "unsat"):
                        self.conclusive += 1

    def close(self) -> None:
        pass
