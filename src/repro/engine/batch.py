"""The batch satisfiability engine.

:class:`BatchEngine` layers seven amortizations over
:func:`repro.sat.dispatch.decide` for the serve-many-queries-per-schema
workload:

1. **per-schema artifacts** — DTD parsing, classification, and graph
   construction run once per schema in the :class:`SchemaRegistry` and are
   passed to the dispatcher through its ``artifacts`` hook;
2. **plan caching** — routing goes through the query planner
   (:mod:`repro.sat.planner`); the resulting
   :class:`~repro.sat.planner.Plan` is cached per feature signature on the
   schema's artifact record, so a warm run resolves routing with zero
   planner invocations and jobs group by plan;
3. **decision caching** — a bounded LRU keyed on canonical query form ×
   schema fingerprint (:class:`DecisionCache`), so repeated questions
   (including syntactic variants) skip ``decide()`` entirely;
4. **one job pipeline** — every job that misses the decision cache and
   is not coalesced onto an identical question in flight is planned
   and decided as part of a chunk.  A PTIME plan (``plan.route ==
   "inline"``) runs as a chunk of one on the engine's own runtime (a
   worker round trip would cost more than the decision), absorbed
   before the scan moves on, so its answer streams during the scan.  A
   question whose plan is routed to the heavy
   EXPTIME/NEXPTIME/bounded procedures (``plan.route == "pool"``) waits
   with its schema's other such questions, whatever their plans, and
   they go out in chunks of ``group_chunk_size``: a chunk as soon as
   it is full and the partial ones after the scan.  With
   ``workers > 1`` a chunk goes to a lane with room, and the engine
   decides the chunks no lane has room for itself, so it and its lanes
   work at the same time; with one worker every chunk runs in-process.
   One absorb path folds every chunk back into results, counters,
   telemetry and traces;
5. **grouped scheduling** — a pool chunk is one schema's questions,
   each with its plan: it pickles the DTD (on first touch) and each
   plan once instead of per job, and the decider chain's ``prepare``
   hooks (:class:`repro.sat.planner.SchemaContexts`) run at most once
   per chunk, so N groupmates share per-schema setup (the types
   fixpoint's automata, the bounded engine's schema classification and
   word tables) that per-job dispatch rebuilds N times.  A chunk's
   questions whose plans lead with the Thm 5.3 types fixpoint also
   share the fixpoint itself: the runtime decides up to
   :data:`~repro.engine.executors.JOINT_QUESTIONS` of them in one joint
   call, each with the verdict it gets alone (``joint_decides`` counts
   them).  Per-plan telemetry counts a chunk once for each plan with a
   question in it.
   ``group_chunk_size=1, affinity=False``
   (``--group-chunk-size 1 --no-affinity``) dispatches per job; grouping
   is a pure scheduling change — verdicts, cache contents, and telemetry
   verdict mixes are identical either way (see
   ``tests/test_metamorphic.py``);
6. **persistent worker runtimes with schema affinity** — every chunk
   runs on a :class:`~repro.engine.executors.WorkerRuntime` that caches
   DTDs and prepared contexts by schema fingerprint **across chunks**
   (one context per schema, shared by every plan asked of it): the
   engine's own, which it calls directly, or one on each long-lived
   worker *lane* of a
   :class:`~repro.engine.executors.PersistentPoolExecutor`.  Chunks
   route to lanes by schema-fingerprint affinity (a consistent hash,
   spilling to the least-loaded lane when the preferred lane already
   holds ``lane_queue_depth`` chunks; when every lane does, the engine
   decides the chunk on its own runtime, the warm one a one-worker
   engine uses, and its jobs report route ``inline``), the DTD ships to
   a lane only on first touch, and a dead lane is respawned cold with
   its in-flight chunks retried once.  Disable with ``affinity=False``
   (``--no-affinity``) for stateless runtimes (fresh contexts per
   chunk, the DTD shipped every time); affinity is a pure scheduling
   change too — same bit-identical guarantees as grouping.  The
   runtime and the pool are built from ``affinity`` and
   ``lane_queue_depth``, so both are read-only after construction;
7. **an engine lifecycle** — runtimes are *engine*-lifetime, not
   run-lifetime: worker lanes, their shipped-DTD sets, and every runtime's
   context cache persist across :meth:`BatchEngine.run` calls, so the
   second batch over the same schemas ships zero DTDs and starts from
   warm contexts.  The engine is a context manager; ``close()`` releases
   the lanes, and a closed engine refuses further runs instead of
   hanging on torn-down pipes.  This is what lets one engine back a
   long-lived service (:mod:`repro.engine.server`).

Identical in-flight questions are coalesced: a job asking a question
that is already queued or running waits for that answer instead of
deciding it again, and once it is answered later asks hit the decision
cache — so within one batch a question is decided once, unless deciding
it failed.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # the engine only needs the type for annotations
    from repro.engine.statetier import StateTier

from repro.errors import EngineError, ReproError, job_error_text
from repro.engine.cache import CachedDecision, CacheKey, DecisionCache, decision_key_for
from repro.engine.executors import (
    DEFAULT_LANE_QUEUE_DEPTH,
    ChunkOutcome,
    ChunkTask,
    Executor,
    PersistentPoolExecutor,
    WorkerRuntime,
)
from repro.engine.registry import SchemaArtifacts, SchemaRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FAILED, JobTrace, Span, Tracer, attempt_spans
from repro.sat.bounded import Bounds
from repro.sat.planner import ExecutionTrace, Plan, Planner
# not called here: re-exported because perfbench/layers.py patches
# ``repro.engine.batch.execute_plan``
from repro.sat.planner import execute_plan as execute_plan
from repro.sat.registry import decider_traits
from repro.sat.telemetry import LATENCY_BUCKETS_MS, PlanTelemetry, verdict_name
from repro.xpath.ast import Path
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import features_of
from repro.xpath.parser import parse_query


@dataclass(frozen=True)
class Job:
    """One satisfiability question: a query against a registered schema
    (``schema=None`` decides over unconstrained trees)."""

    query: str | Path
    schema: str | None = None
    id: str | None = None

    @classmethod
    def coerce(cls, raw: "Job | dict | tuple | str") -> "Job":
        if isinstance(raw, cls):
            job = raw
        elif isinstance(raw, str):
            job = cls(query=raw)
        elif isinstance(raw, tuple):
            if not 1 <= len(raw) <= 3:
                raise EngineError(f"job tuple must be (query[, schema[, id]]): {raw!r}")
            job = cls(*raw)
        elif isinstance(raw, dict):
            if "query" not in raw:
                raise EngineError(f"job record missing 'query': {raw!r}")
            job = cls(query=raw["query"], schema=raw.get("schema"), id=raw.get("id"))
        else:
            raise EngineError(f"cannot interpret job {raw!r}")
        if not isinstance(job.query, (str, Path)):
            raise EngineError(
                f"job query must be an XPath string or AST, got {job.query!r}"
            )
        if job.schema is not None and not isinstance(job.schema, str):
            raise EngineError(f"job schema must be a string, got {job.schema!r}")
        return job

    @property
    def query_text(self) -> str:
        return self.query if isinstance(self.query, str) else str(self.query)


@dataclass
class JobResult:
    """Structured outcome of one job."""

    id: str
    query: str
    schema: str | None
    fingerprint: str | None
    satisfiable: bool | None
    method: str
    reason: str = ""
    route: str = "inline"          # cache | inline | pool | error
    cached: bool = False
    elapsed_ms: float = 0.0
    error: str | None = None

    def to_record(self) -> dict[str, Any]:
        record = {
            "id": self.id,
            "query": self.query,
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "satisfiable": self.satisfiable,
            "method": self.method,
            "route": self.route,
            "cached": self.cached,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.reason:
            record["reason"] = self.reason
        if self.error is not None:
            record["error"] = self.error
        return record


def _rank_quantile(values: list, q: float, empty: Any) -> Any:
    """The ``q``-quantile of ``values``: the sorted value at rank
    ``q·n`` rounded half up, clamped to ``1..n`` (``empty`` when there
    are none)."""
    if not values:
        return empty
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def _counter(line: str, label: str, help_text: str) -> Any:
    """Declare one per-run count of :class:`EngineStats`.  The declaration
    is the counter's only one: it prints as ``<value> <label>`` on
    ``line`` of :meth:`EngineStats.describe`, keeps its field name as its
    :meth:`EngineStats.as_dict` key, and registers as
    ``repro_<name>_total`` with ``help_text`` in
    :meth:`EngineStats.register_metrics`."""
    return field(default=0, metadata={"line": line, "label": label, "help": help_text})


@dataclass
class EngineStats:
    """Aggregate counters for one :meth:`BatchEngine.run`."""

    jobs: int = _counter("jobs", "jobs", "jobs submitted")
    errors: int = _counter("jobs", "errors", "jobs that errored")
    decide_calls: int = _counter(
        "decide() calls", "total", "decision procedure invocations")
    inline_decides: int = _counter(
        "decide() calls", "inline", "decisions executed in-process")
    pool_decides: int = _counter(
        "decide() calls", "pooled", "decisions executed on worker lanes")
    cache_hits: int = _counter(
        "cache", "hits", "jobs answered from the decision cache")
    coalesced: int = _counter(
        "cache", "coalesced", "duplicate in-flight questions coalesced")
    planner_invocations: int = _counter("planner", "plans built", "plans built")
    plan_cache_hits: int = _counter(
        "planner", "plan-cache hits", "routings resolved from a plan cache")
    # plan-grouped scheduling (this run), over every chunk decided,
    # in-process or pooled: chunks, unique jobs decided in them, jobs
    # that reused a groupmate's prepare() context, and chunks whose
    # *primary* prepare() failed (they fell back to per-job setup but
    # still ran as one task)
    plan_groups: int = _counter(
        "plan groups", "dispatched", "plan-group chunks dispatched")
    grouped_jobs: int = _counter(
        "plan groups", "jobs grouped", "jobs executed inside a group chunk")
    setup_reuse: int = _counter(
        "plan groups", "setup reuses", "jobs that reused a groupmate's prepare()")
    prepare_fallbacks: int = _counter(
        "plan groups", "prepare fallbacks", "chunks degraded to per-job setup")
    # questions a chunk decided with its primary's joint entry: several
    # Thm 5.3 questions in one fixpoint (see WorkerRuntime._decide_jointly)
    joint_decides: int = _counter(
        "plan groups", "joint decides",
        "questions decided inside a joint fixpoint")
    group_sizes: list[int] = field(default_factory=list)
    # executor layer (this run): lanes in the pool (0 = no pool was
    # needed), whether schema-affinity scheduling was on, DTDs actually
    # pickled to a lane (first touch; stateless mode ships per chunk),
    # chunks that found their prepare() contexts warm in a persistent
    # worker runtime, chunks that spilled off their preferred lane,
    # lanes respawned after a worker death, and in-flight chunks retried
    # on a respawned lane.  A retried chunk reports its group counters
    # exactly once — grouped_jobs/setup_reuse never double-count a
    # retry (see tests/test_engine.py::TestWorkerDeathRecovery).
    lanes: int = 0
    affinity: bool = True
    dtd_ships: int = _counter("executor", "DTD ships", "DTDs pickled to a lane")
    runtime_context_hits: int = _counter(
        "executor", "runtime-context hits", "chunks served from a warm runtime")
    affinity_spills: int = _counter(
        "executor", "spills", "chunks spilled off their preferred lane")
    lane_respawns: int = _counter(
        "executor", "respawns", "worker lanes respawned after death")
    chunk_retries: int = _counter(
        "executor", "chunk retries", "in-flight chunks retried after lane death")
    # lane health (this run): per-chunk enqueue→absorb dwell (queue +
    # IPC time, executor execution excluded), and per-lane gauges — the
    # runtime context-cache occupancy and lifetime evictions reported by
    # each lane's newest chunk, plus the deepest in-flight queue the
    # lane reached
    chunk_dwell_ms: list[float] = field(default_factory=list)
    lane_contexts: dict[int, int] = field(default_factory=dict)
    lane_evictions: dict[int, int] = field(default_factory=dict)
    lane_peak_depth: dict[int, int] = field(default_factory=dict)
    # answered decisions whose answering decider is schema-trait gated,
    # keyed by decider name — the engine-level view of how much traffic
    # the real-world PTIME fast paths absorb instead of the EXPTIME lanes
    trait_routed_answers: dict[str, int] = field(default_factory=dict)
    # engine-lifetime totals, not per-run deltas: persisted state is
    # adopted at engine construction / schema registration, before any
    # run starts, so a per-run delta would always read 0
    persisted_plans_loaded: int = 0
    persisted_decisions_loaded: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    cache: dict[str, Any] = field(default_factory=dict)
    registry: dict[str, Any] = field(default_factory=dict)

    def jobs_per_group(self, q: float) -> int:
        """The ``q``-quantile of jobs per dispatched group chunk (0 when
        nothing was grouped this run)."""
        return _rank_quantile(self.group_sizes, q, 0)

    def dwell_percentile(self, q: float) -> float:
        """The ``q``-quantile of chunk enqueue→absorb dwell in ms (0.0
        when no chunk was dispatched this run)."""
        return _rank_quantile(self.chunk_dwell_ms, q, 0.0)

    def lane_health(self) -> dict[int, dict[str, int]]:
        """Per-lane health gauges folded from chunk outcomes: runtime
        context-cache occupancy, lifetime evictions, and queue-depth
        peak."""
        lane_ids = (
            set(self.lane_contexts) | set(self.lane_evictions)
            | set(self.lane_peak_depth)
        )
        return {
            lane: {
                "contexts": self.lane_contexts.get(lane, 0),
                "evictions": self.lane_evictions.get(lane, 0),
                "peak_depth": self.lane_peak_depth.get(lane, 0),
            }
            for lane in sorted(lane_ids)
        }

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            spec.name: getattr(self, spec.name) for spec in COUNTERS
        }
        record.update({
            "jobs_per_group_p50": self.jobs_per_group(0.5),
            "jobs_per_group_p90": self.jobs_per_group(0.9),
            "lanes": self.lanes,
            "affinity": self.affinity,
            "chunk_dwell_p50_ms": round(self.dwell_percentile(0.5), 4),
            "chunk_dwell_p90_ms": round(self.dwell_percentile(0.9), 4),
            "lane_health": {
                str(lane): health for lane, health in self.lane_health().items()
            },
            "trait_routed_answers": dict(self.trait_routed_answers),
            "persisted_plans_loaded": self.persisted_plans_loaded,
            "persisted_decisions_loaded": self.persisted_decisions_loaded,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 4),
            "cache": dict(self.cache),
            "registry": dict(self.registry),
        })
        return record

    def describe(self) -> str:
        counts: dict[str, list[str]] = {}
        for spec in COUNTERS:
            counts.setdefault(spec.metadata["line"], []).append(
                f"{getattr(self, spec.name)} {spec.metadata['label']}"
            )
        context = {
            "decide() calls": f"{self.workers} workers",
            "planner": f"{self.persisted_plans_loaded} persisted plans loaded",
            "plan groups": f"p50 {self.jobs_per_group(0.5)}, "
            f"p90 {self.jobs_per_group(0.9)} jobs/group",
            "executor": f"{self.lanes} lanes, "
            f"affinity {'on' if self.affinity else 'off'}",
            "cache": f"{self.cache.get('size', 0)}/{self.cache.get('capacity', 0)} "
            f"entries, {self.cache.get('evictions', 0)} evictions, "
            f"lifetime hit rate {self.cache.get('hit_rate', 0.0):.1%}",
        }
        lines = [
            f"{line:<14}: {', '.join(parts)}"
            + (f" ({context[line]})" if line in context else "")
            for line, parts in counts.items()
        ]
        lines += [
            "trait routing : " + (
                ", ".join(
                    f"{decider} {count}"
                    for decider, count in sorted(self.trait_routed_answers.items())
                ) or "no trait-gated answers"
            ),
            f"schemas       : {self.registry.get('schemas', 0)} registered, "
            f"{self.registry.get('builds', 0)} artifact builds, "
            f"{self.registry.get('dedup_hits', 0)} dedup hits",
        ]
        if self.chunk_dwell_ms:
            lines.append(
                f"lane dwell    : p50 {self.dwell_percentile(0.5):.2f}ms, "
                f"p90 {self.dwell_percentile(0.9):.2f}ms over "
                f"{len(self.chunk_dwell_ms)} chunks"
            )
        lines.append(f"wall time     : {self.elapsed_s:.3f}s")
        return "\n".join(lines)

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Register this run's counters, lane-health gauges, and the
        chunk-dwell histogram into a unified metrics registry.  Registering
        several runs into one registry accumulates them: counters and the
        histogram add up, gauges keep the newest run's value."""
        for spec in COUNTERS:
            registry.counter(f"repro_{spec.name}_total", spec.metadata["help"]).inc(
                getattr(self, spec.name)
            )
        for decider, count in sorted(self.trait_routed_answers.items()):
            registry.counter(
                "repro_trait_routed_answers_total",
                "answered decisions by schema-trait-gated deciders",
                {"decider": decider},
            ).inc(count)
        registry.gauge("repro_workers", "configured worker count").set(self.workers)
        registry.gauge("repro_lanes", "lanes in the pool this run").set(self.lanes)
        registry.gauge(
            "repro_affinity_enabled", "schema-affinity scheduling on"
        ).set(1 if self.affinity else 0)
        registry.gauge(
            "repro_decision_cache_size", "decision-cache entries"
        ).set(self.cache.get("size", 0))
        registry.gauge(
            "repro_decision_cache_evictions", "decision-cache lifetime evictions"
        ).set(self.cache.get("evictions", 0))
        registry.gauge(
            "repro_schemas_registered", "schemas in the registry"
        ).set(self.registry.get("schemas", 0))
        dwell = registry.histogram(
            "repro_chunk_dwell_ms", LATENCY_BUCKETS_MS,
            "chunk enqueue-to-absorb dwell (ms)",
        )
        for dwell_ms in self.chunk_dwell_ms:
            dwell.observe(dwell_ms)
        for lane, health in self.lane_health().items():
            labels = {"lane": str(lane)}
            registry.gauge(
                "repro_lane_context_cache_size",
                "prepared contexts held by the lane runtime", labels,
            ).set(health["contexts"])
            # the lane reports its runtime's lifetime total: raise the
            # counter to it rather than adding it once per run
            evictions = registry.counter(
                "repro_lane_context_evictions_total",
                "contexts evicted by the lane runtime (lifetime)", labels,
            )
            evictions.inc(max(0, health["evictions"] - evictions.value))
            registry.gauge(
                "repro_lane_queue_depth_peak",
                "deepest in-flight queue the lane reached", labels,
            ).set(health["peak_depth"])


#: the counter table: every field declared with :func:`_counter`, in
#: declaration order (``describe()`` prints each line where its first
#: counter is declared)
COUNTERS = tuple(spec for spec in fields(EngineStats) if "help" in spec.metadata)


@dataclass
class BatchReport:
    """Results plus engine statistics for one batch run."""

    results: list[JobResult]
    stats: EngineStats

    def verdict_counts(self) -> dict[str, int]:
        counts = {"sat": 0, "unsat": 0, "unknown": 0, "error": 0}
        for result in self.results:
            if result.error is not None:
                counts["error"] += 1
            elif result.satisfiable is True:
                counts["sat"] += 1
            elif result.satisfiable is False:
                counts["unsat"] += 1
            else:
                counts["unknown"] += 1
        return counts


@dataclass
class _GroupEntry:
    """One unique question waiting for its chunk or running in it: its
    decision-cache key, pre-canonicalized query, plan and schema, and
    every job index awaiting it (the first asked; the rest coalesced
    onto it)."""

    key: CacheKey
    canonical: Path
    plan: Plan
    artifacts: SchemaArtifacts | None
    indices: list[int]


#: the placeholder result of a job whose question is queued or running
_PENDING = CachedDecision(None, "pending")


#: scheduler setting defaults, for constructor arguments left None
DEFAULT_GROUP_CHUNK_SIZE = 4
DEFAULT_DECISION_CAP_PER_SCHEMA = 512
DEFAULT_TELEMETRY_MAX_AGE_DAYS = 30.0
DEFAULT_AFFINITY = True


class BatchEngine:
    """Execute batches of ``(query, schema_ref)`` jobs with schema-artifact
    reuse, plan-cached routing, decision caching, and a process pool of
    persistent, schema-affine worker lanes that takes heavy fragments in
    per-schema chunks.

    The engine is a long-lived object with an explicit lifecycle: its
    own runtime and its pool live as long as the engine, so every
    runtime's caches stay warm across :meth:`run` calls.  Use it as
    a context manager, or call :meth:`close` when done — a closed engine
    raises :class:`~repro.errors.EngineError` on further use."""

    #: pool-executor constructor (``factory(workers, affinity=...,
    #: lane_queue_depth=...) -> Executor``); a seam for tests that
    #: simulate lane crashes without burning real fork time
    _executor_factory = PersistentPoolExecutor

    def __init__(
        self,
        registry: SchemaRegistry | None = None,
        cache: DecisionCache | None = None,
        workers: int = 1,
        bounds: Bounds | None = None,
        telemetry: PlanTelemetry | None = None,
        state_tier: "StateTier | str | None" = None,
        group_chunk_size: int | None = None,
        decision_cap_per_schema: int | None = None,
        telemetry_max_age_days: float | None = None,
        affinity: bool | None = None,
        lane_queue_depth: int | None = None,
        tracer: Tracer | None = None,
    ):
        if workers < 1:
            raise EngineError(f"workers must be positive, got {workers}")
        if group_chunk_size is not None and group_chunk_size < 1:
            raise EngineError(
                f"group_chunk_size must be positive, got {group_chunk_size}"
            )
        if lane_queue_depth is not None and lane_queue_depth < 1:
            raise EngineError(
                f"lane_queue_depth must be positive, got {lane_queue_depth}"
            )
        if decision_cap_per_schema is not None and decision_cap_per_schema < 1:
            raise EngineError(
                f"decision_cap_per_schema must be positive, "
                f"got {decision_cap_per_schema}"
            )
        if telemetry_max_age_days is not None and telemetry_max_age_days <= 0:
            raise EngineError(
                f"telemetry_max_age_days must be positive, "
                f"got {telemetry_max_age_days}"
            )
        self.group_chunk_size = (
            group_chunk_size if group_chunk_size is not None
            else DEFAULT_GROUP_CHUNK_SIZE
        )
        self._affinity = affinity if affinity is not None else DEFAULT_AFFINITY
        self._lane_queue_depth = (
            lane_queue_depth if lane_queue_depth is not None
            else DEFAULT_LANE_QUEUE_DEPTH
        )
        self.decision_cap_per_schema = (
            decision_cap_per_schema if decision_cap_per_schema is not None
            else DEFAULT_DECISION_CAP_PER_SCHEMA
        )
        self.telemetry_max_age_days = (
            telemetry_max_age_days if telemetry_max_age_days is not None
            else DEFAULT_TELEMETRY_MAX_AGE_DAYS
        )
        self.registry = registry if registry is not None else SchemaRegistry()
        self.cache = cache if cache is not None else DecisionCache()
        self.planner = Planner()
        self.telemetry = telemetry if telemetry is not None else PlanTelemetry()
        self.workers = workers
        self.bounds = bounds
        self.persisted_decisions_loaded = 0
        self.state_warnings: list[str] = []
        # the SQLite state tier: constructed from a path (owned, closed
        # with the engine) or caller-supplied (shared, left open)
        self._owns_tier = isinstance(state_tier, str)
        if isinstance(state_tier, str):
            from repro.engine.statetier import StateTier

            state_tier = StateTier(state_tier)
        self.state_tier = state_tier
        # observability: tracer is None by default and every tracing
        # branch is guarded on it, so the default-off path costs a
        # handful of predictable `is not None` checks per job
        self.tracer = tracer
        self.last_stats: EngineStats | None = None
        # engine-lifetime totals for metrics_registry(): every run's stats
        # register into this one registry, so its counters and histogram
        # only ever grow (last_stats covers one run — under `serve`, one
        # micro-batch)
        self._lifetime_metrics = MetricsRegistry()
        # extra stat sources folded into metrics_registry() (e.g. the
        # serving front-end registers its connection/inflight gauges
        # here so they land in the state tier's metrics.prom)
        self.metrics_sources: list[Any] = []
        # engine-lifetime, so DTDs and prepared contexts stay warm across
        # run() calls: the runtime that decides in-process chunks, and the
        # pool (created lazily, on the first pooled chunk)
        self._runtime = WorkerRuntime(caching=self._affinity)
        self._pool_executor: Executor | None = None
        self._closed = False
        self._next_task_id = 0
        if self.state_tier is not None:
            self.metrics_sources.append(self.state_tier)
            self.load_tier_state()

    @property
    def affinity(self) -> bool:
        """Schema-affinity scheduling (read-only: the runtime and the pool
        are built from it)."""
        return self._affinity

    @property
    def lane_queue_depth(self) -> int:
        """In-flight chunks a lane may hold: a chunk spills off a
        preferred lane this deep, and one that finds every lane this deep
        is decided in-process (read-only: the pool is built from it)."""
        return self._lane_queue_depth

    # -- state persistence --------------------------------------------------
    def load_tier_state(self) -> int:
        """Warm this engine from its state tier — the cache warming every
        process does before serving traffic: plan caches (applied now for
        registered schemas, at registration for later ones), telemetry
        and cached decisions.  Learned state only: the tier never changes
        the engine's settings.  Returns the number of plans available
        from persistence."""
        if self.state_tier is None:
            raise EngineError("engine has no state tier")
        state = self.state_tier.load()
        # the tier's list holds this load's warnings and, before them,
        # what it reported on opening: a database set aside, legacy JSON
        # it could not import
        self.state_warnings.extend(self.state_tier.warnings)
        self.registry.adopt_plans(state.plans, names=state.plan_names)
        if state.telemetry is not None:
            self.telemetry.merge(state.telemetry)
        if state.decisions:
            self.persisted_decisions_loaded += self.cache.load_records(state.decisions)
        return state.plan_count

    def save_state(self) -> str:
        """Persist plan caches, telemetry, the decision cache and this
        run's engine stats to the engine's state tier (never
        its settings); returns the database path.  Hygiene applies on the
        way out: cached decisions are capped per schema and telemetry
        rows not seen within ``telemetry_max_age_days`` are aged out."""
        if self.state_tier is None:
            raise EngineError(
                "no persistence target (engine has no state tier)"
            )
        self.state_tier.save(
            registry=self.registry,
            telemetry=self.telemetry,
            cache=self.cache,
            decision_cap_per_schema=self.decision_cap_per_schema,
            telemetry_max_age_days=self.telemetry_max_age_days,
            engine_stats=(
                self.last_stats.as_dict() if self.last_stats is not None else None
            ),
            metrics_text=self.metrics_registry().render_prometheus(),
        )
        return self.state_tier.path

    def metrics_registry(self) -> MetricsRegistry:
        """One unified metrics registry over every stat silo the engine
        holds: the :class:`EngineStats` of every run so far (counters
        summed over the engine's life), the per-plan telemetry table,
        and — when a tracer is attached — its trace counters.
        Render with
        :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus` or
        :meth:`~repro.obs.metrics.MetricsRegistry.as_dict`."""
        registry = copy.deepcopy(self._lifetime_metrics)
        self.telemetry.register_metrics(registry)
        if self.tracer is not None:
            self.tracer.register_metrics(registry)
        for source in self.metrics_sources:
            source.register_metrics(registry)
        return registry

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the engine's worker lanes and their runtimes.  State
        is *not* saved here (call :meth:`save_state` first if wanted).
        Closing twice raises: a double close means two owners think they
        hold the engine's lifecycle, which is the bug worth surfacing."""
        if self._closed:
            raise EngineError("engine already closed")
        self._closed = True
        try:
            if self._pool_executor is not None:
                self._pool_executor.close()
        finally:
            self._pool_executor = None
            if self._owns_tier and self.state_tier is not None:
                self.state_tier.close()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._closed:
            self.close()
        return False

    # -- execution ----------------------------------------------------------
    def _pool(self) -> Executor:
        """The engine-lifetime pool executor: lanes (and their shipped-DTD
        sets and runtime caches) persist across :meth:`run` calls."""
        if self._pool_executor is None:
            self._pool_executor = self._executor_factory(
                self.workers,
                affinity=self.affinity,
                lane_queue_depth=self.lane_queue_depth,
            )
        return self._pool_executor

    def _discard_pool(self) -> None:
        if self._pool_executor is not None:
            try:
                self._pool_executor.close()
            finally:
                self._pool_executor = None

    def _take_task_id(self) -> int:
        self._next_task_id += 1
        return self._next_task_id

    def run(
        self,
        jobs: Iterable[Job | dict | tuple | str],
        on_result: Callable[[JobResult], None] | None = None,
    ) -> BatchReport:
        """Decide every job; returns per-job results (input order) and
        aggregate stats for this run.

        The scan parses, canonicalizes and looks up each job in the
        decision cache.  A miss that cannot be coalesced onto an
        identical question in flight is planned, and every decision runs
        in a chunk.  A PTIME plan's question is a chunk of one on the
        engine's own runtime, absorbed the moment it is decided.
        A pool-route question waits with its schema's others and goes
        out in a chunk of ``group_chunk_size`` (the partial chunks after
        the scan).  With ``workers > 1`` such a chunk goes to a lane with
        room — the outcomes the lanes already returned are absorbed
        first — and when every lane holds ``lane_queue_depth`` chunks
        the engine decides it in-process; the pooled chunks are absorbed
        as they come back, the rest after the scan.  :meth:`_absorb`
        folds every chunk back.

        ``on_result`` (optional) is invoked exactly once per job, with
        the finalized :class:`JobResult`, the moment that job's verdict
        lands — cache hits, intake errors and in-process chunks during
        the scan, pooled chunks as they are absorbed.  Callbacks arrive
        out of input order; the returned report still lists results in
        input order.  A serving front-end uses this to stream responses
        while the batch is in flight."""
        if self._closed:
            raise EngineError(
                "run() on a closed engine (close() was already called)"
            )
        start = time.perf_counter()
        stats = EngineStats(workers=self.workers, affinity=self.affinity)
        planner_invocations_before = self.planner.invocations
        plan_hits_before = self.planner.cache_hits
        tracer = self.tracer
        # job index -> its in-flight trace; a decided job's spans are
        # reassembled at absorb time from its chunk's outcome
        traces: dict[int, JobTrace] = {}
        results: list[JobResult | None] = []
        # schema fingerprint -> its pool-route questions waiting for a
        # chunk, and the coalescing map: key -> the entry queued or
        # running for it
        groups: dict[str | None, list[_GroupEntry]] = {}
        in_flight: dict[CacheKey, _GroupEntry] = {}
        # every chunk sent to be decided, by task id: its entries and
        # the enqueue timestamp (for dwell measurement)
        submitted: dict[int, tuple[list[_GroupEntry], float]] = {}
        # the engine-lifetime pool, acquired lazily so a run with no
        # pooled work never forks lanes; lane_respawns is reported as a
        # per-run delta against the executor's lifetime counter
        pool: Executor | None = None
        pool_respawns_before = 0

        def emit(index: int) -> None:
            """Stream one finalized result to the caller; every result
            index passes here exactly once."""
            if on_result is not None:
                on_result(results[index])

        def absorb(outcomes, route: str) -> None:
            self._absorb(
                outcomes, route, submitted, in_flight, results, stats,
                traces, emit,
            )

        def dispatch(chunk: list[_GroupEntry]) -> None:
            """Decide one chunk: a pool-route chunk goes to a lane with
            room when the engine has lanes; every other chunk (and one
            no lane has room for) runs on the engine's own runtime and
            is absorbed at once."""
            nonlocal pool, pool_respawns_before
            artifacts = chunk[0].artifacts
            task = ChunkTask(
                task_id=self._take_task_id(),
                fingerprint=artifacts.fingerprint if artifacts else None,
                canonicals=tuple(entry.canonical for entry in chunk),
                plans=tuple(entry.plan for entry in chunk),
                bounds=self.bounds,
            )
            dtd = artifacts.dtd if artifacts else None
            submitted[task.task_id] = (chunk, time.perf_counter())
            if chunk[0].plan.route == "pool" and self.workers > 1:
                if pool is None:
                    pool = self._pool()
                    pool_respawns_before = pool.stats().lane_respawns
                # what the lanes already returned frees their room, and
                # its jobs' callbacks fire now rather than after the scan
                absorb(pool.drain(wait=False), "pool")
                if pool.submit(task, dtd):
                    return
            outcome = self._runtime.run_chunk(task, dtd)
            outcome.lane = 0
            absorb([(task, outcome)], "inline")

        try:
            for index, raw in enumerate(jobs):
                results.append(None)
                stats.jobs += 1
                trace = None
                try:
                    job = Job.coerce(raw)
                    query = (
                        parse_query(job.query)
                        if isinstance(job.query, str)
                        else job.query
                    )
                    artifacts = (
                        self.registry.get(job.schema)
                        if job.schema is not None
                        else None
                    )
                    if tracer is not None:
                        trace = tracer.begin(
                            job_id=job.id if job.id is not None else job.query_text,
                            query=job.query_text,
                            schema=job.schema,
                            fingerprint=artifacts.fingerprint if artifacts else None,
                        )
                        traces[index] = trace
                        step_start = time.perf_counter()
                    # one canonicalization per job, shared by the cache key and
                    # the decision (execute_plan skips its canonicalize pass)
                    canonical = canonicalize(query)
                    if trace is not None:
                        trace.span(
                            "canonicalize",
                            ms=(time.perf_counter() - step_start) * 1e3,
                        )
                    key = decision_key_for(
                        canonical, artifacts.fingerprint if artifacts else None, self.bounds
                    )
                    cached = self.cache.get(key)
                    if cached is not None:
                        stats.cache_hits += 1
                        results[index] = self._result(
                            job, artifacts, cached, route="cache", cached=True
                        )
                        if trace is not None:
                            trace.span("cache", attrs={"hit": True})
                            tracer.finish(
                                trace, verdict=verdict_name(cached.satisfiable),
                                route="cache",
                            )
                        emit(index)
                        continue
                    leader = in_flight.get(key)
                    if leader is not None:
                        stats.coalesced += 1
                        leader.indices.append(index)
                        results[index] = self._result(
                            job, artifacts, _PENDING, route="pool"
                        )
                        # the trace finishes at absorb time, alongside its
                        # leader, with a span naming the leader's trace
                        continue

                    if trace is not None:
                        plan_hits_step = self.planner.cache_hits
                        step_start = time.perf_counter()
                    # planned on the canonical form, the object the chain's
                    # deciders check their fragment on (features_of
                    # remembers it: one walk per job)
                    plan = self.planner.plan_for(
                        features_of(canonical), artifacts=artifacts
                    )
                    if trace is not None:
                        trace.span(
                            "plan",
                            ms=(time.perf_counter() - step_start) * 1e3,
                            attrs={
                                "signature": plan.signature,
                                "decider": plan.decider,
                                "cache_hit": self.planner.cache_hits > plan_hits_step,
                            },
                        )
                        trace.span(
                            "route",
                            attrs={"route": plan.route, "workers": self.workers},
                        )
                except (ReproError, RecursionError) as error:
                    # a query nested past the recursion limit fails
                    # alone, like any other bad job
                    stats.errors += 1
                    results[index] = self._error_result(raw, error)
                    if tracer is not None:
                        if trace is None:
                            failed = results[index]
                            trace = tracer.begin(
                                job_id=failed.id, query=failed.query,
                                schema=failed.schema,
                            )
                        trace.span(
                            "intake", status=FAILED,
                            attrs={"error": str(error)},
                        )
                        tracer.finish(trace, verdict="error", route="error")
                    emit(index)
                    continue

                entry = in_flight[key] = _GroupEntry(
                    key=key, canonical=canonical, plan=plan,
                    artifacts=artifacts, indices=[index],
                )
                results[index] = self._result(job, artifacts, _PENDING, route="pool")
                if plan.route != "pool":
                    dispatch([entry])
                    continue
                fingerprint = artifacts.fingerprint if artifacts else None
                queued = groups.setdefault(fingerprint, [])
                queued.append(entry)
                if len(queued) >= self.group_chunk_size:
                    groups[fingerprint] = []
                    dispatch(queued)

            for queued in groups.values():
                if queued:
                    dispatch(queued)
            if pool is not None:
                absorb(pool.drain(), "pool")
                pool_stats = pool.stats()
                stats.lanes = pool_stats.lanes
                # executor counters are lifetime; respawns this run is
                # the delta against the pool's count when we acquired it
                stats.lane_respawns = (
                    pool_stats.lane_respawns - pool_respawns_before
                )
                stats.lane_peak_depth = dict(pool_stats.lane_peak_depth)
            if tracer is not None:
                # safety net: a trace a bug (or an absorbed-but-lost
                # outcome) left open still emits exactly one record
                for trace in traces.values():
                    if not trace.finished:
                        tracer.finish(trace, verdict="unknown", route="lost")
        except BaseException:
            # an aborted run can leave chunks in flight on the lanes; a
            # later run would absorb them against this run's (now dead)
            # bookkeeping, so the warm pool is forfeited — it respawns
            # cold on the next pooled run.  In-process chunks need no
            # such care: each one is absorbed as soon as it is decided
            if pool is not None:
                self._discard_pool()
            raise

        stats.elapsed_s = time.perf_counter() - start
        stats.planner_invocations = self.planner.invocations - planner_invocations_before
        stats.plan_cache_hits = self.planner.cache_hits - plan_hits_before
        stats.persisted_plans_loaded = self.registry.persisted_plans
        stats.persisted_decisions_loaded = self.persisted_decisions_loaded
        stats.cache = self.cache.stats()
        stats.registry = self.registry.stats()
        self.last_stats = stats
        stats.register_metrics(self._lifetime_metrics)
        return BatchReport(results=[r for r in results if r is not None], stats=stats)

    # -- helpers ------------------------------------------------------------
    def _absorb(
        self,
        outcomes: Iterable[tuple[ChunkTask, ChunkOutcome]],
        route: str,
        submitted: dict[int, tuple[list[_GroupEntry], float]],
        in_flight: dict[CacheKey, _GroupEntry],
        results: list[JobResult | None],
        stats: EngineStats,
        traces: dict[int, JobTrace],
        emit: Callable[[int], None],
    ) -> None:
        """The one absorb path: fold every drained ``(task, outcome)``
        pair into results, counters, the decision cache, telemetry and
        traces, and stream each finalized job.

        Each task is absorbed **exactly once**: its bookkeeping record
        is popped on arrival, so a duplicate outcome (a retry racing its
        first attempt) can never double-report group counters —
        ``grouped_jobs``/``setup_reuse`` stay reconciled with the
        per-plan telemetry rows' ``count``/``setup_reuse`` even across
        lane deaths — and each job's
        trace finishes, and ``emit`` fires, once.  Its entries leave the
        coalescing map, so a later ask of the same question hits the
        cache, or is decided afresh if this one failed.

        A chunk holds questions of one schema under any number of plans;
        per-plan telemetry counts a chunk once for each plan with a
        question in it (the plan's first answered question leads), and
        a question reuses shared setup when its plan's primary decider
        had a context for the chunk and an earlier question of the plan
        already ran in it.

        When tracing, each leader job gets a ``chunk`` span (lane,
        dwell, DTD-ship/runtime-hit flags) whose children are the
        chunk's ``prepare`` (on the first traced entry only) and the
        job's per-chain-member attempts; coalesced followers get a
        ``coalesced`` span naming their leader's trace."""
        tracer = self.tracer
        for task, outcome in outcomes:
            record = submitted.pop(task.task_id, None)
            if record is None:
                continue
            chunk, enqueued = record
            for entry in chunk:
                del in_flight[entry.key]
            if outcome.dtd_shipped:
                stats.dtd_ships += 1
            if outcome.runtime_hit:
                stats.runtime_context_hits += 1
            if outcome.spilled:
                stats.affinity_spills += 1
            if outcome.retried:
                stats.chunk_retries += 1
            # enqueue→absorb dwell: queue + IPC time, execution excluded
            dwell_ms = max(
                0.0,
                (time.perf_counter() - enqueued) * 1e3 - outcome.elapsed_ms,
            )
            stats.chunk_dwell_ms.append(dwell_ms)
            # with a pool, lane ids name its lanes: the in-process
            # runtime (lane 0) must not overwrite pool lane 0's gauges
            if outcome.lane >= 0 and (route == "pool" or self.workers == 1):
                stats.lane_contexts[outcome.lane] = outcome.runtime_contexts
                stats.lane_evictions[outcome.lane] = outcome.runtime_evictions
            stats.decide_calls += len(chunk)
            if route == "pool":
                stats.pool_decides += len(chunk)
            else:
                stats.inline_decides += len(chunk)
            if outcome.error is not None:
                # the whole chunk failed (its lane died and the one
                # retry died too): per-job errors, nothing cached
                for entry in chunk:
                    stats.errors += len(entry.indices)
                    self.telemetry.record_failure(entry.plan, len(entry.indices))
                    for index in entry.indices:
                        self._fail(results[index], outcome.error)
                        trace = traces.get(index)
                        if trace is not None:
                            trace.span(
                                "chunk", status=FAILED,
                                attrs=self._chunk_attrs(
                                    outcome, dwell_ms, len(chunk),
                                    error=outcome.error,
                                ),
                            )
                            tracer.finish(
                                trace, verdict="error", route="error",
                                plan=entry.plan,
                            )
                        emit(index)
                continue
            stats.plan_groups += 1
            stats.group_sizes.append(len(chunk))
            stats.joint_decides += outcome.joint_decides
            # only a failed *primary* prepare means the chunk ran without
            # shared setup; a fallback hook failing mid-chunk leaves it
            if outcome.prepare_error is not None and not outcome.shared_setup:
                stats.prepare_fallbacks += 1
            # telemetry keys of the plans with an answered question so far
            led: set[str] = set()
            prepare_span_pending = True
            for entry, question_outcome in zip(chunk, outcome.outcomes):
                satisfiable, method, reason, error, attempts = question_outcome
                plan = entry.plan
                lead = plan.telemetry_key not in led
                trace = ExecutionTrace(
                    attempts=attempts,
                    group_lead=lead,
                    shared_setup=plan.decider in outcome.shared,
                    runtime_hit=plan.decider in outcome.warm,
                )
                verdict = "error" if error is not None else verdict_name(satisfiable)
                if tracer is not None:
                    leader = traces.get(entry.indices[0])
                    if leader is not None:
                        children = []
                        if prepare_span_pending:
                            prepare_span_pending = False
                            prepare_attrs = {"shared": outcome.shared_setup}
                            if outcome.prepare_error is not None:
                                prepare_attrs["error"] = outcome.prepare_error
                            children.append(Span(
                                name="prepare",
                                ms=outcome.prepare_ms,
                                status=(
                                    FAILED if outcome.prepare_error is not None
                                    else "ok"
                                ),
                                attrs=prepare_attrs,
                            ))
                        children.extend(attempt_spans(attempts))
                        leader.span(
                            "chunk",
                            ms=trace.elapsed_ms,
                            status=FAILED if error is not None else "ok",
                            attrs=self._chunk_attrs(
                                outcome, dwell_ms, len(chunk), error=error
                            ),
                            children=children,
                        )
                        tracer.finish(
                            leader,
                            verdict=verdict,
                            route="error" if error is not None else route,
                            plan=plan,
                        )
                    for index in entry.indices[1:]:
                        follower = traces.get(index)
                        if follower is not None:
                            follower.span(
                                "coalesced",
                                attrs={
                                    "leader": (
                                        leader.trace_id if leader is not None
                                        else None
                                    ),
                                    "lane": outcome.lane,
                                },
                            )
                            tracer.finish(
                                follower,
                                verdict=verdict,
                                route="error" if error is not None else route,
                                plan=plan,
                            )
                if error is not None:
                    # one question failing must not poison its groupmates;
                    # every job awaiting it gets the per-job error
                    stats.errors += len(entry.indices)
                    self._observe(stats, plan, trace, "error")
                    if len(entry.indices) > 1:
                        self.telemetry.record_failure(plan, len(entry.indices) - 1)
                    for index in entry.indices:
                        self._fail(results[index], error)
                        emit(index)
                    continue
                # errored entries are excluded so EngineStats and the per-plan
                # telemetry rows report the same job/reuse counts
                stats.grouped_jobs += 1
                if trace.shared_setup and not lead:
                    stats.setup_reuse += 1
                led.add(plan.telemetry_key)
                self._observe(stats, plan, trace, verdict_name(satisfiable))
                decision = CachedDecision(satisfiable, method, reason)
                self.cache.put(entry.key, decision)
                for ask_position, index in enumerate(entry.indices):
                    result = results[index]
                    result.satisfiable = satisfiable
                    result.method = method
                    result.reason = reason
                    result.route = route
                    result.cached = ask_position > 0  # coalesced onto the first ask
                    result.elapsed_ms = trace.elapsed_ms if ask_position == 0 else 0.0
                    emit(index)

    @staticmethod
    def _chunk_attrs(
        outcome: ChunkOutcome,
        dwell_ms: float,
        group_size: int,
        error: str | None = None,
    ) -> dict[str, Any]:
        """Span attributes shared by every job a chunk decided: which
        lane ran it and how the executor layer treated it."""
        attrs: dict[str, Any] = {
            "lane": outcome.lane,
            "dwell_ms": round(dwell_ms, 3),
            "dtd_shipped": outcome.dtd_shipped,
            "runtime_hit": outcome.runtime_hit,
            "shared_setup": outcome.shared_setup,
            "spilled": outcome.spilled,
            "retried": outcome.retried,
            "group_size": group_size,
            "joint_decides": outcome.joint_decides,
            "chunk_ms": round(outcome.elapsed_ms, 3),
        }
        if error is not None:
            attrs["error"] = error
        return attrs

    @staticmethod
    def _fail(result: JobResult, error: str) -> None:
        result.error = error
        result.method = "error"
        result.route = "error"

    def _observe(
        self,
        stats: EngineStats,
        plan: Plan,
        trace: ExecutionTrace,
        verdict: str,
    ) -> None:
        """Feed one plan execution into per-plan telemetry.

        The recorded latency is the decider-chain time from the trace —
        the same definition on the inline and pooled paths, so one plan's
        histogram never mixes wall time (with rewrite/fork/IPC overhead)
        with pure decide time."""
        if verdict == "error":
            # a failed execution has no meaningful decision latency — a
            # ~0 ms sample would drag the histogram down (same rule as
            # the pooled worker-death path)
            self.telemetry.record_failure(plan)
            return
        self.telemetry.record(
            plan, trace.elapsed_ms, verdict,
            decider=trace.decider, fallback=trace.fallback_used,
            group_lead=trace.group_lead, shared_setup=trace.shared_setup,
            runtime_hit=trace.runtime_hit,
        )
        if trace.decider is not None and decider_traits(trace.decider):
            stats.trait_routed_answers[trace.decider] = (
                stats.trait_routed_answers.get(trace.decider, 0) + 1
            )

    def _result(
        self,
        job: Job,
        artifacts: SchemaArtifacts | None,
        decision: CachedDecision,
        route: str,
        cached: bool = False,
        elapsed_ms: float = 0.0,
    ) -> JobResult:
        return JobResult(
            id=job.id if job.id is not None else job.query_text,
            query=job.query_text,
            schema=job.schema,
            fingerprint=artifacts.fingerprint if artifacts else None,
            satisfiable=decision.satisfiable,
            method=decision.method,
            reason=decision.reason,
            route=route,
            cached=cached,
            elapsed_ms=elapsed_ms,
        )

    def _error_result(
        self, raw, error: ReproError | RecursionError
    ) -> JobResult:
        query_text = schema = job_id = None
        try:
            job = Job.coerce(raw)
            query_text, schema, job_id = job.query_text, job.schema, job.id
        except ReproError:
            query_text = repr(raw)
        return JobResult(
            id=job_id if job_id is not None else (query_text or ""),
            query=query_text or "",
            schema=schema,
            fingerprint=None,
            satisfiable=None,
            method="error",
            route="error",
            error=job_error_text(error),
        )
