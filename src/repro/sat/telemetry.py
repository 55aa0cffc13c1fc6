"""Per-plan execution telemetry.

A :class:`~repro.sat.planner.Plan` is pure data and hashable, which makes
it a natural aggregation key: every execution of the same routing
decision lands in one :class:`PlanStats` accumulator — decision latency
(count/total plus fixed log-scale buckets for p50-style estimates),
verdict mix, which chain member actually answered, and how often the
primary had to fall back.  :class:`PlanTelemetry` holds the per-plan
table, merges across engines/processes, serializes for the engine's
``--state-dir`` persistence, and renders the ``repro stats --plans``
report.

A latency sample is the decider-chain time of one execution.  A question
the batch engine decided inside a joint call (several Thm 5.3 questions
in one fixpoint, see :mod:`repro.engine.executors`) records its share:
the call's time divided by its question count, so the samples of one
call sum to the time it took and none reads 0 ms.

Telemetry observes routing and never changes it: a plan depends only on
the query's feature signature and the schema's class.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable

#: upper edges (ms) of the latency histogram; one overflow bucket follows
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)

VERDICT_NAMES = {True: "sat", False: "unsat", None: "unknown"}


def verdict_name(satisfiable: bool | None) -> str:
    return VERDICT_NAMES[satisfiable]


@dataclass
class PlanStats:
    """Accumulated observations of one plan's executions."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0
    buckets: list[int] = field(
        default_factory=lambda: [0] * (len(LATENCY_BUCKETS_MS) + 1)
    )
    verdicts: dict[str, int] = field(
        default_factory=lambda: {"sat": 0, "unsat": 0, "unknown": 0, "error": 0}
    )
    deciders: dict[str, int] = field(default_factory=dict)  # answering decider
    fallbacks: int = 0  # executions answered by a non-primary chain member
    # plan-grouped scheduling: chunks this plan was dispatched in, and
    # jobs that reused a groupmate's prepare() context instead of paying
    # that setup themselves
    groups: int = 0
    setup_reuse: int = 0
    # schema-affinity scheduling: chunks that found this plan's prepare()
    # contexts already warm in a persistent worker runtime (so even the
    # chunk's lead paid no setup)
    runtime_hits: int = 0
    # unix timestamp of the newest observation; 0.0 = unknown (legacy
    # rows).  State persistence ages rows out by this stamp.
    last_seen: float = 0.0

    def record(
        self,
        elapsed_ms: float,
        verdict: str,
        decider: str | None = None,
        fallback: bool = False,
        group_lead: bool = False,
        shared_setup: bool = False,
        runtime_hit: bool = False,
    ) -> None:
        self.count += 1
        self.total_ms += elapsed_ms
        self.max_ms = max(self.max_ms, elapsed_ms)
        self.buckets[bisect_left(LATENCY_BUCKETS_MS, elapsed_ms)] += 1
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        if decider is not None:
            self.deciders[decider] = self.deciders.get(decider, 0) + 1
        if fallback:
            self.fallbacks += 1
        if group_lead:
            self.groups += 1
            if runtime_hit:
                self.runtime_hits += 1
        elif shared_setup:
            self.setup_reuse += 1
        self.last_seen = time.time()

    def record_failure(self, jobs: int = 1) -> None:
        """Count jobs whose execution never produced a measurement (e.g.
        a pool worker died).  Only the verdict mix moves — a crash has no
        meaningful latency, and a zero-ms sample would drag the mean and
        percentiles down."""
        self.verdicts["error"] = self.verdicts.get("error", 0) + jobs
        self.last_seen = time.time()

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.count if self.count else 0.0

    @property
    def top_decider(self) -> str:
        """The chain member answering most of this plan's executions —
        the ``repro stats --plans`` "winner" column, which shows when a
        fallback (e.g. ``nexptime`` after ``exptime_types`` declines)
        answers most of a plan's traffic."""
        if not self.deciders:
            return "-"
        return max(sorted(self.deciders), key=self.deciders.__getitem__)

    def percentile_ms(self, q: float) -> float:
        """Histogram estimate of the ``q``-quantile latency (upper bucket
        edge; the overflow bucket reports the observed maximum)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= target:
                if index < len(LATENCY_BUCKETS_MS):
                    return LATENCY_BUCKETS_MS[index]
                return self.max_ms
        return self.max_ms

    def merge(self, other: "PlanStats") -> None:
        self.count += other.count
        self.total_ms += other.total_ms
        self.max_ms = max(self.max_ms, other.max_ms)
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count
        for name, value in other.verdicts.items():
            self.verdicts[name] = self.verdicts.get(name, 0) + value
        for name, value in other.deciders.items():
            self.deciders[name] = self.deciders.get(name, 0) + value
        self.fallbacks += other.fallbacks
        self.groups += other.groups
        self.setup_reuse += other.setup_reuse
        self.runtime_hits += other.runtime_hits
        self.last_seen = max(self.last_seen, other.last_seen)

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_ms": round(self.total_ms, 4),
            "max_ms": round(self.max_ms, 4),
            "buckets": list(self.buckets),
            "verdicts": dict(self.verdicts),
            "deciders": dict(self.deciders),
            "fallbacks": self.fallbacks,
            "groups": self.groups,
            "setup_reuse": self.setup_reuse,
            "runtime_hits": self.runtime_hits,
            "last_seen": round(self.last_seen, 3),
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "PlanStats":
        stats = cls(
            count=int(record.get("count", 0)),
            total_ms=float(record.get("total_ms", 0.0)),
            max_ms=float(record.get("max_ms", 0.0)),
            fallbacks=int(record.get("fallbacks", 0)),
            groups=int(record.get("groups", 0)),
            setup_reuse=int(record.get("setup_reuse", 0)),
            runtime_hits=int(record.get("runtime_hits", 0)),
            last_seen=float(record.get("last_seen", 0.0)),
        )
        buckets = record.get("buckets")
        if isinstance(buckets, list) and len(buckets) == len(stats.buckets):
            stats.buckets = [int(value) for value in buckets]
        verdicts = record.get("verdicts")
        if isinstance(verdicts, dict):
            for name, value in verdicts.items():
                stats.verdicts[name] = int(value)
        deciders = record.get("deciders")
        if isinstance(deciders, dict):
            stats.deciders = {name: int(value) for name, value in deciders.items()}
        return stats


class PlanTelemetry:
    """Per-plan stats table keyed by :attr:`Plan.telemetry_key`.

    The plan's serialized form rides along with its stats so a persisted
    table can be rendered without the original :class:`Plan` objects.
    """

    def __init__(self) -> None:
        self._stats: dict[str, PlanStats] = {}
        self._plans: dict[str, dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._stats)

    def __contains__(self, key: str) -> bool:
        return key in self._stats

    def get(self, key: str) -> PlanStats | None:
        return self._stats.get(key)

    def plan_record(self, key: str) -> dict[str, Any] | None:
        return self._plans.get(key)

    def items(self) -> Iterable[tuple[str, PlanStats]]:
        return self._stats.items()

    def record(
        self,
        plan,
        elapsed_ms: float,
        verdict: str,
        decider: str | None = None,
        fallback: bool = False,
        group_lead: bool = False,
        shared_setup: bool = False,
        runtime_hit: bool = False,
    ) -> None:
        self._row_for(plan).record(
            elapsed_ms, verdict, decider=decider, fallback=fallback,
            group_lead=group_lead, shared_setup=shared_setup,
            runtime_hit=runtime_hit,
        )

    def record_failure(self, plan, jobs: int = 1) -> None:
        self._row_for(plan).record_failure(jobs)

    def _row_for(self, plan) -> PlanStats:
        """The plan's stats, created on its first record."""
        key = plan.telemetry_key
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = PlanStats()
            self._plans[key] = plan.to_dict()
        return stats

    def merge(self, other: "PlanTelemetry") -> None:
        for key, stats in other.items():
            mine = self._stats.get(key)
            if mine is None:
                self._stats[key] = PlanStats.from_dict(stats.to_dict())
                record = other.plan_record(key)
                if record is not None:
                    self._plans[key] = dict(record)
            else:
                mine.merge(stats)

    def to_dict(self) -> dict[str, Any]:
        return {
            "plans": {
                key: {"plan": self._plans.get(key), "stats": stats.to_dict()}
                for key, stats in sorted(self._stats.items())
            }
        }

    def prune(self, max_age_s: float, now: float | None = None) -> int:
        """Drop rows whose newest observation is older than ``max_age_s``
        (state-dir hygiene: telemetry for workloads that stopped arriving
        should not accumulate forever).  Rows without a ``last_seen``
        stamp (legacy persisted state) are kept.  Returns the number of
        rows removed."""
        if max_age_s < 0:
            raise ValueError(f"max_age_s must be non-negative, got {max_age_s}")
        cutoff = (now if now is not None else time.time()) - max_age_s
        stale = [
            key for key, stats in self._stats.items()
            if stats.last_seen > 0.0 and stats.last_seen < cutoff
        ]
        for key in stale:
            del self._stats[key]
            self._plans.pop(key, None)
        return len(stale)

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "PlanTelemetry":
        """Rebuild from :meth:`to_dict` output; rows whose stats payload
        does not parse (hand-edited or corrupt state files) are skipped."""
        telemetry = cls()
        plans = record.get("plans")
        if not isinstance(plans, dict):
            return telemetry
        for key, entry in plans.items():
            if not isinstance(entry, dict):
                continue
            stats = entry.get("stats")
            if not isinstance(stats, dict):
                continue
            try:
                telemetry._stats[key] = PlanStats.from_dict(stats)
            except (ValueError, TypeError):
                continue
            plan_record = entry.get("plan")
            if isinstance(plan_record, dict):
                telemetry._plans[key] = plan_record
        return telemetry

    def summary(self) -> dict[str, Any]:
        """Compact per-plan rows, in key order, for JSON consumers such
        as ``repro stats --plans --json`` (one entry per plan, no
        histograms)."""
        return {
            key: self._summary_row(stats)
            for key, stats in sorted(self._stats.items())
        }

    @staticmethod
    def _summary_row(stats: PlanStats) -> dict[str, Any]:
        row = {
            "count": stats.count,
            "mean_ms": round(stats.mean_ms, 4),
            "p50_ms": round(stats.percentile_ms(0.5), 4),
            "p90_ms": round(stats.percentile_ms(0.9), 4),
            "verdicts": {k: v for k, v in stats.verdicts.items() if v},
            "fallback_rate": round(stats.fallback_rate, 4),
        }
        if stats.deciders:
            row["top_decider"] = stats.top_decider
        if stats.groups:
            row["groups"] = stats.groups
            row["setup_reuse"] = stats.setup_reuse
            row["runtime_hits"] = stats.runtime_hits
        return row

    def register_metrics(self, registry) -> None:
        """Register every plan row into a unified metrics registry
        (:class:`repro.obs.metrics.MetricsRegistry`): the latency
        histogram maps bucket-for-bucket onto a Prometheus histogram
        (same ``LATENCY_BUCKETS_MS`` edges), verdict counts become
        labelled counters."""
        for key, stats in sorted(self._stats.items()):
            labels = {"plan": key}
            registry.histogram(
                "repro_plan_latency_ms", LATENCY_BUCKETS_MS,
                "decision latency per plan (ms)", labels,
            ).load(stats.buckets, stats.total_ms, stats.count)
            for verdict, value in sorted(stats.verdicts.items()):
                if value:
                    registry.counter(
                        "repro_plan_executions_total",
                        "plan executions by verdict",
                        {"plan": key, "verdict": verdict},
                    ).inc(value)
            for decider, value in sorted(stats.deciders.items()):
                if value:
                    registry.counter(
                        "repro_plan_answers_total",
                        "plan executions by answering decider",
                        {"plan": key, "decider": decider},
                    ).inc(value)
            if stats.fallbacks:
                registry.counter(
                    "repro_plan_fallbacks_total",
                    "executions answered by a non-primary chain member",
                    labels,
                ).inc(stats.fallbacks)
            if stats.runtime_hits:
                registry.counter(
                    "repro_plan_runtime_hits_total",
                    "chunks served from a warm persistent-runtime context",
                    labels,
                ).inc(stats.runtime_hits)

    def table(self) -> str:
        """The ``repro stats --plans`` report: one row per plan."""
        if not self._stats:
            return "no plan telemetry recorded"
        header = (
            f"{'plan':<44} {'n':>6} {'mean_ms':>8} {'p50_ms':>7} {'p90_ms':>7} "
            f"{'sat':>5} {'unsat':>6} {'unk':>4} {'err':>4} {'fb%':>5} "
            f"{'grp':>4} {'reuse':>5} {'rthit':>5} {'winner':<20}"
        )
        lines = [header, "-" * len(header)]
        ordered = sorted(
            self._stats.items(), key=lambda item: -item[1].total_ms
        )
        for key, stats in ordered:
            lines.append(
                f"{key:<44} {stats.count:>6} {stats.mean_ms:>8.3f} "
                f"{stats.percentile_ms(0.5):>7.2f} {stats.percentile_ms(0.9):>7.2f} "
                f"{stats.verdicts.get('sat', 0):>5} {stats.verdicts.get('unsat', 0):>6} "
                f"{stats.verdicts.get('unknown', 0):>4} {stats.verdicts.get('error', 0):>4} "
                f"{stats.fallback_rate * 100:>4.1f}% "
                f"{stats.groups:>4} {stats.setup_reuse:>5} {stats.runtime_hits:>5} "
                f"{stats.top_decider:<20}"
            )
        return "\n".join(lines)
