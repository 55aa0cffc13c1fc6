"""Measured cost model for plan choice.

``DeciderSpec.cost_rank`` is a static guess: it encodes the paper's
complexity hierarchy (PTIME before EXPTIME before semi-decision) but
knows nothing about constants.  On a tiny star-free DTD the bounded
enumerator answers a negation query in a fraction of the types-fixpoint's
time; on a large starred schema it is hopeless.  The :class:`CostModel`
captures that: it accumulates measured per-decider latency keyed by
``(feature signature × schema-size bucket)`` and, once a decider has
enough samples in a bucket, its *measured mean* replaces the static rank
when the planner orders a plan's decider chain.

The blend is deliberately conservative:

* a decider with ``>= min_samples`` observations in the bucket costs its
  measured mean milliseconds;
* an unmeasured decider costs ``UNMEASURED_BASE_MS + cost_rank`` — far
  above any plausible measurement, so unmeasured deciders keep their
  static order among themselves and **never** outrank a measured one.

Reordering is verdict-preserving: the planner only permutes the chain the
static scan produced (never drops members), and plan execution treats an
``unknown`` from a non-final chain member as a decline, so a promoted
semi-decision procedure that fails to conclude falls through to the
decider the static order would have chosen (see
:func:`repro.sat.planner.execute_plan`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ReproError

#: cost assigned to unmeasured deciders, keeping them behind any measured
#: latency while preserving static rank order among themselves
UNMEASURED_BASE_MS = 10.0**6

#: upper edges of the schema-size buckets (``DTD.size()``); "l" is overflow
SIZE_BUCKET_EDGES: tuple[tuple[int, str], ...] = (
    (10, "xs"), (30, "s"), (100, "m"),
)

#: bucket tag used when planning without a DTD
NO_SCHEMA_BUCKET = "none"

#: a measured primary at or under this mean latency runs inline even when
#: its complexity class would normally route it to the process pool —
#: forking a worker costs more than the decision itself
INLINE_THRESHOLD_MS = 5.0


def size_bucket(schema_size: int | None) -> str:
    """Bucket tag for a schema of ``schema_size`` (``DTD.size()``)."""
    if schema_size is None:
        return NO_SCHEMA_BUCKET
    for edge, tag in SIZE_BUCKET_EDGES:
        if schema_size <= edge:
            return tag
    return "l"


@dataclass
class CostEntry:
    """Accumulated latency observations of one (signature, bucket, decider).

    ``count`` is a float so :meth:`CostModel.decay` can scale a cell's
    weight without shifting its mean; ``last_tick`` is the model-wide
    observation sequence number of the cell's newest sample — the
    staleness stamp epsilon-exploration uses to pick which chain member
    to re-measure."""

    count: float = 0.0
    total_ms: float = 0.0
    last_tick: int = 0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


class CostModel:
    """Measured per-(signature × size-bucket) decider latency.

    ``observe`` is fed by the batch engine from plan-execution telemetry
    and by :func:`calibrate`; ``effective_cost`` is consulted by
    :func:`repro.sat.planner.build_plan` when ordering a decider chain.

    **Freshness.**  Normal operation only times the chain member that
    answers, so measurements go stale in two ways: a fallback that would
    win is never measured, and an old measurement outlives the workload
    that produced it.  ``explore_every=N`` turns on epsilon-exploration —
    every N-th decision of a (signature × bucket) nominates the stalest
    chain member for an extra timing probe (the batch engine runs it
    inline, discarding the verdict) — and :meth:`decay` scales every
    cell's weight down so cells that stop being refreshed eventually
    drop below ``min_samples`` and become unmeasured again.  Neither can
    change verdicts: chain reordering is verdict-preserving by
    construction and probe results are discarded.
    """

    def __init__(self, min_samples: int = 3, explore_every: int = 0):
        if min_samples < 1:
            raise ValueError(f"min_samples must be positive, got {min_samples}")
        if explore_every < 0:
            raise ValueError(
                f"explore_every must be non-negative, got {explore_every}"
            )
        self.min_samples = min_samples
        self.explore_every = explore_every
        self._entries: dict[tuple[str, str, str], CostEntry] = {}
        self._tick = 0
        self._explore_clock: dict[tuple[str, str], int] = {}
        # cells decay() aged out entirely, kept until a persistence layer
        # consumes them (the state tier deletes these rows, so a stale
        # shared cell cannot resurrect a measurement decay retired); a
        # fresh observe() or merge() of the key revives it legitimately
        self._dropped: set[tuple[str, str, str]] = set()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def observations(self) -> float:
        return sum(entry.count for entry in self._entries.values())

    def observe(
        self, signature: str, bucket: str, decider: str, elapsed_ms: float
    ) -> None:
        key = (signature, bucket, decider)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = CostEntry()
            self._dropped.discard(key)
        entry.count += 1
        entry.total_ms += elapsed_ms
        self._tick += 1
        entry.last_tick = self._tick

    def exploration_candidate(
        self,
        signature: str,
        bucket: str,
        chain: tuple[str, ...],
        exclude: "frozenset[str] | set[str]" = frozenset(),
    ) -> str | None:
        """Epsilon-exploration pacing: advance this (signature, bucket)'s
        clock and, on every ``explore_every``-th call, nominate the
        **stalest** chain member not in ``exclude`` (members the current
        execution already measured) for a timing probe.  Unmeasured
        members are maximally stale, so each fallback gets measured
        before anything is re-measured.  Returns ``None`` off-beat, when
        exploration is off, or when nothing is left to probe."""
        if self.explore_every <= 0 or len(chain) < 2:
            return None
        clock_key = (signature, bucket)
        clock = self._explore_clock.get(clock_key, 0) + 1
        self._explore_clock[clock_key] = clock
        if clock % self.explore_every:
            return None
        candidates = [name for name in chain if name not in exclude]
        if not candidates:
            return None

        def staleness(name: str) -> tuple[int, int]:
            entry = self._entries.get((signature, bucket, name))
            return (entry.last_tick if entry else 0, chain.index(name))

        return min(candidates, key=staleness)

    def decay(self, factor: float = 0.5) -> int:
        """Scale every cell's weight by ``factor`` (preserving its mean);
        cells whose count decays below one observation are dropped
        entirely.  Returns the number of cells dropped.  A decayed cell
        below ``min_samples`` stops driving chain order until fresh
        measurements arrive — stale knowledge ages out instead of ruling
        forever."""
        if not 0.0 < factor < 1.0:
            raise ValueError(f"decay factor must be in (0, 1), got {factor}")
        dropped = 0
        for key, entry in list(self._entries.items()):
            entry.count *= factor
            entry.total_ms *= factor
            if entry.count < 1.0:
                del self._entries[key]
                self._dropped.add(key)
                dropped += 1
        return dropped

    def cells(self) -> dict[tuple[str, str, str], CostEntry]:
        """Snapshot of every (signature, bucket, decider) cell — the
        state tier diffs this against its baseline to write per-process
        sample deltas."""
        return {
            key: CostEntry(entry.count, entry.total_ms, entry.last_tick)
            for key, entry in self._entries.items()
        }

    def consume_dropped(self) -> set[tuple[str, str, str]]:
        """Return-and-clear the keys :meth:`decay` aged out since the
        last call, minus any that were re-observed in the meantime.  A
        persistence layer deletes these from shared storage, so a cell
        the model retired cannot resurrect from a stale shared row."""
        dropped, self._dropped = self._dropped, set()
        return dropped

    def measured(self, signature: str, bucket: str, decider: str) -> CostEntry | None:
        return self._entries.get((signature, bucket, decider))

    def effective_cost(self, spec, signature: str, bucket: str) -> float:
        """The cost the planner sorts a chain by: measured mean latency
        when the decider has enough samples in this (signature, bucket),
        the static-rank prior otherwise."""
        entry = self._entries.get((signature, bucket, spec.name))
        if entry is not None and entry.count >= self.min_samples:
            return entry.mean_ms
        return UNMEASURED_BASE_MS + spec.cost_rank

    def is_measured(self, spec, signature: str, bucket: str) -> bool:
        entry = self._entries.get((signature, bucket, spec.name))
        return entry is not None and entry.count >= self.min_samples

    def to_dict(self) -> dict[str, Any]:
        return {
            "min_samples": self.min_samples,
            "entries": [
                [signature, bucket, decider, round(entry.count, 4),
                 round(entry.total_ms, 4), entry.last_tick]
                for (signature, bucket, decider), entry in sorted(self._entries.items())
            ],
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "CostModel":
        """Rebuild from :meth:`to_dict` output.  Persisted state may be
        hand-edited or corrupt: an invalid ``min_samples`` falls back to
        the default and malformed entries are skipped.  Legacy 5-element
        entries (written before staleness ticks existed) load with
        ``last_tick=0``, i.e. maximally stale."""
        try:
            min_samples = max(1, int(record.get("min_samples", 3)))
        except (ValueError, TypeError):
            min_samples = 3
        model = cls(min_samples=min_samples)
        entries = record.get("entries")
        if not isinstance(entries, list):
            return model
        for item in entries:
            if not (isinstance(item, list) and len(item) in (5, 6)):
                continue
            signature, bucket, decider, count, total_ms = item[:5]
            try:
                entry = CostEntry(
                    count=float(count), total_ms=float(total_ms),
                    last_tick=int(item[5]) if len(item) == 6 else 0,
                )
            except (ValueError, TypeError):
                continue
            model._entries[(str(signature), str(bucket), str(decider))] = entry
            model._tick = max(model._tick, entry.last_tick)
        return model

    def register_metrics(self, registry) -> None:
        """Register the model's cells into a unified metrics registry:
        one ``repro_cost_mean_ms`` gauge per (signature × bucket ×
        decider) cell plus model-wide totals."""
        registry.gauge(
            "repro_cost_model_cells",
            "(signature x bucket x decider) cells with measurements",
        ).set(len(self._entries))
        registry.gauge(
            "repro_cost_model_observations",
            "total accumulated observation weight",
        ).set(round(self.observations, 4))
        for (signature, bucket, decider), entry in sorted(self._entries.items()):
            registry.gauge(
                "repro_cost_mean_ms",
                "measured mean decider latency (ms)",
                {"signature": signature, "bucket": bucket, "decider": decider},
            ).set(round(entry.mean_ms, 4))

    def merge(self, other: "CostModel") -> None:
        """Fold ``other``'s cells into this model: float-weighted combine
        (counts and totals add, so the merged mean is the sample-weighted
        mean of both sides), ``last_tick`` max.  Merging live samples for
        a key this model had decay-dropped revives it — the drop retired
        a *stale* measurement, not the key."""
        for key, entry in other._entries.items():
            mine = self._entries.get(key)
            if mine is None:
                self._entries[key] = CostEntry(
                    entry.count, entry.total_ms, entry.last_tick
                )
                self._dropped.discard(key)
            else:
                mine.count += entry.count
                mine.total_ms += entry.total_ms
                mine.last_tick = max(mine.last_tick, entry.last_tick)
        self._tick = max(self._tick, other._tick)


def calibrate(
    cost_model: CostModel,
    plan,
    queries: Iterable,
    dtd=None,
    bounds=None,
    schema_size: int | None = None,
) -> int:
    """Measure **every** member of ``plan``'s decider chain on the sample
    ``queries`` and feed the timings into ``cost_model``.

    Normal operation only ever times the chain member that answers, so a
    fallback that would win on this workload never gets measured; an
    explicit calibration pass closes that gap.  Queries should be
    representative of the plan's feature signature (they are executed
    as-is, so pass canonical forms for exactness).  Returns the number of
    observations recorded; deciders that decline a sample **or answer
    ``unknown``** are skipped — an inconclusive run is cheap because the
    decider gave up, and counting it would promote procedures that cannot
    actually answer the workload.

    Each decider is timed the way the engine runs it: its ``prepare``
    context is built once per call, outside the timer, and only its
    verdict is read, so no witness is built.
    """
    from repro.sat.planner import SchemaContexts
    from repro.sat.registry import get_decider

    bucket = size_bucket(
        schema_size if schema_size is not None else (dtd.size() if dtd else None)
    )
    contexts = SchemaContexts(dtd)
    recorded = 0
    for name in (plan.decider,) + plan.fallbacks:
        spec = get_decider(name)
        context = contexts.get(name) if contexts else None
        for query in queries:
            start = time.perf_counter()
            try:
                result = spec.call(query, dtd, bounds, context=context)
            except ReproError:
                continue
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if result.satisfiable is None:
                continue
            cost_model.observe(plan.signature, bucket, name, elapsed_ms)
            recorded += 1
    return recorded
