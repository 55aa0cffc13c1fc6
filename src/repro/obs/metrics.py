"""Unified metrics registry: one namespace over the engine's stat silos.

The engine accumulates numbers in two unrelated shapes —
:class:`~repro.engine.batch.EngineStats` counters and
:class:`~repro.sat.telemetry.PlanStats` histogram rows — plus the
executor layer's lane-health figures.  Each of those now *registers
into* a :class:`MetricsRegistry` (``register_metrics(registry)``
hooks), which renders the whole set two ways:

* :meth:`MetricsRegistry.as_dict` — nested JSON for machine consumers
  (``repro stats --json``);
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format, written as a textfile snapshot next to the
  engine's state tier (``metrics.prom``) on every ``save_state``, ready
  for a node-exporter textfile collector.

Instruments are snapshot-oriented: the engine builds a fresh registry
from its current totals when asked, so counters here carry totals, not
deltas, and there is no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _render_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(merged.items())
    )
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically accumulated total."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (finite upper edges plus one overflow).

    ``observe`` bins live values; :meth:`load` adopts pre-aggregated
    per-bucket counts (the shape :class:`~repro.sat.telemetry.PlanStats`
    persists), so telemetry rows map onto Prometheus histograms without
    replaying observations.
    """

    def __init__(self, edges: Iterable[float]):
        self.edges = tuple(float(edge) for edge in edges)
        if not self.edges or any(
            b <= a for a, b in zip(self.edges, self.edges[1:])
        ):
            raise ValueError(f"histogram edges must be increasing: {self.edges}")
        self.buckets = [0] * (len(self.edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.edges)
        for position, edge in enumerate(self.edges):
            if value <= edge:
                index = position
                break
        self.buckets[index] += 1
        self.total += value
        self.count += 1

    def load(self, buckets: Iterable[int], total: float, count: int) -> None:
        """Adopt pre-binned counts (must match this histogram's shape)."""
        adopted = [int(value) for value in buckets]
        if len(adopted) != len(self.buckets):
            raise ValueError(
                f"expected {len(self.buckets)} buckets, got {len(adopted)}"
            )
        for index, value in enumerate(adopted):
            self.buckets[index] += value
        self.total += total
        self.count += count


@dataclass
class _Family:
    """One metric name: its type, help text, and per-label-set children."""

    kind: str
    help: str
    children: "dict[tuple[tuple[str, str], ...], Any]" = field(default_factory=dict)


class MetricsRegistry:
    """Counters, gauges, and histograms under one exported namespace.

    ``counter``/``gauge``/``histogram`` return the instrument for a
    (name, labels) pair, creating it on first use — repeated calls with
    the same identity hand back the same instrument, so independent
    components can feed one series.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def __len__(self) -> int:
        return sum(len(family.children) for family in self._families.values())

    def _instrument(
        self, kind: str, name: str, help: str, labels: dict[str, str] | None,
        factory,
    ):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(kind=kind, help=help)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {kind}"
            )
        key = tuple(sorted((labels or {}).items()))
        instrument = family.children.get(key)
        if instrument is None:
            instrument = family.children[key] = factory()
        return instrument

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        return self._instrument("counter", name, help, labels, Counter)

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge:
        return self._instrument("gauge", name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        edges: Iterable[float],
        help: str = "",
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        return self._instrument(
            "histogram", name, help, labels, lambda: Histogram(edges)
        )

    # -- exporters ----------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Nested JSON view: name -> {type, help, series: [{labels, ...}]}."""
        rendered: dict[str, Any] = {}
        for name, family in sorted(self._families.items()):
            series = []
            for key, instrument in sorted(family.children.items()):
                entry: dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["count"] = instrument.count
                    entry["sum"] = round(instrument.total, 6)
                    entry["buckets"] = list(instrument.buckets)
                    entry["edges"] = list(instrument.edges)
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            rendered[name] = {
                "type": family.kind, "help": family.help, "series": series
            }
        return rendered

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (one textfile snapshot).

        Histograms render cumulatively with ``le`` labels plus ``_sum``
        and ``_count``, exactly as a scrape endpoint would expose them.
        """
        lines: list[str] = []
        for name, family in sorted(self._families.items()):
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, instrument in sorted(family.children.items()):
                labels = dict(key)
                if family.kind == "histogram":
                    cumulative = 0
                    for edge, bucket in zip(
                        instrument.edges + (float("inf"),), instrument.buckets
                    ):
                        cumulative += bucket
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels(labels, {'le': _format_value(edge)})}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{_format_value(instrument.total)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {instrument.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_format_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
