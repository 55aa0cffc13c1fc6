"""Span tracer: per-job causality across planner, lanes, and chains.

Every job entering :meth:`~repro.engine.batch.BatchEngine.run` gets a
trace ID at intake; the engine attaches spans as the job moves through
the pipeline — ``canonicalize``, ``plan`` (build vs cache hit),
``route``, ``cache``/``coalesced`` for the short-circuit paths, and
``chunk`` for every job that was decided: every decision runs in a chunk
on an executor, the in-process one reporting lane 0.  A ``chunk`` span
carries the scheduling facts (lane ID, enqueue→absorb dwell, DTD ship,
runtime-context hit, spill, retry) and holds the lane-side children: a
``prepare`` span for shared setup and one ``attempt:<decider>`` span per
decider-chain member with its verdict and latency.  Lane-side timings travel home inside
:class:`~repro.engine.executors.ChunkOutcome` / the plan's
:class:`~repro.sat.planner.ExecutionTrace` attempts, and the engine's
exactly-once absorb (bookkeeping popped on arrival) guarantees one
finished span tree per job even when a worker death forces a chunk
retry.

A :class:`Tracer` fans finished traces out to sinks —
:class:`JsonlTraceSink` is the ``--trace-out`` JSONL event stream,
:class:`ListSink` keeps records in memory for tests and benchmarks —
and offers each to an optional slow-query log
(:class:`~repro.obs.slowlog.SlowQueryLog`).  ``repro trace`` renders
the JSONL back into span trees (:func:`render_trace_record`).
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterable

#: spans whose status is not "ok" render flagged and count as failures
FAILED = "failed"
OK = "ok"


@dataclass
class Span:
    """One timed step in a job's lifecycle.

    ``start_ms`` is the offset from the trace's begin time; a span whose
    timing is unknown (a pure event, e.g. a route choice) keeps both
    fields at zero.
    """

    name: str
    start_ms: float = 0.0
    ms: float = 0.0
    status: str = OK
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"name": self.name, "ms": round(self.ms, 4)}
        if self.start_ms:
            record["start_ms"] = round(self.start_ms, 4)
        if self.status != OK:
            record["status"] = self.status
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Span":
        return cls(
            name=str(record.get("name", "?")),
            start_ms=float(record.get("start_ms", 0.0)),
            ms=float(record.get("ms", 0.0)),
            status=str(record.get("status", OK)),
            attrs=dict(record.get("attrs", {})),
            children=[
                cls.from_dict(child) for child in record.get("children", [])
            ],
        )


def attempt_spans(
    attempts: Iterable[tuple[str, float, str]], start_ms: float = 0.0
) -> list[Span]:
    """Child spans for a plan execution's decider-chain attempts
    (``ExecutionTrace.attempts``): one ``attempt:<decider>`` per member,
    laid out sequentially — their summed ``ms`` equals the trace's
    ``elapsed_ms``, i.e. the latency telemetry records for the job."""
    spans = []
    offset = start_ms
    for decider, elapsed_ms, outcome in attempts:
        spans.append(Span(
            name=f"attempt:{decider}",
            start_ms=offset,
            ms=elapsed_ms,
            status=FAILED if outcome == FAILED else OK,
            attrs={"verdict": outcome},
        ))
        offset += elapsed_ms
    return spans


class JobTrace:
    """One job's in-flight trace: identity plus accumulated spans."""

    __slots__ = (
        "trace_id", "job_id", "query", "schema", "fingerprint",
        "spans", "finished", "_t0",
    )

    def __init__(
        self,
        trace_id: str,
        job_id: str,
        query: str,
        schema: str | None,
        fingerprint: str | None,
    ) -> None:
        self.trace_id = trace_id
        self.job_id = job_id
        self.query = query
        self.schema = schema
        self.fingerprint = fingerprint
        self.spans: list[Span] = []
        self.finished = False
        self._t0 = time.perf_counter()

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1e3

    def span(
        self,
        name: str,
        ms: float = 0.0,
        status: str = OK,
        attrs: dict[str, Any] | None = None,
        children: list[Span] | None = None,
    ) -> Span:
        """Append a top-level span that just ended (``start_ms`` is
        back-dated by ``ms`` from now)."""
        span = Span(
            name=name,
            start_ms=max(0.0, self.elapsed_ms() - ms),
            ms=ms,
            status=status,
            attrs=attrs or {},
            children=children or [],
        )
        self.spans.append(span)
        return span


class ListSink:
    """In-memory sink (tests, benchmarks)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlTraceSink:
    """The ``--trace-out FILE`` exporter: one JSON object per finished
    trace, flushed per record so a crashed run still leaves every
    completed trace on disk."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")
        self.emitted = 0

    def emit(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.emitted += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class Tracer:
    """Mints trace IDs at intake and fans finished traces out to sinks.

    ``begin``/``finish`` bracket one job; ``finish`` is idempotent (a
    second finish of the same trace is counted, not re-emitted), and the
    ``started``/``finished`` counters let tests assert the no-orphans
    invariant: every begun trace is finished exactly once.
    """

    def __init__(self, sinks: Iterable[Any] = (), slow_log=None) -> None:
        self.sinks = list(sinks)
        self.slow_log = slow_log
        self.started = 0
        self.finished = 0
        self.duplicate_finishes = 0
        self._run = uuid.uuid4().hex[:8]
        self._sequence = 0

    def begin(
        self,
        job_id: str,
        query: str,
        schema: str | None = None,
        fingerprint: str | None = None,
    ) -> JobTrace:
        self._sequence += 1
        self.started += 1
        return JobTrace(
            trace_id=f"{self._run}-{self._sequence:06d}",
            job_id=job_id,
            query=query,
            schema=schema,
            fingerprint=fingerprint,
        )

    def finish(
        self,
        trace: JobTrace,
        verdict: str,
        route: str,
        plan=None,
    ) -> dict[str, Any] | None:
        """Seal ``trace`` and emit its record; returns the record, or
        ``None`` for a duplicate finish (already sealed)."""
        if trace.finished:
            self.duplicate_finishes += 1
            return None
        trace.finished = True
        self.finished += 1
        record: dict[str, Any] = {
            "trace_id": trace.trace_id,
            "job_id": trace.job_id,
            "query": trace.query,
            "schema": trace.schema,
            "fingerprint": trace.fingerprint,
            "verdict": verdict,
            "route": route,
            "elapsed_ms": round(trace.elapsed_ms(), 4),
            "spans": [span.to_dict() for span in trace.spans],
        }
        for sink in self.sinks:
            sink.emit(record)
        if self.slow_log is not None:
            self.slow_log.offer(record, plan=plan)
        return record

    def register_metrics(self, registry) -> None:
        registry.counter(
            "repro_traces_started_total", "traces begun at job intake"
        ).inc(self.started)
        registry.counter(
            "repro_traces_finished_total", "trace span trees completed"
        ).inc(self.finished)
        if self.slow_log is not None:
            registry.counter(
                "repro_slow_queries_total",
                "jobs over the slow-query latency threshold",
            ).inc(self.slow_log.count)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
        if self.slow_log is not None:
            self.slow_log.close()


def read_trace_file(path: str) -> list[dict[str, Any]]:
    """Parse a ``--trace-out`` JSONL file; blank lines are skipped and a
    malformed line raises ``ValueError`` naming its line number."""
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: not JSON ({error})") from None
            if isinstance(record, dict):
                records.append(record)
    return records


def _span_line(span: dict[str, Any], indent: int) -> str:
    attrs = span.get("attrs", {})
    rendered_attrs = " ".join(
        f"{name}={value}" for name, value in sorted(attrs.items())
    )
    flag = " [FAILED]" if span.get("status", OK) != OK else ""
    head = "  " * indent + span.get("name", "?")
    tail = f"{span.get('ms', 0.0):.3f}ms"
    middle = f" {rendered_attrs}" if rendered_attrs else ""
    return f"{head}{middle}  {tail}{flag}"


def _walk_spans(spans: list[dict[str, Any]], indent: int, lines: list[str]) -> None:
    for span in spans:
        lines.append(_span_line(span, indent))
        _walk_spans(span.get("children", []), indent + 1, lines)


def render_trace_record(record: dict[str, Any]) -> str:
    """Human-readable span tree of one trace record (``repro trace``)."""
    schema = record.get("schema")
    header = (
        f"trace {record.get('trace_id', '?')} job={record.get('job_id', '?')!r} "
        f"verdict={record.get('verdict', '?')} route={record.get('route', '?')} "
        f"elapsed={record.get('elapsed_ms', 0.0):.3f}ms"
        + (f" schema={schema}" if schema else "")
    )
    lines = [header, f"  query: {record.get('query', '')}"]
    _walk_spans(record.get("spans", []), 1, lines)
    return "\n".join(lines)
