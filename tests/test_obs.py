"""Observability layer: span tracing, metrics, slow-query log, logging.

The heart of this suite is **span integrity under failure**: the engine
must emit exactly one finished span tree per job — no duplicates, no
orphans — even when a SIGKILL mid-chunk forces a lane respawn and retry,
when an executor hands an outcome back twice, or when prepare hooks and
individual questions fail.  The acceptance invariant rides along: every
pooled job's tree carries its lane ID and DTD-ship/runtime-hit events,
and the per-chain-member attempt latencies sum to the latency the
per-plan telemetry recorded.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import pytest

from repro.engine import BatchEngine, SchemaRegistry
from repro.engine.batch import Job
from repro.engine.statetier import METRICS_FILE
from repro.obs import (
    JsonlTraceSink,
    ListSink,
    MetricsRegistry,
    SlowQueryLog,
    Span,
    Tracer,
    attempt_spans,
    read_trace_file,
    render_trace_record,
)

THREESAT_DTD = """
root r
r  -> X1, X2, X3
X1 -> T + F
X2 -> T + F
X3 -> T + F
T  -> eps
F  -> eps
"""

DISJFREE_DTD = """
root r
r -> A, B
A -> C*
B -> eps
C -> eps
"""

HEAVY = ["A[not(C)]", "A[not(B)]", ".[not(A)]", "B[not(A)]", "C[not(B)]"]


@pytest.fixture
def registry():
    registry = SchemaRegistry()
    registry.register("threesat", THREESAT_DTD)
    registry.register("disjfree", DISJFREE_DTD)
    return registry


def traced_engine(registry, **kwargs):
    sink = ListSink()
    tracer = Tracer(sinks=(sink,))
    return BatchEngine(registry=registry, tracer=tracer, **kwargs), sink, tracer


def spans_named(record, name):
    found = []

    def walk(spans):
        for span in spans:
            if span["name"] == name:
                found.append(span)
            walk(span.get("children", []))

    walk(record["spans"])
    return found


def _all_spans(record):
    out = []

    def walk(spans):
        for span in spans:
            out.append(span)
            walk(span.get("children", []))

    walk(record["spans"])
    return out


def attempt_sum(record):
    return sum(
        span["ms"] for span in _all_spans(record)
        if span["name"].startswith("attempt:")
    )


# -- span primitives -------------------------------------------------------------

class TestSpans:
    def test_attempt_spans_lay_out_sequentially(self):
        spans = attempt_spans(
            [("ptime", 1.5, "unknown"), ("exptime_types", 4.0, "sat")],
            start_ms=2.0,
        )
        assert [s.name for s in spans] == ["attempt:ptime", "attempt:exptime_types"]
        assert spans[0].start_ms == 2.0
        assert spans[1].start_ms == 3.5
        assert sum(s.ms for s in spans) == 5.5
        assert spans[1].attrs["verdict"] == "sat"

    def test_attempt_span_failed_status(self):
        (span,) = attempt_spans([("bounded", 1.0, "failed")])
        assert span.status == "failed"

    def test_span_round_trip(self):
        span = Span(
            name="chunk", start_ms=1.0, ms=5.0, status="failed",
            attrs={"lane": 2},
            children=[Span(name="prepare", ms=0.5)],
        )
        back = Span.from_dict(span.to_dict())
        assert back.name == "chunk" and back.status == "failed"
        assert back.attrs == {"lane": 2}
        assert back.children[0].name == "prepare"

    def test_span_to_dict_drops_empty_fields(self):
        record = Span(name="route").to_dict()
        assert record == {"name": "route", "ms": 0.0}


class TestTracer:
    def test_begin_finish_emits_once(self):
        sink = ListSink()
        tracer = Tracer(sinks=(sink,))
        trace = tracer.begin(job_id="j1", query="A", schema="s")
        trace.span("canonicalize", ms=0.1)
        record = tracer.finish(trace, verdict="sat", route="inline")
        assert record is not None and record["trace_id"] == trace.trace_id
        # a second finish is counted, not re-emitted
        assert tracer.finish(trace, verdict="sat", route="inline") is None
        assert len(sink.records) == 1
        assert tracer.started == tracer.finished == 1
        assert tracer.duplicate_finishes == 1

    def test_trace_ids_are_unique_and_ordered(self):
        tracer = Tracer()
        ids = [tracer.begin(job_id=str(i), query="A").trace_id for i in range(5)]
        assert len(set(ids)) == 5
        assert ids == sorted(ids)

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        tracer = Tracer(sinks=(JsonlTraceSink(path),))
        for i in range(3):
            trace = tracer.begin(job_id=f"j{i}", query="A")
            trace.span("execute", ms=1.0)
            tracer.finish(trace, verdict="sat", route="inline")
        tracer.close()
        records = read_trace_file(path)
        assert [r["job_id"] for r in records] == ["j0", "j1", "j2"]
        assert all(r["spans"][0]["name"] == "execute" for r in records)

    def test_read_trace_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace_file(str(path))

    def test_render_trace_record(self):
        tracer = Tracer()
        trace = tracer.begin(job_id="j1", query="A[not(B)]", schema="s")
        trace.span("chunk", ms=2.0, attrs={"lane": 0},
                   children=attempt_spans([("exptime_types", 2.0, "sat")]))
        record = tracer.finish(trace, verdict="sat", route="pool")
        rendered = render_trace_record(record)
        assert "job='j1'" in rendered
        assert "chunk lane=0" in rendered
        assert "attempt:exptime_types" in rendered
        assert "route=pool" in rendered

    def test_failed_span_renders_flag(self):
        tracer = Tracer()
        trace = tracer.begin(job_id="j", query="A")
        trace.span("execute", status="failed", attrs={"error": "boom"})
        record = tracer.finish(trace, verdict="error", route="error")
        assert "[FAILED]" in render_trace_record(record)


# -- metrics registry ------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc(3)
        registry.counter("jobs_total", "jobs").inc(2)   # same instrument
        registry.gauge("depth", "queue depth").set(7)
        histogram = registry.histogram("latency_ms", (1.0, 10.0), "latency")
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        record = registry.as_dict()
        assert record["jobs_total"]["series"][0]["value"] == 5
        assert record["depth"]["series"][0]["value"] == 7
        assert record["latency_ms"]["series"][0]["count"] == 3
        assert record["latency_ms"]["series"][0]["buckets"] == [1, 1, 1]

    def test_labels_key_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "hits", {"lane": "0"}).inc(1)
        registry.counter("hits_total", "hits", {"lane": "1"}).inc(2)
        text = registry.render_prometheus()
        assert 'hits_total{lane="0"} 1' in text
        assert 'hits_total{lane="1"} 2' in text
        # one HELP/TYPE block for the family
        assert text.count("# TYPE hits_total counter") == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError, match="x_total"):
            registry.gauge("x_total", "x")

    def test_prometheus_histogram_is_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("ms", (1.0, 10.0), "latency")
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'ms_bucket{le="1"} 2' in text
        assert 'ms_bucket{le="10"} 3' in text
        assert 'ms_bucket{le="+Inf"} 4' in text
        assert "ms_count 4" in text

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("n_total", "n").inc(-1)


# -- slow-query log --------------------------------------------------------------

class TestSlowQueryLog:
    def test_threshold_filters(self):
        slow_log = SlowQueryLog(threshold_ms=10.0)
        assert slow_log.offer({"elapsed_ms": 5.0}) is False
        assert slow_log.offer({"elapsed_ms": 10.0}) is True
        assert slow_log.count == 1

    def test_entry_carries_plan_explanation(self, registry):
        engine = BatchEngine(registry=registry)
        plan = engine.planner.plan_query(
            __import__("repro.xpath", fromlist=["parse_query"]).parse_query(
                "A[not(C)]"
            ),
            artifacts=registry.get("disjfree"),
        )
        slow_log = SlowQueryLog(threshold_ms=0.0)
        slow_log.offer({"elapsed_ms": 1.0, "trace_id": "t"}, plan=plan)
        (entry,) = slow_log.entries()
        assert entry["plan"]["decider"] == plan.decider
        assert plan.decider in entry["explain"]

    def test_ring_keeps_newest(self):
        slow_log = SlowQueryLog(threshold_ms=0.0, capacity=2)
        for i in range(4):
            slow_log.offer({"elapsed_ms": 1.0, "trace_id": f"t{i}"})
        assert [e["trace_id"] for e in slow_log.entries()] == ["t2", "t3"]
        assert slow_log.count == 4

    def test_jsonl_file(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        slow_log = SlowQueryLog(threshold_ms=0.0, path=path)
        slow_log.offer({"elapsed_ms": 3.0, "trace_id": "t0"})
        slow_log.close()
        with open(path) as handle:
            (line,) = handle.read().splitlines()
        assert json.loads(line)["trace_id"] == "t0"

    def test_engine_threads_slow_log(self, registry):
        slow_log = SlowQueryLog(threshold_ms=0.0)
        tracer = Tracer(slow_log=slow_log)
        engine = BatchEngine(registry=registry, tracer=tracer)
        engine.run([Job("A[not(C)]", "disjfree")])
        (entry,) = slow_log.entries()
        assert entry["verdict"] in ("sat", "unsat")
        assert "decider" in entry["plan"]


# -- engine tracing: the happy paths ---------------------------------------------

class TestEngineTracing:
    def test_untraced_engine_emits_nothing(self, registry):
        engine = BatchEngine(registry=registry)
        report = engine.run([Job("A", "disjfree")])
        assert report.stats.errors == 0
        assert engine.tracer is None

    def test_inline_attempts_sum_to_telemetry_latency(self, registry):
        engine, sink, tracer = traced_engine(registry)
        report = engine.run([Job(q, "disjfree") for q in HEAVY[:3]])
        assert report.stats.errors == 0
        assert tracer.started == tracer.finished == 3
        traced_total = sum(attempt_sum(record) for record in sink.records)
        telemetry_total = sum(
            stats.total_ms for _, stats in engine.telemetry.items()
        )
        # Span.to_dict rounds ms to 4 decimals; tolerance covers that
        assert traced_total == pytest.approx(telemetry_total, abs=1e-3)

    def test_cache_hit_route(self, registry):
        engine, sink, _ = traced_engine(registry)
        engine.run([Job("A", "disjfree", id="cold")])
        engine.run([Job("A", "disjfree", id="warm")])
        warm = [r for r in sink.records if r["job_id"] == "warm"]
        assert warm[0]["route"] == "cache"
        assert spans_named(warm[0], "cache")[0]["attrs"]["hit"] is True

    def test_intake_error_trace(self, registry):
        engine, sink, tracer = traced_engine(registry)
        engine.run(["]]not xpath"])
        (record,) = sink.records
        assert record["verdict"] == "error" and record["route"] == "error"
        (intake,) = spans_named(record, "intake")
        assert intake["status"] == "failed"
        assert tracer.started == tracer.finished == 1

    def test_pooled_acceptance_invariants(self, registry):
        """The PR's acceptance bar: a 2-worker affinity run where every
        pooled job's span tree names its lane, carries the DTD-ship /
        runtime-context-hit events, and whose per-chain-member attempt
        latencies sum to the latency telemetry recorded."""
        jobs = [
            Job(query, schema, id=f"{schema}-{i}")
            for schema in ("disjfree", "threesat")
            for i, query in enumerate(HEAVY)
            if not (schema == "threesat" and query.startswith("C"))
        ]
        engine, sink, tracer = traced_engine(
            registry, workers=2, affinity=True, group_chunk_size=2
        )
        report = engine.run(jobs)
        assert report.stats.errors == 0
        assert tracer.started == tracer.finished == len(jobs)
        assert len(sink.records) == len(jobs)
        assert not [r for r in sink.records if r["route"] == "lost"]
        pooled = [r for r in sink.records if r["route"] == "pool"]
        assert pooled
        chunked = 0
        for record in pooled:
            chunk = spans_named(record, "chunk")
            coalesced = spans_named(record, "coalesced")
            assert chunk or coalesced, record
            if not chunk:
                continue
            chunked += 1
            attrs = chunk[0]["attrs"]
            assert attrs["lane"] >= 0
            assert "dtd_shipped" in attrs and "runtime_hit" in attrs
            assert "dwell_ms" in attrs
            # chunk span duration == this job's decider-chain time
            assert chunk[0]["ms"] == pytest.approx(
                attempt_sum(record), rel=1e-6
            )
        assert chunked >= 2
        # DTD ships and runtime hits both observable across the run
        assert any(
            spans_named(r, "chunk")[0]["attrs"]["dtd_shipped"]
            for r in pooled if spans_named(r, "chunk")
        )
        assert any(
            spans_named(r, "chunk")[0]["attrs"]["runtime_hit"]
            for r in pooled if spans_named(r, "chunk")
        )
        # attempt latencies reconcile with per-plan telemetry (exact by
        # construction: both sides sum the same lane-side measurements)
        traced_total = sum(attempt_sum(record) for record in sink.records)
        telemetry_total = sum(
            stats.total_ms for _, stats in engine.telemetry.items()
        )
        # Span.to_dict rounds ms to 4 decimals; tolerance covers that
        assert traced_total == pytest.approx(telemetry_total, abs=1e-3)

    def test_pooled_chunk_span_counts_joint_decides(self, registry):
        # a 2-worker run: each pooled chunk span carries how many of the
        # chunk's questions were decided jointly, and each such job's one
        # attempt is its share of the joint call
        jobs = [Job(query, "disjfree", id=query) for query in HEAVY[:4]]
        engine, sink, _tracer = traced_engine(registry, workers=2)
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert report.stats.errors == 0
        assert report.stats.joint_decides == 4
        shares = set()
        for record in sink.records:
            assert record["route"] == "pool"
            (chunk,) = spans_named(record, "chunk")
            assert chunk["attrs"]["joint_decides"] == 4
            (attempt,) = [
                span for span in _all_spans(record)
                if span["name"].startswith("attempt:")
            ]
            assert attempt["name"] == "attempt:exptime_types"
            shares.add(attempt["ms"])
        assert len(shares) == 1 and shares.pop() > 0.0

    def test_coalesced_followers_name_their_leader(self, registry):
        engine, sink, _ = traced_engine(registry, workers=2)
        engine.run([
            Job("A[not(C)]", "disjfree", id="leader"),
            Job("A[not(C)]", "disjfree", id="follower"),
        ])
        by_id = {r["job_id"]: r for r in sink.records}
        (coalesced,) = spans_named(by_id["follower"], "coalesced")
        assert coalesced["attrs"]["leader"] == by_id["leader"]["trace_id"]

    def test_metrics_snapshot_written_to_state_dir(self, registry, tmp_path):
        state_dir = str(tmp_path / "state")
        engine, _, _ = traced_engine(registry, state_tier=state_dir)
        engine.run([Job(q, "disjfree") for q in HEAVY[:2]])
        engine.save_state()
        text = (tmp_path / "state" / METRICS_FILE).read_text()
        assert "# TYPE repro_jobs_total counter" in text
        assert "repro_jobs_total 2" in text
        assert "repro_traces_finished_total 2" in text
        assert "repro_plan_latency_ms_bucket" in text

    def test_counters_never_decrease_across_runs(self, registry):
        """Every counter and histogram count in the engine's metrics
        covers the engine's whole life, not its last run (under `serve`
        a run is one micro-batch)."""

        def counts(engine):
            values = {}
            for name, family in engine.metrics_registry().as_dict().items():
                for series in family["series"]:
                    key = (name, tuple(sorted(series["labels"].items())))
                    if family["type"] == "counter":
                        values[key] = series["value"]
                    elif family["type"] == "histogram":
                        values[key] = series["count"]
            return values

        engine = BatchEngine(registry=registry, workers=2)
        try:
            before: dict = {}
            for batch in (HEAVY[:3], HEAVY[3:4], ["A", "B"]):
                engine.run([Job(query, "disjfree") for query in batch])
                after = counts(engine)
                for key, value in before.items():
                    assert after.get(key, 0) >= value, key
                before = after
        finally:
            engine.close()
        assert before[("repro_jobs_total", ())] == 6
        assert engine.last_stats.jobs == 2      # last_stats stays per run
        dwell = before[("repro_chunk_dwell_ms", ())]
        assert dwell >= engine.last_stats.plan_groups

    def test_engine_stats_persisted_and_reloaded(self, registry, tmp_path):
        from repro.engine import StateTier

        state_dir = str(tmp_path / "state")
        engine = BatchEngine(registry=registry, state_tier=state_dir)
        engine.run([Job("A", "disjfree")])
        engine.save_state()
        with StateTier(state_dir) as tier:
            state = tier.load()
        assert state.engine_stats is not None
        assert state.engine_stats["jobs"] == 1


# -- engine tracing: span integrity under failure --------------------------------

class _DuplicatingExecutor:
    """Hands every chunk back twice (first marked retried) — the trace
    layer must still finish each job exactly once.  Chunks run only in
    a waiting drain."""

    def __init__(self, workers, affinity=True, lane_queue_depth=4):
        from repro.engine.executors import ExecutorStats, WorkerRuntime

        self.runtime = WorkerRuntime(caching=affinity)
        self._stats = ExecutorStats(lanes=workers)
        self._queue = []

    def submit(self, task, dtd):
        self._queue.append((task, dtd))
        return True

    def drain(self, wait=True):
        while wait and self._queue:
            task, dtd = self._queue.pop(0)
            outcome = self.runtime.run_chunk(task, dtd)
            yield task, dataclasses.replace(outcome, retried=True)
            yield task, outcome

    def stats(self):
        return self._stats

    def close(self):
        pass


class _CrashFirstExecutor:
    """First submitted chunk comes back as a whole-chunk failure (the
    shape a lane death leaves after its one retry also died).  Chunks
    run only in a waiting drain."""

    def __init__(self, workers, affinity=True, lane_queue_depth=4):
        from repro.engine.executors import ExecutorStats, WorkerRuntime

        self.runtime = WorkerRuntime(caching=affinity)
        self._stats = ExecutorStats(lanes=workers)
        self._queue = []
        self.calls = 0

    def submit(self, task, dtd):
        self.calls += 1
        self._queue.append((task, dtd, self.calls == 1))
        return True

    def drain(self, wait=True):
        from repro.engine.executors import ChunkOutcome

        while wait and self._queue:
            task, dtd, crash = self._queue.pop(0)
            if crash:
                yield task, ChunkOutcome(
                    retried=True, error="worker died mid-group"
                )
            else:
                yield task, self.runtime.run_chunk(task, dtd)

    def stats(self):
        return self._stats

    def close(self):
        pass


class TestSpanIntegrityUnderFailure:
    def test_sigkill_mid_chunk_yields_one_tree_per_job(
        self, registry, tmp_path, monkeypatch
    ):
        """A worker SIGKILLed mid-chunk forces a respawn + retry; every
        job must still end with exactly one completed span tree — no
        duplicates, no orphans — and the surviving chunk spans must be
        marked retried."""
        from repro.sat import registry as sat_registry

        marker = tmp_path / "kill-once"
        marker.write_text("")
        spec = sat_registry.get_decider("exptime_types")
        original = spec.fn

        def killer(query, dtd, max_facts=22, context=None):
            if marker.exists():
                marker.unlink()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(query, dtd, max_facts, context=context)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, fn=killer),
        )
        jobs = [Job(query, "disjfree", id=query) for query in HEAVY]
        # one chunk, so one chunk is in flight on the killed lane
        engine, sink, tracer = traced_engine(
            registry, workers=2, group_chunk_size=len(jobs)
        )
        report = engine.run(jobs)
        assert report.stats.errors == 0
        assert report.stats.chunk_retries == 1
        # exactly one finished tree per job
        assert tracer.started == tracer.finished == len(jobs)
        assert tracer.duplicate_finishes == 0
        assert len(sink.records) == len(jobs)
        assert len({r["trace_id"] for r in sink.records}) == len(jobs)
        assert not [r for r in sink.records if r["route"] == "lost"]
        retried = [
            r for r in sink.records
            if any(s["attrs"].get("retried") for s in spans_named(r, "chunk"))
        ]
        assert retried

    def test_duplicate_outcomes_do_not_double_finish(self, registry):
        jobs = [Job(query, "disjfree") for query in HEAVY[:3]]
        engine, sink, tracer = traced_engine(registry, workers=2)
        engine._executor_factory = _DuplicatingExecutor
        report = engine.run(jobs)
        assert report.stats.errors == 0
        # the duplicate hand-back is dropped before any finish runs
        assert tracer.started == tracer.finished == len(jobs)
        assert tracer.duplicate_finishes == 0
        assert len(sink.records) == len(jobs)

    def test_whole_chunk_failure_emits_failed_spans(self, registry):
        jobs = [
            Job("A[not(C)]", "disjfree", id="doomed-1"),
            Job("A[not(B)]", "disjfree", id="doomed-2"),
            Job("X1[not(T)]", "threesat", id="fine"),
        ]
        engine, sink, tracer = traced_engine(registry, workers=2)
        engine._executor_factory = _CrashFirstExecutor
        report = engine.run(jobs)
        assert report.stats.errors == 2
        assert tracer.started == tracer.finished == len(jobs)
        by_id = {r["job_id"]: r for r in sink.records}
        for doomed in ("doomed-1", "doomed-2"):
            record = by_id[doomed]
            assert record["verdict"] == "error"
            assert record["route"] == "error"
            failed = [
                s for s in _all_spans(record) if s.get("status") == "failed"
            ]
            assert failed and "worker died" in failed[0]["attrs"]["error"]
        assert by_id["fine"]["verdict"] == "sat"

    def test_prepare_failure_emits_failed_prepare_span(
        self, registry, monkeypatch
    ):
        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("exptime_types")

        def boom(dtd):
            raise RuntimeError("prepare exploded")

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, prepare=boom),
        )
        jobs = [Job(query, "disjfree") for query in HEAVY[:3]]
        engine, sink, tracer = traced_engine(registry)
        report = engine.run(jobs)
        assert report.stats.errors == 0
        assert report.stats.prepare_fallbacks == 1
        assert tracer.started == tracer.finished == len(jobs)
        prepare_spans = [
            span for record in sink.records
            for span in spans_named(record, "prepare")
        ]
        # the shared prepare ran (and failed) once for the chunk
        assert len(prepare_spans) == 1
        assert prepare_spans[0]["status"] == "failed"
        assert "prepare exploded" in prepare_spans[0]["attrs"]["error"]
        assert prepare_spans[0]["attrs"]["shared"] is False

    def test_poisoned_question_fails_only_its_own_trace(
        self, registry, monkeypatch
    ):
        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("exptime_types")
        original = spec.fn

        def flaky(query, dtd, max_facts=22, context=None):
            if "C" in str(query):
                raise RuntimeError("latent decider bug")
            return original(query, dtd, max_facts, context=context)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, fn=flaky),
        )
        engine, sink, tracer = traced_engine(registry)
        report = engine.run([
            Job("A[not(C)]", "disjfree", id="doomed"),
            Job("A[not(B)]", "disjfree", id="fine"),
        ])
        assert report.stats.errors == 1
        assert tracer.started == tracer.finished == 2
        by_id = {r["job_id"]: r for r in sink.records}
        assert by_id["doomed"]["verdict"] == "error"
        (chunk,) = spans_named(by_id["doomed"], "chunk")
        assert chunk["status"] == "failed"
        assert "latent decider bug" in chunk["attrs"]["error"]
        assert by_id["fine"]["verdict"] in ("sat", "unsat")
        (fine_chunk,) = spans_named(by_id["fine"], "chunk")
        assert fine_chunk.get("status", "ok") == "ok"


# -- structured logging ----------------------------------------------------------

class TestLogging:
    def test_state_warnings_logged(self, tmp_path, caplog):
        from repro.engine.statetier import PLANS_FILE, read_legacy_json

        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / PLANS_FILE).write_text("not json")
        with caplog.at_level("WARNING", logger="repro"):
            state = read_legacy_json(str(state_dir))
        # the warnings list API survives (test_metamorphic relies on it)
        assert any("unreadable" in w for w in state.warnings)
        assert any("unreadable" in r.message for r in caplog.records)
        assert caplog.records[0].name.startswith("repro.")

    def test_setup_logging_is_idempotent(self, capsys):
        import logging

        from repro.obs.log import ROOT_LOGGER, get_logger, setup_logging

        setup_logging("warning")
        setup_logging("warning")   # second call must not duplicate handlers
        get_logger("obs-test").warning("exactly once")
        captured = capsys.readouterr()
        assert captured.err.count("exactly once") == 1
        handlers = [
            h for h in logging.getLogger(ROOT_LOGGER).handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(handlers) == 1

    def test_log_level_filters(self, capsys):
        from repro.obs.log import get_logger, setup_logging

        setup_logging("error")
        logger = get_logger("obs-test")
        logger.warning("suppressed")
        logger.error("emitted")
        captured = capsys.readouterr()
        assert "suppressed" not in captured.err
        assert "emitted" in captured.err
        setup_logging("warning")   # restore the default for other tests
