"""The in-process runner: set-up, timed micro-batch phases, and the
per-layer numbers of a traced phase.

A phase feeds fixed-size micro-batches through
``BatchEngine.run(on_result=)``, as ``repro serve`` does.  A job's
latency runs from the batch hand-off to its callback.  The phase clock
counts only time inside ``BatchEngine.run``; drawing the next batch of
fresh questions and recording verdicts happen off the clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from repro.engine.batch import BatchEngine
from repro.obs.trace import Tracer

from layers import DECIDERS, LAYERS, LaneSink, LayerTracer
from measure import Record, percentile
from workloads import MICRO_BATCH

#: cold set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: seconds one cold set-up may take before the run fails
SETUP_TIMEOUT = 120


@dataclass
class RunTotals:
    """Engine counters folded over the runs of one phase."""

    decide_calls: int = 0
    coalesced: int = 0
    chunks: int = 0
    chunk_jobs: int = 0
    dtd_ships: int = 0
    context_hits: int = 0
    respawns: int = 0
    dwell_ms: list[float] = field(default_factory=list)

    def add(self, stats) -> None:
        self.decide_calls += stats.decide_calls
        self.coalesced += stats.coalesced
        self.chunks += stats.plan_groups
        self.chunk_jobs += sum(stats.group_sizes)
        self.dtd_ships += stats.dtd_ships
        self.context_hits += stats.runtime_context_hits
        self.respawns += stats.lane_respawns
        self.dwell_ms.extend(stats.chunk_dwell_ms)


def build_engine(workers: int, schemas, warmup) -> BatchEngine:
    """Engine construction, schema registration and the warm-up
    micro-batches: the work ``setup_s`` times."""
    engine = BatchEngine(workers=workers)
    for name, dtd in schemas.items():
        engine.registry.register(name, dtd)
    for start in range(0, len(warmup), MICRO_BATCH):
        engine.run(warmup[start:start + MICRO_BATCH])
    return engine


def cold_setups(workers: int, schemas, warmup, workdir: str) -> list[float]:
    """Seconds of ``SETUP_REPEATS`` set-ups, each in a fresh process
    (``coldstart.py``) that parses the schemas from their text."""
    spec = os.path.join(workdir, "setup.json")
    with open(spec, "w") as handle:
        json.dump({
            "workers": workers,
            "schemas": {name: dtd.describe() for name, dtd in schemas.items()},
            "warmup": [[job.schema, job.query, job.id] for job in warmup],
        }, handle)
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "coldstart.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, script, spec],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cold set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def run_phase(engine: BatchEngine, batches, seconds: float,
              totals: RunTotals | None = None, phase: Record | None = None,
              layers: LayerTracer | None = None) -> Record:
    """Feed micro-batches until ``seconds`` more of engine time have
    passed, accumulating into ``phase`` (a new one by default).  With
    ``layers``, the result callback is a span of its own, so its
    stamping is kept out of ``engine.batch`` self time."""
    phase = phase if phase is not None else Record()
    stop = phase.seconds + seconds
    while phase.seconds < stop:
        jobs, indices = next(batches)
        stamps: list[float] = []
        stamp = stamps.append

        def on_result(_result) -> None:
            stamp(perf_counter())

        if layers is not None:
            on_result = layers.wrap("perfbench.stamp", on_result)
        start = perf_counter()
        report = engine.run(jobs, on_result=on_result)
        phase.seconds += perf_counter() - start
        phase.jobs += len(jobs)
        phase.failed += len(jobs) - len(stamps)
        phase.latencies_ms.extend([(moment - start) * 1e3 for moment in stamps])
        for index, result in zip(indices, report.results):
            if result.error is not None:
                phase.failed += 1
            else:
                phase.answer(index, result.satisfiable)
        if totals is not None:
            totals.add(engine.last_stats)
    return phase


def traced_phase(engine: BatchEngine, batches, seconds: float, rounds: int = 4):
    """Alternate untraced and traced slices (``rounds`` of each, half of
    ``seconds`` per side), so drift over the run lands on both sides of
    ``obs.trace.overhead_ratio``.  Traced slices run with the layer
    wrappers installed, plus the engine's tracer when lanes run work out
    of process.  Returns the untraced phase, the traced phase, the layer
    tracer, the lane sink, the run totals of the traced phase, and its
    cache and planner counter deltas."""
    plain, traced = Record(), Record()
    layers = LayerTracer()
    lanes = LaneSink()
    totals = RunTotals()
    deltas = {"evictions": 0, "builds": 0}
    slice_s = seconds / (2 * rounds)
    for _ in range(rounds):
        run_phase(engine, batches, slice_s, phase=plain)
        if engine.workers > 1:
            engine.tracer = Tracer(sinks=[lanes])
        evictions_before = engine.cache.evictions
        builds_before = engine.planner.invocations
        layers.install()
        try:
            run_phase(engine, batches, slice_s, totals, phase=traced, layers=layers)
        finally:
            layers.remove()
            engine.tracer = None
        deltas["evictions"] += engine.cache.evictions - evictions_before
        deltas["builds"] += engine.planner.invocations - builds_before
    return plain, traced, layers, lanes, totals, deltas


def layer_metrics(plain: Record, phase: Record, layers: LayerTracer, lanes: LaneSink,
                  totals: RunTotals, deltas: dict) -> dict[str, float]:
    """The per-layer metrics of one traced phase, and its throughput over
    that of the untraced slices run alongside.  Counts and times are per
    job, so a faster engine (more jobs in the same slices) does not read
    as more work."""
    jobs = max(phase.jobs, 1)

    def per_job(value: float) -> float:
        return value / jobs

    metrics: dict[str, float] = {}
    for layer in ("xpath.parser", "xpath.canonical"):
        metrics[f"{layer}.calls"] = per_job(layers.calls[layer])
        metrics[f"{layer}.self_ms"] = per_job(layers.self_time[layer] * 1e3)
    gets = layers.counts["cache.gets"]
    metrics["engine.cache.gets"] = per_job(gets)
    metrics["engine.cache.hit_ratio"] = layers.counts["cache.hits"] / gets if gets else 0.0
    metrics["engine.cache.puts"] = per_job(layers.counts["cache.puts"])
    metrics["engine.cache.evictions"] = per_job(deltas["evictions"])
    metrics["engine.cache.self_ms"] = per_job(layers.self_time["engine.cache"] * 1e3)
    metrics["sat.planner.plan_calls"] = per_job(layers.counts["planner.plan_calls"])
    metrics["sat.planner.builds"] = per_job(deltas["builds"])
    metrics["sat.planner.self_ms"] = per_job(layers.self_time["sat.planner"] * 1e3)
    attempts = conclusive = 0
    for name in DECIDERS:
        layer = f"sat.decider.{name}"
        count = layers.calls.get(layer, 0) + lanes.attempts.get(name, 0)
        attempts += count
        conclusive += layers.conclusive.get(name, 0)
        metrics[f"{layer}.attempts"] = per_job(count)
        metrics[f"{layer}.ms"] = per_job(
            layers.self_time.get(layer, 0.0) * 1e3 + lanes.attempt_ms.get(name, 0.0)
        )
    conclusive += lanes.conclusive
    metrics["sat.decider.useful_ratio"] = conclusive / attempts if attempts else 0.0
    prepare_calls = layers.calls["sat.prepare"] + lanes.prepare_calls
    metrics["sat.prepare.calls"] = per_job(prepare_calls)
    metrics["sat.prepare.ms"] = per_job(
        layers.total["sat.prepare"] * 1e3 + lanes.prepare_ms
    )
    metrics["sat.prepare.per_decide"] = (
        prepare_calls / totals.decide_calls if totals.decide_calls else 0.0
    )
    chunks = totals.chunks
    metrics["engine.executors.chunks"] = per_job(chunks)
    metrics["engine.executors.jobs_per_chunk"] = totals.chunk_jobs / chunks if chunks else 0.0
    metrics["engine.executors.dwell_ms_p50"] = percentile(totals.dwell_ms, 0.5)
    metrics["engine.executors.dwell_ms_p99"] = percentile(totals.dwell_ms, 0.99)
    chunk_count = layers.counts["chunks.runs"] + lanes.chunks
    metrics["engine.executors.chunk_ms"] = (
        (layers.counts["chunks.ms"] + lanes.chunk_ms) / chunk_count if chunk_count else 0.0
    )
    metrics["engine.executors.dtd_ships"] = per_job(totals.dtd_ships)
    metrics["engine.executors.context_hit_ratio"] = (
        totals.context_hits / chunks if chunks else 0.0
    )
    metrics["engine.executors.respawns"] = per_job(totals.respawns)
    metrics["engine.executors.self_ms"] = per_job(
        layers.self_time["engine.executors"] * 1e3
    )
    metrics["engine.batch.self_ms"] = per_job(layers.self_time["engine.batch"] * 1e3)
    metrics["engine.batch.coalesced"] = per_job(totals.coalesced)
    metrics["obs.trace.overhead_ratio"] = phase.jobs_per_s / plain.jobs_per_s
    return metrics


def breakdown(phase: Record, layers: LayerTracer) -> list[tuple[str, int, float]]:
    """(layer, calls, self ms per job) rows, busiest first.

    ``engine.batch`` wraps the whole of ``BatchEngine.run``, so its self
    time is the unattributed remainder: engine time no named layer (nor
    the benchmark's own ``perfbench.stamp`` callback) covers."""
    jobs = max(phase.jobs, 1)
    rows = [
        (layer, layers.calls[layer], layers.self_time[layer] * 1e3 / jobs)
        for layer in LAYERS if layers.calls.get(layer)
    ]
    rows.sort(key=lambda row: -row[2])
    return rows
