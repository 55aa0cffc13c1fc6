"""Engine throughput: cold vs. warm cache, serial vs. parallel.

Not a paper figure — this benchmark guards the batch engine
(`repro.engine`) against cache and routing regressions:

* **cold vs. warm** — a duplicate-heavy workload (the engine's target
  traffic shape) is run twice in one process; the warm pass must hit the
  decision cache instead of re-running ``decide()`` (the acceptance bar
  is ≥ 10× fewer ``decide()`` invocations, asserted here);
* **serial vs. parallel vs. grouped** — a heavy-fragment workload
  (EXPTIME types fixpoint) is run with 1 worker (in-process, per job),
  with per-job dispatch (``group_chunk_size=1, affinity=False``) on a
  process pool, and with the plan-grouped scheduler (the engine's
  defaults) on the same pool; wall-clock per configuration is reported
  and grouped verdicts must match ungrouped ones (see
  ``bench_plan_groups.py`` for the dedicated grouped-throughput
  demonstration).

* **tracing overhead** — the duplicate-heavy workload is run with the
  span tracer off and on; disabled tracing must stay within 5% of the
  untraced wall (the ISSUE acceptance bar, asserted in full mode;
  quick mode uses a looser noise-tolerant bound).

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workload so
the whole file runs in seconds.
"""

from __future__ import annotations

import os
import random
import time

from benchmarks.conftest import format_table
from repro.dtd import random_dtd
from repro.engine import BatchEngine, DecisionCache, SchemaRegistry
from repro.obs import ListSink, Tracer
from repro.workloads import batch_jobs, document_dtd, mid_size_dtd, recursive_chain_dtd
from repro.xpath import fragments as frag

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_JOBS = 200 if QUICK else 1000
N_HEAVY = 16 if QUICK else 80
HEAVY_DTD_TYPES = 32 if QUICK else 64
POOL_WORKERS = (2,) if QUICK else (2, 4)


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register("docs", document_dtd(sections=3))
    registry.register("grid", mid_size_dtd(width=4))
    registry.register("chain", recursive_chain_dtd())
    return registry


def _light_jobs(rng: random.Random, registry: SchemaRegistry, n_jobs: int):
    schemas = {name: registry.get(name).dtd for name in registry.names}
    return batch_jobs(
        rng, schemas, n_jobs,
        fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL),
        duplicate_rate=0.5, variant_rate=0.5,
    )


def _heavy_registry(rng: random.Random) -> SchemaRegistry:
    # large DTDs: the Thm 5.3 types fixpoint scales with |D|, so each
    # pooled job carries enough work (tens of ms) to amortize the fork
    registry = SchemaRegistry()
    for index in range(2):
        registry.register(f"bulk{index}", random_dtd(rng, n_types=HEAVY_DTD_TYPES))
    return registry


def _heavy_jobs(rng: random.Random, registry: SchemaRegistry, n_jobs: int):
    schemas = {name: registry.get(name).dtd for name in registry.names}
    return batch_jobs(
        rng, schemas, n_jobs,
        fragments=(frag.REC_NEG_DOWN, frag.REC_NEG_DOWN_UNION),
        max_depth=3, duplicate_rate=0.1, variant_rate=0.5,
    )


def test_cold_vs_warm(report, rng):
    registry = _registry()
    jobs = _light_jobs(rng, registry, N_JOBS)
    engine = BatchEngine(registry=registry, cache=DecisionCache(capacity=8192))

    cold = engine.run(jobs)
    warm = engine.run(jobs)

    assert cold.stats.decide_calls > 0
    assert warm.stats.decide_calls * 10 <= cold.stats.decide_calls, (
        f"warm pass made {warm.stats.decide_calls} decide() calls vs "
        f"{cold.stats.decide_calls} cold — cache is not absorbing reruns"
    )

    rows = []
    for name, stats in (("cold", cold.stats), ("warm", warm.stats)):
        rate = stats.jobs / stats.elapsed_s if stats.elapsed_s else float("inf")
        rows.append([
            name, stats.jobs, stats.decide_calls, stats.cache_hits,
            f"{stats.elapsed_s * 1e3:.1f} ms", f"{rate:,.0f} jobs/s",
        ])
    report(
        "engine_throughput_cache",
        format_table(
            ["pass", "jobs", "decide()", "cache hits", "wall", "throughput"], rows
        ),
    )


def test_tracing_overhead(report, rng):
    """Span tracing must be paid for only when it is switched on.

    The engine takes ``tracer=None`` by default; every tracing call site
    is behind that None check, so the disabled path adds no span or sink
    work per job.  This test measures both configurations on the
    duplicate-heavy workload and asserts the *enabled* tracer stays
    within a small factor of the untraced wall — if even full tracing is
    cheap, the disabled branch (a None test per pipeline stage) is well
    inside the 5% acceptance bar.  Quick mode keeps a loose bound
    because CI runners are noisy at the sub-100ms scale.
    """
    registry = _registry()
    jobs = _light_jobs(rng, registry, N_JOBS)

    def run_once(tracer):
        engine = BatchEngine(
            registry=registry, cache=DecisionCache(capacity=8192), tracer=tracer
        )
        start = time.perf_counter()
        outcome = engine.run(jobs)
        return outcome, time.perf_counter() - start

    # interleave repetitions so machine noise lands on both configurations
    repeats = 2 if QUICK else 3
    best_off = best_on = float("inf")
    traced_records = 0
    for _ in range(repeats):
        outcome_off, t_off = run_once(None)
        best_off = min(best_off, t_off)
        sink = ListSink()
        outcome_on, t_on = run_once(Tracer(sinks=(sink,)))
        best_on = min(best_on, t_on)
        traced_records = len(sink.records)
        # off: no trace machinery ran at all; on: exactly one finished
        # span tree per job, cache hits and coalesced followers included
        assert outcome_off.stats.jobs == len(jobs)
        assert traced_records == outcome_on.stats.jobs == len(jobs)

    bound = 3.0 if QUICK else 1.5
    assert best_on <= best_off * bound, (
        f"tracing-enabled run took {best_on * 1e3:.1f} ms vs "
        f"{best_off * 1e3:.1f} ms untraced (> {bound:.1f}x) — span "
        "bookkeeping has leaked into the hot path"
    )

    overhead = (best_on / best_off - 1.0) * 100 if best_off else 0.0
    rows = [
        ["off", len(jobs), 0, f"{best_off * 1e3:.1f} ms", "—"],
        ["on", len(jobs), traced_records, f"{best_on * 1e3:.1f} ms",
         f"{overhead:+.1f}%"],
    ]
    report(
        "engine_tracing_overhead",
        format_table(["tracer", "jobs", "records", "best wall", "overhead"], rows)
        + f"\nbest of {repeats} interleaved repetitions per configuration",
    )


def test_serial_vs_parallel(report, rng):
    registry = _heavy_registry(rng)
    jobs = _heavy_jobs(rng, registry, N_HEAVY)

    # serial (inline), then each pool size without and with plan grouping
    configurations = [(1, False)]
    for workers in POOL_WORKERS:
        configurations.append((workers, False))
        configurations.append((workers, True))

    rows = []
    serial_elapsed = None
    verdicts_by_mode: dict[tuple[int, bool], list] = {}
    for workers, grouped in configurations:
        per_job = {} if grouped else {"group_chunk_size": 1, "affinity": False}
        engine = BatchEngine(
            registry=registry, cache=DecisionCache(capacity=8192),
            workers=workers, **per_job,
        )
        start = time.perf_counter()
        outcome = engine.run(jobs)
        elapsed = time.perf_counter() - start
        if workers == 1:
            serial_elapsed = elapsed
        assert outcome.stats.errors == 0
        verdicts_by_mode[(workers, grouped)] = [
            result.satisfiable for result in outcome.results
        ]
        speedup = serial_elapsed / elapsed if elapsed else float("inf")
        rows.append([
            workers, "yes" if grouped else "no", outcome.stats.jobs,
            outcome.stats.decide_calls, outcome.stats.pool_decides,
            outcome.stats.plan_groups, f"{elapsed * 1e3:.1f} ms",
            f"{speedup:.2f}x",
        ])
    # grouping is a scheduling change only: identical verdicts everywhere
    baseline = verdicts_by_mode[(1, False)]
    assert all(verdicts == baseline for verdicts in verdicts_by_mode.values())
    table = format_table(
        ["workers", "grouped", "jobs", "decide()", "pooled", "groups",
         "wall", "vs serial"],
        rows,
    )
    report(
        "engine_throughput_workers",
        table + f"\nhost cpus: {os.cpu_count()} (pool speedup needs > 1 core; "
        "on 1 core the fork/pickle overhead shows as a slowdown; this "
        "workload's long-tail queries form mostly single-job groups — "
        "bench_plan_groups.py demonstrates the grouped win on clustered "
        "traffic)",
    )
