"""Planner overhead: cold vs. plan-cached routing, batch grouping.

Not a paper figure — this benchmark guards the query planner
(`repro.sat.planner`) against routing-cost regressions:

* **cold vs. plan-cached routing** — planning latency per query for the
  first query of each (feature signature × schema) versus every later
  one; the warm path is a single dictionary lookup on the schema's
  artifact record and must be at least 5× cheaper per call, on the
  medians of ``TRIALS`` cold and ``TRIALS`` warm trials (one cold pass
  is about 0.6 ms of work, too little for a bar on a single timing);
* **batch grouping throughput** — a duplicate-heavy workload runs through
  the :class:`~repro.engine.batch.BatchEngine` twice against the same
  :class:`~repro.engine.registry.SchemaRegistry` with a fresh decision
  cache, so the second pass re-routes every job; it must do so with
  **zero planner invocations** (asserted here — this is the plan cache's
  contract), and per-pass jobs/s plus the inline/pool plan grouping are
  reported.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workload so
the whole file runs in seconds.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import format_table, timing_summary
from repro.engine import BatchEngine, DecisionCache, SchemaRegistry
from repro.sat.planner import Planner
from repro.workloads import batch_jobs, document_dtd, mid_size_dtd, recursive_chain_dtd
from repro.xpath import fragments as frag
from repro.xpath.fragments import feature_signature, features_of
from repro.xpath.parser import parse_query

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_JOBS = 200 if QUICK else 1000
N_ROUTE_QUERIES = 200 if QUICK else 2000
ROUTE_REPEATS = 3 if QUICK else 10
#: cold and warm trials each; the 5x bar compares their medians
TRIALS = 7


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register("docs", document_dtd(sections=3))
    registry.register("grid", mid_size_dtd(width=4))
    registry.register("chain", recursive_chain_dtd())
    return registry


def _route_workload(rng, registry: SchemaRegistry, n_queries: int):
    """(features, artifacts) pairs spanning every fragment the planner
    distinguishes, pre-parsed so timings isolate routing."""
    schemas = {name: registry.get(name).dtd for name in registry.names}
    jobs = batch_jobs(
        rng, schemas, n_queries,
        fragments=(
            frag.DOWNWARD, frag.DOWNWARD_QUAL, frag.CHILD_UP,
            frag.REC_NEG_DOWN, frag.DATA_NEG_DOWN,
        ),
        duplicate_rate=0.0,
    )
    return [
        (features_of(parse_query(job.query_text)), registry.get(job.schema))
        for job in jobs
        if job.schema is not None
    ]


def test_cold_vs_cached_routing(report, rng):
    registry = _registry()
    workload = _route_workload(rng, registry, N_ROUTE_QUERIES)

    # cold: each distinct (signature x schema) planned exactly once by a
    # fresh planner over cleared plan caches, so every timed call is a
    # real registry scan
    distinct = {
        (feature_signature(features), artifacts.fingerprint): (features, artifacts)
        for features, artifacts in workload
    }
    # each round times one cold pass and then one warm pass, so both
    # medians see the same host conditions
    cold_ms, warm_ms = [], []
    for _ in range(TRIALS):
        for _, artifacts in workload:
            artifacts.plan_cache.clear()
        cold_planner = Planner()
        start = time.perf_counter()
        for features, artifacts in distinct.values():
            cold_planner.plan_for(features, artifacts=artifacts)
        cold_ms.append((time.perf_counter() - start) * 1e3)
        assert cold_planner.invocations == len(distinct)

        # warm: identical routing questions against the populated caches
        warm_planner = Planner()
        start = time.perf_counter()
        for _ in range(ROUTE_REPEATS):
            for features, artifacts in workload:
                warm_planner.plan_for(features, artifacts=artifacts)
        warm_ms.append((time.perf_counter() - start) * 1e3 / ROUTE_REPEATS)
        assert warm_planner.invocations == 0
        assert warm_planner.cache_hits == ROUTE_REPEATS * len(workload)

    cold, warm = timing_summary(cold_ms), timing_summary(warm_ms)
    cold_us = cold["median"] / len(distinct) * 1e3
    warm_us = warm["median"] / len(workload) * 1e3
    assert warm_us * 5 <= cold_us, (
        f"plan-cache lookup ({warm_us:.2f}us, median of {TRIALS}) should be "
        f">=5x cheaper than cold planning ({cold_us:.2f}us, median of {TRIALS})"
    )
    table = format_table(
        ["phase", "routings", "plans built", "median", "IQR", "per routing"],
        [
            ["cold", len(distinct), len(distinct),
             f"{cold['median']:.3f} ms", f"{cold['iqr']:.3f} ms",
             f"{cold_us:.2f} us"],
            ["plan-cached", len(workload), 0,
             f"{warm['median']:.3f} ms", f"{warm['iqr']:.3f} ms",
             f"{warm_us:.2f} us"],
        ],
    ) + f"\n{TRIALS} trials per phase; ratio {cold_us / warm_us:.1f}x (bar 5x)"
    report("planner_overhead_routing", table)


def test_batch_grouping_throughput(report, rng):
    registry = _registry()
    schemas = {name: registry.get(name).dtd for name in registry.names}
    jobs = batch_jobs(
        rng, schemas, N_JOBS,
        fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL, frag.CHILD_UP),
        duplicate_rate=0.5, variant_rate=0.5,
    )

    rows = []
    for label in ("cold", "warm plans"):
        # a fresh decision cache each pass forces full routing + deciding;
        # only the plan caches (on the registry's artifacts) stay warm
        engine = BatchEngine(registry=registry, cache=DecisionCache(capacity=8192))
        start = time.perf_counter()
        outcome = engine.run(jobs)
        elapsed = time.perf_counter() - start
        assert outcome.stats.errors == 0
        if label != "cold":
            # acceptance: warm runs resolve routing entirely from the
            # plan cache — zero planner invocations
            assert outcome.stats.planner_invocations == 0
        inline = sum(1 for r in outcome.results if r.route == "inline")
        pooled = sum(1 for r in outcome.results if r.route == "pool")
        rows.append([
            label, outcome.stats.jobs, outcome.stats.decide_calls,
            outcome.stats.planner_invocations, outcome.stats.plan_cache_hits,
            f"{inline}/{pooled}",
            f"{elapsed * 1e3:.1f} ms", f"{outcome.stats.jobs / elapsed:,.0f}/s",
        ])
    table = format_table(
        ["pass", "jobs", "decide()", "plans built", "plan hits",
         "inline/pool", "wall", "throughput"],
        rows,
    )
    report("planner_overhead_batch", table)
