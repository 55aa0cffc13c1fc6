"""Plan-grouped batch scheduling: grouped vs. per-job dispatch.

Not a paper figure — this benchmark demonstrates (and guards) the
engine's plan-grouped scheduler on its target traffic shape: a large
batch of **heavy** (EXPTIME/NEXPTIME-routed) jobs sharing a handful of
schemas.  Ungrouped (per-job) dispatch — ``group_chunk_size=1,
affinity=False``: chunks of one on stateless lane runtimes — pays per
job for worker IPC, DTD (un)pickling, the termination fixpoint, and the
per-plan schema analysis (classification predicates, content-model word
tables); grouped dispatch (the engine's defaults) cuts each schema's
jobs into chunks of ``group_chunk_size``, runs each chunk as one task —
on a lane, or in the engine when every lane already holds
``lane_queue_depth`` chunks — and shares the decider chain's
``prepare`` contexts across the chunk's jobs, paying all of that once
per chunk.

Asserted invariants:

* verdicts are **bit-identical** between grouped and ungrouped dispatch
  (grouping is a scheduling change, never a semantic one);
* grouped dispatch forms groups and reuses setup, and ungrouped dispatch
  runs chunks of one with no shared or warm setup (counter checks);
* in full mode (not ``REPRO_BENCH_QUICK``), grouped throughput is at
  least **1.3×** ungrouped on the 96-job heavy workload — the PR's
  acceptance bar, with ample headroom (3.45× in one run on a 2-core
  host with per-schema chunks of 4; per-plan chunks of 16 read
  5.0-6.5× over three runs).

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workload
and asserts only the deterministic counters and verdict equality, so CI
never flakes on wall-clock noise.
"""

from __future__ import annotations

import os
import random
import time

from benchmarks.conftest import format_table
from repro.dtd import random_dtd
from repro.engine import BatchEngine, DecisionCache, Job, SchemaRegistry
from repro.workloads.queries import random_query
from repro.xpath import fragments as frag
from repro.xpath.fragments import Feature, features_of

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_JOBS = 24 if QUICK else 96
N_TYPES = 48 if QUICK else 96
WORKERS = 2
SPEEDUP_BAR = 1.3

#: heavy fragments: negation routes to the Thm 5.3 types fixpoint
#: (EXPTIME), data+negation to the Thm 5.5 small-model search (NEXPTIME)
HEAVY_FRAGMENTS = (frag.DATA_NEG_DOWN, frag.CHILD_QUAL_NEG, frag.REC_NEG_DOWN)


def _schemas() -> dict:
    """Two large star-free, nonrecursive schemas — few schemas, many
    jobs, exactly the clustering arXiv:1308.0769 reports for real DTD
    workloads."""
    return {
        f"bulk{index}": random_dtd(
            random.Random(100 + index), n_types=N_TYPES,
            allow_star=False, allow_recursion=False,
        )
        for index in range(2)
    }


def _heavy_jobs(rng: random.Random, schemas: dict, n_jobs: int) -> list[Job]:
    """Jobs that all route to the heavy procedures: random queries from
    the heavy fragments, kept only when they actually use negation or
    data (a depth-1 draw can degrade to a plain PTIME path)."""
    names = sorted(schemas)
    jobs: list[Job] = []
    while len(jobs) < n_jobs:
        name = rng.choice(names)
        fragment = rng.choice(HEAVY_FRAGMENTS)
        query = random_query(
            rng, fragment, sorted(schemas[name].element_types), max_depth=1
        )
        features = features_of(query)
        if Feature.NEGATION not in features and Feature.DATA not in features:
            continue
        jobs.append(Job(query=str(query), schema=name, id=f"job-{len(jobs)}"))
    return jobs


def _run(schemas: dict, jobs: list[Job], grouped: bool):
    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    per_job = {} if grouped else {"group_chunk_size": 1, "affinity": False}
    engine = BatchEngine(
        registry=registry, cache=DecisionCache(capacity=8192),
        workers=WORKERS, **per_job,
    )
    start = time.perf_counter()
    outcome = engine.run(jobs)
    elapsed = time.perf_counter() - start
    return elapsed, outcome


def test_grouped_vs_ungrouped(report, rng):
    schemas = _schemas()
    jobs = _heavy_jobs(rng, schemas, N_JOBS)

    grouped_elapsed, grouped = _run(schemas, jobs, grouped=True)
    ungrouped_elapsed, ungrouped = _run(schemas, jobs, grouped=False)

    # grouping must never change a verdict
    assert [(r.id, r.satisfiable) for r in grouped.results] == [
        (r.id, r.satisfiable) for r in ungrouped.results
    ], "grouped dispatch changed a verdict"
    assert grouped.stats.errors == 0 and ungrouped.stats.errors == 0
    assert grouped.stats.decide_calls == ungrouped.stats.decide_calls

    # the scheduler actually grouped and shared setup: every decided job
    # ran in a chunk, on a lane or, when every lane was full, in the
    # engine, and the lanes took chunks
    assert grouped.stats.plan_groups >= 2
    assert grouped.stats.grouped_jobs == (
        grouped.stats.pool_decides + grouped.stats.inline_decides
    )
    assert grouped.stats.pool_decides >= 1
    assert grouped.stats.setup_reuse >= grouped.stats.plan_groups
    assert set(ungrouped.stats.group_sizes) == {1}
    assert ungrouped.stats.setup_reuse == 0
    assert ungrouped.stats.runtime_context_hits == 0

    speedup = ungrouped_elapsed / grouped_elapsed if grouped_elapsed else float("inf")
    rows = []
    for name, elapsed, stats in (
        ("grouped", grouped_elapsed, grouped.stats),
        ("ungrouped", ungrouped_elapsed, ungrouped.stats),
    ):
        rate = stats.jobs / elapsed if elapsed else float("inf")
        rows.append([
            name, stats.jobs, stats.pool_decides, stats.inline_decides,
            stats.plan_groups, stats.setup_reuse, f"{elapsed * 1e3:.1f} ms",
            f"{rate:,.0f} jobs/s",
        ])
    table = format_table(
        ["dispatch", "jobs", "pooled", "in engine", "groups", "setup reuse",
         "wall", "throughput"],
        rows,
    )
    report(
        "plan_groups",
        table + f"\ngrouped speedup: {speedup:.2f}x over ungrouped "
        f"({N_JOBS} heavy jobs, {len(schemas)} schemas of {N_TYPES} types, "
        f"{WORKERS} workers, p50 {grouped.stats.jobs_per_group(0.5)} / "
        f"p90 {grouped.stats.jobs_per_group(0.9)} jobs per group)",
    )
    if not QUICK:
        assert speedup >= SPEEDUP_BAR, (
            f"grouped dispatch {speedup:.2f}x ungrouped — below the "
            f"{SPEEDUP_BAR}x acceptance bar"
        )


def test_shared_setup_pays_once_inline(report):
    """Even without a pool (1 worker), a group shares one prepare():
    the counters prove N jobs paid setup once."""
    schemas = _schemas()
    jobs = _heavy_jobs(random.Random(7), schemas, 12)
    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    engine = BatchEngine(registry=registry, workers=1)
    outcome = engine.run(jobs)
    assert outcome.stats.errors == 0
    assert outcome.stats.prepare_fallbacks == 0
    assert outcome.stats.plan_groups >= 1
    assert outcome.stats.grouped_jobs >= outcome.stats.plan_groups
    assert (
        outcome.stats.setup_reuse
        == outcome.stats.grouped_jobs - outcome.stats.plan_groups
    )
