"""Cost-based routing vs. static ``cost_rank`` order.

Not a paper figure — this benchmark demonstrates (and guards) the
planner's measured cost model (:mod:`repro.sat.costmodel`):

* **small-schema negation workload** — distinct ``X(↓,[],¬)`` questions
  over a three-type random DTD whose static chain runs the Theorem 5.3
  types fixpoint (``exptime_types``) first and the Theorem 5.5
  small-model search (``nexptime``) second.  At this schema size the
  small-model search decides the same questions 2-3x faster; parsing,
  planning and caching, which both orders pay, dilute that to about
  1.2-1.5x end to end.  After a calibration pass feeds measured
  latencies into the
  :class:`~repro.sat.costmodel.CostModel`, the cost-ordered chain must
  beat the static order on wall time: the median of interleaved
  trials, each on fresh engines, must be at least 1.1x faster;
* **verdict preservation** — both orders must return identical verdicts
  on the full workload in every trial (the metamorphic contract of chain
  reordering).

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workload so
the whole file runs in seconds.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from collections import Counter

from benchmarks.conftest import format_table
from repro.dtd.generator import random_dtd
from repro.engine import BatchEngine, DecisionCache, SchemaRegistry
from repro.sat import CostModel, Planner, calibrate
from repro.workloads.queries import random_query
from repro.xpath import fragments as frag
from repro.xpath.canonical import canonicalize
from repro.xpath.parser import parse_query

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_QUERIES = 60 if QUICK else 200
N_CALIBRATION = 6 if QUICK else 12
#: interleaved (static, cost-model) trial pairs; the bar is on medians
N_TRIALS = 5 if QUICK else 9

#: the static decider chain of every workload question
STATIC_CHAIN = ("exptime_types", "nexptime")


def _schema():
    """``r -> E1 + E2; E1 -> E2; E2 -> eps`` (``random_dtd`` seed 103)."""
    return random_dtd(random.Random(103), n_types=3)


def _workload(rng, dtd, count: int) -> list[tuple[str, str]]:
    """``count`` (query, signature) pairs: distinct questions (duplicates
    would hide decide time behind the decision cache) whose static plan
    is :data:`STATIC_CHAIN`."""
    labels = sorted(dtd.element_types)
    planner = Planner()
    seen: set[str] = set()
    questions: list[tuple[str, str]] = []
    while len(questions) < count:
        query = random_query(rng, frag.CHILD_QUAL_NEG, labels, max_depth=3)
        canonical = canonicalize(query)
        if str(canonical) in seen:
            continue
        seen.add(str(canonical))
        plan = planner.plan_query(canonical, dtd=dtd)
        if (plan.decider,) + plan.fallbacks == STATIC_CHAIN:
            questions.append((str(query), plan.signature))
    return questions


def _run(dtd, jobs, planner=None):
    """One run on a fresh engine: (seconds, verdicts, stats, plan cache)."""
    registry = SchemaRegistry()
    registry.register("small", dtd)
    engine = BatchEngine(
        registry=registry, cache=DecisionCache(capacity=8192), planner=planner
    )
    try:
        start = time.perf_counter()
        outcome = engine.run(jobs)
        elapsed = time.perf_counter() - start
        plans = dict(registry.get("small").plan_cache)
    finally:
        engine.close()
    assert outcome.stats.errors == 0
    verdicts = [result.satisfiable for result in outcome.results]
    return elapsed, verdicts, outcome.stats, plans


def _calibrated_model(dtd, questions) -> CostModel:
    """Measure every chain member on the first few questions of each
    feature signature."""
    model = CostModel(min_samples=3)
    by_signature: dict[str, list] = {}
    for text, signature in questions:
        by_signature.setdefault(signature, []).append(parse_query(text))
    planner = Planner()
    for sample in by_signature.values():
        plan = planner.plan_query(sample[0], dtd=dtd)
        calibrate(model, plan, sample[:N_CALIBRATION], dtd)
    return model


def test_cost_based_routing_beats_static_on_small_schemas(report):
    dtd = _schema()
    questions = _workload(random.Random(20250730), dtd, N_QUERIES)
    jobs = [(text, "small") for text, _ in questions]
    model = _calibrated_model(dtd, questions)

    static_times: list[float] = []
    cost_times: list[float] = []
    for _ in range(N_TRIALS):
        elapsed, static_verdicts, static_stats, static_plans = _run(dtd, jobs)
        static_times.append(elapsed)
        elapsed, cost_verdicts, cost_stats, cost_plans = _run(
            dtd, jobs, planner=Planner(cost_model=model)
        )
        cost_times.append(elapsed)
        # reordering the chain must not change a single verdict
        assert cost_verdicts == static_verdicts

    # the model must actually have changed the routing decision...
    dominant = Counter(signature for _, signature in questions).most_common(1)[0][0]
    static_plan, cost_plan = static_plans[dominant], cost_plans[dominant]
    assert static_plan.decider == "exptime_types"
    assert cost_plan.decider != static_plan.decider
    for signature, plan in static_plans.items():
        chain = cost_plans[signature]
        assert set((chain.decider,) + chain.fallbacks) \
            == set((plan.decider,) + plan.fallbacks)
    # ...and the measured order must win on median wall time (ten quick
    # runs on a 2-vCPU host measured 1.18-1.47x against this 1.1x bar)
    static_median = statistics.median(static_times)
    cost_median = statistics.median(cost_times)
    assert cost_median * 1.1 < static_median, (
        f"cost-based routing (median {cost_median * 1e3:.1f} ms) should "
        f"beat static ranking (median {static_median * 1e3:.1f} ms)"
    )

    rows = [
        [
            "static cost_rank", static_plan.decider, static_stats.decide_calls,
            f"{static_median * 1e3:.1f} ms",
            f"{len(jobs) / static_median:,.0f}/s", "1.00x",
        ],
        [
            "cost model", cost_plan.decider, cost_stats.decide_calls,
            f"{cost_median * 1e3:.1f} ms",
            f"{len(jobs) / cost_median:,.0f}/s",
            f"{static_median / cost_median:.2f}x",
        ],
    ]
    table = format_table(
        ["ranking", "primary decider", "decide()", "median wall", "throughput",
         "speedup"],
        rows,
    )
    report(
        "cost_model_small_schema",
        table + f"\n({len(jobs)} distinct X(child,qual,neg) jobs, "
        f"|D|={dtd.size()}, {N_CALIBRATION} calibration queries per "
        f"signature, median of {N_TRIALS} interleaved trials)",
    )


def test_engine_retune_uses_own_measurements(report):
    """The closed loop without an explicit calibration pass: the engine's
    first run feeds its own cost model; after ``retune()`` the replanned
    chain must still agree on every verdict."""
    dtd = _schema()
    questions = _workload(random.Random(7), dtd, N_QUERIES // 2)
    jobs = [(text, "small") for text, _ in questions]
    dominant = Counter(signature for _, signature in questions).most_common(1)[0][0]

    registry = SchemaRegistry()
    registry.register("small", dtd)
    engine = BatchEngine(registry=registry, cache=DecisionCache(capacity=8192))
    try:
        start = time.perf_counter()
        first = engine.run(jobs)
        first_elapsed = time.perf_counter() - start
        before = registry.get("small").plan_cache[dominant]

        engine.retune()
        engine.cache.clear()
        start = time.perf_counter()
        second = engine.run(jobs)
        second_elapsed = time.perf_counter() - start
        after = registry.get("small").plan_cache[dominant]
    finally:
        engine.close()

    assert first.stats.errors == second.stats.errors == 0
    assert [r.satisfiable for r in second.results] \
        == [r.satisfiable for r in first.results]
    assert after.costs  # replanned against measurements
    table = format_table(
        ["pass", "primary decider", "wall"],
        [
            ["first (static)", before.decider, f"{first_elapsed * 1e3:.1f} ms"],
            ["after retune", after.decider, f"{second_elapsed * 1e3:.1f} ms"],
        ],
    )
    report("cost_model_retune", table)
