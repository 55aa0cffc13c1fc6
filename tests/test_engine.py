"""Tests for the batch decision engine (:mod:`repro.engine`)."""

from __future__ import annotations

import random
import threading

import pytest

from repro.dtd import parse_dtd
from repro.engine import (
    BatchEngine,
    DecisionCache,
    EngineStats,
    Job,
    SchemaRegistry,
    decision_key,
    read_jobs,
    read_jobs_file,
    schema_fingerprint,
    write_jobs_file,
    write_results_file,
)
from repro.engine.cache import NO_SCHEMA, CachedDecision
from repro.errors import EngineError
from repro.obs.trace import ListSink, Tracer
from repro.sat import Planner, decide
from repro.workloads import batch_jobs, document_dtd
from repro.xpath import parse_query
from repro.xpath import fragments as frag
from repro.xpath.fragments import features_of

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


@pytest.fixture
def registry():
    registry = SchemaRegistry()
    registry.register("threesat", THREESAT_DTD)
    registry.register("disjfree", DISJFREE_DTD)
    registry.register("docs", document_dtd())
    return registry


# -- fingerprints and the registry ----------------------------------------------

class TestSchemaRegistry:
    def test_fingerprint_ignores_formatting(self):
        reordered = """
        # same schema, different spelling
        X3 -> T + F
        X1 -> T + F
        root r
        T -> eps
        r -> X1, X2, X3
        F -> eps
        X2 -> T + F
        """
        assert schema_fingerprint(parse_dtd(THREESAT_DTD)) == schema_fingerprint(
            parse_dtd(reordered)
        )

    def test_fingerprint_separates_content(self):
        assert schema_fingerprint(parse_dtd(THREESAT_DTD)) != schema_fingerprint(
            parse_dtd(DISJFREE_DTD)
        )

    def test_same_content_shares_artifacts(self, registry):
        before = registry.stats()["builds"]
        again = registry.register("threesat-alias", THREESAT_DTD)
        assert again is registry.get("threesat")
        assert registry.stats()["builds"] == before
        assert registry.stats()["dedup_hits"] == 1

    def test_lookup_by_name_and_fingerprint(self, registry):
        artifacts = registry.get("disjfree")
        assert registry.get(artifacts.fingerprint) is artifacts
        assert "disjfree" in registry
        assert len(registry) == 3

    def test_unknown_reference(self, registry):
        with pytest.raises(EngineError, match="unknown schema"):
            registry.get("nope")

    def test_artifacts_precompute_classification(self, registry):
        artifacts = registry.get("disjfree")
        assert artifacts.disjunction_free is True
        assert artifacts.nonrecursive is True
        assert registry.get("threesat").disjunction_free is False
        assert artifacts.graph.children("A") == frozenset({"C"})

    def test_normalized_form_cached(self, registry):
        artifacts = registry.get("threesat")
        assert artifacts.normalized is artifacts.normalized
        assert artifacts.normalized.original is artifacts.dtd


# -- the decision cache ----------------------------------------------------------

class TestDecisionCache:
    def test_hit_miss_eviction_counters(self):
        cache = DecisionCache(capacity=2)
        k1 = ("q1", "s")
        k2 = ("q2", "s")
        k3 = ("q3", "s")
        answer = CachedDecision(True, "m")
        assert cache.get(k1) is None
        cache.put(k1, answer)
        cache.put(k2, answer)
        assert cache.get(k1) == answer        # refreshes recency of k1
        cache.put(k3, answer)                 # evicts k2 (least recent)
        assert cache.get(k2) is None
        assert cache.get(k1) == answer
        assert (cache.hits, cache.misses, cache.evictions) == (2, 2, 1)
        assert len(cache) == 2
        assert cache.stats()["hit_rate"] == 0.5

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DecisionCache(capacity=0)

    def test_key_unifies_syntactic_variants(self):
        fingerprint = "f" * 64
        assert decision_key(parse_query("A[B and C]"), fingerprint) == decision_key(
            parse_query("A[C and B]"), fingerprint
        )
        assert decision_key(parse_query("A | A"), fingerprint) == decision_key(
            parse_query("A"), fingerprint
        )
        assert decision_key(parse_query("A"), fingerprint) != decision_key(
            parse_query("B"), fingerprint
        )

    def test_key_separates_schemas(self):
        query = parse_query("A")
        assert decision_key(query, "a" * 64) != decision_key(query, "b" * 64)
        assert decision_key(query, None)[1] == NO_SCHEMA

    def test_key_separates_bounds(self):
        # an 'unknown' cached under tight bounds must not answer an
        # engine configured with larger ones
        from repro.sat import Bounds

        query = parse_query("A")
        fingerprint = "f" * 64
        tight = decision_key(query, fingerprint, Bounds(max_depth=2))
        large = decision_key(query, fingerprint, Bounds(max_depth=9))
        assert tight != large
        assert decision_key(query, fingerprint) == decision_key(query, fingerprint)


# -- routing ---------------------------------------------------------------------

def _route(query, artifacts) -> str:
    """``"inline"`` for a PTIME plan, ``"pool"`` for a heavy one."""
    return Planner().plan_query(query, artifacts=artifacts).route


class TestPlanRoute:
    def test_ptime_fragments_inline(self, registry):
        threesat = registry.get("threesat")
        assert _route(parse_query("X1 | **/T"), threesat) == "inline"
        assert _route(parse_query("X1/>/X2"), threesat) == "inline"
        assert _route(parse_query("A[B]"), None) == "inline"
        assert _route(parse_query("A[@a = '1']"), None) == "inline"

    def test_heavy_fragments_pooled(self, registry):
        threesat = registry.get("threesat")
        assert _route(parse_query("X1[not(T)]"), threesat) == "pool"
        assert _route(parse_query("X1[not(@a = '1')]"), threesat) == "pool"
        assert _route(parse_query("A[not(B)]"), None) == "pool"

    def test_disjunction_free_qualifiers_inline(self, registry):
        disjfree = registry.get("disjfree")
        assert _route(parse_query("A[C]"), disjfree) == "inline"
        assert _route(parse_query("A[not(C)]"), disjfree) == "pool"
        # threesat has disjunction but is duplicate-free: qualifiers stay
        # inline on the trait-gated realworld path (PR 9)
        assert _route(parse_query("A[C]"), registry.get("threesat")) == "inline"
        # a schema outside every PTIME class still pools qualifier queries
        registry.register(
            "unrestrained", "root r\nr -> (A, B) + (A, C)\nA -> eps\nB -> eps\nC -> eps"
        )
        assert _route(parse_query("A[C]"), registry.get("unrestrained")) == "pool"


# -- the batch engine ------------------------------------------------------------

class TestBatchEngine:
    def test_end_to_end(self, registry):
        engine = BatchEngine(registry=registry)
        report = engine.run([
            Job("X1[T and F]", "threesat", id="contradiction"),
            Job("sec1/para", "docs"),
            {"query": "A[C]", "schema": "disjfree"},
            ("X1/T", "threesat"),
            "A[B]",                                   # bare string: no DTD
        ])
        assert [r.satisfiable for r in report.results] == [
            False, True, True, True, True
        ]
        assert report.results[0].id == "contradiction"
        assert report.results[0].fingerprint == registry.get("threesat").fingerprint
        assert report.results[4].schema is None
        assert report.stats.jobs == 5
        assert report.stats.decide_calls == 5
        assert report.verdict_counts() == {
            "sat": 4, "unsat": 1, "unknown": 0, "error": 0
        }

    def test_variants_share_cache_within_a_run(self, registry):
        # heavy (pool-route) variants coalesce into one plan-group entry;
        # either way the question is decided exactly once
        engine = BatchEngine(registry=registry)
        report = engine.run([
            Job("X1[T and F]", "threesat"),
            Job("X1[F and T]", "threesat"),
            Job("X1[T and F] | X1[T and F]", "threesat"),
        ])
        assert report.stats.decide_calls == 1
        assert report.stats.cache_hits + report.stats.coalesced == 2
        assert [r.satisfiable for r in report.results] == [False, False, False]
        assert report.results[1].cached is True

    def test_variants_share_cache_across_runs(self, registry):
        # the decision cache still absorbs variants once the group's
        # verdict has landed: a second run re-decides nothing
        engine = BatchEngine(registry=registry)
        engine.run([Job("X1[T and F]", "threesat")])
        report = engine.run([
            Job("X1[F and T]", "threesat"),
            Job("X1[T and F] | X1[T and F]", "threesat"),
        ])
        assert report.stats.decide_calls == 0
        assert report.stats.cache_hits == 2
        assert report.results[0].route == "cache"

    def test_warm_rerun_skips_decide(self, registry):
        engine = BatchEngine(registry=registry)
        jobs = [Job("X1[T]", "threesat"), Job("A[C]", "disjfree"), Job("sec1", "docs")]
        cold = engine.run(jobs)
        warm = engine.run(jobs)
        assert cold.stats.decide_calls == 3
        assert warm.stats.decide_calls == 0
        assert warm.stats.cache_hits == 3
        assert [r.satisfiable for r in warm.results] == [
            r.satisfiable for r in cold.results
        ]

    def test_non_string_query_is_a_job_error(self, registry):
        report = BatchEngine(registry=registry).run([
            {"query": 5},                    # valid JSON, wrong type
            {"query": ["a", "list"]},
            Job("X1", "threesat"),
        ])
        assert report.stats.errors == 2
        assert "XPath string" in report.results[0].error
        assert report.results[2].satisfiable is True

    def test_coerce_rejects_malformed_tuples(self):
        with pytest.raises(EngineError, match="job tuple"):
            Job.coerce(("q", "s", "id", "extra"))
        with pytest.raises(EngineError, match="schema must be a string"):
            Job.coerce(("q", 42))

    def test_error_jobs_are_recorded_not_raised(self, registry):
        engine = BatchEngine(registry=registry)
        report = engine.run([
            Job("A[[", "threesat"),          # parse error
            Job("A", "unregistered"),        # unknown schema
            Job("X1/T", "threesat"),         # fine
        ])
        assert report.stats.errors == 2
        assert report.results[0].error is not None
        assert "unknown schema" in report.results[1].error
        assert report.results[2].satisfiable is True
        assert report.verdict_counts()["error"] == 2

    @pytest.mark.parametrize("query", [
        "r[" + " or ".join(["B"] * 3000) + "]",
        "A[" + "not(" * 3000 + "B" + ")" * 3000 + "]",
        "A" + "[B]" * 3000,
        "/".join(["A"] * 3000),
    ], ids=["or-chain", "nested-not", "qualifier-chain", "path"])
    def test_over_deep_query_fails_alone(self, registry, query):
        """A query nested past the recursion limit (in the parser,
        canonicalization or the cache key) is that job's own error; the
        rest of the run is answered."""
        sink = ListSink()
        engine = BatchEngine(registry=registry, tracer=Tracer([sink]))
        report = engine.run([
            Job(query, None, "deep"), Job(query, "threesat", "deep-dtd"),
            Job("X1/T", "threesat", "ok"),
        ])
        engine.close()
        deep, deep_dtd, ok = report.results
        assert deep.method == deep_dtd.method == "error"
        assert "nests too deeply" in deep.error
        assert ok.satisfiable is True
        assert report.stats.errors == 2
        assert len(sink.records) == 3      # one finished trace per job

    def test_eviction_bounds_memory(self, registry):
        engine = BatchEngine(registry=registry, cache=DecisionCache(capacity=2))
        labels = ["r", "X1", "X2", "X3", "T", "F"]
        report = engine.run([Job(label, "threesat") for label in labels])
        assert len(engine.cache) == 2
        assert engine.cache.evictions == len(labels) - 2
        assert report.stats.decide_calls == len(labels)

    def test_parallel_matches_serial(self, registry):
        jobs = [
            Job("X1[not(T)]", "threesat"),
            Job("X1[not(F and T)]", "threesat"),
            Job("X1[T]/T", "threesat"),
            Job("X2[not(T) and not(F)]", "threesat"),
        ]
        serial = BatchEngine(registry=registry).run(jobs)
        parallel = BatchEngine(registry=registry, workers=2).run(jobs)
        assert [r.satisfiable for r in parallel.results] == [
            r.satisfiable for r in serial.results
        ]
        assert [r.method for r in parallel.results] == [
            r.method for r in serial.results
        ]
        assert parallel.stats.pool_decides > 0
        assert parallel.stats.errors == 0

    def test_in_flight_duplicates_coalesce(self, registry):
        jobs = [
            Job("X1[not(T)]", "threesat"),
            Job("X1[not(T)]", "threesat"),
            Job("X1[not(T)] | X1[not(T)]", "threesat"),
        ]
        report = BatchEngine(registry=registry, workers=2).run(jobs)
        assert report.stats.decide_calls == 1
        assert report.stats.coalesced == 2
        assert all(r.satisfiable is True for r in report.results)

    def test_rejects_bad_worker_count(self, registry):
        with pytest.raises(EngineError):
            BatchEngine(registry=registry, workers=0)

    def test_acceptance_thousand_jobs_three_schemas(self, registry):
        """1k-job workload over 3 schemas; the warm rerun must make at
        least 10x fewer decide() calls (the PR's acceptance bar)."""
        rng = random.Random(20250611)
        schemas = {name: registry.get(name).dtd for name in registry.names}
        jobs = batch_jobs(
            rng, schemas, n_jobs=1000,
            fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL),
            duplicate_rate=0.5, variant_rate=0.5,
        )
        engine = BatchEngine(registry=registry, cache=DecisionCache(capacity=8192))
        cold = engine.run(jobs)
        warm = engine.run(jobs)
        assert cold.stats.jobs == warm.stats.jobs == 1000
        assert len(registry) >= 3
        assert cold.stats.decide_calls > 0
        assert warm.stats.decide_calls * 10 <= cold.stats.decide_calls
        assert warm.stats.errors == 0


# -- the plan-grouped scheduler --------------------------------------------------

class _CrashFirstExecutor:
    """Executor stand-in whose first submitted chunk comes back as a
    whole-chunk failure — the shape a real lane death produces after its
    one retry also died.  Later chunks run in-process on a
    :class:`WorkerRuntime`.  Simulates a pool-worker crash mid-run
    without burning real fork time.  It takes every chunk, and runs
    them only in a waiting drain (``drain(wait=False)`` finds nothing
    back yet)."""

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


class TestGroupedScheduler:
    HEAVY = ["A[not(C)]", "A[not(B)]", ".[not(A)]", "B[not(A)]", "C[not(B)]"]

    def _engine(self, registry, **kwargs):
        return BatchEngine(registry=registry, **kwargs)

    def test_rejects_nonpositive_chunk_size(self, registry):
        with pytest.raises(EngineError, match="group_chunk_size"):
            BatchEngine(registry=registry, group_chunk_size=0)

    @pytest.mark.parametrize("n_jobs,chunk,expected_groups", [
        (1, 4, 1),        # single-job group
        (4, 4, 1),        # exactly chunk-size
        (5, 4, 2),        # chunk-size + 1 spills into a second chunk
    ])
    def test_chunk_size_boundaries(self, registry, n_jobs, chunk, expected_groups):
        jobs = [Job(query, "disjfree") for query in self.HEAVY[:n_jobs]]
        engine = self._engine(registry, group_chunk_size=chunk)
        report = engine.run(jobs)
        assert report.stats.errors == 0
        assert report.stats.plan_groups == expected_groups
        assert report.stats.grouped_jobs == n_jobs
        assert sum(report.stats.group_sizes) == n_jobs
        # same questions, dispatched per job: identical verdicts
        ungrouped = self._engine(
            registry, group_chunk_size=1, affinity=False
        ).run(jobs)
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in ungrouped.results
        ]

    def test_empty_batch_forms_no_groups(self, registry):
        report = self._engine(registry).run([])
        assert report.stats.plan_groups == 0
        assert report.stats.group_sizes == []

    @pytest.mark.parametrize("values,q,expected", [
        ([], 0.5, 0),
        ([], 0.9, 0),
        ([3], 0.0, 3),
        ([3], 0.5, 3),
        ([3], 0.9, 3),
        ([5, 1], 0.5, 1),
        ([5, 1], 0.75, 5),
        ([4, 1, 3, 2], 0.0, 1),
        ([4, 1, 3, 2], 0.5, 2),
        ([4, 1, 3, 2], 0.9, 4),
        ([4, 1, 3, 2], 1.0, 4),
    ])
    def test_group_size_and_dwell_quantiles(self, values, q, expected):
        # both quantiles take the sorted value at rank q*n rounded half
        # up; with nothing recorded they read 0 and 0.0
        groups = EngineStats(group_sizes=list(values)).jobs_per_group(q)
        dwell = EngineStats(
            chunk_dwell_ms=[float(value) for value in values]
        ).dwell_percentile(q)
        assert groups == expected and type(groups) is int
        assert dwell == float(expected) and type(dwell) is float

    def test_worker_crash_surfaces_per_job_error_without_poisoning(self, registry):
        # two plan groups (different schemas); the first dispatched
        # chunk's worker dies, the second chunk still answers
        jobs = [
            Job("A[not(C)]", "disjfree", id="doomed-1"),
            Job("A[not(B)]", "disjfree", id="doomed-2"),
            Job("X1[not(T)]", "threesat", id="fine"),
        ]
        engine = self._engine(registry, workers=2)
        engine._executor_factory = _CrashFirstExecutor
        report = engine.run(jobs)
        by_id = {result.id: result for result in report.results}
        crashed = [r for r in report.results if r.error is not None]
        answered = [r for r in report.results if r.error is None]
        assert len(crashed) == 2 and len(answered) == 1
        assert all("worker died" in r.error for r in crashed)
        assert all(r.route == "error" for r in crashed)
        assert by_id["fine"].satisfiable is True
        assert report.stats.errors == 2

    def test_prepare_failure_falls_back_to_ungrouped(self, registry, monkeypatch):
        import dataclasses

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("exptime_types")

        def boom(dtd):
            raise RuntimeError("prepare exploded")

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, prepare=boom),
        )
        jobs = [Job(query, "disjfree") for query in self.HEAVY[:3]]
        engine = self._engine(registry)
        report = engine.run(jobs)
        # the group still ran (as one task, per-job setup) and answered
        assert report.stats.errors == 0
        assert report.stats.prepare_fallbacks == 1
        assert report.stats.plan_groups == 1
        assert report.stats.setup_reuse == 0
        ungrouped = self._engine(
            registry, group_chunk_size=1, affinity=False
        ).run(jobs)
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in ungrouped.results
        ]

    def test_unexpected_exception_does_not_poison_groupmates(
        self, registry, monkeypatch
    ):
        # a NON-ReproError from one question (a latent decider bug, the
        # exact thing the fuzz target hunts) must fail only that job —
        # mirroring how ungrouped pool futures fail per question
        import dataclasses

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
        report = self._engine(registry).run([
            Job("A[not(C)]", "disjfree", id="doomed"),
            Job("A[not(B)]", "disjfree", id="fine"),
        ])
        assert report.stats.errors == 1
        assert "latent decider bug" in report.results[0].error
        assert report.results[1].error is None
        assert report.results[1].satisfiable is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_joint_decides_counted(self, registry, workers):
        # a chunk of two or more Thm 5.3 questions is decided jointly;
        # per-job dispatch and PTIME-only runs decide none jointly
        from repro.obs.metrics import MetricsRegistry

        jobs = [Job(query, "disjfree") for query in self.HEAVY[:4]]
        engine = self._engine(registry, workers=workers)
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert report.stats.errors == 0
        assert report.stats.group_sizes == [4]
        assert report.stats.joint_decides == 4
        assert report.stats.as_dict()["joint_decides"] == 4
        assert "4 joint decides" in report.stats.describe()
        metrics = MetricsRegistry()
        report.stats.register_metrics(metrics)
        assert metrics.counter("repro_joint_decides_total").value == 4
        per_job = self._engine(
            registry, workers=workers, group_chunk_size=1, affinity=False
        )
        try:
            per_job_report = per_job.run(jobs)
            ptime = per_job.run([Job(q, "disjfree") for q in ("A/C", "B", "A")])
        finally:
            per_job.close()
        assert per_job_report.stats.joint_decides == 0
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in per_job_report.results
        ]
        assert [r.method for r in report.results] == [
            r.method for r in per_job_report.results
        ]
        assert ptime.stats.inline_decides == 3
        assert ptime.stats.joint_decides == 0
        ptime_default = self._engine(registry).run(
            [Job(q, "disjfree") for q in ("A/C", "B", "A")]
        )
        assert ptime_default.stats.joint_decides == 0

    def test_none_returning_prepare_runs_once_per_chunk(self, registry, monkeypatch):
        # a hook that legitimately yields no context must not be re-run
        # for every question in the chunk
        import dataclasses

        from repro.sat import registry as sat_registry

        calls = []
        spec = sat_registry.get_decider("exptime_types")
        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, prepare=lambda dtd: calls.append(1)),
        )
        report = self._engine(registry).run(
            [Job(query, "disjfree") for query in self.HEAVY[:3]]
        )
        assert report.stats.errors == 0
        assert report.stats.plan_groups == 1
        assert len(calls) == 1
        # no context existed, so nothing counts as shared or fallen back,
        # and the questions were decided one at a time
        assert report.stats.setup_reuse == 0
        assert report.stats.prepare_fallbacks == 0
        assert report.stats.joint_decides == 0

    def test_fallback_prepare_failure_keeps_primary_context(self, registry, monkeypatch):
        # a broken *fallback* hook marks only that decider context-less;
        # the primary's shared context (and the memo of the failure) stay
        import dataclasses

        from repro.sat import registry as sat_registry
        from repro.sat.planner import SchemaContexts

        calls = []

        def boom(dtd):
            calls.append(1)
            raise RuntimeError("fallback prepare exploded")

        spec = sat_registry.get_decider("bounded")
        monkeypatch.setitem(
            sat_registry._REGISTRY, "bounded",
            dataclasses.replace(spec, prepare=boom),
        )
        artifacts = registry.get("disjfree")
        contexts = SchemaContexts(artifacts.dtd)
        assert contexts.get("exptime_types") is not None
        assert contexts.built == 1
        assert contexts.get("bounded") is None
        assert contexts.get("bounded") is None      # failure memoized,
        assert len(calls) == 1                      # not retried per job
        assert "fallback prepare exploded" in contexts.prepare_error
        assert contexts.built == 1                  # primary context kept

    def test_job_error_does_not_poison_groupmates(self, registry):
        # force one groupmate to fail *inside* the chunk by driving the
        # types fixpoint past a tiny fact cap with no fallback: easier to
        # emulate via an unknown-schema error job plus healthy mates —
        # the error job never reaches the group, mates answer normally
        jobs = [
            Job("A[not(C)]", "disjfree"),
            Job("A[not(B)]", "nonexistent-schema"),
            Job("A[not(B)]", "disjfree"),
        ]
        report = self._engine(registry).run(jobs)
        assert report.stats.errors == 1
        assert report.results[1].error is not None
        assert report.results[0].satisfiable is not None
        assert report.results[2].satisfiable is not None

    def test_coalesced_duplicates_inside_a_group(self, registry):
        jobs = [
            Job("A[not(C)]", "disjfree"),
            Job("A[not(C)]", "disjfree"),
            Job("A[not(C)] | A[not(C)]", "disjfree"),
        ]
        report = self._engine(registry).run(jobs)
        assert report.stats.decide_calls == 1
        assert report.stats.coalesced == 2
        assert report.stats.grouped_jobs == 1
        assert len({r.satisfiable for r in report.results}) == 1
        assert report.results[1].cached is True


class _DuplicatingExecutor:
    """Executor stand-in that hands every chunk back TWICE — the first
    time marked as a retry.  The engine must absorb each task exactly
    once, or a retried chunk would double-report group counters.  Like
    :class:`_CrashFirstExecutor`, it runs chunks only in a waiting
    drain."""

    def __init__(self, workers, affinity=True, lane_queue_depth=4):
        from repro.engine.executors import ExecutorStats, WorkerRuntime

        self.runtime = WorkerRuntime(caching=affinity)
        self._stats = ExecutorStats(lanes=workers)
        self._queue = []

    def submit(self, task, dtd):
        self._queue.append((task, dtd))
        return True

    def drain(self, wait=True):
        import dataclasses

        while wait and self._queue:
            task, dtd = self._queue.pop(0)
            outcome = self.runtime.run_chunk(task, dtd)
            yield task, dataclasses.replace(outcome, retried=True)
            yield task, outcome

    def stats(self):
        return self._stats

    def close(self):
        pass


class TestWorkerDeathRecovery:
    """The scheduler must survive a lane dying mid-chunk: respawn the
    lane cold, retry the in-flight chunk once, lose no verdicts, and
    report the retried chunk's group counters exactly once."""

    HEAVY = ["A[not(C)]", "A[not(B)]", ".[not(A)]", "B[not(A)]", "C[not(B)]"]

    def test_lane_death_one_retry_no_verdict_loss(
        self, registry, tmp_path, monkeypatch
    ):
        # arm a decider that SIGKILLs its worker exactly once (the marker
        # file is consumed before the kill, so the retry answers);
        # fork-started lanes inherit the patched registry
        import dataclasses
        import os
        import signal

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
        jobs = [Job(query, "disjfree") for query in self.HEAVY]
        # one chunk, so one chunk is in flight on the killed lane
        engine = BatchEngine(
            registry=registry, workers=2, group_chunk_size=len(jobs)
        )
        report = engine.run(jobs)
        assert report.stats.errors == 0                 # no verdict loss
        assert report.stats.chunk_retries == 1
        assert report.stats.lane_respawns == 1
        assert all(r.satisfiable is not None for r in report.results)
        # the retried chunk reports group counters exactly once
        assert report.stats.plan_groups == 1
        assert report.stats.grouped_jobs == len(jobs)
        assert report.stats.setup_reuse == len(jobs) - 1
        baseline = BatchEngine(registry=registry, workers=1).run(jobs)
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in baseline.results
        ]

    def test_oracle_corpus_passes_with_affinity_on(self, registry):
        # a broad heavy corpus through the affinity scheduler with real
        # lanes: every verdict must match the single-process engine
        jobs = [
            Job(query, schema)
            for schema in ("disjfree", "threesat")
            for query in self.HEAVY + ["A[not(C)] | B[not(A)]"]
            if not (schema == "threesat" and query.startswith("C"))
        ]
        affine = BatchEngine(
            registry=registry, workers=2, affinity=True, group_chunk_size=2
        )
        report = affine.run(jobs)
        assert report.stats.errors == 0
        assert report.stats.runtime_context_hits >= 1   # >=2 chunks/schema
        baseline = BatchEngine(registry=registry, workers=1).run(jobs)
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in baseline.results
        ]

    def test_duplicate_outcomes_never_double_report(self, registry):
        jobs = [Job(query, "disjfree") for query in self.HEAVY[:3]]
        engine = BatchEngine(registry=registry, workers=2)
        engine._executor_factory = _DuplicatingExecutor
        report = engine.run(jobs)
        assert report.stats.errors == 0
        # each chunk absorbed once despite being handed back twice
        assert report.stats.plan_groups == 1
        assert report.stats.grouped_jobs == 3
        assert report.stats.setup_reuse == 2
        assert report.stats.decide_calls == 3
        assert report.stats.chunk_retries == 1
        # the stats report reconciles: as_dict mirrors the deduplicated
        # counters and describe renders the retry
        record = report.stats.as_dict()
        assert record["grouped_jobs"] == 3
        assert record["chunk_retries"] == 1
        assert "1 chunk retries" in report.stats.describe()
        # telemetry rows agree with EngineStats (no retry inflation)
        (stats,) = [
            stats for key, stats in engine.telemetry.items() if "neg" in key
        ]
        assert stats.count == 3
        assert stats.groups == 1
        assert stats.setup_reuse == 2


    def test_send_to_a_dead_lane_recovers(self, registry, monkeypatch):
        # the lanes' processes are gone but still reported alive, so the
        # dead lane is found by the write to its request pipe: it is
        # respawned, the chunk retried once, and every job answered once
        from repro.engine.executors import _Lane

        jobs = [Job(query, "disjfree", id=query) for query in self.HEAVY]
        engine = BatchEngine(registry=registry, workers=2)
        engine.run(jobs[:1])
        for lane in engine._pool_executor._lanes:
            if lane.started:
                lane.process.kill()
                lane.process.join()
        monkeypatch.setattr(_Lane, "alive", lambda self: True)
        answered = []
        report = engine.run(jobs[1:], on_result=answered.append)
        assert sorted(result.id for result in answered) == sorted(self.HEAVY[1:])
        assert report.stats.errors == 0
        assert report.stats.lane_respawns == 1
        assert report.stats.chunk_retries == 1
        baseline = BatchEngine(registry=registry, workers=1).run(jobs[1:])
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in baseline.results
        ]
        engine.close()

    def test_deep_lanes_with_big_chunks_do_not_deadlock(self, registry):
        # one schema, so every chunk prefers one lane; 64 chunks may wait
        # on it, and six of about 43 KB each overrun its 64 KiB request
        # pipe: the sends wait for the lane, never on each other
        steps = "/".join(["*"] * 120)
        jobs = [
            Job(f"A[not({steps}/C)] | B[not(A)] | .[not(A/C{i})]", "disjfree")
            for i in range(96)
        ]
        engine = BatchEngine(
            registry=registry, workers=2, lane_queue_depth=64,
            group_chunk_size=16,
        )
        reports = []
        runner = threading.Thread(
            target=lambda: reports.append(engine.run(jobs)), daemon=True
        )
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "engine.run() hung"
        (report,) = reports
        assert report.stats.errors == 0
        assert len(report.results) == len(jobs)
        assert report.stats.pool_decides == len(jobs)   # all on lanes
        baseline = BatchEngine(registry=registry, workers=1).run(jobs)
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in baseline.results
        ]
        engine.close()


# -- engine lifecycle ------------------------------------------------------------

class TestEngineLifecycle:
    """close() + context manager: a closed engine refuses work loudly
    instead of hanging on a torn-down lane result queue."""

    def test_run_after_close_raises(self, registry):
        engine = BatchEngine(registry=registry)
        engine.run([Job("X1", "threesat")])
        engine.close()
        with pytest.raises(EngineError, match="closed"):
            engine.run([Job("X1", "threesat")])

    def test_double_close_raises(self, registry):
        engine = BatchEngine(registry=registry)
        engine.close()
        with pytest.raises(EngineError, match="already closed"):
            engine.close()

    def test_context_manager_closes(self, registry):
        with BatchEngine(registry=registry) as engine:
            report = engine.run([Job("X1", "threesat")])
            assert report.stats.errors == 0
        assert engine.closed
        # explicit close inside the with-block must not double-close
        with BatchEngine(registry=registry) as engine:
            engine.close()
        assert engine.closed

    def test_close_reaps_pool_lanes(self, registry):
        engine = BatchEngine(registry=registry, workers=2)
        engine.run([Job("A[not(C)]", "disjfree"), Job("A[not(B)]", "disjfree")])
        pool = engine._pool_executor
        assert pool is not None
        processes = [lane.process for lane in pool._lanes if lane.process]
        engine.close()
        assert engine._pool_executor is None
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()

    def test_pool_drain_after_close_raises(self, registry):
        from repro.engine import PersistentPoolExecutor

        executor = PersistentPoolExecutor(workers=2)
        executor.close()
        executor.close()  # idempotent at the executor layer
        with pytest.raises(EngineError, match="closed"):
            list(executor.drain())

    def test_executor_settings_are_read_only_and_keep_the_warm_pool(
        self, registry
    ):
        # the pool is built from affinity and lane_queue_depth, so neither
        # can flip once the engine exists: the assignment is refused and
        # the warm pool is kept, with no reset to count
        heavy = TestWorkerDeathRecovery.HEAVY
        engine = BatchEngine(
            registry=registry, workers=2, affinity=True, lane_queue_depth=2
        )
        engine.run([Job(q, "disjfree") for q in heavy[:3]])
        old_pool = engine._pool_executor
        assert old_pool is not None
        with pytest.raises(AttributeError):
            engine.affinity = False
        with pytest.raises(AttributeError):
            engine.lane_queue_depth = 8
        assert engine.affinity is True
        assert engine.lane_queue_depth == 2
        # fresh queries: no cache hit may short-circuit pool use
        second = engine.run([Job(q, "disjfree") for q in heavy[3:]])
        assert second.stats.errors == 0
        assert engine._pool_executor is old_pool
        assert not old_pool._closed
        assert "executor_resets" not in second.stats.as_dict()
        engine.close()

    def test_affinity_is_read_only_and_keeps_the_engine_runtime(
        self, registry
    ):
        # with workers=1 heavy chunks run on the engine's own runtime; a
        # refused flip leaves that warm runtime in place
        heavy = TestWorkerDeathRecovery.HEAVY
        engine = BatchEngine(registry=registry, workers=1, affinity=False)
        engine.run([Job(q, "disjfree") for q in heavy[:3]])
        old_runtime = engine._runtime
        assert old_runtime is not None
        with pytest.raises(AttributeError):
            engine.affinity = True
        assert engine.affinity is False
        second = engine.run([Job(q, "disjfree") for q in heavy[3:]])
        assert second.stats.errors == 0
        assert engine._runtime is old_runtime
        engine.close()


# -- cross-run lane persistence --------------------------------------------------

class TestCrossRunPersistence:
    """The pool is engine-lifetime: lanes, shipped-DTD sets, and worker
    runtime contexts survive between run() calls, so a second batch over
    the same schemas ships nothing and lands on warm contexts."""

    # run-2 queries differ syntactically from run-1 (no decision-cache
    # short-circuit) but share (fingerprint, telemetry key), so chunks
    # land on warm runtime contexts
    RUN1 = ["A[not(C)]", "A[not(B)]", ".[not(A)]", "B[not(A)]"]
    RUN2 = ["C[not(B)]", "B[not(C)]", ".[not(B)]"]

    def _engine(self, registry):
        return BatchEngine(
            registry=registry, workers=2, affinity=True, group_chunk_size=2
        )

    def test_second_run_ships_nothing_and_hits_warm_contexts(self, registry):
        engine = self._engine(registry)
        cold = engine.run([Job(q, "disjfree") for q in self.RUN1])
        assert cold.stats.errors == 0
        assert cold.stats.dtd_ships >= 1
        warm = engine.run([Job(q, "disjfree") for q in self.RUN2])
        assert warm.stats.errors == 0
        assert warm.stats.dtd_ships == 0            # lanes kept the DTD
        assert warm.stats.runtime_context_hits > 0  # and the warm contexts
        # verdicts are bit-identical to a fresh engine's
        fresh = self._engine(registry).run([Job(q, "disjfree") for q in self.RUN2])
        assert [(r.satisfiable, r.method) for r in warm.results] == [
            (r.satisfiable, r.method) for r in fresh.results
        ]
        engine.close()

    def test_lane_killed_between_runs_recovers(self, registry):
        engine = self._engine(registry)
        first = engine.run([Job(q, "disjfree") for q in self.RUN1])
        assert first.stats.errors == 0
        pool = engine._pool_executor
        victims = [lane.process for lane in pool._lanes if lane.process]
        assert victims
        for process in victims:
            process.kill()
            process.join(timeout=10)
        second = engine.run([Job(q, "disjfree") for q in self.RUN2])
        # dead lanes respawn with empty shipped sets: verdicts survive,
        # the DTD is cleanly re-shipped
        assert second.stats.errors == 0
        assert second.stats.lane_respawns >= 1
        assert second.stats.dtd_ships >= 1
        fresh = self._engine(registry).run([Job(q, "disjfree") for q in self.RUN2])
        assert [r.satisfiable for r in second.results] == [
            r.satisfiable for r in fresh.results
        ]
        engine.close()

    def test_lanes_killed_right_after_a_run_never_wedge_the_next(self, registry):
        """A lane killed the moment its results land may still hold the
        lock guarding its result channel.  Each lane writes to its own
        pipe, so the next run respawns it and finishes instead of
        waiting forever for results that can no longer be written."""
        finished: list[int] = []

        def scenario() -> None:
            for _ in range(10):
                engine = BatchEngine(registry=registry, workers=2, group_chunk_size=1)
                try:
                    engine.run([Job(q, "disjfree") for q in self.RUN1])
                    for lane in engine._pool_executor._lanes:
                        if lane.process is not None:
                            lane.process.kill()
                    report = engine.run([Job(q, "disjfree") for q in self.RUN2])
                    finished.append(report.stats.errors)
                finally:
                    engine.close()

        worker = threading.Thread(target=scenario, daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive(), "a run after lane deaths never finished"
        assert finished == [0] * 10


# -- streamed results ------------------------------------------------------------

class TestOnResultStreaming:
    def test_on_result_fires_exactly_once_per_job(self, registry):
        # every finalization path at once: intake error, parse error,
        # cache hit, inline, coalesced duplicate, pooled heavy jobs
        jobs = [
            Job("X1", "threesat", id="inline"),
            Job("X1", "threesat", id="duplicate"),
            Job("A[[", "threesat", id="parse-error"),
            Job("A", "nowhere", id="bad-schema"),
            {"query": 5},
            Job("A[not(C)]", "disjfree", id="heavy-1"),
            Job("A[not(B)]", "disjfree", id="heavy-2"),
            Job(".[not(A)]", "disjfree", id="heavy-3"),
        ]
        engine = BatchEngine(registry=registry, workers=2, group_chunk_size=2)
        streamed = []
        report = engine.run(jobs, on_result=streamed.append)
        assert len(streamed) == len(report.results) == len(jobs)
        # exactly the report's result objects, each seen once
        assert {id(r) for r in streamed} == {id(r) for r in report.results}
        engine.close()

    def test_on_result_streams_cache_hits_on_warm_run(self, registry):
        engine = BatchEngine(registry=registry)
        jobs = [Job("X1", "threesat"), Job("A[C]", "disjfree")]
        engine.run(jobs)
        streamed = []
        warm = engine.run(jobs, on_result=streamed.append)
        assert warm.stats.cache_hits == len(jobs)
        assert len(streamed) == len(jobs)
        engine.close()


# -- one job pipeline ------------------------------------------------------------

def _patch_decider(monkeypatch, name, **changes):
    """Replace fields of a registered decider for one test."""
    import dataclasses

    from repro.sat import registry as sat_registry

    spec = sat_registry.get_decider(name)
    monkeypatch.setitem(
        sat_registry._REGISTRY, name, dataclasses.replace(spec, **changes)
    )


class TestOnePipeline:
    """Every decision runs as a chunk on an executor and is folded back
    by one absorb path, so an in-process (PTIME) decision fails, reads
    its error, and reuses prepared contexts exactly as a pooled one."""

    def test_inline_decider_bug_fails_only_its_jobs(self, registry, monkeypatch):
        # a non-ReproError from an inline decider (a latent bug) fails
        # only the jobs asking that question, asked twice here: the
        # second ask is decided afresh, not parked on the finished first
        from repro.sat.registry import get_decider

        original = get_decider("downward").fn

        def flaky(query, *args, **kwargs):
            if str(query) == "X2":
                raise RuntimeError("latent decider bug")
            return original(query, *args, **kwargs)

        _patch_decider(monkeypatch, "downward", fn=flaky)
        jobs = [
            Job("X1", "threesat", id="fine-1"),
            Job("X2", "threesat", id="doomed-1"),
            Job("X3", "threesat", id="fine-2"),
            Job("X2", "threesat", id="doomed-2"),
            Job("X1/T", "threesat", id="fine-3"),
        ]
        engine = BatchEngine(registry=registry)
        streamed = []
        report = engine.run(jobs, on_result=streamed.append)
        engine.close()
        assert sorted(r.id for r in streamed) == sorted(job.id for job in jobs)
        assert {id(r) for r in streamed} == {id(r) for r in report.results}
        by_id = {result.id: result for result in report.results}
        for job_id in ("doomed-1", "doomed-2"):
            assert "latent decider bug" in by_id[job_id].error
            assert by_id[job_id].route == "error"
            # a decide error keeps the job's fingerprint, inline or pooled
            assert by_id[job_id].fingerprint == registry.get("threesat").fingerprint
        for job_id in ("fine-1", "fine-2", "fine-3"):
            assert by_id[job_id].error is None
            assert by_id[job_id].satisfiable is True
        assert report.stats.errors == 2

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("query,decider,route", [
        ("A[not(C)]", "exptime_types", "pool"),
        ("A/C", "downward", "inline"),
    ])
    def test_recursion_error_reads_the_same_on_every_executor(
        self, registry, monkeypatch, workers, query, decider, route
    ):
        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        _patch_decider(monkeypatch, decider, fn=too_deep)
        with BatchEngine(registry=registry, workers=workers) as engine:
            assert _route(parse_query(query), registry.get("disjfree")) == route
            (result,) = engine.run([Job(query, "disjfree")]).results
        assert result.error == (
            "query nests too deeply (maximum recursion depth exceeded)"
        )
        assert result.route == "error"

    def test_inline_plan_prepares_once_across_runs(self, monkeypatch):
        # PTIME chunks run on the engine's in-process runtime, whose
        # prepared contexts outlive a chunk and a run
        from repro.sat import realworld as realworld_module
        from repro.workloads.realworld import realworld_schemas

        calls = []
        original = realworld_module.prepare_realworld

        def counted(dtd):
            calls.append(1)
            return original(dtd)

        # a decider called without a context runs its prepare hook
        # through the module global, so wrap both names
        _patch_decider(monkeypatch, "realworld", prepare=counted)
        monkeypatch.setattr(realworld_module, "prepare_realworld", counted)
        registry = SchemaRegistry()
        registry.register("xhtml", realworld_schemas()["xhtml"])
        labels = ("head", "title", "meta", "body", "div",
                  "h1", "h2", "p", "ul", "li")
        queries = [f"{label}/^" for label in labels] + [
            f"body/{label}/^" for label in labels
        ]
        engine = BatchEngine(registry=registry)
        plans = {
            engine.planner.plan_for(
                features_of(parse_query(query)),
                artifacts=registry.get("xhtml"),
            ).telemetry_key
            for query in queries
        }
        assert len(plans) == 1 and "realworld+" in plans.pop()
        first = engine.run([Job(query, "xhtml") for query in queries[:10]])
        second = engine.run([Job(query, "xhtml") for query in queries[10:]])
        engine.close()
        assert first.stats.errors == second.stats.errors == 0
        assert first.stats.decide_calls + second.stats.decide_calls == 20
        assert len(calls) == 1

    def test_aborted_run_leaves_nothing_for_the_next(self, registry):
        # heavy jobs queue for a chunk, then the first inline answer's
        # callback raises: the run aborts, and the next run on the same
        # engine answers every job exactly once
        jobs = [
            Job("A[not(C)]", "disjfree", id="heavy-1"),
            Job("A[not(B)]", "disjfree", id="heavy-2"),
            Job("X1", "threesat", id="inline-1"),
            Job("X2", "threesat", id="inline-2"),
        ]
        engine = BatchEngine(registry=registry)

        def explode(result):
            raise RuntimeError("client went away")

        with pytest.raises(RuntimeError, match="client went away"):
            engine.run(jobs, on_result=explode)
        streamed = []
        report = engine.run(jobs, on_result=streamed.append)
        engine.close()
        assert sorted(r.id for r in streamed) == sorted(job.id for job in jobs)
        assert {id(r) for r in streamed} == {id(r) for r in report.results}
        assert report.stats.errors == 0
        assert all(r.satisfiable is not None for r in report.results)


# -- JSONL round trips -----------------------------------------------------------

class TestJobsIO:
    def test_jobs_roundtrip(self, tmp_path, registry):
        path = str(tmp_path / "jobs.jsonl")
        jobs = [
            Job("X1[T]", "threesat", id="a"),
            Job("A[B]"),
        ]
        assert write_jobs_file(path, jobs) == 2
        loaded = read_jobs_file(path)
        assert loaded == jobs

    def test_read_skips_blanks_and_comments(self):
        lines = [
            "# corpus header",
            "",
            '{"query": "A"}',
            '  {"query": "B", "schema": "s"}  ',
        ]
        assert list(read_jobs(lines)) == [Job("A"), Job("B", "s")]

    def test_read_rejects_bad_lines(self):
        with pytest.raises(EngineError, match="line 1"):
            list(read_jobs(["not json"]))
        with pytest.raises(EngineError, match="missing 'query'"):
            list(read_jobs(['{"schema": "s"}']))
        with pytest.raises(EngineError):
            list(read_jobs(['["a", "list"]']))

    def test_results_file(self, tmp_path, registry):
        import json

        engine = BatchEngine(registry=registry)
        report = engine.run([Job("X1[T and F]", "threesat", id="dead")])
        path = str(tmp_path / "results.jsonl")
        write_results_file(path, report)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert records[0]["id"] == "dead"
        assert records[0]["satisfiable"] is False
        # threesat is duplicate-free, so the trait-gated realworld fast
        # path answers ahead of the types fixpoint (PR 9)
        assert records[0]["method"] == "isw-dcdf-restrained"


# -- engine vs. plain decide agreement -------------------------------------------

def test_engine_agrees_with_decide(registry):
    rng = random.Random(7)
    schemas = {name: registry.get(name).dtd for name in registry.names}
    jobs = batch_jobs(
        rng, schemas, n_jobs=60,
        fragments=(frag.DOWNWARD_QUAL, frag.CHILD_QUAL_NEG),
        max_depth=2, duplicate_rate=0.3,
    )
    report = BatchEngine(registry=registry).run(jobs)
    for job, result in zip(jobs, report.results):
        expected = decide(
            parse_query(job.query_text),
            registry.get(job.schema).dtd if job.schema else None,
        )
        assert result.satisfiable == expected.satisfiable, job.query_text
