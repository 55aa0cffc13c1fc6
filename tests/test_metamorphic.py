"""Metamorphic guarantees of the planner feedback loop.

Telemetry, plan-cache persistence, and plan-grouped scheduling are
*performance* features: none of them may change a single verdict.  The
tests here decide one corpus several ways — static ranking, plans an
older version reordered and rerouted by measured cost, a cold engine
warmed from a persisted state directory, and the plan-grouped scheduler
on/off — and require bit-identical verdicts (for grouping also bit-identical
decision-cache contents and telemetry verdict mixes), plus unit coverage
of the telemetry aggregator and the state serialization round trip.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

import pytest

from repro.dtd import parse_dtd
from repro.engine import BatchEngine, DecisionCache, SchemaRegistry
from repro.engine.executors import JOINT_QUESTIONS
from repro.engine.statetier import StateTier, read_legacy_json
from repro.obs.trace import ListSink, Tracer
from repro.sat import Plan, PlanTelemetry
from repro.sat.telemetry import PlanStats
from repro.workloads import batch_jobs
from repro.xpath import fragments as frag

TINY_DTD = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""

DOC_DTD = """
root doc
doc -> title, para*
title -> eps
para -> text?
text -> eps
"""


def _schemas():
    return {"tiny": parse_dtd(TINY_DTD), "doc": parse_dtd(DOC_DTD)}


def _corpus(n_jobs=120):
    return batch_jobs(
        random.Random(42), _schemas(), n_jobs=n_jobs,
        fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL, frag.CHILD_QUAL_NEG),
        max_depth=2, duplicate_rate=0.3,
    )


def _registry():
    registry = SchemaRegistry()
    for name, dtd in _schemas().items():
        registry.register(name, dtd)
    return registry


def _verdicts(report):
    return [(result.id, result.satisfiable) for result in report.results]


def _saved(state_dir):
    """What a fresh state-tier handle loads from ``state_dir``."""
    with StateTier(state_dir) as tier:
        return tier.load()


class TestMetamorphicVerdicts:
    def test_cost_based_ranking_never_changes_verdicts(self):
        """Plans an older version reordered and routed inline by measured
        cost are adopted as they were saved, and answer as the static
        plans do."""
        jobs = _corpus()
        static_engine = BatchEngine(registry=_registry())
        baseline = _verdicts(static_engine.run(jobs))

        reordered: dict[str, dict[str, Plan]] = {}
        for artifacts in static_engine.registry:
            per_schema = reordered[artifacts.fingerprint] = {}
            for signature, plan in artifacts.plan_cache.items():
                chain = (plan.decider,) + plan.fallbacks
                per_schema[signature] = dataclasses.replace(
                    plan, decider=chain[-1],
                    fallbacks=tuple(reversed(chain[:-1])), route="inline",
                )
        assert any(
            plan.fallbacks
            for per_schema in reordered.values()
            for plan in per_schema.values()
        )
        registry = _registry()
        registry.adopt_plans(reordered)
        report = BatchEngine(registry=registry).run(jobs)
        assert report.stats.planner_invocations == 0
        assert _verdicts(report) == baseline

    def test_persisted_state_reload_never_changes_verdicts(self, tmp_path):
        state_dir = str(tmp_path / "state")
        jobs = _corpus(80)
        warm_engine = BatchEngine(registry=_registry(), state_tier=state_dir)
        baseline = _verdicts(warm_engine.run(jobs))
        warm_engine.save_state()

        cold_engine = BatchEngine(registry=_registry(), state_tier=state_dir)
        report = cold_engine.run(jobs)
        assert _verdicts(report) == baseline
        # the cold process planned nothing and re-decided nothing
        assert report.stats.planner_invocations == 0
        assert report.stats.persisted_plans_loaded >= 1
        assert report.stats.decide_calls == 0

    def test_persisted_plans_apply_to_schemas_registered_later(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(registry=_registry(), state_tier=state_dir)
        engine.run(_corpus(40))
        engine.save_state()

        # cold engine loads state BEFORE any schema is registered
        cold = BatchEngine(state_tier=state_dir)
        for name, dtd in _schemas().items():
            cold.registry.register(name, dtd)
        report = cold.run(_corpus(40))
        assert report.stats.planner_invocations == 0
        assert report.stats.persisted_plans_loaded >= 1


def _cache_records(engine):
    """Decision-cache contents, order-insensitively: grouping defers
    heavy decisions to group drain, so insertion (LRU) order may differ
    while the entry set must not."""
    return sorted(map(repr, engine.cache.to_records()))


def _slow_lanes(monkeypatch):
    """Make the types fixpoint sleep 20 ms per call in a forked lane
    (lanes inherit the patched registry) and nowhere else, so lanes one
    chunk deep stay full while the engine scans."""
    from repro.sat import registry as sat_registry

    engine_pid = os.getpid()
    spec = sat_registry.get_decider("exptime_types")
    original = spec.fn

    def slow_in_lanes(query, dtd, max_facts=22, context=None):
        if os.getpid() != engine_pid:
            time.sleep(0.02)
        return original(query, dtd, max_facts, context=context)

    monkeypatch.setitem(
        sat_registry._REGISTRY, "exptime_types",
        dataclasses.replace(spec, fn=slow_in_lanes),
    )


def _verdict_mixes(engine):
    """Per-plan telemetry verdict mixes (plan key -> verdict counts)."""
    return {
        key: dict(stats.verdicts) for key, stats in engine.telemetry.items()
    }


class TestGroupedScheduling:
    """Plan-grouped dispatch is a scheduling change only: verdicts,
    decision-cache contents, and telemetry verdict mixes must be
    bit-identical between the default chunks and per-job dispatch
    (``group_chunk_size=1, affinity=False``)."""

    def _mixed_corpus(self, n_jobs=120):
        # inline (PTIME downward) and pooled (negation) plans, plus
        # no-DTD jobs — the full routing mix the scheduler partitions
        return batch_jobs(
            random.Random(1307), _schemas(), n_jobs=n_jobs,
            fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL, frag.CHILD_QUAL_NEG),
            max_depth=2, duplicate_rate=0.3, no_dtd_rate=0.2,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_matches_ungrouped(self, workers):
        jobs = self._mixed_corpus()
        grouped = BatchEngine(registry=_registry(), workers=workers)
        ungrouped = BatchEngine(
            registry=_registry(), workers=workers,
            group_chunk_size=1, affinity=False,
        )
        grouped_report = grouped.run(jobs)
        ungrouped_report = ungrouped.run(jobs)
        assert _verdicts(grouped_report) == _verdicts(ungrouped_report)
        assert _cache_records(grouped) == _cache_records(ungrouped)
        assert _verdict_mixes(grouped) == _verdict_mixes(ungrouped)
        assert grouped_report.stats.errors == ungrouped_report.stats.errors == 0
        assert grouped_report.stats.plan_groups >= 1
        assert grouped_report.stats.grouped_jobs >= 2
        assert set(ungrouped_report.stats.group_sizes) == {1}
        assert ungrouped_report.stats.setup_reuse == 0
        assert ungrouped_report.stats.runtime_context_hits == 0

    def test_grouped_matches_ungrouped_with_chunking(self):
        jobs = self._mixed_corpus(80)
        grouped = BatchEngine(registry=_registry(), group_chunk_size=3)
        ungrouped = BatchEngine(
            registry=_registry(), group_chunk_size=1, affinity=False
        )
        grouped_report = grouped.run(jobs)
        assert _verdicts(grouped_report) == _verdicts(ungrouped.run(jobs))
        assert _cache_records(grouped) == _cache_records(ungrouped)
        assert _verdict_mixes(grouped) == _verdict_mixes(ungrouped)
        # chunking shows in the group-size distribution
        assert max(grouped_report.stats.group_sizes) <= 3
        # one more input: chunks above the joint cap, decided in several
        # joint calls each
        jobs = jobs + self._overflow_corpus()
        grouped = BatchEngine(registry=_registry(), group_chunk_size=16)
        ungrouped = BatchEngine(
            registry=_registry(), group_chunk_size=1, affinity=False
        )
        grouped_report = grouped.run(jobs)
        ungrouped_report = ungrouped.run(jobs)
        assert _verdicts(grouped_report) == _verdicts(ungrouped_report)
        assert _cache_records(grouped) == _cache_records(ungrouped)
        assert _verdict_mixes(grouped) == _verdict_mixes(ungrouped)
        assert max(grouped_report.stats.group_sizes) > JOINT_QUESTIONS
        assert grouped_report.stats.joint_decides > JOINT_QUESTIONS
        assert ungrouped_report.stats.joint_decides == 0

    def test_single_job_groups(self):
        # every heavy question distinct per schema fragment shape: each
        # group holds one job, pays its own setup, reuses nothing
        jobs = [("A[not(B)]", "tiny"), ("title[not(para)]", "doc")]
        grouped = BatchEngine(registry=_registry())
        ungrouped = BatchEngine(
            registry=_registry(), group_chunk_size=1, affinity=False
        )
        grouped_report = grouped.run(jobs)
        assert _verdicts(grouped_report) == _verdicts(ungrouped.run(jobs))
        assert _cache_records(grouped) == _cache_records(ungrouped)
        assert grouped_report.stats.plan_groups == 2
        assert grouped_report.stats.grouped_jobs == 2
        assert grouped_report.stats.setup_reuse == 0
        assert grouped_report.stats.jobs_per_group(0.5) == 1

    def test_grouped_setup_reuse_counted(self):
        # many jobs, one plan, one schema: a single group chunk pays
        # setup once and every groupmate after the lead reuses it
        jobs = [(f"A[not({label})]", "tiny") for label in ("A", "B", "C")]
        engine = BatchEngine(registry=_registry())
        report = engine.run(jobs)
        assert report.stats.plan_groups == 1
        assert report.stats.grouped_jobs == 3
        assert report.stats.setup_reuse == 2
        (stats,) = [
            stats for key, stats in engine.telemetry.items() if "neg" in key
        ]
        assert stats.groups == 1
        assert stats.count == 3
        assert stats.setup_reuse == 2

    def test_grouped_pool_matches_inline_grouped(self):
        jobs = self._mixed_corpus(60)
        pooled = BatchEngine(registry=_registry(), workers=2)
        inline = BatchEngine(registry=_registry(), workers=1)
        pooled_report = pooled.run(jobs)
        inline_report = inline.run(jobs)
        assert _verdicts(pooled_report) == _verdicts(inline_report)
        assert _cache_records(pooled) == _cache_records(inline)
        assert _verdict_mixes(pooled) == _verdict_mixes(inline)
        assert pooled_report.stats.pool_decides >= 1
        assert inline_report.stats.pool_decides == 0

    def test_chunk_holds_one_schemas_plans(self):
        # pool-route questions of three plans (two primaries) on one
        # schema share one chunk; per-plan telemetry counts the chunk
        # once for each plan and reuse only after a plan's first question
        jobs = [
            ("A[not(B)]", "tiny"), ("A[not(B)] | C", "tiny"),
            ("A[not(C)]", "tiny"), ("A[not(B)]/>", "tiny"),
        ]
        engine = BatchEngine(registry=_registry())
        report = engine.run(jobs)
        assert report.stats.plan_groups == 1
        assert report.stats.group_sizes == [4]
        assert report.stats.setup_reuse == 1
        rows = {
            key.split("|")[1]: stats for key, stats in engine.telemetry.items()
        }
        assert {name: (row.groups, row.count, row.setup_reuse)
                for name, row in rows.items()} == {
            "neg,qual": (1, 2, 1),
            "neg,qual,union": (1, 1, 0),
            "neg,qual,rs": (1, 1, 0),
        }
        per_job = BatchEngine(
            registry=_registry(), group_chunk_size=1, affinity=False
        )
        assert _verdicts(report) == _verdicts(per_job.run(jobs))
        assert _cache_records(engine) == _cache_records(per_job)
        assert _verdict_mixes(engine) == _verdict_mixes(per_job)

    @staticmethod
    def _overflow_corpus():
        # one schema and more pool-route questions than two one-deep
        # lanes hold at once
        labels = ("A", "B", "C")
        return [
            (f"{left}[not({right})]", "tiny")
            for left in labels + (".",) for right in labels
        ]

    def test_overflow_runs_in_process(self, monkeypatch):
        _slow_lanes(monkeypatch)
        jobs = self._overflow_corpus()
        sink = ListSink()
        overflowing = BatchEngine(
            registry=_registry(), workers=2, lane_queue_depth=1,
            group_chunk_size=1, tracer=Tracer(sinks=(sink,)),
        )
        report = overflowing.run(jobs)
        assert report.stats.errors == 0
        routes = {result.route for result in report.results}
        assert routes == {"pool", "inline"}
        assert report.stats.pool_decides + report.stats.inline_decides == len(jobs)
        # a chunk the engine decided itself ran on its in-process lane 0
        inline_ids = {r.id for r in report.results if r.route == "inline"}
        inline_records = [r for r in sink.records if r["job_id"] in inline_ids]
        assert inline_records
        for record in inline_records:
            (chunk,) = [s for s in record["spans"] if s["name"] == "chunk"]
            assert chunk["attrs"]["lane"] == 0
        for other in (
            BatchEngine(registry=_registry(), workers=1),
            BatchEngine(
                registry=_registry(), workers=2,
                group_chunk_size=1, affinity=False,
            ),
        ):
            assert _verdicts(other.run(jobs)) == _verdicts(report)
            assert _cache_records(other) == _cache_records(overflowing)
            assert _verdict_mixes(other) == _verdict_mixes(overflowing)
            other.close()
        overflowing.close()


class TestAffinityScheduling:
    """Schema-affinity scheduling (persistent worker runtimes) is a pure
    scheduling change: verdicts, decision-cache contents, and telemetry
    verdict mixes must be bit-identical with affinity on and off."""

    def _repeated_schema_corpus(self):
        # many heavy questions per schema with a small chunk size, so
        # each (schema × plan) produces several chunks — the shape where
        # runtime caching matters
        labels = ("A", "B", "C")
        jobs = [
            (f"{left}[not({right})]", "tiny")
            for left in labels for right in labels
        ]
        jobs += [("title[not(para)]", "doc"), ("para[not(text)]", "doc")]
        return jobs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_affinity_matches_stateless(self, workers):
        jobs = self._repeated_schema_corpus()
        affine = BatchEngine(
            registry=_registry(), workers=workers,
            affinity=True, group_chunk_size=3,
        )
        stateless = BatchEngine(
            registry=_registry(), workers=workers,
            affinity=False, group_chunk_size=3,
        )
        affine_report = affine.run(jobs)
        stateless_report = stateless.run(jobs)
        assert _verdicts(affine_report) == _verdicts(stateless_report)
        assert _cache_records(affine) == _cache_records(stateless)
        assert _verdict_mixes(affine) == _verdict_mixes(stateless)
        assert affine_report.stats.errors == stateless_report.stats.errors == 0
        # the warm runtime actually engaged (several chunks per schema)
        assert affine_report.stats.runtime_context_hits >= 1
        assert stateless_report.stats.runtime_context_hits == 0

    def test_overflow_matches_stateless(self, monkeypatch):
        # lanes one chunk deep overflow into the engine with affinity on
        # and off alike, and neither changes an answer
        _slow_lanes(monkeypatch)
        jobs = TestGroupedScheduling._overflow_corpus()
        engines = [
            BatchEngine(
                registry=_registry(), workers=2, lane_queue_depth=1,
                group_chunk_size=1, affinity=affinity,
            )
            for affinity in (True, False)
        ]
        affine_report, stateless_report = (e.run(jobs) for e in engines)
        affine, stateless = engines
        assert _verdicts(affine_report) == _verdicts(stateless_report)
        assert _cache_records(affine) == _cache_records(stateless)
        assert _verdict_mixes(affine) == _verdict_mixes(stateless)
        for report in (affine_report, stateless_report):
            assert report.stats.errors == 0
            assert report.stats.inline_decides >= 1
            assert report.stats.pool_decides >= 1
        for engine in engines:
            engine.close()

    def test_inline_runtime_persists_across_runs(self):
        engine = BatchEngine(registry=_registry(), group_chunk_size=4)
        first = engine.run([(f"A[not({x})]", "tiny") for x in ("A", "B")])
        second = engine.run([(f"B[not({x})]", "tiny") for x in ("B", "C")])
        assert first.stats.runtime_context_hits == 0
        assert second.stats.runtime_context_hits == 1
        # and the telemetry row records the runtime hit
        (stats,) = [
            stats for key, stats in engine.telemetry.items() if "neg" in key
        ]
        assert stats.runtime_hits == 1
        assert stats.groups == 2

    def test_affinity_tunables_round_trip(self, tmp_path):
        # the affinity settings round-trip through the constructor only:
        # a later engine that sets one of them explicitly does not pick
        # the other up from the tier
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            affinity=False, lane_queue_depth=9,
        )
        assert (engine.affinity, engine.lane_queue_depth) == (False, 9)
        engine.run(_corpus(10))
        engine.save_state()
        engine.close()
        explicit = BatchEngine(
            registry=_registry(), state_tier=state_dir, affinity=False
        )
        assert explicit.affinity is False
        assert explicit.lane_queue_depth == 4
        explicit.close()


class TestEngineTelemetry:
    def test_run_populates_per_plan_stats(self):
        engine = BatchEngine(registry=_registry())
        report = engine.run(_corpus(60))
        assert len(engine.telemetry) >= 1
        summary = engine.telemetry.summary()
        assert summary
        total = sum(row["count"] for row in summary.values())
        # cache hits and coalesced jobs do not execute a plan
        assert total == report.stats.decide_calls
        for row in summary.values():
            assert row["mean_ms"] >= 0.0
            assert sum(row["verdicts"].values()) == row["count"]

    def test_pooled_executions_feed_telemetry(self):
        registry = _registry()
        engine = BatchEngine(registry=registry, workers=2)
        report = engine.run([
            ("A[not(B)]", "tiny"), ("B[not(C)]", "tiny"), (".[B and C]", "tiny"),
        ])
        assert report.stats.pool_decides >= 1
        pooled_rows = [
            stats for key, stats in engine.telemetry.items()
            if "neg" in key or "qual" in key
        ]
        assert pooled_rows
        assert sum(stats.count for stats in pooled_rows) >= 1

    def test_plan_stats_percentiles_and_merge(self):
        stats = PlanStats()
        for elapsed in (0.04, 0.2, 0.2, 4.0):
            stats.record(elapsed, "sat", decider="downward")
        assert stats.count == 4
        assert stats.percentile_ms(0.5) == pytest.approx(0.25)
        assert stats.percentile_ms(1.0) == pytest.approx(5.0)
        other = PlanStats()
        other.record(3000.0, "unknown", decider="bounded", fallback=True)
        stats.merge(other)
        assert stats.count == 5
        assert stats.verdicts["unknown"] == 1
        assert stats.fallbacks == 1
        assert stats.percentile_ms(1.0) == pytest.approx(3000.0)  # overflow = max
        rebuilt = PlanStats.from_dict(stats.to_dict())
        assert rebuilt.to_dict() == stats.to_dict()

    def test_telemetry_round_trip_and_table(self):
        engine = BatchEngine(registry=_registry())
        engine.run(_corpus(40))
        rebuilt = PlanTelemetry.from_dict(engine.telemetry.to_dict())
        assert rebuilt.to_dict() == engine.telemetry.to_dict()
        table = engine.telemetry.table()
        assert "mean_ms" in table and "fb%" in table


class TestStatePersistence:
    def test_state_round_trip(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(registry=_registry())
        engine.run(_corpus(40))
        with StateTier(state_dir) as tier:
            tier.save(
                registry=engine.registry,
                telemetry=engine.telemetry,
                cache=engine.cache,
            )
        state = _saved(state_dir)
        assert not state.warnings
        assert state.plan_count == sum(
            len(artifacts.plan_cache) for artifacts in engine.registry
        )
        assert state.telemetry is not None
        assert state.telemetry.to_dict() == engine.telemetry.to_dict()
        assert len(state.decisions) == len(engine.cache)

    def test_missing_dir_is_empty_state(self, tmp_path):
        state = _saved(str(tmp_path / "nonexistent"))
        assert state.plan_count == 0
        assert state.telemetry is None
        assert not state.warnings

    def test_corrupt_files_degrade_with_warnings(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "plans.json").write_text("{ this is not json")
        (state_dir / "telemetry.json").write_text('["a list, not an object"]')
        # an older version's cost model file is ignored, corrupt or not
        (state_dir / "cost_model.json").write_text('{"version": 99}')
        state = read_legacy_json(str(state_dir))
        assert state.plan_count == 0
        assert state.telemetry is None
        assert len(state.warnings) == 2
        assert not any("cost_model" in warning for warning in state.warnings)
        # a corrupt state dir must not break the engine
        engine = BatchEngine(registry=_registry(), state_tier=str(state_dir))
        assert engine.state_warnings == state.warnings
        report = engine.run(_corpus(20))
        assert report.stats.errors == 0

    def test_decision_cache_records_round_trip(self):
        engine = BatchEngine(registry=_registry())
        engine.run(_corpus(30))
        records = engine.cache.to_records()
        fresh = DecisionCache()
        assert fresh.load_records(records) == len(engine.cache)
        assert fresh.to_records() == records
        # malformed entries are skipped, not fatal
        assert fresh.load_records([[["k", "s", "-"], {"bogus": 1}]]) == 0


class TestStateDirHygiene:
    """Persisted state must stay bounded: decisions are capped per
    schema, telemetry rows age out — and the trimmed state still
    warm-starts correctly."""

    def test_cap_decision_records_keeps_newest_per_schema(self):
        from repro.engine.statetier import cap_decision_records

        records = [
            [[f"q{i}", "schemaA", "-"], {"satisfiable": True, "method": "m"}]
            for i in range(5)
        ] + [
            [[f"q{i}", "schemaB", "-"], {"satisfiable": False, "method": "m"}]
            for i in range(2)
        ]
        capped = cap_decision_records(records, 3)
        schema_a = [item for item in capped if item[0][1] == "schemaA"]
        schema_b = [item for item in capped if item[0][1] == "schemaB"]
        assert len(schema_a) == 3 and len(schema_b) == 2
        # newest (highest index = most recently used) survive, in order
        assert [item[0][0] for item in schema_a] == ["q2", "q3", "q4"]
        with pytest.raises(ValueError):
            cap_decision_records(records, 0)

    def test_capped_state_still_warm_starts(self, tmp_path):
        state_dir = str(tmp_path / "state")
        jobs = _corpus(80)
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            decision_cap_per_schema=5,
        )
        engine.run(jobs)
        assert len(engine.cache) > 10   # the cap only applies on save
        engine.save_state()

        state = _saved(state_dir)
        per_schema = {}
        for (key, _record) in state.decisions:
            per_schema[key[1]] = per_schema.get(key[1], 0) + 1
        assert per_schema and all(count <= 5 for count in per_schema.values())

        # a cold engine on the capped state still warm-starts: plans all
        # persisted (plans are never capped), decisions partially; the
        # rerun re-decides only what the cap dropped, with identical
        # verdicts
        baseline = _verdicts(engine.run(jobs))
        cold = BatchEngine(registry=_registry(), state_tier=state_dir)
        report = cold.run(jobs)
        assert _verdicts(report) == baseline
        assert report.stats.planner_invocations == 0
        assert cold.persisted_decisions_loaded == sum(per_schema.values())
        assert report.stats.cache_hits >= cold.persisted_decisions_loaded

    def test_telemetry_rows_age_out_on_save(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            telemetry_max_age_days=7.0,
        )
        engine.run(_corpus(40))
        # backdate one row beyond the age limit
        keys = [key for key, _stats in engine.telemetry.items()]
        stale_key = keys[0]
        engine.telemetry.get(stale_key).last_seen -= 8 * 86400.0
        engine.save_state()
        state = _saved(state_dir)
        assert state.telemetry is not None
        assert stale_key not in state.telemetry
        for key in keys[1:]:
            assert key in state.telemetry
        # the live engine keeps all rows (hygiene trims the file only)
        assert stale_key in engine.telemetry
        # a second engine loads what is left and saves it back, and the
        # first saves again: the stale row stays gone
        second = BatchEngine(registry=_registry(), state_tier=state_dir)
        second.save_state()
        engine.save_state()
        assert stale_key not in _saved(state_dir).telemetry

    def test_prune_keeps_legacy_rows_without_stamp(self):
        from repro.sat.telemetry import PlanStats

        telemetry = PlanTelemetry.from_dict({
            "plans": {
                "legacy|row": {"plan": None, "stats": {"count": 3}},
                "fresh|row": {"plan": None, "stats": PlanStats().to_dict()},
            }
        })
        assert telemetry.get("legacy|row").last_seen == 0.0
        removed = telemetry.prune(max_age_s=1.0)
        assert removed == 0       # no stamp and a fresh stamp both survive
        with pytest.raises(ValueError):
            telemetry.prune(max_age_s=-1.0)

    @staticmethod
    def _settings(engine):
        return (
            engine.group_chunk_size, engine.decision_cap_per_schema,
            engine.telemetry_max_age_days, engine.affinity,
            engine.lane_queue_depth,
        )

    #: the five scheduler settings' defaults, in ``_settings`` order
    DEFAULT_SETTINGS = (4, 512, 30.0, True, 4)

    def test_scheduler_tunables_round_trip(self, tmp_path):
        # settings come only from the constructor: an engine that ran and
        # saved with all five at non-default values leaves none of them
        # to a later engine on the same tier
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            group_chunk_size=7, decision_cap_per_schema=64,
            telemetry_max_age_days=3.0, affinity=False, lane_queue_depth=9,
        )
        assert self._settings(engine) == (7, 64, 3.0, False, 9)
        engine.run(_corpus(20))
        engine.save_state()
        engine.close()
        reloaded = BatchEngine(registry=_registry(), state_tier=state_dir)
        assert reloaded.persisted_decisions_loaded > 0   # learned state loads
        assert self._settings(reloaded) == self.DEFAULT_SETTINGS
        reloaded.close()

    @pytest.mark.parametrize("source", ["legacy-json", "tier-row"])
    def test_persisted_settings_are_ignored(self, tmp_path, source):
        # settings an earlier version persisted (a legacy scheduler.json,
        # or a row of an old tier's scheduler table) change nothing and
        # warn about nothing
        import json
        import sqlite3

        state_dir = tmp_path / "state"
        if source == "legacy-json":
            state_dir.mkdir()
            (state_dir / "scheduler.json").write_text(json.dumps({
                "version": 1, "group_chunk_size": -4,
                "telemetry_max_age_days": "soon", "affinity": False,
                "lane_queue_depth": 2,
            }))
        else:
            writer = BatchEngine(registry=_registry(), state_tier=str(state_dir))
            writer.run(_corpus(10))
            writer.save_state()
            writer.close()
            conn = sqlite3.connect(state_dir / "state.sqlite")
            with conn:
                conn.execute(
                    "CREATE TABLE scheduler (name TEXT PRIMARY KEY, "
                    "value TEXT NOT NULL, updated REAL NOT NULL)"
                )
                conn.execute(
                    "INSERT INTO scheduler VALUES ('affinity', 'false', 0)"
                )
            conn.close()
        engine = BatchEngine(registry=_registry(), state_tier=str(state_dir))
        assert engine.state_warnings == []
        assert self._settings(engine) == self.DEFAULT_SETTINGS
        assert engine.run(_corpus(10)).stats.errors == 0
        engine.close()


class TestStateDirSharing:
    def test_alternating_workloads_keep_each_others_plans(self, tmp_path):
        """A run that registers only schema B must not erase schema A's
        persisted plans from a shared state dir."""
        state_dir = str(tmp_path / "state")
        schemas = _schemas()

        first = BatchEngine(state_tier=state_dir)
        first.registry.register("tiny", schemas["tiny"])
        first.run([("A[not(B)]", "tiny"), ("B | C", "tiny")])
        tiny_plans = sum(len(a.plan_cache) for a in first.registry)
        assert tiny_plans >= 1
        first.save_state()

        second = BatchEngine(state_tier=state_dir)
        second.registry.register("doc", schemas["doc"])
        second.run([("title", "doc")])
        second.save_state()

        third = BatchEngine(state_tier=state_dir)
        third.registry.register("tiny", schemas["tiny"])
        report = third.run([("A[not(B)]", "tiny"), ("B | C", "tiny")])
        assert report.stats.planner_invocations == 0
        assert report.stats.persisted_plans_loaded >= tiny_plans

    def test_inline_errors_do_not_skew_latency_histogram(self):
        engine = BatchEngine(registry=_registry())
        engine.run([("A[not(B)]", "tiny")])
        (key,) = [k for k, _ in engine.telemetry.items()]
        before = engine.telemetry.get(key).count
        engine.telemetry.record_failure(
            Plan.from_dict(engine.telemetry.plan_record(key))
        )
        stats = engine.telemetry.get(key)
        assert stats.count == before            # no latency sample added
        assert stats.verdicts["error"] == 1     # but the failure is counted

    def test_payload_corruption_degrades_with_warnings(self, tmp_path):
        """Corruption below the top level (valid JSON, bogus values) must
        degrade to a cold start too, never crash the run."""
        import json

        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "cost_model.json").write_text(
            json.dumps({"version": 1, "min_samples": 0,
                        "entries": [["s", "b", "d", "xx", "yy"]]})
        )
        (state_dir / "telemetry.json").write_text(
            json.dumps({"version": 1, "plans": {
                "k": {"plan": None, "stats": {"count": "zzz"}}}})
        )
        state = read_legacy_json(str(state_dir))
        assert state.telemetry is not None and len(state.telemetry) == 0
        assert not any("cost_model" in warning for warning in state.warnings)
        engine = BatchEngine(registry=_registry(), state_tier=str(state_dir))
        assert engine.state_warnings == state.warnings
        report = engine.run([("A[not(B)]", "tiny")])
        assert report.stats.errors == 0
