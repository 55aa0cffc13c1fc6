"""Tests for the decider registry and query planner
(:mod:`repro.sat.registry`, :mod:`repro.sat.planner`).

The routing *behavior* is locked by ``tests/test_dispatch_routing.py``
(which must pass unchanged); this file covers the planner's own
contracts: plans reproduce the paper's result map declaratively, are
serializable and explainable, are cached per (feature signature × schema
fingerprint) so warm batch runs skip planning entirely, and the untested
routing edges (incomplete upward rewrite, the types-fixpoint → bounded
fallback, the lazy Prop 3.1 family) behave as documented.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sat.dispatch
from repro.dtd import parse_dtd
from repro.engine import BatchEngine, DecisionCache, SchemaRegistry
from repro.sat import (
    DEFAULT_PLANNER,
    ExecutionTrace,
    Plan,
    Planner,
    all_deciders,
    bounded,
    build_plan,
    decide,
    exptime_types,
    get_decider,
    nexptime,
    routing_table,
)
from repro.sat.family import sat_universal_family
from repro.sat.planner import execute_plan
from repro.xpath import parse_query
from repro.xpath.fragments import Feature, feature_signature, features_of
from repro.xpath.rewrite import PASSES, upward_to_qualifiers

GENERAL_DTD = """
root r
r  -> A, (B + C)
A  -> D*
B  -> eps
C  -> A?
D  -> eps
A  @ a
D  @ a
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
    registry.register("general", GENERAL_DTD)
    registry.register("disjfree", DISJFREE_DTD)
    return registry


# -- plan construction ----------------------------------------------------------

# the paper's result map, planner-side: (query, schema, expected decider)
PLAN_ROWS = [
    ("A[B | C]", None, "no_dtd"),
    ("A[@a = '1']", None, "conjunctive"),
    ("A[not(B)]", None, "universal_family"),
    ("A | **/B", "general", "downward"),
    ("A/>/B", "general", "sibling"),
    ("A[C]", "disjfree", "disjunction_free"),
    ("A/^/B", "disjfree", "disjunction_free"),
    ("A[not(B)]", "general", "exptime_types"),
    ("A[not(@a = '1')]", "general", "nexptime"),
    ("A[^*/. and @a = '1']/D", "general", "positive"),
    ("A[not(>)]", "general", "bounded"),
]


class TestPlanConstruction:
    @pytest.mark.parametrize("query_text, schema, expected", PLAN_ROWS)
    def test_result_map(self, registry, query_text, schema, expected):
        artifacts = registry.get(schema) if schema else None
        plan = Planner().plan_query(parse_query(query_text), artifacts=artifacts)
        assert plan.decider == expected
        # the plan's method matches what decide() actually reports for
        # rows without rewrites or fallback execution
        assert plan.method == get_decider(expected).method

    def test_ptime_plans_route_inline_heavy_plans_pool(self, registry):
        planner = Planner()
        general = registry.get("general")
        assert planner.plan_query(parse_query("A | **/B"), artifacts=general).route == "inline"
        assert planner.plan_query(parse_query("A[not(B)]"), artifacts=general).route == "pool"
        assert planner.plan_query(parse_query("A[B]")).route == "inline"
        assert planner.plan_query(parse_query("A[not(B)]")).route == "pool"

    def test_upward_rewrite_recorded_in_plan(self, registry):
        plan = Planner().plan_query(
            parse_query("A/^/B"), artifacts=registry.get("general")
        )
        assert plan.rewrites == ("canonicalize", "upward_to_qualifiers")
        # the general DTD has disjunction, but every production is
        # duplicate-free: the rewritten query takes the trait-gated
        # realworld PTIME path, with the fixpoint as its decline fallback
        assert plan.decider == "realworld"
        assert "exptime_types" in plan.fallbacks

    def test_exptime_plan_carries_fallback_chain(self, registry):
        plan = Planner().plan_query(
            parse_query("**/A[not(B)]"), artifacts=registry.get("general")
        )
        assert plan.decider == "exptime_types"
        # ↓* rules out the NEXPTIME fragment and ¬ rules out positive:
        # declining must land on the bounded semi-decision
        assert plan.fallbacks == ("bounded",)
        plan = Planner().plan_query(
            parse_query("A[not(B)]"), artifacts=registry.get("general")
        )
        assert plan.fallbacks == ("nexptime",)

    def test_signature_is_the_cache_key(self, registry):
        planner = Planner()
        artifacts = registry.get("general")
        first = planner.plan_query(parse_query("A/B[C]"), artifacts=artifacts)
        second = planner.plan_query(parse_query("X[Y]/Z"), artifacts=artifacts)
        assert first is second  # same feature signature, same schema
        assert planner.invocations == 1
        assert planner.cache_hits == 1
        assert first.signature == feature_signature(features_of(parse_query("X[Y]/Z")))


# -- serialization and explanation ----------------------------------------------

class TestPlanArtifact:
    def test_round_trips_through_dict(self, registry):
        plan = Planner().plan_query(
            parse_query("A/^/B"), artifacts=registry.get("disjfree")
        )
        assert Plan.from_dict(plan.to_dict()) == plan

    def test_explain_names_rewrites_decider_theorem_complexity(self, registry):
        plan = Planner().plan_query(
            parse_query("A[not(B)]"), artifacts=registry.get("general")
        )
        text = plan.explain()
        assert "canonicalize" in text
        assert "exptime_types" in text
        assert "Thm 5.3" in text
        assert "EXPTIME" in text
        assert "pool" in text

    def test_dispatch_docstring_is_generated_from_registry(self):
        doc = repro.sat.dispatch.__doc__
        table = routing_table()
        assert table in doc
        for spec in all_deciders():
            assert spec.method in doc
            assert spec.theorem in doc

    def test_registry_descriptors_expose_capabilities(self):
        spec = get_decider("exptime_types")
        assert spec.complexity == "EXPTIME"
        assert spec.may_decline
        assert spec.accepts(features_of(parse_query("A[not(B)]")))
        assert not spec.accepts(features_of(parse_query("A[@a = '1']")))
        disjfree = get_decider("disjunction_free")
        assert disjfree.traits == ("disjunction_free",)


# -- plan caching in the engine -------------------------------------------------

class TestPlanCache:
    def test_plans_live_on_the_schema_artifacts(self, registry):
        planner = Planner()
        artifacts = registry.get("general")
        plan = planner.plan_query(parse_query("A[C]"), artifacts=artifacts)
        assert artifacts.plan_cache[plan.signature] is plan
        # a *different* planner instance reuses the same artifact cache
        other = Planner()
        assert other.plan_query(parse_query("A[C]"), artifacts=artifacts) is plan
        assert other.invocations == 0
        assert other.cache_hits == 1

    def test_warm_plan_for_computes_no_signature(self, registry, monkeypatch):
        import repro.sat.planner as planner_module

        planner = Planner()
        artifacts = registry.get("general")
        features = features_of(parse_query("A[not(B)]"))
        plan = planner.plan_for(features, artifacts=artifacts)
        no_dtd = planner.plan_for(features)
        calls = []

        def counting(features):
            calls.append(features)
            return feature_signature(features)

        monkeypatch.setattr(planner_module, "feature_signature", counting)
        assert planner.plan_for(features, artifacts=artifacts) is plan
        assert planner.plan_for(features) is no_dtd
        assert calls == []
        assert planner.cache_hits == 2

    def test_warm_engine_run_makes_zero_planner_invocations(self, registry):
        jobs = [
            ("A | **/B", "general"), ("A[C]", "general"), ("A[not(B)]", "general"),
            ("A[C]", "disjfree"), ("A/>/B", "disjfree"),
        ]
        engine = BatchEngine(registry=registry)
        cold = engine.run(jobs)
        assert cold.stats.planner_invocations > 0

        # fresh decision cache forces real routing again; plans must come
        # from the per-schema cache without a single planner invocation
        warm = BatchEngine(registry=registry, cache=DecisionCache()).run(jobs)
        assert warm.stats.decide_calls == len(jobs)
        assert warm.stats.planner_invocations == 0
        assert warm.stats.plan_cache_hits == len(jobs)

    def test_decision_cached_rerun_skips_routing_entirely(self, registry):
        jobs = [("A[C]", "general"), ("A[C]", "disjfree")]
        engine = BatchEngine(registry=registry)
        engine.run(jobs)
        warm = engine.run(jobs)
        assert warm.stats.decide_calls == 0
        assert warm.stats.planner_invocations == 0
        assert warm.stats.plan_cache_hits == 0  # decision cache answered first

    def test_registry_stats_count_cached_plans(self, registry):
        BatchEngine(registry=registry).run([("A[C]", "general"), ("A", "disjfree")])
        assert registry.stats()["plans"] >= 2


# -- routing edges (satellite coverage) -----------------------------------------

class TestUpwardRewriteIncomplete:
    def test_residue_reported_incomplete(self):
        result = upward_to_qualifiers(parse_query("^/A"))
        assert not result.complete

    def test_deep_climb_is_incomplete(self):
        # two ↑ against one ↓: the second ↑ escapes the context node
        result = upward_to_qualifiers(parse_query("A/^/^/B"))
        assert not result.complete

    def test_balanced_climb_is_complete(self):
        result = upward_to_qualifiers(parse_query("A/B/^/^"))
        assert result.complete
        assert not features_of(result.path) - features_of(parse_query("A[B]"))

    @pytest.mark.parametrize("query_text", ["^/A", "A/^/^/B"])
    def test_dispatch_returns_unsat_under_any_dtd(self, query_text, registry):
        for schema in ("general", "disjfree"):
            result = decide(
                parse_query(query_text), artifacts=registry.get(schema)
            )
            assert result.is_unsat
            assert result.method == "dispatch"


class TestExptimeFallback:
    def _overflow_query(self):
        # > max_facts distinct negated child facts: the types fixpoint
        # declines (ReproError) and the plan's fallback chain takes over;
        # ↓* keeps the query out of the NEXPTIME fragment and ¬ out of
        # the positive one, so the fallback is the bounded engine
        qualifiers = "".join(f"[not(B{i})]" for i in range(25))
        return parse_query(f"**/A{qualifiers}")

    def test_decider_declines_beyond_fact_cap(self, registry):
        with pytest.raises(Exception) as excinfo:
            exptime_types.sat_exptime_types(
                self._overflow_query(), parse_dtd(GENERAL_DTD)
            )
        assert "max_facts" in str(excinfo.value)

    def test_dispatch_falls_back_to_bounded(self, registry):
        result = decide(self._overflow_query(), artifacts=registry.get("general"))
        assert result.method == bounded.METHOD

    def test_fallback_to_nexptime_without_recursion(self, registry):
        qualifiers = "".join(f"[not(B{i})]" for i in range(25))
        result = decide(
            parse_query(f"A{qualifiers}"), artifacts=registry.get("general")
        )
        assert result.method == nexptime.METHOD


class TestUniversalFamilyShortCircuit:
    def test_stops_at_first_sat_member(self, monkeypatch):
        calls = []
        original = repro.sat.dispatch.decide

        def counting(query, dtd=None, bounds=None, **kwargs):
            calls.append(dtd.root if dtd is not None else None)
            return original(query, dtd, bounds, **kwargs)

        monkeypatch.setattr(repro.sat.dispatch, "decide", counting)
        result = sat_universal_family(parse_query("A[not(B)]"))
        assert result.is_sat
        # family members: one universal DTD per label in {A, B, X}; the
        # A-rooted member is satisfiable, so B and X are never decided
        assert calls == ["A"]

    def test_unsat_still_requires_every_member(self):
        result = decide(parse_query("A[not(.)]"))
        assert result.is_unsat
        assert "universal DTD" in result.reason


class TestExecutePlanDirectly:
    def test_plan_is_reusable_across_queries_of_one_signature(self, registry):
        artifacts = registry.get("disjfree")
        plan = Planner().plan_query(parse_query("A[C]"), artifacts=artifacts)
        for query_text, expected_sat in (("A[C]", True), ("B[C]", False)):
            result = execute_plan(plan, parse_query(query_text), artifacts.dtd)
            assert result.satisfiable is expected_sat

    def test_registered_passes_include_the_pipeline(self):
        assert {"canonicalize", "upward_to_qualifiers"} <= set(PASSES)

    def test_default_planner_backs_plain_decide(self):
        before = DEFAULT_PLANNER.invocations + DEFAULT_PLANNER.cache_hits
        decide(parse_query("A[B]"))
        after = DEFAULT_PLANNER.invocations + DEFAULT_PLANNER.cache_hits
        assert after == before + 1


# -- plan round-trip and plans persisted by older versions ---------------------

class TestPlanRoundTrip:
    """Property: ``Plan.to_dict`` -> ``Plan.from_dict`` is the identity —
    same routing (decider, fallbacks, rewrites, route) and the same
    telemetry aggregation key."""

    @settings(max_examples=60)
    @given(
        feature_bits=st.integers(min_value=0, max_value=2 ** len(Feature) - 1),
        has_dtd=st.booleans(),
    )
    def test_round_trip_from_random_feature_sets(self, feature_bits, has_dtd):
        members = sorted(Feature, key=lambda f: f.value)
        features = frozenset(
            feature for index, feature in enumerate(members)
            if feature_bits >> index & 1
        )
        plan = build_plan(
            features, has_dtd=has_dtd, traits=lambda name: False,
            schema="abc123def456" if has_dtd else None,
        )
        rebuilt = Plan.from_dict(plan.to_dict())
        assert rebuilt == plan
        assert rebuilt.telemetry_key == plan.telemetry_key
        assert (rebuilt.decider, rebuilt.fallbacks, rebuilt.rewrites, rebuilt.route) \
            == (plan.decider, plan.fallbacks, plan.rewrites, plan.route)

    @settings(max_examples=30)
    @given(feature_bits=st.integers(min_value=0, max_value=2 ** len(Feature) - 1))
    def test_round_trip_survives_json_and_cost_annotations(self, feature_bits):
        """A plan survives JSON, and a record an older version annotated
        with measured ``costs`` loads as the same plan: the key is
        ignored, and this version never writes it."""
        import json

        members = sorted(Feature, key=lambda f: f.value)
        features = frozenset(
            feature for index, feature in enumerate(members)
            if feature_bits >> index & 1
        )
        plan = build_plan(
            features, has_dtd=True, traits=lambda name: False,
            schema="abc123def456",
        )
        record = plan.to_dict()
        assert "costs" not in record
        assert Plan.from_dict(json.loads(json.dumps(record))) == plan
        annotated = dict(record, costs=[[plan.decider, 0.25]])
        rebuilt = Plan.from_dict(json.loads(json.dumps(annotated)))
        assert rebuilt == plan
        assert rebuilt.telemetry_key == plan.telemetry_key

    def test_telemetry_key_ignores_cost_annotations(self):
        features = features_of(parse_query("A[not(B)]"))
        bare = build_plan(features, has_dtd=True, traits=lambda name: False)
        annotated = Plan.from_dict(
            dict(bare.to_dict(), costs=[["exptime_types", 1.5]])
        )
        assert bare.telemetry_key == annotated.telemetry_key


class TestStaticPlans:
    """A plan is a function of the feature signature and the schema
    class: the registry scan's order, ``inline`` exactly when the
    primary is PTIME."""

    @settings(max_examples=60)
    @given(
        feature_bits=st.integers(min_value=0, max_value=2 ** len(Feature) - 1),
        has_dtd=st.booleans(),
    )
    def test_route_is_inline_exactly_when_the_primary_is_ptime(
        self, feature_bits, has_dtd
    ):
        members = sorted(Feature, key=lambda f: f.value)
        features = frozenset(
            feature for index, feature in enumerate(members)
            if feature_bits >> index & 1
        )
        plan = build_plan(features, has_dtd=has_dtd, traits=lambda name: False)
        assert (plan.route == "inline") == (plan.complexity == "PTIME")
        chain = (plan.decider,) + plan.fallbacks
        ranks = [get_decider(name).cost_rank for name in chain]
        assert ranks == sorted(ranks)

    def test_decisions_on_one_schema_leave_another_schemas_plan_static(self):
        """Deciding questions on one schema changes no plan on another
        schema of the same size: the engine plans the signature there as
        a fresh planner does, in the pool."""
        first = "root r\nr -> A, (B + C)\nA -> eps\nB -> eps\nC -> eps\n"
        second = first.replace("C", "D")
        registry = SchemaRegistry()
        registry.register("first", first)
        registry.register("second", second)
        assert (
            registry.get("first").dtd.size() == registry.get("second").dtd.size()
        )
        with BatchEngine(registry=registry, workers=1) as engine:
            report = engine.run([
                ("A[not(B)]", "first"), ("A[not(C)]", "first"),
                ("B[not(A)]", "first"),
            ])
            methods = {result.method for result in report.results}
            assert methods == {get_decider("exptime_types").method}
            features = features_of(parse_query("A[not(B)]"))
            plan = engine.planner.plan_for(
                features, artifacts=engine.registry.get("second")
            )
        fresh = Planner().plan_for(
            features, artifacts=SchemaRegistry().register("second", second)
        )
        assert plan == fresh
        assert plan.decider == "exptime_types"
        assert plan.route == "pool"
        assert "costs" not in plan.to_dict()

    def test_engine_plans_equal_a_fresh_planners(self, registry):
        texts = [
            "A[not(B)]", "A | **/B", "A/>/B", "A[not(@a = '1')]",
            "A[not(>)]", "A[^*/. and @a = '1']/D",
        ]
        with BatchEngine(registry=registry) as engine:
            engine.run([(text, "general") for text in texts] * 3)
        artifacts = registry.get("general")
        assert len(artifacts.plan_cache) == len(texts)
        fresh_artifacts = SchemaRegistry().register("general", GENERAL_DTD)
        for text in texts:
            fresh = Planner().plan_query(parse_query(text), artifacts=fresh_artifacts)
            assert artifacts.plan_cache[fresh.signature] == fresh


class TestExecutionTraceAndFallThrough:
    def test_trace_records_single_answer(self, registry):
        artifacts = registry.get("general")
        plan = Planner().plan_query(parse_query("A[not(B)]"), artifacts=artifacts)
        trace = ExecutionTrace()
        result = execute_plan(plan, parse_query("A[not(B)]"), artifacts.dtd, trace=trace)
        assert result.is_sat
        assert trace.decider == plan.decider
        assert not trace.fallback_used
        assert trace.elapsed_ms > 0

    def test_promoted_semi_decision_falls_through_on_unknown(self):
        """An `unknown` from a non-final chain member must not become the
        answer while a definitive member remains — the guarantee that
        lets a persisted plan whose chain an older version reordered by
        measured cost run as it was saved."""
        dtd = parse_dtd(GENERAL_DTD)
        query = parse_query("A[not(B)]")
        static = build_plan(
            features_of(query), has_dtd=True, traits=lambda name: False
        )
        # put a semi-decision procedure first, as older versions' cost
        # model did on a schema size where it measured fast; `bounded`
        # honours the caller's search bounds, so tight bounds make it
        # answer `unknown` while the definitive members ignore them
        chain = (static.decider,) + static.fallbacks
        reordered = Plan(
            signature=static.signature,
            schema=static.schema,
            rewrites=static.rewrites,
            decider="bounded",
            fallbacks=tuple(name for name in chain if name != "bounded"),
            route="pool",
        )
        trace = ExecutionTrace()
        from repro.sat.bounded import Bounds

        result = execute_plan(
            reordered, query, dtd, Bounds(max_depth=0, max_trees=1), trace=trace
        )
        outcomes = [outcome for _name, _ms, outcome in trace.attempts]
        assert outcomes[0] == "unknown"
        assert result.satisfiable is True  # exptime_types still answers
        assert trace.fallback_used
        assert trace.decider == "exptime_types"

    def test_static_and_promoted_chains_agree_on_verdicts(self, registry):
        """Every order of a static chain answers as the static chain
        does: a plan an older version persisted with a measured order is
        adopted as it is."""
        from itertools import permutations

        artifacts = registry.get("general")
        queries = [
            "A[not(B)]", "B[not(C)]", ".[not(A)]", "A[not(D)]",
            ".[A and not(B)]", ".[not(B) and not(C)]",
        ]
        static_plan = Planner().plan_query(
            parse_query(queries[0]), artifacts=artifacts
        )
        chain = (static_plan.decider,) + static_plan.fallbacks
        assert len(chain) > 1
        for order in permutations(chain):
            promoted = Plan(
                signature=static_plan.signature,
                schema=static_plan.schema,
                rewrites=static_plan.rewrites,
                decider=order[0],
                fallbacks=order[1:],
                route=static_plan.route,
            )
            for text in queries:
                query = parse_query(text)
                assert (
                    execute_plan(static_plan, query, artifacts.dtd).satisfiable
                    == execute_plan(promoted, query, artifacts.dtd).satisfiable
                ), (order, text)


class TestArtifactTraitResolution:
    """Regression: planning against an artifact record whose
    ``classification`` predates a newly registered trait-gated decider
    must recompute the missing trait from the DTD (and backfill it) —
    not crash with ``AttributeError`` on the old attribute fallback."""

    #: the trait keys introduced alongside the realworld decider — a
    #: pre-upgrade state dir's artifacts know none of them
    NEW_TRAIT_KEYS = (
        "duplicate_free", "disjunction_capsuled", "dc_df_restrained",
        "all_terminating",
    )

    def _stale_artifacts(self):
        from repro.workloads import xhtml_like_dtd

        registry = SchemaRegistry()
        registry.register("xhtml", xhtml_like_dtd())
        artifacts = registry.get("xhtml")
        for key in self.NEW_TRAIT_KEYS:
            artifacts.classification.pop(key, None)
        return registry, artifacts

    def test_stale_classification_recomputes_and_backfills(self):
        _registry, artifacts = self._stale_artifacts()
        plan = Planner().plan_query(parse_query("body[div/p]"), artifacts=artifacts)
        assert plan.decider == "realworld"
        assert plan.route == "inline"
        # the recomputed trait is backfilled so later plans skip the predicate
        assert artifacts.classification["dc_df_restrained"] is True

    def test_pre_upgrade_state_dir_plans_new_trait_decider(self, tmp_path):
        from repro.workloads import xhtml_like_dtd

        state = str(tmp_path / "state")
        registry = SchemaRegistry()
        registry.register("xhtml", xhtml_like_dtd())
        with BatchEngine(registry=registry, state_tier=state) as engine:
            engine.run([("body", "xhtml")])
            engine.save_state()

        # a fresh engine adopts the persisted plans; the artifact record is
        # then aged to pre-upgrade shape before a new-signature query
        # arrives, forcing a live replan through the trait gate
        registry = SchemaRegistry()
        registry.register("xhtml", xhtml_like_dtd())
        artifacts = registry.get("xhtml")
        for key in self.NEW_TRAIT_KEYS:
            artifacts.classification.pop(key, None)
        with BatchEngine(registry=registry, state_tier=state) as engine:
            report = engine.run([("body[div/p]", "xhtml")])
        assert report.results[0].satisfiable is True
        assert artifacts.classification["dc_df_restrained"] is True

    def test_duck_typed_artifacts_resolve_traits(self):
        from repro.sat.planner import _artifact_trait
        from repro.workloads import xhtml_like_dtd

        class Duck:
            def __init__(self, dtd):
                self.dtd = dtd
                self.classification = {"disjunction_free": False}

        duck = Duck(xhtml_like_dtd())
        assert _artifact_trait(duck, "dc_df_restrained") is True
        assert duck.classification["dc_df_restrained"] is True  # backfilled
        assert _artifact_trait(duck, "disjunction_free") is False

    def test_plain_attribute_artifacts_still_resolve(self):
        class Legacy:
            disjunction_free = True

        from repro.sat.planner import _artifact_trait

        assert _artifact_trait(Legacy(), "disjunction_free") is True
