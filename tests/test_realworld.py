"""Tests for the real-world DTD fast paths (:mod:`repro.sat.realworld`)
and their trait plumbing.

Covers the arXiv:1308.0769 pipeline end to end: the realworld workload
corpus classifies into the advertised classes, the decider agrees with
the EXPTIME reference on worked examples and seeded differential sweeps,
budget overruns *decline* (never truncate), the planner trait-gates the
decider per schema, and the engine reports trait-routed answers.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.dtd import parse_dtd
from repro.dtd.model import DTD
from repro.dtd.properties import (
    classify,
    is_disjunction_capsuled_production,
    is_duplicate_free_production,
)
from repro.engine import BatchEngine, SchemaRegistry
from repro.errors import FragmentError, ReproError
from repro.regex import ast as rx
from repro.sat import Planner, get_decider
from repro.sat import registry as sat_registry
from repro.sat.exptime_types import sat_exptime_types
from repro.sat.realworld import (
    METHOD,
    _DCModel,
    _df_feasible,
    prepare_realworld,
    sat_realworld,
)
from repro.testing.oracle import OracleBounds, corpus_schemas, cross_check
from repro.workloads import random_query
from repro.workloads.realworld import (
    docbook_like_dtd,
    realworld_jobs,
    realworld_schemas,
    rss_like_dtd,
    xhtml_like_dtd,
)
from repro.xmltree import conforms
from repro.xpath import parse_query
from repro.xpath import fragments as frag
from repro.xpath.semantics import satisfies

#: the merge-necessity schema: one ``b`` child must host both subtrees
MERGE_DTD = """
root a
a -> b
b -> (x?, y?)
x -> eps
y -> eps
"""

#: duplicate-free union: ``b`` and ``c`` are exclusive alternatives
UNION_DTD = """
root a
a -> (b + c)
b -> eps
c -> eps
"""

#: neither DC (top-level union) nor DF (``A`` twice): outside the class
UNRESTRAINED_DTD = """
root r
r -> (A, B) + (A, C)
A -> eps
B -> eps
C -> eps
"""


# -- corpus classification -------------------------------------------------------

class TestCorpusClassification:
    def test_xhtml_is_disjunction_capsuled(self):
        classes = classify(xhtml_like_dtd())
        assert classes["disjunction_capsuled"]
        assert classes["dc_df_restrained"]
        assert not classes["disjunction_free"]

    def test_rss_is_duplicate_free(self):
        classes = classify(rss_like_dtd())
        assert classes["duplicate_free"]
        assert classes["dc_df_restrained"]

    def test_docbook_needs_the_covering_class(self):
        # the per-production mix: neither class alone covers DocBook's
        # optional-heavy heads plus starred wrapper lists
        classes = classify(docbook_like_dtd())
        assert not classes["disjunction_capsuled"]
        assert not classes["duplicate_free"]
        assert classes["dc_df_restrained"]

    def test_whole_corpus_qualifies_and_terminates(self):
        for name, dtd in realworld_schemas().items():
            classes = classify(dtd)
            assert classes["dc_df_restrained"], name
            assert classes["all_terminating"], name


# -- worked examples -------------------------------------------------------------

class TestWorkedExamples:
    def test_merged_host_is_found(self):
        # a -> b gives exactly one b; it must host both x and y
        result = sat_realworld(parse_query(".[b/x][b/y]"), parse_dtd(MERGE_DTD))
        assert result.satisfiable is True
        assert result.method == METHOD

    def test_exclusive_union_children_conflict(self):
        result = sat_realworld(parse_query(".[b][c]"), parse_dtd(UNION_DTD))
        assert result.satisfiable is False

    def test_either_union_branch_alone_is_sat(self):
        dtd = parse_dtd(UNION_DTD)
        assert sat_realworld(parse_query(".[b]"), dtd).satisfiable
        assert sat_realworld(parse_query(".[c]"), dtd).satisfiable

    def test_parent_axis_arrives_via_rewrite(self):
        result = sat_realworld(parse_query("b/^"), parse_dtd(MERGE_DTD))
        assert result.satisfiable is True

    def test_climbing_above_the_root_is_unsat(self):
        result = sat_realworld(parse_query("^/a"), parse_dtd(MERGE_DTD))
        assert result.satisfiable is False
        assert "above the root" in result.reason

    def test_recursive_schema_converges(self):
        dtd = xhtml_like_dtd()
        assert sat_realworld(
            parse_query(".[body/div/div/**/em]"), dtd
        ).satisfiable
        # head content never reaches table rows
        assert not sat_realworld(parse_query("head/**/tr"), dtd).satisfiable

    def test_result_carries_solver_stats(self):
        result = sat_realworld(parse_query(".[b/x]"), parse_dtd(MERGE_DTD))
        assert result.stats["memo_keys"] >= 1
        assert result.stats["passes"] >= 1


# -- witnesses -------------------------------------------------------------------

def _assert_witness(result, query, dtd) -> None:
    assert result.witness is not None, str(query)
    assert conforms(result.witness, dtd), (str(query), result.witness.pretty())
    assert satisfies(result.witness, query), (str(query), result.witness.pretty())


class TestWitnesses:
    def test_merged_host_witness(self):
        dtd = parse_dtd(MERGE_DTD)
        query = parse_query(".[b/x][b/y]")
        result = sat_realworld(query, dtd)
        _assert_witness(result, query, dtd)
        # the one b hosts both required children
        assert result.witness.root.child_labels() == ("b",)
        assert result.witness.root.children[0].child_labels() == ("x", "y")

    def test_unsat_has_no_witness(self):
        result = sat_realworld(parse_query(".[b][c]"), parse_dtd(UNION_DTD))
        assert result.satisfiable is False and result.witness is None

    def test_every_sat_verdict_on_the_corpus_carries_a_witness(self):
        # the original query is what the witness must satisfy, also when
        # the decider answered its X(child,qual) rewriting
        rng = random.Random(20261017)
        checked = rewritten = 0
        for name, dtd in realworld_schemas().items():
            context = prepare_realworld(dtd)
            labels = sorted(dtd.element_types)
            for fragment in (frag.DOWNWARD_QUAL, frag.CHILD_UP):
                for _ in range(30):
                    query = random_query(rng, fragment, labels, max_depth=3)
                    try:
                        result = sat_realworld(query, dtd, context)
                    except ReproError:
                        continue
                    if not result.is_sat:
                        assert result.witness is None
                        continue
                    _assert_witness(result, query, dtd)
                    checked += 1
                    rewritten += not frag.DOWNWARD_QUAL.contains(query)
        assert checked >= 40
        assert rewritten >= 5

    def test_engine_corpus_witnesses(self):
        schemas = realworld_schemas()
        jobs = realworld_jobs(random.Random(8), 120, duplicate_rate=0.0)
        contexts = {name: prepare_realworld(dtd) for name, dtd in schemas.items()}
        checked = 0
        for job in jobs:
            dtd = schemas[job.schema]
            query = parse_query(job.query_text)
            try:
                result = sat_realworld(query, dtd, contexts[job.schema])
            except ReproError:
                continue
            if result.is_sat:
                _assert_witness(result, query, dtd)
                checked += 1
        assert checked >= 20


# -- declines, never truncations -------------------------------------------------

class TestDeclines:
    def test_too_many_atoms_declines(self):
        lines = ["root r", "r -> (c1 + c2 + c3 + c4 + c5 + c6 + c7 + c8)*"]
        lines += [f"c{i} -> eps" for i in range(1, 9)]
        dtd = parse_dtd("\n".join(lines))
        query = parse_query("." + "".join(f"[c{i}]" for i in range(1, 8)))
        with pytest.raises(ReproError):
            sat_realworld(query, dtd)

    def test_outside_fragment_raises_fragment_error(self):
        with pytest.raises(FragmentError):
            sat_realworld(parse_query("a[not(b)]"), parse_dtd(MERGE_DTD))

    def test_unrestrained_schema_rejected_at_prepare(self):
        with pytest.raises(FragmentError):
            prepare_realworld(parse_dtd(UNRESTRAINED_DTD))

    def test_spec_declares_decline_and_trait(self):
        spec = get_decider("realworld")
        assert spec.may_decline
        assert spec.complexity == "PTIME"
        assert spec.traits == ("dc_df_restrained",)
        assert sat_registry.decider_traits("realworld") == ("dc_df_restrained",)
        assert sat_registry.decider_traits("downward") == ()
        assert sat_registry.decider_traits("no-such-decider") == ()


# -- feasibility models vs brute-force word enumeration --------------------------

class _TooWide(Exception):
    pass


def _word_multisets(regex, star_bound: int, cap: int = 250) -> set:
    """All word multisets of ``regex`` with every star unrolled at most
    ``star_bound`` times, as frozensets of ``Counter`` items.  Exact up to
    the unrolling bound; raises ``_TooWide`` past ``cap`` multisets."""
    def merge(lhs: set, rhs: set) -> set:
        out = set()
        for left in lhs:
            for right in rhs:
                out.add(frozenset((Counter(dict(left)) + Counter(dict(right))).items()))
                if len(out) > cap:
                    raise _TooWide()
        return out

    if isinstance(regex, rx.Epsilon):
        return {frozenset()}
    if isinstance(regex, rx.Symbol):
        return {frozenset({(regex.name, 1)})}
    if isinstance(regex, rx.Optional):
        return {frozenset()} | _word_multisets(regex.inner, star_bound, cap)
    if isinstance(regex, rx.Union):
        out = set()
        for part in regex.parts:
            out |= _word_multisets(part, star_bound, cap)
            if len(out) > cap:
                raise _TooWide()
        return out
    if isinstance(regex, rx.Concat):
        out = {frozenset()}
        for part in regex.parts:
            out = merge(out, _word_multisets(part, star_bound, cap))
        return out
    if isinstance(regex, rx.Star):
        inner = _word_multisets(regex.inner, star_bound, cap)
        out = {frozenset()}
        frontier = {frozenset()}
        for _ in range(star_bound):
            frontier = merge(frontier, inner)
            out |= frontier
            if len(out) > cap:
                raise _TooWide()
        return out
    raise AssertionError(f"unexpected regex node {regex!r}")


def _brute_feasible(regex, need: dict[str, int], star_bound: int) -> bool:
    return any(
        all(dict(word).get(label, 0) >= count for label, count in need.items())
        for word in _word_multisets(regex, star_bound)
    )


def _random_production(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rx.sym(rng.choice("abc")) if rng.random() < 0.85 else rx.Epsilon()
    kind = rng.choice(["concat", "union", "star", "optional"])
    if kind == "concat":
        return rx.concat(*(
            _random_production(rng, depth - 1) for _ in range(rng.randint(2, 3))
        ))
    if kind == "union":
        return rx.union(*(
            _random_production(rng, depth - 1) for _ in range(rng.randint(2, 3))
        ))
    if kind == "star":
        return rx.star(_random_production(rng, depth - 1))
    return rx.Optional(_random_production(rng, depth - 1))


class TestFeasibilityModels:
    """The polynomial feasibility checks agree with brute-force word
    enumeration on every qualifying production the seeded grid draws —
    the correctness core that lets sat_realworld skip the Glushkov ×
    fact-set product."""

    def _model_for(self, production):
        # wrap the production in a one-type DTD with ε leaves so the model
        # comes out of the real prepare_realworld construction path
        productions = {"r": production}
        productions.update({name: rx.Epsilon() for name in production.alphabet()})
        return prepare_realworld(DTD(root="r", productions=productions)).models["r"]

    def test_models_match_enumeration_on_seeded_grid(self):
        rng = random.Random(20250611)
        checked = dc_checked = df_checked = 0
        for _attempt in range(2000):
            if checked >= 120:
                break
            production = _random_production(rng)
            if not (
                is_disjunction_capsuled_production(production)
                or is_duplicate_free_production(production)
            ):
                continue
            model = self._model_for(production)
            labels = sorted(production.alphabet()) or ["a"]
            need = {
                label: rng.randint(0, 2)
                for label in rng.sample(labels, min(len(labels), 2))
            }
            need = {label: count for label, count in need.items() if count}
            star_bound = max(2, sum(need.values()))
            try:
                expected = _brute_feasible(production, need, star_bound)
            except _TooWide:
                continue
            assert model.feasible(need) == expected, (production, need)
            # the solver admits one host of any label without a check
            assert all(model.feasible({label: 1}) for label in model.alphabet)
            checked += 1
            dc_checked += isinstance(model, _DCModel)
            df_checked += not isinstance(model, _DCModel)
        assert dc_checked and df_checked  # both model kinds exercised

    def test_df_split_requires_every_label(self):
        production = rx.concat(rx.sym("a"), rx.Optional(rx.sym("b")))
        assert _df_feasible(production, {"a": 1, "b": 1})
        assert not _df_feasible(production, {"a": 2})
        assert not _df_feasible(production, {"c": 1})

    def test_dc_mandatory_counts_are_respected(self):
        production = rx.concat(
            rx.sym("a"), rx.sym("a"), rx.star(rx.sym("b")),
        )
        model = self._model_for(production)
        assert isinstance(model, _DCModel)
        assert model.feasible({"a": 2, "b": 5})
        assert not model.feasible({"a": 3})


# -- differential sweeps ---------------------------------------------------------

class TestDifferential:
    def test_matches_exptime_reference_on_realworld_corpus(self):
        rng = random.Random(20250807)
        compared = declines = 0
        for name, dtd in realworld_schemas().items():
            context = prepare_realworld(dtd)
            labels = sorted(dtd.element_types)
            for _ in range(25):
                query = random_query(rng, frag.DOWNWARD_QUAL, labels, max_depth=3)
                try:
                    mine = sat_realworld(query, dtd, context)
                except ReproError:
                    declines += 1
                    continue
                reference = sat_exptime_types(query, dtd)
                assert mine.satisfiable == reference.satisfiable, (name, str(query))
                compared += 1
        assert compared >= 60
        assert declines <= 5  # typical traffic stays far inside the budgets

    def test_parent_axis_matches_routed_dispatch(self):
        # parent-axis queries on the XHTML-like schema, then the engine's
        # question shape: 300 distinct realworld_jobs questions over the
        # corpus, in both fragments; every SAT witness is checked too
        from repro.sat import decide

        rng = random.Random(11)
        registry = SchemaRegistry()
        for name, dtd in realworld_schemas().items():
            registry.register(name, dtd)
        labels = sorted(registry.get("xhtml").dtd.element_types)
        inputs = [
            ("xhtml", random_query(rng, frag.CHILD_UP, labels, max_depth=3))
            for _ in range(15)
        ]
        inputs += [
            (job.schema, parse_query(job.query_text))
            for job in realworld_jobs(
                random.Random(20130803), 300, duplicate_rate=0.0
            )
        ]
        contexts = {
            name: prepare_realworld(registry.get(name).dtd)
            for name in ("xhtml", "docbook", "rss")
        }
        witnesses = 0
        for name, query in inputs:
            artifacts = registry.get(name)
            mine = sat_realworld(query, artifacts.dtd, contexts[name])
            with sat_registry.disabled("realworld"):
                reference = decide(query, artifacts=artifacts)
            assert mine.satisfiable == reference.satisfiable, (name, str(query))
            if mine.is_sat:
                _assert_witness(mine, query, artifacts.dtd)
                witnesses += 1
        assert witnesses >= 100

    def test_oracle_cross_check_has_no_disagreements(self):
        # the corpus rows added for this decider: small DC/DF-restrained
        # schemas within the oracle bound; cross_check runs realworld
        # alongside every other applicable decider and the brute oracle
        rows = [
            (dtd, labels) for dtd, labels, _ in corpus_schemas()
            if classify(dtd)["dc_df_restrained"]
        ]
        assert len(rows) >= 2
        rng = random.Random(20250611)
        # the differential-corpus bounds: big enough for the minimal
        # witnesses of depth-2 queries, small enough to enumerate quickly
        bounds = OracleBounds(max_depth=4, max_width=3, max_nodes=12)
        disagreements: list[str] = []
        realworld_verdicts = 0
        for dtd, labels in rows:
            for fragment in (frag.DOWNWARD_QUAL, frag.CHILD_UP):
                for _ in range(4):
                    query = random_query(rng, fragment, labels, max_depth=2)
                    report = cross_check(query, dtd, bounds)
                    realworld_verdicts += (
                        report.verdicts.get("realworld") is not None
                    )
                    disagreements.extend(
                        f"{report.query} (root {dtd.root}): {message}"
                        for message in report.disagreements
                    )
        assert not disagreements, "\n".join(disagreements)
        assert realworld_verdicts > 0, "realworld never reached a verdict"


# -- planner trait gating --------------------------------------------------------

class TestTraitRouting:
    def test_qualifying_schema_routes_inline_to_realworld(self):
        registry = SchemaRegistry()
        registry.register("xhtml", xhtml_like_dtd())
        plan = Planner().plan_query(
            parse_query("body[div/p]"), artifacts=registry.get("xhtml")
        )
        assert plan.decider == "realworld"
        assert plan.route == "inline"
        # declining falls into the EXPTIME chain, verdicts unchanged
        assert "exptime_types" in plan.fallbacks

    def test_unrestrained_schema_skips_the_fast_path(self):
        registry = SchemaRegistry()
        registry.register("general", UNRESTRAINED_DTD)
        plan = Planner().plan_query(
            parse_query("r[A]"), artifacts=registry.get("general")
        )
        assert plan.decider == "exptime_types"

    def test_disabled_restores_the_registry(self):
        before = sat_registry.registry_size()
        with sat_registry.disabled("realworld") as spec:
            assert spec.name == "realworld"
            assert sat_registry.registry_size() == before - 1
            with pytest.raises(Exception):
                get_decider("realworld")
        assert sat_registry.registry_size() == before
        assert get_decider("realworld") is spec


# -- engine accounting and workload generator ------------------------------------

class TestEngineTraitAccounting:
    def test_engine_counts_trait_routed_answers(self):
        registry = SchemaRegistry()
        for name, dtd in realworld_schemas().items():
            registry.register(name, dtd)
        jobs = realworld_jobs(random.Random(7), 24, duplicate_rate=0.0)
        with BatchEngine(registry=registry) as engine:
            report = engine.run(jobs)
        stats = report.stats
        assert stats.trait_routed_answers.get("realworld", 0) > 0
        assert stats.pool_decides == 0  # nothing reached the EXPTIME lanes
        assert stats.as_dict()["trait_routed_answers"] == stats.trait_routed_answers
        assert "trait routing" in stats.describe()

    def test_prepare_runs_once_per_schema(self, monkeypatch):
        # every prepare hook reads only the DTD, so a runtime keeps one
        # prepared context per schema, whatever plan asks: 1,000 distinct
        # questions over the 3-schema corpus, in 64-job runs on one
        # engine, prepare each schema exactly once
        import dataclasses

        from repro.sat import realworld as realworld_module

        calls = []
        original = realworld_module.prepare_realworld

        def counted(dtd):
            calls.append(1)
            return original(dtd)

        # the engine prepares through the registry spec; a decider called
        # without a context prepares through the module global
        spec = get_decider("realworld")
        monkeypatch.setitem(
            sat_registry._REGISTRY, "realworld",
            dataclasses.replace(spec, prepare=counted),
        )
        monkeypatch.setattr(realworld_module, "prepare_realworld", counted)
        registry = SchemaRegistry()
        for name, dtd in realworld_schemas().items():
            registry.register(name, dtd)
        jobs = realworld_jobs(
            random.Random(1308), 1000, duplicate_rate=0.0, variant_rate=0.0
        )
        with BatchEngine(registry=registry) as engine:
            for start in range(0, len(jobs), 64):
                assert engine.run(jobs[start:start + 64]).stats.errors == 0
            assert len(calls) == 3
            assert engine.last_stats.lane_contexts[0] == 3

    def test_realworld_jobs_stay_in_fragment(self):
        jobs = realworld_jobs(random.Random(3), 30)
        assert len(jobs) == 30
        allowed = frag.DOWNWARD_QUAL.allowed | frag.CHILD_UP.allowed
        for job in jobs:
            assert job.schema in {"xhtml", "docbook", "rss"}
            query = job.query if not isinstance(job.query, str) else parse_query(job.query)
            assert frag.features_of(query) <= allowed
