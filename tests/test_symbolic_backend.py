"""The integer-packed kernels: the Theorem 5.3 types fixpoint
(`repro.sat.exptime_types`) and the shared Glushkov word kernels
(`repro.sat.bits`).

Three layers of evidence:

* **kernel properties** — packed word enumeration reproduces
  ``enumerate_words`` order exactly, the Glushkov longest-path equals the
  longest enumerated word, and the compiled closure program produces the
  same truth bits as a plain recursive reading of the closure on random
  closures;
* **golden verdicts** — on wide schemas (64–256 element types) the
  fixpoint reproduces the verdicts recorded from the object-based
  fixpoint it replaced, with every SAT witness re-validated;
* **engine integration** — a question beyond the fixpoint's fact cap
  falls through to the next chain member on real pool lanes, and the
  answering decider is visible in plan telemetry.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

import pytest

from repro.dtd.generator import random_dtd
from repro.engine import BatchEngine, EngineStats, Job, SchemaRegistry
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import attempt_spans
from repro.sat.bits import (
    LruCache,
    cached_tables,
    enumerate_words_packed,
    longest_accepted_length,
)
from repro.sat import exptime_types
from repro.sat.exptime_types import (
    Child,
    CompiledClosure,
    Desc,
    Done,
    PackedTypesContext,
    _Closure,
    first_cases,
    prepare_types,
    sat_exptime_types,
)
from repro.sat.registry import DeciderSpec, all_deciders
from repro.sat.telemetry import PlanTelemetry
from repro.regex import ast as rx
from repro.regex.ops import enumerate_words
from repro.workloads import wide_dtd
from repro.workloads.batch import batch_jobs
from repro.workloads.queries import random_query
from repro.xmltree.validate import conforms
from repro.xpath import ast, parse_query
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import REC_NEG_DOWN, REC_NEG_DOWN_UNION
from repro.xpath.semantics import satisfies

#: the shared wide-schema query mix: negation-heavy closures with real
#: fixpoint work (labels exist in every wide_dtd(>=64) instance)
WIDE_QUERIES = (
    "**/T9[T28 and not(T29)]",
    "**/*[not(T13) and not(T14)]",
    "T1[not(T4/T13) and **/T16]",
    "**/T5[not(T16 or T17)]/T18",
    "T2[**/T25 and not(**/T26)]",
    "**/T10[not(T31)][not(T32)]",
    "T7/T22",
    "**/T12[not(T38 or T39)]",
)

#: golden table recorded from the object-based fixpoint before it was
#: retired: (verdict, child facts, closure qualifiers) per WIDE_QUERIES
#: entry — identical at 64, 128 and 256 element types
WIDE_GOLDEN = {
    "**/T9[T28 and not(T29)]": (True, 4, 7),
    "**/*[not(T13) and not(T14)]": (True, 4, 8),
    "T1[not(T4/T13) and **/T16]": (True, 5, 8),
    "**/T5[not(T16 or T17)]/T18": (True, 5, 7),
    "T2[**/T25 and not(**/T26)]": (True, 5, 8),
    "**/T10[not(T31)][not(T32)]": (True, 4, 7),
    "T7/T22": (False, 2, 2),
    "**/T12[not(T38 or T39)]": (True, 4, 7),
}

#: golden table recorded from the object-based fixpoint before it was
#: retired: the seeded 60-query random corpus over ``wide_dtd(64)``
#: (``random_query`` on the ``rng`` fixture, labels T0..T15, depth 2), in
#: draw order, with its verdicts; none of these queries declines
WIDE_CORPUS_GOLDEN = (
    ('*[*][T11]', True),
    ('T9[T9][**]', False),
    ('*/T2', False),
    ('**', True),
    ('*', True),
    ('**[T13][lab() = T9]', False),
    ('**/*/**', True),
    ('T0/*', False),
    ('T9/**/T2', False),
    ('(T6/**/*)[lab() = T8]', False),
    ('(T9/T6)[*]', False),
    ('T6[T4]', False),
    ('**[lab() = T4] | T4 | *', True),
    ('T8[lab() = T10] | *[*]', True),
    ('*/** | **[lab() = T11]', True),
    ('(* | T5)[lab() = T3 and lab() = T11]', False),
    ('**/T0/*', False),
    ('T8 | **/T7/**', True),
    ('T6', False),
    ('**[** and lab() = T14]', True),
    ('*/** | * | *', True),
    ('*', True),
    ('(T11/**/*)[**]', False),
    ('*', True),
    ('*[lab() = T14] | T14 | T14', False),
    ('T8/*', False),
    ('*[**][lab() = T6]', False),
    ('T1[*] | */*', True),
    ('(**/T14)[not(*)]', True),
    ('T5[T13] | T2[*]', True),
    ('**[**][lab() = T5]', True),
    ('T11', False),
    ('**', True),
    ('T1/*/**', True),
    ('(**/T13/T10)[lab() = T15 or lab() = T15]', False),
    ('*[lab() = T6] | *[**]', True),
    ('(T15 | *)[lab() = T12]', False),
    ('T14/**', False),
    ('T12/**/**', False),
    ('**[*][lab() = T1 or T2]', True),
    ('*/**', True),
    ('**/**', True),
    ('**[not(*)]', True),
    ('T5/**/T3', False),
    ('T12/*', False),
    ('(**/**/**)[lab() = T14 or lab() = T6]', True),
    ('*/**', True),
    ('**[T12][not(lab() = T8)]', True),
    ('**[T14][* and **]', True),
    ('T12/*', False),
    ('*/**', True),
    ('(T6 | T12)[T9]', False),
    ('T13[lab() = T7][not(lab() = T4)]', False),
    ('T3/*', True),
    ('(*/*/*)[not(lab() = T9)]', True),
    ('(* | *)[lab() = T1 or *]', True),
    ('T6[T2][*]', False),
    ('*/**/T15 | *[*]', True),
    ('*/*', True),
    ('T6', False),
)


class TestLruCache:
    def test_evicts_least_recently_used(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh a
        cache.put("c", 3)               # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)


class TestPackedWordKernel:
    def test_packed_enumeration_matches_reference_order(self, rng):
        """Same words, same length-lexicographic order, on random content
        models — the property that makes the packed tables a drop-in for
        the bounded engine's truncated word tables."""
        for _ in range(150):
            dtd = random_dtd(rng, n_types=4)
            for name in sorted(dtd.element_types):
                regex = dtd.production(name)
                reference = []
                for word in enumerate_words(regex, 4):
                    reference.append(word)
                    if len(reference) >= 30:
                        break
                packed = []
                for word in enumerate_words_packed(cached_tables(regex), 4, 30):
                    packed.append(word)
                assert packed == reference, str(regex)

    def test_longest_length_matches_enumeration(self, rng):
        """On star-free content models the Glushkov longest path equals
        the longest enumerated word."""
        checked = 0
        for _ in range(150):
            dtd = random_dtd(rng, n_types=4, allow_star=False)
            for name in sorted(dtd.element_types):
                regex = dtd.production(name)
                longest = longest_accepted_length(cached_tables(regex))
                assert longest is not None, str(regex)
                observed = max(len(word) for word in enumerate_words(regex, longest + 2))
                assert longest == observed, str(regex)
                checked += 1
        assert checked > 0

    def test_cycle_reports_none(self):
        tables = cached_tables(rx.star(rx.sym("a")))
        assert longest_accepted_length(tables) is None
        nested = cached_tables(rx.concat(rx.sym("a"), rx.star(rx.sym("b"))))
        assert longest_accepted_length(nested) is None


_TRUE = ast.PathExists(ast.Empty())


def _residual_qual(path):
    """The qualifier a residual path's fact tracks (``None`` for ε)."""
    return None if isinstance(path, ast.Empty) else ast.PathExists(path)


def _ast_fact(closure, fact):
    """A closure fact with its qualifier ids read back as AST nodes."""
    if fact[0] == "c":
        _tag, label, qid = fact
        return ("c", label, None if qid is None else closure.node(qid))
    return ("cd", closure.node(fact[1]))


def _reference_truths(closure, label, fact_bits):
    """The closure's meaning restated as plain recursion over
    ``first_cases`` on AST nodes: the ids of the closure qualifiers that
    hold, and of the ``↓*``-tracked ones whose ``↓*``-truth holds, at a
    node labelled ``label`` whose children supply the facts in
    ``fact_bits``.  The compiled program must agree with it."""
    fact_index = {
        _ast_fact(closure, fact): index for fact, index in closure.fact_index.items()
    }

    def has(fact):
        return bool(fact_bits >> fact_index[fact] & 1)

    @functools.cache
    def truth(qual):
        if isinstance(qual, ast.PathExists):
            return exists(qual.path)
        if isinstance(qual, ast.LabelTest):
            return qual.name == label
        if isinstance(qual, ast.And):
            return truth(qual.left) and truth(qual.right)
        if isinstance(qual, ast.Or):
            return truth(qual.left) or truth(qual.right)
        return not truth(qual.inner)

    @functools.cache
    def exists(path):
        for case in first_cases(path):
            if isinstance(case, Done):
                return True
            if isinstance(case, Child):
                if has(("c", case.label, _residual_qual(case.residual))):
                    return True
            elif isinstance(case, Desc):
                if has(("cd", _residual_qual(case.residual) or _TRUE)):
                    return True
            elif truth(case.qualifier) and exists(case.residual):
                return True
        return False

    truths = {qid for qid in closure.quals if truth(closure.node(qid))}
    dtruths = set()
    for qid in closure.dquals:
        qual = closure.node(qid)
        if truth(qual) or (("cd", qual) in fact_index and has(("cd", qual))):
            dtruths.add(qid)
    return truths, dtruths


class TestCompiledClosure:
    """The once-per-call compiled bit program against the recursive
    reading of the closure, on random closures and random fact sets."""

    def _reference_contribution(self, closure, label, truths, dtruths):
        # a child type's contribution to its parent's facts, restated as
        # the spec: one pass over the fact list
        bits = 0
        for index, fact in enumerate(closure.facts):
            if fact[0] == "c":
                _tag, fact_label, qual = fact
                if (fact_label is None or fact_label == label) and (
                    qual is None or qual in truths
                ):
                    bits |= 1 << index
            else:
                _tag, qual = fact
                if qual in dtruths:
                    bits |= 1 << index
        return bits

    def test_truth_bits_match_evaluator(self, rng):
        labels = ["A", "B", "C", "D"]
        label_index = {name: index for index, name in enumerate(labels)}
        sample = random.Random(20250807)
        for trial in range(120):
            query = random_query(rng, REC_NEG_DOWN_UNION, labels, max_depth=2)
            closure = _Closure()
            closure.collect(ast.PathExists(query))
            compiled = CompiledClosure(closure, label_index)
            assert compiled.qual_count == len(closure.quals)
            assert compiled.fact_count == len(closure.facts)
            dquals = sorted(
                closure.dquals, key=lambda qual: closure.quals.index(qual)
            )
            masks = {0, (1 << compiled.fact_count) - 1}
            target = min(12, 1 << compiled.fact_count)
            while len(masks) < target:
                masks.add(sample.getrandbits(compiled.fact_count))
            for label in labels:
                for fact_bits in masks:
                    truths, dtruths = _reference_truths(closure, label, fact_bits)
                    truth_bits, dtruth_bits = compiled.evaluate(
                        label_index[label], fact_bits
                    )
                    for position, qual in enumerate(closure.quals):
                        assert bool(truth_bits >> position & 1) == (qual in truths), (
                            str(query), label, fact_bits, str(closure.node(qual))
                        )
                    for position, qual in enumerate(dquals):
                        assert bool(dtruth_bits >> position & 1) == (qual in dtruths)
                    expected = self._reference_contribution(
                        closure, label, truths, dtruths
                    )
                    packed = compiled.contribution(
                        label_index[label], truth_bits, dtruth_bits
                    )
                    assert packed == expected, (str(query), label, fact_bits)

    def test_unknown_label_test_is_false(self):
        query = parse_query(".[X and A]")
        closure = _Closure()
        closure.collect(ast.PathExists(query))
        compiled = CompiledClosure(closure, {"A": 0})  # X not in the schema
        truth_bits, _ = compiled.evaluate(0, 0)
        seed_position = 0  # the seed qualifier is always collected first
        assert not truth_bits >> seed_position & 1


def _pooled_questions(count: int):
    """``count`` canonical pooled-EXPTIME questions on the workload's two
    48-type schemas, with each schema's prepared context."""
    schemas = {
        f"g{index}": random_dtd(random.Random(seed), n_types=48)
        for index, seed in enumerate((11, 12), start=1)
    }
    jobs = batch_jobs(
        random.Random(5303), schemas, count,
        fragments=(REC_NEG_DOWN, REC_NEG_DOWN_UNION), duplicate_rate=0.0,
    )
    questions = [
        (schemas[job.schema], canonicalize(parse_query(job.query))) for job in jobs
    ]
    contexts = {id(dtd): prepare_types(dtd) for dtd in schemas.values()}
    return [(query, dtd, contexts[id(dtd)]) for dtd, query in questions]


def _decide_all(questions) -> set:
    verdicts = set()
    for query, dtd, context in questions:
        try:
            verdicts.add(sat_exptime_types(query, dtd, context=context).satisfiable)
        except ReproError:
            pass
    return verdicts


class TestInternedClosure:
    """The closure runs on per-question interned ids: deciding a question
    hashes and compares no AST node, and decomposes each distinct path
    once."""

    def test_deciding_hashes_and_compares_no_ast_node(self, monkeypatch):
        questions = _pooled_questions(200)
        calls: Counter = Counter()
        for cls in vars(ast).values():
            if not (isinstance(cls, type) and issubclass(cls, (ast.Path, ast.Qualifier))):
                continue
            for name in ("__hash__", "__eq__"):
                original = cls.__dict__.get(name)
                if original is None:  # the two abstract bases
                    continue

                def counted(*args, _original=original, _name=name):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(cls, name, counted)
        assert hash(ast.Label("a")) == hash(ast.Label("a")) and calls["__hash__"] == 2
        calls.clear()
        assert _decide_all(questions) == {True, False}
        assert calls == Counter(), calls

    def test_first_cases_runs_once_per_distinct_path(self, monkeypatch):
        questions = _pooled_questions(200)
        decomposed: list = []

        def counted(path):
            decomposed.append(path)
            return first_cases(path)

        monkeypatch.setattr(exptime_types, "first_cases", counted)
        for query, dtd, context in questions:
            decomposed.clear()
            try:
                sat_exptime_types(query, dtd, context=context)
            except ReproError:
                continue
            assert decomposed and len(decomposed) == len(set(decomposed)), str(query)


class TestWideSchemaBackends:
    """The fixpoint against the golden verdicts of the object-based
    fixpoint it replaced, in the regime the packed kernels exist for:
    schemas with 64–256 element types."""

    @pytest.mark.parametrize("types", [64, 128, 256])
    def test_verdicts_bit_identical(self, types):
        dtd = wide_dtd(types)
        context = prepare_types(dtd)
        queries = WIDE_QUERIES if types < 256 else WIDE_QUERIES[:3]
        for text in queries:
            query = parse_query(text)
            result = sat_exptime_types(query, dtd, context=context)
            verdict, facts, closure_quals = WIDE_GOLDEN[text]
            assert result.satisfiable == verdict, text
            assert result.stats["facts"] == facts
            assert result.stats["closure_quals"] == closure_quals
            if result.satisfiable:
                assert conforms(result.witness, dtd)
                assert satisfies(result.witness, query)

    def test_random_wide_corpus_agrees(self, rng):
        dtd = wide_dtd(64)
        labels = [f"T{i}" for i in range(16)]
        context = prepare_types(dtd)
        for text, verdict in WIDE_CORPUS_GOLDEN:
            query = random_query(rng, REC_NEG_DOWN_UNION, labels, max_depth=2)
            assert str(query) == text, "the seeded corpus drifted"
            result = sat_exptime_types(query, dtd, context=context)
            assert result.satisfiable == verdict, text
            if result.satisfiable:
                assert conforms(result.witness, dtd)
                assert satisfies(result.witness, query)

    def test_backends_decline_in_lockstep(self):
        """The ``max_facts`` cap the object-based fixpoint declined at
        still applies, so fallback chains behave as they always did."""
        dtd = wide_dtd(16)
        query = parse_query("**/T1[T4 or T5]/T13 | **/T2[T7 and not(T8)]")
        with pytest.raises(ReproError, match="max_facts"):
            sat_exptime_types(query, dtd, max_facts=3)
        assert sat_exptime_types(query, dtd).satisfiable is not None

    def test_context_is_reusable_across_queries(self):
        dtd = wide_dtd(32)
        context = prepare_types(dtd)
        assert isinstance(context, PackedTypesContext)
        first = sat_exptime_types(parse_query("**/T9"), dtd, context=context)
        second = sat_exptime_types(parse_query("**/T9"), dtd, context=context)
        assert first.satisfiable == second.satisfiable is True
        assert sat_exptime_types(parse_query("T7/T22"), dtd, context=context).is_unsat


class TestBackendObservability:
    def test_single_thm53_decider(self):
        thm53 = [spec.name for spec in all_deciders() if spec.theorem == "Thm 5.3"]
        assert thm53 == ["exptime_types"]
        assert "backend" not in DeciderSpec.__dataclass_fields__

    def test_attempt_spans_carry_only_the_verdict(self):
        spans = attempt_spans([
            ("exptime_types", 1.0, "unknown"),
            ("nexptime", 0.5, "sat"),
        ])
        assert [span.attrs for span in spans] == [
            {"verdict": "unknown"}, {"verdict": "sat"},
        ]

    def test_plan_telemetry_surfaces_winner(self):
        class _FakePlan:
            telemetry_key = "s|neg,qual|exptime_types+nexptime"

            def to_dict(self):
                return {"decider": "exptime_types"}

        telemetry = PlanTelemetry()
        for _ in range(3):
            telemetry.record(_FakePlan(), 1.0, "sat", decider="nexptime")
        telemetry.record(_FakePlan(), 1.0, "sat", decider="exptime_types")
        stats = telemetry.get(_FakePlan.telemetry_key)
        assert stats.top_decider == "nexptime"
        assert "winner" in telemetry.table().splitlines()[0]
        summary_row = telemetry.summary()[_FakePlan.telemetry_key]
        assert summary_row["top_decider"] == "nexptime"
        registry = MetricsRegistry()
        telemetry.register_metrics(registry)
        rendered = registry.render_prometheus()
        assert (
            'repro_plan_answers_total{decider="nexptime",'
            'plan="s|neg,qual|exptime_types+nexptime"} 3'
        ) in rendered
        assert "backend" not in rendered

    def test_engine_stats_have_no_backend_counters(self):
        stats = EngineStats(jobs=2)
        assert not any("backend" in key for key in stats.as_dict())
        assert "backends" not in stats.describe()
        registry = MetricsRegistry()
        stats.register_metrics(registry)
        rendered = registry.render_prometheus()
        assert "repro_jobs_total 2" in rendered
        assert "backend" not in rendered


class TestWideSchemaOracle:
    def test_wide_schema_cross_check(self, rng):
        """The differential oracle on a 64-type wide schema: the fixpoint
        (registered, so included in every cross-check) must agree with
        decide() and with brute-force enumeration.  Shallow bounds — the
        wide_dtd heap has depth <= 2 under T0..T6, so small witnesses
        suffice."""
        from repro.testing.oracle import OracleBounds, cross_check

        dtd = wide_dtd(64)
        labels = [f"T{i}" for i in range(7)]
        bounds = OracleBounds(
            max_depth=3, max_width=2, max_nodes=7, max_trees=4_000,
            words_per_type=3,
        )
        disagreements = []
        checked = 0
        fixpoint_verdicts = 0
        for _ in range(12):
            query = random_query(rng, REC_NEG_DOWN_UNION, labels, max_depth=2)
            outcome = cross_check(query, dtd, bounds)
            checked += outcome.checked
            fixpoint_verdicts += outcome.verdicts.get("exptime_types") is not None
            if outcome.disagreements:
                disagreements.append((str(query), outcome.disagreements))
        assert checked > 0
        assert fixpoint_verdicts > 0, "the Thm 5.3 fixpoint never reached a verdict"
        assert not disagreements, disagreements


class TestPoolLanePromotion:
    """The static chain's fallback answers through real pool lanes when
    its primary, the fixpoint, declines a question beyond its fact cap,
    with the verdicts of the fixpoint run without that cap."""

    def test_promoted_fallback_answers_on_lanes(self):
        dtd = wide_dtd(48)
        many = " and ".join(f"not(T{i})" for i in range(16, 39))
        queries = [
            "T1[not(T4)]",
            "T2[T7 and not(T8)]",
            # 23 child facts or more: exptime_types declines (its cap is
            # 22) and the chain falls through to nexptime on the lane
            "T1[" + " and ".join(f"not(T{i})" for i in range(2, 25)) + "]",
            f"T2[T7 and {many}]",
            f"T1[T4/T13 and {many}]",
        ]
        reference = {
            text: sat_exptime_types(parse_query(text), dtd, max_facts=40).satisfiable
            for text in queries
        }

        registry = SchemaRegistry()
        registry.register("wide", dtd)
        engine = BatchEngine(registry=registry, workers=2)
        try:
            report = engine.run([
                Job(text, "wide", id=f"q{index}")
                for index, text in enumerate(queries)
            ])
        finally:
            engine.close()
        assert report.stats.errors == 0
        assert report.stats.pool_decides == len(queries), "must use real lanes"
        for result in report.results:
            assert result.satisfiable == reference[result.query], result.query
        rows = dict(engine.telemetry.items())
        assert {
            engine.telemetry.plan_record(key)["decider"] for key in rows
        } == {"exptime_types"}
        answered = Counter()
        for stats in rows.values():
            answered.update(stats.deciders)
        assert answered == {"exptime_types": 2, "nexptime": 3}
        assert sum(stats.fallbacks for stats in rows.values()) == 3
