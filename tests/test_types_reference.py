"""The Theorem 5.3 worklist kernel against the round-based fixpoint it
replaced.

The kernel in :mod:`repro.sat.exptime_types` used to re-extend every
label's search on every round until a round added no type.  It now runs a
reverse-dependency worklist: each label is searched leaf-first, and its
parents are searched again only when it gains a type with a new fact
contribution.  The round-based ``_LabelSearch`` and fixpoint loop it
replaced are kept here, verbatim, as the reference:

* verdicts are identical on the pooled EXPTIME schemas, on wide schemas
  and on seeded random recursive schemas, and every SAT witness conforms
  and satisfies its query.  The worklist searches only the labels the
  root reaches, so its realized type count (the ``types`` stat) equals
  the number of the reference's types whose label the root reaches;
* the worklist's work is bounded by a count, not a timing: on a chain
  schema each label is searched once, and a label the root does not
  reach is never searched;
* witnesses deeper than the interpreter's recursion limit are built, and
  answered through the engine (a Thm 4.1 witness and a Thm 6.8 merged
  witness as well);
* a joint fixpoint over several questions gives each the verdict it gets
  alone, and a chunk decided by a worker runtime, jointly where it can,
  answers each question as :func:`execute_plan` does alone.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.dtd import is_nonrecursive, parse_dtd, random_dtd
from repro.dtd.graph import DTDGraph
from repro.dtd.properties import max_document_depth
from repro.engine import BatchEngine, Job, SchemaRegistry
from repro.engine.executors import JOINT_QUESTIONS, ChunkTask, WorkerRuntime
from repro.errors import ReproError, job_error_text
from repro.sat import Planner, decide
from repro.sat.disjunction_free import METHOD as DISJFREE_METHOD
from repro.sat.downward import METHOD as DOWNWARD_METHOD
from repro.sat.downward import sat_downward
from repro.sat.exptime_types import (
    METHOD,
    CompiledClosure,
    _Closure,
    prepare_types,
    sat_exptime_types,
    sat_exptime_types_joint,
)
from repro.sat.planner import execute_plan
from repro.workloads import batch_jobs, random_query, wide_dtd
from repro.xmltree import generate
from repro.xmltree.validate import conforms
from repro.xpath import ast, parse_query
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import REC_NEG_DOWN, REC_NEG_DOWN_UNION, features_of
from repro.xpath.semantics import satisfies

from test_symbolic_backend import WIDE_QUERIES


# -- the reference: the round-based fixpoint, verbatim ---------------------------

class _LabelSearch:
    """Persistent per-label reachability over (Glushkov state × fact
    bitmask), the semi-naive half of the fixpoint.

    A naive fixpoint re-runs this BFS from scratch for every label on
    every round — round ``N`` repeats all of round ``N-1``'s
    exploration.  Here the search keeps ``seen``/``parents``/``nodes``
    across rounds and ``ptr[label]`` records how many of that label's
    realizable types every settled node has been expanded against, so
    :meth:`extend` only walks **new** transitions: settled nodes × types
    added since the last round, plus full expansion of any node that
    first becomes reachable.  Each call yields the newly achievable
    ``(fact bitmask, witnessing child-type word)`` pairs.
    """

    __slots__ = ("arcs", "shift", "accept_mask", "seen", "parents",
                 "nodes", "results", "ptr")

    def __init__(
        self,
        arcs: tuple[tuple[tuple[int, int], ...], ...],
        shift: int,
        accept_mask: int,
        label_count: int,
    ):
        self.arcs = arcs
        self.shift = shift
        self.accept_mask = accept_mask
        self.seen: set[int] = set()
        self.parents: dict[int, tuple[int, int]] = {}
        self.nodes: list[int] = []          # settled (fully expanded) nodes
        self.results: set[int] = set()      # fact masks already yielded
        self.ptr = [0] * label_count

    def extend(
        self,
        types_by_label: list[list[int]],
        type_contrib: list[int],
    ) -> list[tuple[int, tuple[int, ...]]]:
        arcs = self.arcs
        shift = self.shift
        state_mask = (1 << shift) - 1
        seen = self.seen
        parents = self.parents
        limits = [len(types) for types in types_by_label]
        queue: deque[int] = deque()
        if not seen:
            # node 0 packs (state 0, empty fact set) — the BFS start
            seen.add(0)
            queue.append(0)
        # phase 1: settled nodes × types added since this search last ran
        ptr = self.ptr
        for position in range(len(self.nodes)):
            node = self.nodes[position]
            state = node & state_mask
            bits = node >> shift
            for succ, child_label in arcs[state]:
                types = types_by_label[child_label]
                for index in range(ptr[child_label], limits[child_label]):
                    child = types[index]
                    succ_node = (bits | type_contrib[child]) << shift | succ
                    if succ_node not in seen:
                        seen.add(succ_node)
                        parents[succ_node] = (node, child)
                        queue.append(succ_node)
        # phase 2: full BFS of the newly reachable frontier
        accept = self.accept_mask
        out: list[tuple[int, tuple[int, ...]]] = []
        while queue:
            node = queue.popleft()
            self.nodes.append(node)
            state = node & state_mask
            bits = node >> shift
            if accept >> state & 1 and bits not in self.results:
                word: list[int] = []
                current = node
                while current:
                    current, chosen = parents[current]
                    word.append(chosen)
                word.reverse()
                self.results.add(bits)
                out.append((bits, tuple(word)))
            for succ, child_label in arcs[state]:
                types = types_by_label[child_label]
                for index in range(limits[child_label]):
                    child = types[index]
                    succ_node = (bits | type_contrib[child]) << shift | succ
                    if succ_node not in seen:
                        seen.add(succ_node)
                        parents[succ_node] = (node, child)
                        queue.append(succ_node)
        self.ptr = limits
        return out


def reference_decide(query, dtd, context, max_facts: int = 22):
    """``(verdict, stats)`` of the previous decider: the same closure and
    compiled program, then the round-based fixpoint loop (verbatim) over
    every label and the root-type test.  ``reachable_types`` counts the
    types whose label the root reaches."""
    closure = _Closure()
    closure.collect(ast.PathExists(query))
    if len(closure.facts) > max_facts:
        raise ReproError(f"{len(closure.facts)} child facts exceed max_facts")
    compiled = CompiledClosure(closure, context.label_index)

    label_count = len(context.labels)
    searches = [
        _LabelSearch(
            context.arcs[index], context.shifts[index],
            context.accept_masks[index], label_count,
        )
        for index in range(label_count)
    ]
    qd_shift = compiled.qual_count + compiled.dqual_count
    d_shift = compiled.dqual_count
    types_by_label: list[list[int]] = [[] for _ in range(label_count)]
    type_labels: list[int] = []
    type_truths: list[int] = []
    type_realization: list[tuple[int, ...]] = []
    type_contrib: list[int] = []
    type_ids: dict[int, int] = {}        # packed (label, truths, dtruths) -> id
    derive_memo: dict[int, int] = {}     # packed (fact_bits, label) -> type id

    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for label_id in range(label_count):
            for bits, word in searches[label_id].extend(types_by_label, type_contrib):
                memo_key = bits * label_count + label_id
                type_id = derive_memo.get(memo_key)
                if type_id is None:
                    truth_bits, dtruth_bits = compiled.evaluate(label_id, bits)
                    packed = (
                        label_id << qd_shift | truth_bits << d_shift | dtruth_bits
                    )
                    type_id = type_ids.get(packed)
                    if type_id is None:
                        type_id = len(type_labels)
                        type_ids[packed] = type_id
                        type_labels.append(label_id)
                        type_truths.append(truth_bits)
                        type_realization.append(word)
                        type_contrib.append(
                            compiled.contribution(label_id, truth_bits, dtruth_bits)
                        )
                        types_by_label[label_id].append(type_id)
                        changed = True
                    derive_memo[memo_key] = type_id

    reachable = {
        context.label_index[name] for name in DTDGraph(dtd).reachable_from_root
    }
    stats = {
        "closure_quals": compiled.qual_count,
        "facts": compiled.fact_count,
        "types": len(type_labels),
        "reachable_types": sum(1 for label in type_labels if label in reachable),
        "rounds": rounds,
    }
    root_id = context.label_index[dtd.root]
    # the seed qualifier PathExists(query) is collected first: bit 0
    root_types = [
        type_id for type_id in types_by_label[root_id]
        if type_truths[type_id] & 1
    ]
    return bool(root_types), stats


# -- helpers ---------------------------------------------------------------------

def assert_agrees(query, dtd, context):
    """The worklist and the reference agree on ``query``; returns the
    worklist's result (``None`` when both decline)."""
    try:
        expected, reference_stats = reference_decide(query, dtd, context)
    except ReproError:
        with pytest.raises(ReproError, match="max_facts"):
            sat_exptime_types(query, dtd, context=context)
        return None
    result = sat_exptime_types(query, dtd, context=context)
    assert result.satisfiable == expected, str(query)
    for stat in ("facts", "closure_quals"):
        assert result.stats[stat] == reference_stats[stat], (str(query), stat)
    assert result.stats["types"] == reference_stats["reachable_types"], str(query)
    if result.satisfiable:
        assert conforms(result.witness, dtd), str(query)
        assert satisfies(result.witness, query), str(query)
    return result


def chain_dtd(depth: int, last: str = "eps"):
    """``root a0``, ``a_i -> a_{i+1}``, ``a_depth -> last``: with the
    default ``last``, one conforming tree, ``depth`` edges deep."""
    lines = ["root a0"]
    lines += [f"a{i} -> a{i + 1}" for i in range(depth)]
    lines.append(f"a{depth} -> {last}")
    return parse_dtd("\n".join(lines))


def pooled_schemas():
    """The two 48-type schemas of the pooled EXPTIME workload."""
    return {
        f"g{index}": random_dtd(random.Random(seed), n_types=48)
        for index, seed in enumerate((11, 12), start=1)
    }


# -- agreement with the reference --------------------------------------------------

class TestReferenceAgreement:
    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_pooled_exptime_schemas(self, name):
        dtd = pooled_schemas()[name]
        context = prepare_types(dtd)
        jobs = batch_jobs(
            random.Random(1729), {name: dtd}, 500,
            fragments=(REC_NEG_DOWN, REC_NEG_DOWN_UNION), duplicate_rate=0.0,
        )
        verdicts = set()
        for job in jobs:
            result = assert_agrees(parse_query(job.query), dtd, context)
            if result is not None:
                verdicts.add(result.satisfiable)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("types", [64, 128])
    def test_wide_schemas(self, types):
        dtd = wide_dtd(types)
        context = prepare_types(dtd)
        for text in WIDE_QUERIES:
            result = assert_agrees(parse_query(text), dtd, context)
            # nonrecursive: leaf-first, every label is searched once
            assert result.stats["searches"] == types, text

    def test_random_recursive_schemas(self):
        rng = random.Random(4242)
        recursive = 0
        for _ in range(60):
            dtd = random_dtd(rng, n_types=rng.randint(4, 16))
            context = prepare_types(dtd)
            recursive += not is_nonrecursive(dtd)
            labels = sorted(dtd.element_types)
            for _ in range(12):
                fragment = rng.choice((REC_NEG_DOWN, REC_NEG_DOWN_UNION))
                query = random_query(rng, fragment, labels, max_depth=3)
                assert_agrees(query, dtd, context)
        assert recursive >= 10, "the corpus should exercise recursive schemas"


# -- work bound --------------------------------------------------------------------

class TestWorkBound:
    def test_searches_bounded_on_a_deep_chain(self):
        dtd = chain_dtd(400)
        labels = len(dtd.element_types)
        for text in ("a1[not(a5)]", "**/a400[not(**/b)]"):
            result = sat_exptime_types(parse_query(text), dtd)
            assert result.satisfiable is True
            assert result.stats["searches"] <= 2 * labels, text

    def test_very_deep_chain_decides(self):
        dtd = chain_dtd(3000)
        result = sat_exptime_types(parse_query("**/a3000[not(**/b)]"), dtd)
        assert result.satisfiable is True
        assert result.stats["searches"] <= 2 * len(dtd.element_types)
        assert sat_exptime_types(parse_query("a1/a3"), dtd).is_unsat


#: a root that reaches five labels with a nonrecursive part, in a schema
#: that also declares three it does not reach: ``u`` and ``v`` form a
#: cycle, and ``w`` recurses on itself and has the root as a child
TRIMMED = parse_dtd(
    """
    root r
    r -> a, b*
    a -> c?, d
    b -> c | d
    c -> eps
    d -> c*
    u -> v, a
    v -> u?
    w -> w*, r
    """
)
TRIMMED_QUERIES = (
    "a/d[not(c)]", "b[c] | a[not(d)]", "**/c[not(**/d)]", "a[not(d)]",
    "**/d[c and not(c/*)]", "*[lab() = b]/c", ".[not(**/u)]",
    "u", "**/v", "**[lab() = w]", "**/r", "a/c[not(lab() = c)]",
)


class TestRootReachableTrim:
    def test_unreachable_labels_are_never_searched(self):
        reachable = DTDGraph(TRIMMED).reachable_from_root
        assert reachable == {"r", "a", "b", "c", "d"}
        context = prepare_types(TRIMMED)
        verdicts = set()
        for text in TRIMMED_QUERIES:
            result = assert_agrees(parse_query(text), TRIMMED, context)
            # nonrecursive reachable part: leaf-first, each searched once
            assert result.stats["searches"] == len(reachable), text
            verdicts.add(result.satisfiable)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_pooled_schemas_search_only_reachable_labels(self, name):
        dtd = pooled_schemas()[name]
        reachable = DTDGraph(dtd).reachable_from_root
        # the precondition of the trim's gain on the pooled workload
        assert len(reachable) < len(dtd.element_types)
        context = prepare_types(dtd)
        searched = {context.labels[label] for label in context.leaf_first}
        assert searched == reachable
        assert len(context.leaf_first) == len(searched)


# -- deep witnesses ------------------------------------------------------------------

DEEP_QUERIES = ("a1[not(a5)]", "**/a1200[not(**/b)]")
#: a qualified ``↓*`` question on ``chain_dtd(1200)``, answered by Thm 6.8
DEEP_QUALIFIED = "**/a1199[a1200]"


class TestDeepWitnesses:
    @pytest.mark.parametrize("text", DEEP_QUERIES)
    def test_witness_deeper_than_the_recursion_limit(self, text):
        dtd = chain_dtd(1200)
        query = parse_query(text)
        result = sat_exptime_types(query, dtd)
        assert result.satisfiable is True
        assert result.witness.depth() >= 1200
        assert conforms(result.witness, dtd)
        assert satisfies(result.witness, query)

    def test_recursion_check_on_a_deep_schema(self):
        # the engine classifies a schema when it is registered
        assert is_nonrecursive(chain_dtd(1200))
        assert not is_nonrecursive(chain_dtd(1200, last="a0?"))

    def test_document_depth_of_a_deep_schema(self):
        # the bounded decider reads it on nonrecursive schemas
        assert max_document_depth(chain_dtd(1200)) == 1200

    def test_minimal_words_settle_in_one_pass(self, monkeypatch):
        # a worklist tries each type once, then again when the type below
        # it settles; a round-based relaxation settles one level per round
        calls = []
        original = generate._best_word

        def counted(production, depth):
            calls.append(1)
            return original(production, depth)

        monkeypatch.setattr(generate, "_best_word", counted)
        dtd = chain_dtd(1200)
        words = generate._min_expansion_words(dtd)
        assert words["a0"] == ("a1",) and words["a1200"] == ()
        assert len(calls) <= 3 * len(dtd.element_types)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_downward_question_on_a_deep_schema(self, workers):
        # one short Thm 4.1 question; its witness is as deep as the schema
        dtd = chain_dtd(1200)
        query = parse_query("a1")
        result = sat_downward(query, dtd)
        assert result.satisfiable is True
        assert result.witness.depth() >= 1200
        assert conforms(result.witness, dtd)
        assert satisfies(result.witness, query)
        registry = SchemaRegistry()
        registry.register("chain", dtd)
        engine = BatchEngine(registry=registry, workers=workers)
        try:
            (record,) = engine.run([Job("a1", "chain", "a1")]).results
        finally:
            engine.close()
        assert record.error is None, record.error
        assert record.satisfiable is True
        assert record.method == DOWNWARD_METHOD

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_answers_deep_questions(self, workers):
        registry = SchemaRegistry()
        registry.register("chain", chain_dtd(1200))
        engine = BatchEngine(registry=registry, workers=workers)
        try:
            report = engine.run([Job(text, "chain", text) for text in DEEP_QUERIES])
        finally:
            engine.close()
        for record in report.results:
            assert record.error is None, (record.id, record.error)
            assert record.satisfiable is True, record.id
            assert record.method == METHOD, record.id

    def test_disjunction_free_witness_on_a_deep_schema(self):
        # one short Thm 6.8 question whose merged pattern grafts one node
        # per schema level below the root
        dtd = chain_dtd(1200)
        query = parse_query(DEEP_QUALIFIED)
        result = decide(query, dtd)
        assert result.satisfiable is True
        assert result.method == DISJFREE_METHOD
        assert result.witness.depth() >= 1200
        assert conforms(result.witness, dtd)
        assert satisfies(result.witness, query)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_answers_a_deep_disjunction_free_question(self, workers):
        registry = SchemaRegistry()
        registry.register("chain", chain_dtd(1200))
        engine = BatchEngine(registry=registry, workers=workers)
        try:
            (record,) = engine.run(
                [Job(DEEP_QUALIFIED, "chain", DEEP_QUALIFIED)]
            ).results
        finally:
            engine.close()
        assert record.error is None, record.error
        assert record.satisfiable is True
        assert record.method == DISJFREE_METHOD


# -- joint fixpoints ----------------------------------------------------------------

def recursive_schemas(seed: int, count: int):
    """``count`` seeded recursive ``random_dtd`` schemas."""
    rng = random.Random(seed)
    schemas = []
    while len(schemas) < count:
        dtd = random_dtd(rng, n_types=rng.randint(4, 16))
        if not is_nonrecursive(dtd):
            schemas.append(dtd)
    return schemas


def labelled_union(prefix: str, count: int) -> str:
    """A question with ``count`` child facts: the root has none of
    ``count`` children, none of them in the schema."""
    return ".[not(" + " | ".join(f"{prefix}{i}" for i in range(count)) + ")]"


def nested_question(depth: int):
    """``a[not(a[not(...)])]``, ``depth`` filters deep, built without the
    parser: the closure's interning recurses once per level."""
    query = ast.Label("a")
    for _ in range(depth):
        query = ast.Filter(ast.Label("a"), ast.Not(ast.PathExists(query)))
    return query


def run_chunk(runtime, dtd, canonicals):
    """One chunk of ``canonicals`` through ``runtime``, each with the plan
    the planner makes for it, and the outcome ``execute_plan`` gives each
    question alone."""
    planner = Planner()
    plans = tuple(planner.plan_for(features_of(q), dtd=dtd) for q in canonicals)
    outcome = runtime.run_chunk(ChunkTask(
        task_id=0, fingerprint=None, canonicals=tuple(canonicals), plans=plans,
    ), dtd)
    alone = []
    for plan, canonical in zip(plans, canonicals):
        try:
            result = execute_plan(plan, canonical, dtd, pre_canonicalized=True)
        except Exception as error:
            alone.append((None, "error", "", job_error_text(error)))
        else:
            alone.append((result.satisfiable, result.method, result.reason, None))
    return plans, outcome, alone


class TestJointFixpoint:
    def test_joint_verdicts_match_one_at_a_time(self):
        rng = random.Random(2929)
        sat_witnesses = 0
        decided: set[int] = set()
        for dtd in recursive_schemas(2929, 20):
            context = prepare_types(dtd)
            labels = sorted(dtd.element_types)
            for size in (1, 2, 3, 4, 5, 8, 16):
                # shallower questions keep some large unions in max_facts
                queries = [
                    canonicalize(random_query(
                        rng, rng.choice((REC_NEG_DOWN, REC_NEG_DOWN_UNION)),
                        labels, max_depth=3 if size <= 5 else 2,
                    ))
                    for _ in range(size)
                ]
                alone = [
                    sat_exptime_types(query, dtd, context=context)
                    for query in queries
                ]
                try:
                    joint = sat_exptime_types_joint(queries, dtd, context=context)
                except ReproError as error:
                    # the union of a large chunk may pass max_facts
                    assert "max_facts" in str(error)
                    closure = _Closure()
                    closure.collect(*(ast.PathExists(q) for q in queries))
                    assert len(closure.facts) > 22
                    continue
                decided.add(size)
                assert len(joint) == size
                for query, one, result in zip(queries, alone, joint):
                    assert result.satisfiable == one.satisfiable, str(query)
                    assert result.method == one.method == METHOD
                    # every result reports the one joint fixpoint
                    assert result.stats == joint[0].stats
                    if result.satisfiable:
                        sat_witnesses += 1
                        assert conforms(result.witness, dtd), str(query)
                        assert satisfies(result.witness, query), str(query)
                if size == 1:
                    assert joint[0].stats == alone[0].stats
        assert sat_witnesses >= 100
        assert decided == {1, 2, 3, 4, 5, 8, 16}

    def test_union_past_max_facts_declines(self):
        dtd = pooled_schemas()["g1"]
        queries = [parse_query(labelled_union(f"y{n}_", 8)) for n in range(3)]
        for query in queries:
            assert sat_exptime_types(query, dtd).stats["facts"] == 8
        with pytest.raises(ReproError, match="24 child facts of 3 questions"):
            sat_exptime_types_joint(queries, dtd)
        (alone,) = sat_exptime_types_joint(queries[:1], dtd)
        assert alone.satisfiable is True

    def test_fragment_is_checked_per_question(self):
        dtd = pooled_schemas()["g1"]
        with pytest.raises(ReproError, match="requires X"):
            sat_exptime_types_joint(
                [parse_query(".[not(x)]"), parse_query("x/>")], dtd
            )


class TestJointChunks:
    """A worker runtime decides a chunk's Thm 5.3 questions jointly where
    it can, and every answer equals :func:`execute_plan` alone."""

    def test_random_chunks_match_execute_plan(self):
        rng = random.Random(2930)
        runtime = WorkerRuntime()
        joint = 0
        for dtd in recursive_schemas(2930, 12):
            labels = sorted(dtd.element_types)
            for size in (1, 2, 3, 4, 6, 9, 16):
                canonicals = [
                    canonicalize(random_query(
                        rng, rng.choice((REC_NEG_DOWN, REC_NEG_DOWN_UNION)),
                        labels, max_depth=3,
                    ))
                    for _ in range(size)
                ]
                plans, outcome, alone = run_chunk(runtime, dtd, canonicals)
                assert outcome.error is None
                assert [o[:4] for o in outcome.outcomes] == alone
                if size == 1:
                    assert outcome.joint_decides == 0
                joint += outcome.joint_decides
                for (*_verdict, attempts), plan in zip(outcome.outcomes, plans):
                    assert attempts[0][0] == plan.decider
        assert joint >= 200

    def test_joint_calls_take_at_most_the_joint_cap(self, monkeypatch):
        from repro.sat import exptime_types

        sizes = []
        joint_entry = exptime_types.sat_exptime_types.joint

        def counting(queries, dtd, **kwargs):
            sizes.append(len(queries))
            return joint_entry(queries, dtd, **kwargs)

        monkeypatch.setattr(exptime_types.sat_exptime_types, "joint", counting)
        dtd = pooled_schemas()["g1"]
        labels = sorted(dtd.element_types)
        canonicals = [
            canonicalize(parse_query(f"{label}[not({other})]"))
            for label, other in zip(labels[:9], labels[1:10])
        ]
        _plans, outcome, alone = run_chunk(WorkerRuntime(), dtd, canonicals)
        assert [o[:4] for o in outcome.outcomes] == alone
        # nine questions: three runs, each at most the cap, none alone
        assert sizes == [3, 3, 3]
        assert max(sizes) <= JOINT_QUESTIONS
        assert outcome.joint_decides == 9
        # a jointly decided question's one attempt is its share of a call
        shares = {o[4][0][1] for o in outcome.outcomes[:3]}
        assert len(shares) == 1 and shares.pop() > 0.0

    def test_declines_and_failures_stay_alone(self):
        dtd = pooled_schemas()["g1"]
        labels = sorted(dtd.element_types)
        small = [
            canonicalize(parse_query(f"{labels[i]}[not({labels[i + 1]})]"))
            for i in range(3)
        ]
        too_many_facts = canonicalize(parse_query(labelled_union("z", 23)))
        union_past_cap = [
            canonicalize(parse_query(labelled_union(f"y{n}_", 8)))
            for n in range(3)
        ]
        outside = canonicalize(parse_query(f"{labels[0]}/>"))
        too_deep = nested_question(3000)
        runtime = WorkerRuntime()
        chunks = [
            # a question alone past max_facts declines to its fallbacks
            small[:1] + [too_many_facts] + small[1:],
            # three questions that fit alone but not together
            union_past_cap,
            # a question outside the fragment has its own plan
            small + [outside],
            # one question's decider raises: it alone fails
            small[:2] + [too_deep] + small[2:],
        ]
        outcomes = []
        for canonicals in chunks:
            _plans, outcome, alone = run_chunk(runtime, dtd, canonicals)
            assert outcome.error is None
            assert [o[:4] for o in outcome.outcomes] == alone
            outcomes.append(outcome)
        declined = outcomes[0].outcomes[1]
        assert declined[4][0][0] == "exptime_types"
        assert declined[4][0][2] == "declined"
        assert declined[3] is None and declined[1] != METHOD
        assert outcomes[1].joint_decides == 0
        assert [o[1] for o in outcomes[1].outcomes] == [METHOD] * 3
        assert outcomes[2].joint_decides == 3
        assert outcomes[2].outcomes[3][1] != METHOD
        failed = outcomes[3].outcomes[2]
        assert failed[1] == "error" and "nests too deeply" in failed[3]
        assert all(o[3] is None for i, o in enumerate(outcomes[3].outcomes) if i != 2)

    def test_replaced_decider_is_called_per_question(self, monkeypatch):
        import dataclasses

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("exptime_types")
        calls = []

        def counting(query, dtd, max_facts=22, context=None):
            calls.append(query)
            return spec.fn(query, dtd, max_facts, context=context)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, fn=counting),
        )
        dtd = pooled_schemas()["g1"]
        labels = sorted(dtd.element_types)
        canonicals = [
            canonicalize(parse_query(f"{labels[i]}[not({labels[i + 1]})]"))
            for i in range(4)
        ]
        _plans, outcome, alone = run_chunk(WorkerRuntime(), dtd, canonicals)
        assert outcome.joint_decides == 0
        assert [o[:4] for o in outcome.outcomes] == alone
        assert len(calls) == 8  # the chunk, then execute_plan alone


class TestDecideRecursion:
    def test_decide_reports_a_query_nested_too_deeply(self):
        # exptime_types declines (500 facts) and the bounded fallback
        # recurses once per step: the library says what the engine says
        dtd = chain_dtd(1300)
        text = "/".join(f"a{i}" for i in range(1, 500)) + "[not(zz)]"
        with pytest.raises(ReproError, match="query nests too deeply"):
            decide(parse_query(text), dtd)
        registry = SchemaRegistry()
        registry.register("chain", dtd)
        engine = BatchEngine(registry=registry)
        try:
            (record,) = engine.run([Job(text, "chain", "deep")]).results
        finally:
            engine.close()
        assert record.error.startswith("query nests too deeply")
