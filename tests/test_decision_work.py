"""Engine decisions do each piece of work once and build nothing the
engine drops.

* verdict-only decisions: an engine run calls no witness builder, while
  its verdicts and methods equal library ``decide()``'s, whose SAT
  witnesses conform and satisfy;
* witnesses are built on first read: a result runs its builder once,
  whatever wraps the decider, and a decided question whose result is
  dropped unread leaves no reference cycle behind;
* one planning form: the engine, ``decide()``, ``Planner.plan_query`` and
  ``repro explain`` all plan on the canonical form, so a question whose
  operators change under canonicalization runs one chain everywhere;
* one feature walk per query object on the engine path;
* ``realworld`` decomposes each path object once per question, with the
  search (ids, ``steps``, ``memo_keys``, ``passes``) of the decomposition
  it replaced, kept here verbatim as the reference;
* ``downward`` gives identical results with and without its prepared
  tables.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
from collections import Counter

import pytest

from repro.dtd import parse_dtd, random_dtd
from repro.engine import BatchEngine, Job, SchemaRegistry
from repro.errors import FragmentError, ReproError
from repro.sat import Planner, decide, get_decider
from repro.sat import (
    disjunction_free, downward, exptime_types, no_dtd, positive, realworld, sibling,
)
from repro.sat.exptime_types import Check, Child, Desc, Done
from repro.sat.realworld import MAX_CHOICES, _Solver, prepare_realworld
from repro.sat.result import SatResult
from repro.testing.oracle import build_corpus
from repro.workloads import wide_dtd
from repro.workloads.batch import batch_jobs
from repro.workloads.realworld import realworld_jobs, realworld_schemas
from repro.xmltree import conforms
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast, fragments, parse_query
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import (
    CHILD_UP,
    DOWNWARD,
    DOWNWARD_QUAL,
    REC_NEG_DOWN,
    REC_NEG_DOWN_UNION,
)
from repro.xpath.rewrite import get_pass
from repro.xpath.semantics import satisfies

from test_symbolic_backend import WIDE_QUERIES


def _registry(schemas) -> SchemaRegistry:
    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    return registry


def _run(engine: BatchEngine, jobs: list[Job]) -> list:
    results = []
    for start in range(0, len(jobs), 64):
        results.extend(engine.run(jobs[start:start + 64]).results)
    return results


# -- verdict-only decisions ------------------------------------------------------

#: every witness builder of the four deciders the engine asks for verdicts
WITNESS_BUILDERS = (
    (realworld._Solver, "witness"),
    (downward, "_build_witness"),
    (disjunction_free, "_build_witness"),
    (exptime_types, "_realize"),
)


def _count_witness_builders(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for owner, name in WITNESS_BUILDERS:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _mixed_workload():
    """The realworld corpus, the pooled workload's two 48-type schemas
    and ``wide_dtd(64)``, with the questions each one gets."""
    schemas = dict(realworld_schemas())
    jobs = realworld_jobs(random.Random(24), 160, duplicate_rate=0.0)
    jobs += batch_jobs(
        random.Random(25), realworld_schemas(), 40, fragments=(DOWNWARD,),
        duplicate_rate=0.0,
    )
    pooled = {
        f"g{index}": random_dtd(random.Random(seed), n_types=48)
        for index, seed in enumerate((11, 12), start=1)
    }
    schemas.update(pooled)
    jobs += batch_jobs(
        random.Random(26), pooled, 60,
        fragments=(REC_NEG_DOWN, REC_NEG_DOWN_UNION, DOWNWARD),
        duplicate_rate=0.0,
    )
    schemas["wide"] = wide_dtd(64)
    jobs += [Job(text, "wide", text) for text in WIDE_QUERIES]
    jobs += batch_jobs(
        random.Random(27), {"wide": schemas["wide"]}, 20,
        fragments=(DOWNWARD, DOWNWARD_QUAL), duplicate_rate=0.0,
    )
    schemas["disjfree"] = _DISJFREE
    jobs += batch_jobs(
        random.Random(28), {"disjfree": _DISJFREE}, 30,
        fragments=(DOWNWARD_QUAL, CHILD_UP), duplicate_rate=0.0,
    )
    return schemas, jobs


#: a disjunction-free schema, so Thm 6.8 answers some of the questions
_DISJFREE = parse_dtd(
    """
    root r
    r -> a, b*
    a -> c, d
    b -> a*
    c -> eps
    d -> c*
    """
)


class TestVerdictOnly:
    def test_engine_builds_no_witness_and_agrees_with_decide(self, monkeypatch):
        schemas, jobs = _mixed_workload()
        calls = _count_witness_builders(monkeypatch)
        with BatchEngine(registry=_registry(schemas), workers=1) as engine:
            results = _run(engine, jobs)
        assert sum(calls.values()) == 0, calls
        methods = Counter(result.method for result in results)
        for decider in ("realworld", "downward", "disjunction_free", "exptime_types"):
            assert methods[get_decider(decider).method] > 0, (decider, methods)

        witnesses = 0
        for job, result in zip(jobs, results):
            assert result.error is None, (job.query_text, result.error)
            dtd = schemas[job.schema]
            query = parse_query(job.query_text)
            library = decide(query, dtd)
            assert (result.satisfiable, result.method) == (
                library.satisfiable, library.method
            ), job.query_text
            if library.satisfiable and library.witness is not None:
                assert conforms(library.witness, dtd), job.query_text
                assert satisfies(library.witness, query), job.query_text
                witnesses += 1
        assert witnesses >= 100
        assert sum(calls.values()) >= 100  # decide() keeps its witnesses


class TestWitnessOnFirstRead:
    def test_the_builder_runs_once_on_the_first_read(self):
        built = []

        def builder():
            built.append(1)
            return XMLTree(Node("r"))

        result = SatResult(True, "test", witness=builder)
        assert built == [] and "unread" in repr(result)
        first = result.witness
        assert result.witness is first and built == [1]
        assert result.describe() == "SAT [test]; witness has 1 nodes"
        assert built == [1]

    def test_a_decider_builds_on_the_first_read(self, monkeypatch):
        calls = _count_witness_builders(monkeypatch)
        result = downward.sat_downward(parse_query("a/c"), _DISJFREE)
        assert result.satisfiable and sum(calls.values()) == 0
        tree = result.witness
        assert result.witness is tree and calls == {"_build_witness": 1}
        assert conforms(tree, _DISJFREE) and satisfies(tree, parse_query("a/c"))

    def test_wrapped_deciders_build_no_tree_until_read(self, monkeypatch):
        calls = _count_witness_builders(monkeypatch)
        spec = get_decider("downward")
        query, dtd = parse_query("a"), _DISJFREE

        def narrow(query, dtd, context=None):
            return downward.sat_downward(query, dtd, context)

        def traced(*args, **kwargs):
            return spec.fn(*args, **kwargs)

        for fn in (narrow, traced):
            double = dataclasses.replace(spec, fn=fn)
            for context in (None, spec.prepare(dtd)):
                calls.clear()
                result = double.call(query, dtd, context=context)
                assert result.satisfiable and sum(calls.values()) == 0, fn
                assert result.witness is not None and calls == {"_build_witness": 1}

    def test_positive_passes_the_types_witness_on_unread(self, monkeypatch):
        calls = _count_witness_builders(monkeypatch)
        query = parse_query("a/c")
        result = positive.sat_positive(query, _DISJFREE)
        assert result.satisfiable and calls["_realize"] == 0
        tree = result.witness
        assert result.witness is tree and calls["_realize"] == 1
        assert conforms(tree, _DISJFREE) and satisfies(tree, query)

    def test_sibling_and_no_dtd_build_only_when_read(self, monkeypatch):
        calls: Counter = Counter()
        for owner, name in (
            (sibling, "_build_witness"),
            (no_dtd, "_build_witness"),
            (no_dtd, "_build_witness_checked"),
        ):
            original = getattr(owner, name)

            def counted(*args, _original=original, _key=(owner.__name__, name)):
                calls[_key] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        cases = (
            (lambda query: sibling.sat_sibling(query, _DISJFREE), "a/>"),
            (no_dtd.sat_no_dtd, "a[b]/**/c"),
            (no_dtd.sat_no_dtd, ".[lab() = a]/b"),
        )
        for decide_fn, text in cases:
            query = parse_query(text)
            calls.clear()
            result = decide_fn(query)
            assert result.satisfiable and sum(calls.values()) == 0, text
            tree = result.witness
            assert result.witness is tree and sum(calls.values()) == 1, text
            assert satisfies(tree, query), text


#: one question for each decider that keeps per-question tables, on
#: ``_DISJFREE`` (``no_dtd`` reads no schema): five SAT (their witnesses
#: unread), and one UNSAT
_UNREAD_CASES = (
    ("downward", "a/c | b/**/d"),
    ("disjunction_free", "a[c]/d | b[a]"),
    ("exptime_types", "a[not(c)]"),
    ("realworld", "a[c]/d | b[a]"),
    ("no_dtd", ".[lab() = a]/b[c]"),
    ("sibling", "a/>"),
)


class TestUnreadResultsLeaveNoCycles:
    @pytest.mark.parametrize("name, text", _UNREAD_CASES)
    def test_dropping_an_unread_result_frees_everything(self, name, text):
        spec = get_decider(name)
        query = parse_query(text)
        context = spec.prepare(_DISJFREE) if spec.prepare is not None else None
        spec.call(query, _DISJFREE, context=context)  # warm the schema's caches
        gc.collect()
        gc.disable()
        try:
            result = spec.call(query, _DISJFREE, context=context)
            verdict = result.satisfiable
            del result
            garbage = gc.collect()
        finally:
            gc.enable()
        assert verdict is not None and garbage == 0, (name, text, garbage)


# -- one planning form ---------------------------------------------------------

def _double_negations():
    """Corpus and pooled-schema questions wrapped as ``.[not(not(q))]``:
    the parsed form uses ``¬``, the canonical form (``.[q]``) does not."""
    schemas = dict(realworld_schemas())
    schemas["g1"] = random_dtd(random.Random(11), n_types=48)
    jobs = [
        Job(f".[not(not({job.query_text}))]", job.schema, f"dn{index}")
        for index, job in enumerate(batch_jobs(
            random.Random(41), schemas, 80, fragments=(DOWNWARD, DOWNWARD_QUAL),
            duplicate_rate=0.0,
        ))
    ]
    return schemas, jobs


class TestOnePlanningForm:
    def test_engine_and_decide_agree_on_double_negations(self):
        schemas, jobs = _double_negations()
        registry = _registry(schemas)
        with BatchEngine(registry=registry, workers=1) as engine:
            results = _run(engine, jobs)
        planner = Planner()
        moved = 0
        for job, result in zip(jobs, results):
            assert result.error is None, (job.query_text, result.error)
            query = parse_query(job.query_text)
            library = decide(query, schemas[job.schema])
            assert (result.satisfiable, result.method) == (
                library.satisfiable, library.method
            ), job.query_text
            artifacts = registry.get(job.schema)
            canonical_plan = planner.plan_query(query, artifacts=artifacts)
            parsed_plan = planner.plan_for(
                fragments.features_of(query), artifacts=artifacts
            )
            moved += (parsed_plan.decider, parsed_plan.fallbacks) != (
                canonical_plan.decider, canonical_plan.fallbacks
            )
        # on most questions the parsed form's operators plan another chain
        # (a label test keeps some on the same one)
        assert moved >= len(jobs) // 2

    def test_explain_shows_the_plan_the_engine_runs(self, tmp_path, capsys):
        from repro.cli import main

        dtd_path = tmp_path / "xhtml.dtd"
        schemas = realworld_schemas()
        dtd_path.write_text(schemas["xhtml"].describe())
        text = ".[not(not(body[p]))]"
        assert main(["explain", "--json", "--dtd", str(dtd_path), text]) == 0
        explained = json.loads(capsys.readouterr().out)
        with BatchEngine(registry=_registry({"xhtml": schemas["xhtml"]})) as engine:
            (result,) = engine.run([Job(text, "xhtml", "dn")]).results
        assert explained["decider"] == "realworld"
        assert result.method == get_decider(explained["decider"]).method


# -- one feature walk per query object -------------------------------------------

class TestOneFeatureWalk:
    def test_engine_walks_each_query_object_once(self, monkeypatch):
        from repro.engine import batch as batch_module

        walks: dict[int, list] = {}
        original_walk = fragments._walk_features

        def counted_walk(query):
            entry = walks.setdefault(id(query), [query, 0])
            assert entry[0] is query
            entry[1] += 1
            return original_walk(query)

        canonicals = []
        original_canonicalize = batch_module.canonicalize

        def recorded(query):
            canonical = original_canonicalize(query)
            canonicals.append(canonical)
            return canonical

        monkeypatch.setattr(fragments, "_walk_features", counted_walk)
        monkeypatch.setattr(batch_module, "canonicalize", recorded)
        schemas = realworld_schemas()
        jobs = realworld_jobs(
            random.Random(31), 400, duplicate_rate=0.0, variant_rate=0.0
        )
        planner = Planner()
        registry = _registry(schemas)
        rewriting = sum(
            1 for job in jobs
            if len(planner.plan_query(
                parse_query(job.query_text), artifacts=registry.get(job.schema)
            ).rewrites) > 1
        )
        walks.clear()
        with BatchEngine(registry=registry, workers=1) as engine:
            results = _run(engine, jobs)
        assert all(result.error is None for result in results)
        assert len(canonicals) == len(jobs)
        assert {count for _query, count in walks.values()} == {1}
        # every decided job's canonical form is walked (it is what the
        # engine plans on), and the only other objects walked are
        # rewritten forms
        decided = [
            canonical for canonical, result in zip(canonicals, results)
            if not result.cached
        ]
        assert len(decided) > 300
        assert all(id(canonical) in walks for canonical in decided)
        assert len(walks) - len(decided) <= rewriting
        assert rewriting > 0

    def test_features_of_matches_the_generator_walk(self):
        rng = random.Random(5)
        for job in realworld_jobs(rng, 200, duplicate_rate=0.0):
            query = parse_query(job.query_text)
            expected = _features_by_walk(query)
            assert fragments.features_of(query) == expected
            assert fragments.features_of(query) == expected  # remembered
        for query, _dtd in build_corpus(seed=20261019, n_cases=300):
            assert fragments.features_of(query) == _features_by_walk(query)


def _features_by_walk(query) -> frozenset:
    """The operator set by ``walk()`` and ``isinstance``, the way
    :func:`features_of` computed it before its explicit stack."""
    F = fragments.Feature
    features = set()
    for node in query.walk():
        feature = fragments._PATH_FEATURES.get(type(node))
        if feature is not None:
            features.add(feature)
        elif isinstance(node, (ast.Union, ast.Or)):
            features.add(F.UNION)
        elif isinstance(node, ast.Filter):
            features.add(F.QUALIFIER)
        elif isinstance(node, ast.Not):
            features |= {F.NEGATION, F.QUALIFIER}
        elif isinstance(node, (ast.AttrConstCmp, ast.AttrAttrCmp)):
            features |= {F.DATA, F.QUALIFIER}
        elif isinstance(node, ast.LabelTest):
            features |= {F.LABEL_TEST, F.QUALIFIER}
        elif isinstance(node, ast.And):
            features.add(F.QUALIFIER)
    return frozenset(features)


# -- realworld: first-step cases once per path object ----------------------------

class _ReferenceSolver(_Solver):
    """The solver with the decomposition it had before path records:
    ``path_options`` verbatim, calling ``first_cases`` on every visit."""

    def path_options(self, path, label):
        self._step()
        choices = []
        for case in realworld.first_cases(path):
            if isinstance(case, Child):
                residual = case.residual
                qid = (
                    -1 if isinstance(residual, ast.Empty)
                    else self.intern(ast.PathExists(residual))
                )
                choices.append(frozenset({(case.label, qid)}))
            elif isinstance(case, Done):
                choices.append(frozenset())
            elif isinstance(case, Desc):
                wrapped = ast.PathExists(ast.Seq(ast.DescOrSelf(), case.residual))
                choices.append(frozenset({(None, self.intern(wrapped))}))
            elif isinstance(case, Check):
                quals = self.options(case.qualifier, label)
                paths = self.path_options(case.residual, label)
                if len(quals) * len(paths) > MAX_CHOICES:
                    raise ReproError(
                        "realworld solver: filter step too wide; falling back"
                    )
                choices.extend(q | p for q in quals for p in paths)
            else:  # pragma: no cover - first_cases is exhaustive
                raise FragmentError(f"unexpected step case {case!r}")
        if len(choices) > MAX_CHOICES:
            raise ReproError(
                "realworld solver: too many disjunctive choices; falling back"
            )
        return choices


def _kernel_questions(count: int = 1500):
    """The questions of ``benchmarks/bench_realworld_kernel.py``: distinct
    corpus questions the planner routes to ``realworld``, canonicalized
    and rewritten the way the engine hands them over."""
    schemas = realworld_schemas()
    registry = _registry(schemas)
    planner = Planner()
    rng = random.Random(20130803)
    seen: set = set()
    questions = []
    while len(questions) < count:
        for job in batch_jobs(
            rng, schemas, count, fragments=(DOWNWARD_QUAL, CHILD_UP),
            duplicate_rate=0.0,
        ):
            key = (job.schema, job.query)
            if key in seen or len(questions) >= count:
                continue
            seen.add(key)
            parsed = parse_query(job.query)
            plan = planner.plan_query(parsed, artifacts=registry.get(job.schema))
            if plan.decider != "realworld":
                continue
            query = canonicalize(parsed)
            for name in plan.rewrites[1:]:
                outcome = get_pass(name).run(query)
                query = outcome.path if outcome.complete else None
                if query is None:
                    break
            if query is not None:
                questions.append((job.schema, query))
    return schemas, questions


def _solve(solver_type, dtd, context, query):
    solver = solver_type(dtd, context)
    try:
        verdict = solver.top(query)
    except ReproError:
        verdict = "declined"
    return (
        verdict, solver.quals, len(solver.memo), solver.steps, solver.passes,
    )


class TestFirstCasesOnce:
    def test_each_path_object_is_decomposed_once(self, monkeypatch):
        schemas, questions = _kernel_questions()
        contexts = {name: prepare_realworld(dtd) for name, dtd in schemas.items()}
        decomposed: list = []
        original = realworld.first_cases

        def counted(path):
            decomposed.append(path)
            return original(path)

        monkeypatch.setattr(realworld, "first_cases", counted)
        calls = reference_calls = 0
        for schema, query in questions:
            dtd, context = schemas[schema], contexts[schema]
            decomposed.clear()
            outcome = _solve(_Solver, dtd, context, query)
            paths = len({id(path) for path in decomposed})
            assert paths == len(decomposed), str(query)
            calls += len(decomposed)
            decomposed.clear()
            reference = _solve(_ReferenceSolver, dtd, context, query)
            reference_calls += len(decomposed)
            # the same ids in the same order, the same search
            assert outcome == reference, str(query)
        assert calls <= 6_000
        assert reference_calls >= 3 * calls


# -- prepared tables for downward ------------------------------------------------

def _outcome(fn, query, dtd, **kwargs):
    try:
        result = fn(query, dtd, **kwargs)
    except ReproError as error:
        return (type(error).__name__, str(error))
    witness = result.witness.root.pretty() if result.witness is not None else None
    return (result.satisfiable, result.method, result.reason, result.stats, witness)


class TestPreparedTables:
    def test_prepared_context_changes_no_result(self):
        spec = get_decider("downward")
        contexts = {}
        compared = sat = 0
        for query, dtd in build_corpus(seed=20261019, n_cases=600):
            if id(dtd) not in contexts:
                contexts[id(dtd)] = spec.prepare(dtd)
            plain = _outcome(spec.fn, query, dtd)
            prepared = _outcome(spec.fn, query, dtd, context=contexts[id(dtd)])
            assert plain == prepared, str(query)
            compared += 1
            sat += plain[0] is True
        assert compared == 600 and sat >= 20
