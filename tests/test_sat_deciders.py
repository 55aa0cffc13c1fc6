"""Tests for the satisfiability deciders: unit cases from the paper plus
cross-validation between independent procedures.

The agreement properties are the heart of the reproduction: on DTD classes
where the bounded engine is provably exhaustive (nonrecursive, star-free),
every decider must agree with it exactly; on general DTDs, every SAT answer
must come with a witness that re-validates, and every PTIME-decider answer
must agree with the EXPTIME types fixpoint.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.dtd import parse_dtd, random_dtd
from repro.errors import FragmentError
from repro.sat import (
    Bounds,
    decide,
    sat_bounded,
    sat_conjunctive_no_dtd,
    sat_disjunction_free,
    sat_downward,
    sat_exptime_types,
    sat_no_dtd,
    sat_positive,
    sat_sibling,
)
from repro.sat.nexptime import lookahead_depth, sat_nexptime
from repro.workloads import random_query
from repro.xmltree.validate import conforms
from repro.xpath import parse_query
from repro.xpath import fragments as frag
from repro.xpath.semantics import satisfies

EXACT_ORACLE_BOUNDS = Bounds(max_depth=5, max_width=4, max_nodes=25, max_trees=60_000)


def check_witness(result, dtd, query):
    assert result.witness is not None
    if dtd is not None:
        assert conforms(result.witness, dtd), result.witness.pretty()
    assert satisfies(result.witness, query), result.witness.pretty()


class TestDownward:
    def test_example_2_3(self, example_2_3_dtd):
        assert sat_downward(parse_query("B"), example_2_3_dtd).is_unsat
        result = sat_downward(parse_query("A"), example_2_3_dtd)
        assert result.is_sat
        check_witness(result, example_2_3_dtd, parse_query("A"))

    def test_desc_and_union(self, example_2_1_dtd):
        for text in ["**/T", "X1/T | X1/F", "*/T", "X2/F"]:
            result = sat_downward(parse_query(text), example_2_1_dtd)
            assert result.is_sat, text
            check_witness(result, example_2_1_dtd, parse_query(text))
        assert sat_downward(parse_query("T/F"), example_2_1_dtd).is_unsat
        assert sat_downward(parse_query("X1/X2"), example_2_1_dtd).is_unsat

    def test_recursive_dtd(self, recursive_dtd):
        result = sat_downward(parse_query("**/X"), recursive_dtd)
        assert result.is_sat
        check_witness(result, recursive_dtd, parse_query("**/X"))
        assert sat_downward(parse_query("X/Y"), recursive_dtd).is_unsat

    def test_rejects_out_of_fragment(self, example_2_1_dtd):
        with pytest.raises(FragmentError):
            sat_downward(parse_query("A[B]"), example_2_1_dtd)

    def test_agreement_with_oracle(self, rng):
        for trial in range(40):
            dtd = random_dtd(
                rng, n_types=4, allow_recursion=False, allow_star=False
            )
            query = random_query(
                rng, frag.DOWNWARD, sorted(dtd.element_types), max_depth=2
            )
            fast = sat_downward(query, dtd)
            oracle = sat_bounded(query, dtd, EXACT_ORACLE_BOUNDS)
            assert oracle.satisfiable is not None, (trial, oracle.reason)
            assert fast.satisfiable == oracle.satisfiable, (str(query), dtd.describe())
            if fast.is_sat:
                check_witness(fast, dtd, query)


class TestExptimeTypes:
    def test_negation_cases(self, example_2_1_dtd):
        dtd = example_2_1_dtd
        assert sat_exptime_types(parse_query(".[not(X1)]"), dtd).is_unsat
        assert sat_exptime_types(parse_query(".[not(X1/T)]"), dtd).is_sat
        assert sat_exptime_types(
            parse_query(".[not(X1/T) and not(X1/F)]"), dtd
        ).is_unsat
        assert sat_exptime_types(
            parse_query(".[not(X1/T) and not(X2/T) and not(X3/T)]"), dtd
        ).is_sat

    def test_desc_negation(self, recursive_dtd):
        # every conforming tree has a C child; a C-less tree is impossible
        assert sat_exptime_types(parse_query(".[not(C)]"), recursive_dtd).is_unsat
        # no X anywhere is possible (registers stay empty)
        result = sat_exptime_types(parse_query(".[not(**/X)]"), recursive_dtd)
        assert result.is_sat
        check_witness(result, recursive_dtd, parse_query(".[not(**/X)]"))

    def test_label_tests(self, example_2_1_dtd):
        assert sat_exptime_types(
            parse_query("*[lab() = X1]/T"), example_2_1_dtd
        ).is_sat
        assert sat_exptime_types(
            parse_query("*[lab() = T]"), example_2_1_dtd
        ).is_unsat

    def test_agreement_with_oracle(self, rng):
        for trial in range(30):
            dtd = random_dtd(rng, n_types=4, allow_recursion=False, allow_star=False)
            query = random_query(
                rng, frag.REC_NEG_DOWN_UNION, sorted(dtd.element_types), max_depth=2
            )
            exact = sat_exptime_types(query, dtd)
            oracle = sat_bounded(query, dtd, EXACT_ORACLE_BOUNDS)
            assert oracle.satisfiable is not None, (trial, oracle.reason)
            assert exact.satisfiable == oracle.satisfiable, (str(query), dtd.describe())
            if exact.is_sat:
                check_witness(exact, dtd, query)

    def test_agreement_on_recursive_dtds_sat_only(self, rng):
        """On recursive DTDs the oracle cannot prove UNSAT; check SAT
        agreement and witness validity."""
        for _ in range(20):
            dtd = random_dtd(rng, n_types=4, allow_recursion=True)
            query = random_query(
                rng, frag.REC_NEG_DOWN_UNION, sorted(dtd.element_types), max_depth=2
            )
            exact = sat_exptime_types(query, dtd)
            if exact.is_sat:
                check_witness(exact, dtd, query)
            else:
                probe = sat_bounded(query, dtd, Bounds(max_depth=4, max_width=3, max_trees=4000))
                assert not probe.is_sat, (str(query), dtd.describe())


class TestDisjunctionFree:
    def test_qualified_conjunctions(self):
        dtd = parse_dtd(
            """
            root r
            r -> A, B*
            A -> C
            B -> C
            C -> eps
            """
        )
        assert sat_disjunction_free(parse_query(".[A and B]"), dtd).is_sat
        assert sat_disjunction_free(parse_query(".[A/C and B/C]"), dtd).is_sat
        assert sat_disjunction_free(parse_query(".[A/B]"), dtd).is_unsat
        result = sat_disjunction_free(parse_query("A[C]"), dtd)
        assert result.is_sat
        check_witness(result, dtd, parse_query("A[C]"))

    def test_upward_queries(self):
        dtd = parse_dtd("root r\nr -> A, B\nA -> C\nB -> eps\nC -> eps\n")
        assert sat_disjunction_free(parse_query("A/C/^/^/B"), dtd).is_sat
        assert sat_disjunction_free(parse_query("^/A"), dtd).is_unsat

    def test_requires_disjunction_free(self, example_2_1_dtd):
        with pytest.raises(FragmentError):
            sat_disjunction_free(parse_query("X1/T"), example_2_1_dtd)

    def test_agreement_with_types_fixpoint(self, rng):
        for _ in range(40):
            dtd = random_dtd(rng, n_types=4, allow_union=False)
            query = random_query(
                rng, frag.DOWNWARD_QUAL, sorted(dtd.element_types), max_depth=2
            )
            if frag.Feature.LABEL_TEST in frag.features_of(query):
                continue
            fast = sat_disjunction_free(query, dtd)
            exact = sat_exptime_types(query, dtd)
            assert fast.satisfiable == exact.satisfiable, (str(query), dtd.describe())
            if fast.is_sat:
                check_witness(fast, dtd, query)


class TestSibling:
    @pytest.fixture
    def seq_dtd(self):
        return parse_dtd(
            "root r\nr -> A, B, C\nA -> D\nB -> eps\nC -> eps\nD -> eps\n"
        )

    def test_basic_moves(self, seq_dtd):
        cases = {
            "A/>": True,
            "A/>/>": True,
            "A/>/>/>": False,
            "A/<": False,
            "C/</<": True,
            "B/>/<": True,
            "A/>/B": False,   # B has no children
            "A/D": True,
            "A/>/>/</</D": True,
        }
        for text, expected in cases.items():
            result = sat_sibling(parse_query(text), seq_dtd)
            assert result.satisfiable is expected, text
            if expected:
                check_witness(result, seq_dtd, parse_query(text))

    def test_star_content_model(self):
        dtd = parse_dtd("root r\nr -> A, B*\nA -> eps\nB -> eps\n")
        long_walk = "A" + "/>" * 5
        result = sat_sibling(parse_query(long_walk), dtd)
        assert result.is_sat
        check_witness(result, dtd, parse_query(long_walk))

    def test_agreement_with_oracle(self, rng):
        for _ in range(40):
            dtd = random_dtd(rng, n_types=4, allow_recursion=False, allow_star=False)
            query = random_query(rng, frag.SIBLING, sorted(dtd.element_types), max_depth=2)
            fast = sat_sibling(query, dtd)
            oracle = sat_bounded(query, dtd, EXACT_ORACLE_BOUNDS)
            assert oracle.satisfiable is not None
            assert fast.satisfiable == oracle.satisfiable, (str(query), dtd.describe())


class TestNoDTD:
    def test_always_satisfiable_without_label_tests(self, rng):
        for _ in range(30):
            query = random_query(
                rng,
                frag.Fragment("X-nolabel", frag.DOWNWARD_QUAL.allowed - {frag.Feature.LABEL_TEST}),
                ["A", "B", "C"],
                max_depth=3,
            )
            result = sat_no_dtd(query)
            assert result.is_sat, str(query)
            assert satisfies(result.witness, query), str(query)

    def test_label_test_conflicts(self):
        assert sat_no_dtd(parse_query(".[lab() = A and lab() = B]")).is_unsat
        assert sat_no_dtd(parse_query(".[lab() = A or lab() = B]")).is_sat
        assert sat_no_dtd(parse_query("*[lab() = A][lab() = B]")).is_unsat
        result = sat_no_dtd(parse_query("*[lab() = A]/B[lab() = B]"))
        assert result.is_sat
        assert satisfies(result.witness, parse_query("*[lab() = A]/B[lab() = B]"))


class TestConjunctive:
    def test_tree_constraints(self):
        # two different labels forced on the same node via parent steps
        query = parse_query("A/^[lab() = B]")
        # the parent of the A-child is the root; lab() = B on the root is
        # consistent (root gets label B)
        assert sat_conjunctive_no_dtd(query).is_sat
        # root cannot have a parent
        assert sat_conjunctive_no_dtd(parse_query("^")).is_unsat
        # conflicting labels on the same class
        assert sat_conjunctive_no_dtd(
            parse_query(".[lab() = A and lab() = B]")
        ).is_unsat

    def test_data_joins(self):
        assert sat_conjunctive_no_dtd(parse_query(".[@a = '1' and @a != '1']")).is_unsat
        assert sat_conjunctive_no_dtd(parse_query(".[@a = '1' and @b != '1']")).is_sat
        assert sat_conjunctive_no_dtd(parse_query(".[A/@a = B/@b]")).is_sat
        assert sat_conjunctive_no_dtd(parse_query(".[@a != @a]")).is_unsat
        assert sat_conjunctive_no_dtd(
            parse_query(".[@a = '0' and @a = '1']")
        ).is_unsat

    def test_parent_merging(self):
        # x/A and the parent of that A: both parents are the same class
        query = parse_query("A[^[lab() = r]]")
        assert sat_conjunctive_no_dtd(query).is_sat

    def test_witnesses(self):
        for text in [".[A/@a = B/@b]", "A/B[@a != '3']", "A[^/B]"]:
            query = parse_query(text)
            result = sat_conjunctive_no_dtd(query)
            assert result.is_sat, text
            assert satisfies(result.witness, query), text


class TestNexptime:
    def test_lookahead_depth(self):
        assert lookahead_depth(parse_query("A/B/C")) == 3
        assert lookahead_depth(parse_query("A[B/C]")) == 3
        assert lookahead_depth(parse_query(".[not(A)]")) == 1
        assert lookahead_depth(parse_query("A | B/C")) == 2

    def test_data_negation(self):
        dtd = parse_dtd("root r\nr -> C, C\nC -> eps\nC @ v\n")
        # two C children with different v values
        query = parse_query(".[C/@v != C/@v]")
        result = sat_nexptime(query, dtd)
        assert result.is_sat
        check_witness(result, dtd, query)
        # negation: no C child has v = '0' while some C has v = '0'
        contradiction = parse_query(".[not(C/@v = '0') and C/@v = '0']")
        assert sat_nexptime(contradiction, dtd).is_unsat

    def test_recursive_dtd_frontier(self, recursive_dtd):
        # depth horizon below the recursion: frontier completion must apply
        query = parse_query(".[C and not(C/R1/X)]")
        result = sat_nexptime(query, recursive_dtd)
        assert result.is_sat
        check_witness(result, recursive_dtd, query)


class TestPositive:
    def test_downward_routing(self, example_2_1_dtd):
        result = sat_positive(parse_query("X1[T]"), example_2_1_dtd)
        assert result.is_sat
        assert "types fixpoint" in result.reason

    def test_upward_routing(self, example_2_1_dtd):
        result = sat_positive(parse_query("X1/T/^/^/X2/F"), example_2_1_dtd)
        assert result.is_sat
        result2 = sat_positive(parse_query("X1/T/F"), example_2_1_dtd)
        assert result2.is_unsat

    def test_rejects_negation(self, example_2_1_dtd):
        with pytest.raises(FragmentError):
            sat_positive(parse_query(".[not(X1)]"), example_2_1_dtd)


class TestDispatch:
    def test_routing(self, example_2_1_dtd, recursive_dtd):
        assert decide(parse_query("X1/T"), example_2_1_dtd).method == "thm4.1-reach"
        assert (
            decide(parse_query("X1/>"), example_2_1_dtd).method == "thm7.1-sibling"
        )
        assert (
            decide(parse_query(".[not(X1)]"), example_2_1_dtd).method
            == "thm5.3-types-fixpoint"
        )
        assert decide(parse_query("A[B]"), None).method == "thm6.11-no-dtd"
        assert (
            decide(parse_query("A[@a = '1']"), None).method == "thm6.11-conjunctive"
        )

    def test_no_dtd_prop31_fallback(self):
        # negation without a DTD routes through the universal-DTD family
        result = decide(parse_query(".[not(A) and A]"), None)
        assert result.is_unsat
        result2 = decide(parse_query(".[not(A) and B]"), None)
        assert result2.is_sat

    def test_three_valued_results_raise_on_bool(self):
        from repro.sat.result import SatResult

        undecided = SatResult(None, "test", reason="bounds")
        with pytest.raises(ValueError):
            bool(undecided)


class TestBoundedEngine:
    def test_exhaustive_on_finite_space(self):
        dtd = parse_dtd("root r\nr -> A?, B\nA -> eps\nB -> eps\n")
        result = sat_bounded(parse_query("A/B"), dtd, Bounds(max_depth=3, max_width=3))
        assert result.is_unsat  # finite space, definitively exhausted

    def test_unknown_on_recursive(self, recursive_dtd):
        result = sat_bounded(
            parse_query("**/X/Y"), recursive_dtd, Bounds(max_depth=3, max_width=3)
        )
        assert result.satisfiable is None

    def test_finds_deep_witness(self, recursive_dtd):
        query = parse_query("C/C/C")
        result = sat_bounded(recursive_dtd and query, recursive_dtd, Bounds(max_depth=5, max_width=4))
        assert result.is_sat
        check_witness(result, recursive_dtd, query)


#: dumps a digest of ``sat_downward`` witnesses over seeded random DTDs
#: and of ``sat_realworld`` witnesses over the real-world corpus
WITNESS_DUMP = """
import hashlib, random
from repro.dtd import random_dtd
from repro.errors import ReproError
from repro.sat.downward import sat_downward
from repro.sat.realworld import prepare_realworld, sat_realworld
from repro.workloads import random_query
from repro.workloads.realworld import realworld_schemas
from repro.xpath import fragments as frag

rng = random.Random(20050613)
digest = hashlib.sha256()
counts = [0, 0]
for _ in range(90):
    dtd = random_dtd(rng, n_types=rng.randint(4, 10))
    labels = sorted(dtd.element_types)
    for _ in range(20):
        query = random_query(rng, frag.DOWNWARD, labels, max_depth=3)
        witness = sat_downward(query, dtd).witness
        if witness is not None:
            digest.update(witness.pretty().encode())
            counts[0] += 1
for name, dtd in sorted(realworld_schemas().items()):
    context = prepare_realworld(dtd)
    labels = sorted(dtd.element_types)
    for fragment in (frag.DOWNWARD_QUAL, frag.CHILD_UP):
        for _ in range(80):
            query = random_query(rng, fragment, labels, max_depth=3)
            try:
                witness = sat_realworld(query, dtd, context).witness
            except ReproError:
                continue
            if witness is not None:
                digest.update(witness.pretty().encode())
                counts[1] += 1
print(*counts, digest.hexdigest())
"""


class TestWitnessDeterminism:
    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        # one query on one DTD yields one tree in every process: the
        # ``**`` paths and the minimal completions walk sorted labels
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        dumps = []
        for seed in ("0", "1"):
            env["PYTHONHASHSEED"] = seed
            completed = subprocess.run(
                [sys.executable, "-c", WITNESS_DUMP], env=env,
                capture_output=True, text=True, timeout=120, check=True,
            )
            dumps.append(completed.stdout)
        downward, realworld, _digest = dumps[0].split()
        assert int(downward) >= 1000 and int(realworld) >= 150
        assert dumps[0] == dumps[1]
