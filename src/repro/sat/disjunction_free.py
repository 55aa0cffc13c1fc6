"""Theorem 6.8: under disjunction-free DTDs, ``SAT(X(↓,↓*,∪,[]))`` and
``SAT(X(↓,↑))`` are in PTIME.

The key structural fact (paper, Section 6.3): when no production contains
disjunction, a conjunction of qualifiers is satisfiable at an ``A`` element
iff each conjunct is satisfiable there — witnesses merge because
concatenation/star productions never force an exclusive choice.  The
algorithm is the reach/sat dynamic program of the paper, with

* ``reach(p', A)`` — element types reachable from ``A`` via ``p'``;
* ``sat(q, A)`` — whether qualifier ``q`` is satisfiable at an ``A``
  element (computable from ``reach`` alone: no data values here).

``X(↓,↑)`` queries are handled by first applying the upward-elimination
rewriting (Theorem 6.8(2)); a query whose ``↑`` steps escape the root is
unsatisfiable at the root.

It runs Thm 4.1's program (:class:`~repro.sat.downward.ReachProgram`)
on the same schema-only tables (:class:`~repro.sat.downward.ReachTables`),
built per call.  A SAT answer's merged witness tree
(:mod:`repro.sat._witness`) is read off the tables on the result's first
``.witness`` read, so the batch engine, which keeps only verdicts, never
builds it.
"""

from __future__ import annotations

from functools import partial

from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.dtd.properties import is_disjunction_free
from repro.errors import FragmentError
from repro.sat.downward import ReachProgram, ReachTables
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xpath.ast import Path
from repro.xpath.fragments import CHILD_UP, DOWNWARD_QUAL, Feature
from repro.xpath.rewrite import upward_to_qualifiers

METHOD = "thm6.8-disjfree"


def sat_disjunction_free(query: Path, dtd: DTD) -> SatResult:
    """Decide ``(query, dtd)`` for disjunction-free ``dtd`` and ``query`` in
    ``X(↓,↓*,∪,[])`` or ``X(↓,↑)``."""
    if not is_disjunction_free(dtd):
        raise FragmentError("sat_disjunction_free requires a disjunction-free DTD")
    rewritten = query
    if CHILD_UP.contains(query) and not DOWNWARD_QUAL.contains(query):
        result = upward_to_qualifiers(query)
        if not result.complete:
            return SatResult(
                False, METHOD,
                reason="query climbs above the root",
            )
        rewritten = result.path
    if not DOWNWARD_QUAL.contains(rewritten):
        raise FragmentError(
            "sat_disjunction_free requires X(child,dos,union,qual) or X(child,parent); "
            f"query uses {sorted(str(f) for f in DOWNWARD_QUAL.missing(rewritten))} extra"
        )
    tables = ReachTables(dtd)
    program = ReachProgram(tables)
    final = program.reach(rewritten, dtd.root)
    stats = {
        "reach_entries": len(program.reach_memo),
        "sat_entries": len(program.sat_memo),
    }
    if not final:
        return SatResult(False, METHOD, stats=stats)
    witness = partial(
        _build_witness, rewritten, dtd, program.reach, program.sat_qual, tables.graph
    )
    return SatResult(True, METHOD, witness=witness, stats=stats)


def _build_witness(query: Path, dtd: DTD, reach, sat_qual, graph: DTDGraph):
    """Merge per-conjunct witnesses: realize the selected path, then graft a
    sub-witness for each qualifier along it.  Conforming expansion works
    because disjunction-free content models admit the union of the needed
    children (every required child label occurs in every word-shape)."""
    from repro.sat._witness import WitnessBuilder

    builder = WitnessBuilder(dtd, reach, sat_qual, graph)
    return builder.build(query)


SPEC = register_decider(DeciderSpec(
    name="disjunction_free",
    method=METHOD,
    fn=sat_disjunction_free,
    # Thm 6.8 needs a positive, label-test-free query: DOWNWARD_QUAL minus
    # the label tests the fragment convention would add (the ``X(↓,↑)``
    # case of Thm 6.8(2) reaches this decider through the
    # upward_to_qualifiers rewrite pass, whose output lands in this set)
    allowed=DOWNWARD_QUAL.allowed - {Feature.LABEL_TEST},
    shape="X(↓,↓*,∪,[]) / X(↓,↑)",
    theorem="Thm 6.8",
    complexity="PTIME",
    cost_rank=30,
    traits=("disjunction_free",),
))
