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

It runs on the same schema-only ``reach`` tables as Thm 4.1
(:class:`~repro.sat.downward.ReachTables`), built per call.  SAT answers
come with a merged witness tree (:mod:`repro.sat._witness`) unless the
caller asks for the verdict only (``witness=False``, as the batch engine
does).
"""

from __future__ import annotations

from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.dtd.properties import is_disjunction_free
from repro.errors import FragmentError
from repro.sat.downward import ReachTables
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier
from repro.xpath.fragments import CHILD_UP, DOWNWARD_QUAL, Feature
from repro.xpath.rewrite import upward_to_qualifiers

METHOD = "thm6.8-disjfree"


def sat_disjunction_free(
    query: Path, dtd: DTD, *, witness: bool = True,
) -> SatResult:
    """Decide ``(query, dtd)`` for disjunction-free ``dtd`` and ``query`` in
    ``X(↓,↓*,∪,[])`` or ``X(↓,↑)``.

    ``witness=False`` (the batch engine's verdict-only call) skips
    building the witness tree."""
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
    children = tables.children
    reach_cache: dict[tuple[Path, str], frozenset[str]] = {}
    sat_cache: dict[tuple[Qualifier, str], bool] = {}

    def reach(sub: Path, element_type: str) -> frozenset[str]:
        key = (sub, element_type)
        cached = reach_cache.get(key)
        if cached is None:
            cached = _reach(sub, element_type)
            reach_cache[key] = cached
        return cached

    def _reach(sub: Path, element_type: str) -> frozenset[str]:
        if isinstance(sub, ast.Empty):
            return frozenset({element_type})
        if isinstance(sub, ast.Label):
            if sub.name in children[element_type]:
                return frozenset({sub.name})
            return frozenset()
        if isinstance(sub, ast.Wildcard):
            return children[element_type]
        if isinstance(sub, ast.DescOrSelf):
            return tables.below(element_type)
        if isinstance(sub, ast.Union):
            return reach(sub.left, element_type) | reach(sub.right, element_type)
        if isinstance(sub, ast.Seq):
            targets: set[str] = set()
            for middle in reach(sub.left, element_type):
                targets |= reach(sub.right, middle)
            return frozenset(targets)
        if isinstance(sub, ast.Filter):
            return frozenset(
                target
                for target in reach(sub.path, element_type)
                if sat_qual(sub.qualifier, target)
            )
        raise FragmentError(f"unexpected node: {sub!r}")

    def sat_qual(qualifier: Qualifier, element_type: str) -> bool:
        key = (qualifier, element_type)
        cached = sat_cache.get(key)
        if cached is None:
            cached = _sat_qual(qualifier, element_type)
            sat_cache[key] = cached
        return cached

    def _sat_qual(qualifier: Qualifier, element_type: str) -> bool:
        if isinstance(qualifier, ast.PathExists):
            return bool(reach(qualifier.path, element_type))
        if isinstance(qualifier, ast.LabelTest):
            return qualifier.name == element_type
        if isinstance(qualifier, ast.And):
            # the disjunction-free merge property: conjuncts independently
            return sat_qual(qualifier.left, element_type) and sat_qual(
                qualifier.right, element_type
            )
        if isinstance(qualifier, ast.Or):
            return sat_qual(qualifier.left, element_type) or sat_qual(
                qualifier.right, element_type
            )
        raise FragmentError(f"unexpected qualifier: {qualifier!r}")

    final = reach(rewritten, dtd.root)
    stats = {"reach_entries": len(reach_cache), "sat_entries": len(sat_cache)}
    if not final:
        return SatResult(False, METHOD, stats=stats)
    if not witness:
        return SatResult(True, METHOD, stats=stats)
    tree = _build_witness(rewritten, dtd, reach, sat_qual, tables.graph)
    return SatResult(True, METHOD, witness=tree, stats=stats)


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
    builds_witness=True,
))
