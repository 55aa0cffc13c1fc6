"""Theorem 4.1: ``SAT(X(↓,↓*,∪))`` is in PTIME.

The decision procedure is the paper's dynamic program over the DTD graph:
for every subquery ``p'`` (in bottom-up order) and element type ``A``,
``reach(p', A)`` is the set of element types reachable from an ``A``
element via ``p'`` in ``G_D``.  The pair ``(p, D)`` is satisfiable iff
``reach(p, r) ≠ ∅``.

Two implementation notes:

* The paper first normalizes the DTD (Proposition 3.3).  For this
  qualifier-free fragment normalization is unnecessary: a label ``l`` can be
  a child of an ``A`` element iff ``l`` occurs in ``P(A)`` (content models
  never denote the empty language), so the DTD graph of the *original* DTD
  already supports the recurrence, saving the ``O(|p||D|^3)`` rewriting and
  giving the ``O(|p||D|^2)`` bound directly.
* When satisfiable the witness is the paper's ``Tree(p, D)``, following
  its ``path(p', A, B)`` construction: a chain of labels realizing the
  query, grafted into minimal conforming context.  It is read off the
  ``reach`` table on the result's first ``.witness`` read, so the batch
  engine, which keeps only verdicts, never builds it.

The schema-only part of the program — ``G_D``, each type's child set and
its ``↓*`` reachability — is the decider's ``prepare`` context
(:class:`ReachTables`), so the engine's runtimes build it once per schema
instead of once per question.  One question's memo tables live in a
:class:`ReachProgram`, which Thm 6.8 (:mod:`repro.sat.disjunction_free`)
runs too.
"""

from __future__ import annotations

from functools import partial

from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.errors import FragmentError
from repro.regex.ops import shortest_word_containing
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xmltree.generate import _min_words, _minimal_node, minimal_tree
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier
from repro.xpath.fragments import DOWNWARD

METHOD = "thm4.1-reach"


class ReachTables:
    """Schema-only half of the ``reach`` program: the DTD graph ``G_D``,
    each element type's child set (its production's alphabet, derived
    once), and each type's ``↓*`` reachability, computed the first time a
    question asks and kept after that.  It is the ``downward`` decider's
    ``prepare`` context (``disjunction_free`` builds one per call).  Like
    every ``prepare`` context it is a pure cache: it never changes a
    verdict."""

    __slots__ = ("graph", "children", "_below")

    def __init__(self, dtd: DTD):
        dtd.require_terminating()
        self.graph = DTDGraph(dtd)
        self.children = self.graph.edges
        self._below: dict[str, frozenset[str]] = {}

    def below(self, element_type: str) -> frozenset[str]:
        """Element types reachable from ``element_type`` by ``↓*``."""
        reached = self._below.get(element_type)
        if reached is None:
            reached = self._below[element_type] = self.graph.reachable_from(element_type)
        return reached


class ReachProgram:
    """One question's ``reach(p', A)`` and ``sat(q, A)`` tables, filled
    on demand over a schema's :class:`ReachTables` (read only through its
    ``children`` and ``below``).  Thm 4.1 reads ``reach``; Thm 6.8 adds
    qualifiers through ``sat_qual``.  The memos are attributes and the
    recurrences methods, so a question's tables hold no reference cycle:
    they are freed as soon as the last reference to the program goes."""

    __slots__ = ("tables", "reach_memo", "sat_memo")

    def __init__(self, tables):
        self.tables = tables
        self.reach_memo: dict[tuple[Path, str], frozenset[str]] = {}
        self.sat_memo: dict[tuple[Qualifier, str], bool] = {}

    def reach(self, sub: Path, element_type: str) -> frozenset[str]:
        """Element types reachable from an ``element_type`` element by
        ``sub``."""
        key = (sub, element_type)
        cached = self.reach_memo.get(key)
        if cached is None:
            cached = self.reach_memo[key] = self._reach(sub, element_type)
        return cached

    def _reach(self, sub: Path, element_type: str) -> frozenset[str]:
        if isinstance(sub, ast.Empty):
            return frozenset({element_type})
        if isinstance(sub, ast.Label):
            if sub.name in self.tables.children[element_type]:
                return frozenset({sub.name})
            return frozenset()
        if isinstance(sub, ast.Wildcard):
            return self.tables.children[element_type]
        if isinstance(sub, ast.DescOrSelf):
            return self.tables.below(element_type)
        if isinstance(sub, ast.Union):
            return self.reach(sub.left, element_type) | self.reach(sub.right, element_type)
        if isinstance(sub, ast.Seq):
            targets: set[str] = set()
            for middle in self.reach(sub.left, element_type):
                targets |= self.reach(sub.right, middle)
            return frozenset(targets)
        if isinstance(sub, ast.Filter):
            return frozenset(
                target
                for target in self.reach(sub.path, element_type)
                if self.sat_qual(sub.qualifier, target)
            )
        raise FragmentError(f"unexpected node: {sub!r}")

    def sat_qual(self, qualifier: Qualifier, element_type: str) -> bool:
        """Can ``qualifier`` hold at an ``element_type`` element?  Each
        conjunct is decided on its own: exact under disjunction-free
        schemas (Thm 6.8's merge property), the only ones that ask."""
        key = (qualifier, element_type)
        cached = self.sat_memo.get(key)
        if cached is None:
            cached = self.sat_memo[key] = self._sat_qual(qualifier, element_type)
        return cached

    def _sat_qual(self, qualifier: Qualifier, element_type: str) -> bool:
        if isinstance(qualifier, ast.PathExists):
            return bool(self.reach(qualifier.path, element_type))
        if isinstance(qualifier, ast.LabelTest):
            return qualifier.name == element_type
        if isinstance(qualifier, ast.And):
            return self.sat_qual(qualifier.left, element_type) and self.sat_qual(
                qualifier.right, element_type
            )
        if isinstance(qualifier, ast.Or):
            return self.sat_qual(qualifier.left, element_type) or self.sat_qual(
                qualifier.right, element_type
            )
        raise FragmentError(f"unexpected qualifier: {qualifier!r}")


def sat_downward(
    query: Path, dtd: DTD, context: ReachTables | None = None
) -> SatResult:
    """Decide ``(query, dtd)`` for ``query ∈ X(↓,↓*,∪)``.

    ``context`` is the schema's :class:`ReachTables`, the decider's
    ``prepare`` hook (built here when absent).  A SAT result builds
    ``Tree(p, D)`` on its first ``.witness`` read.
    Raises :class:`FragmentError` outside the fragment.
    """
    if not DOWNWARD.contains(query):
        raise FragmentError(
            f"sat_downward requires X(child,dos,union); query uses "
            f"{sorted(str(f) for f in DOWNWARD.missing(query))} extra"
        )
    tables = context if context is not None else ReachTables(dtd)
    program = ReachProgram(tables)
    final = program.reach(query, dtd.root)
    stats = {"reach_entries": len(program.reach_memo)}
    if not final:
        return SatResult(False, METHOD, stats=stats)
    witness = partial(_build_witness, query, dtd, tables.graph, program.reach)
    return SatResult(True, METHOD, witness=witness, stats=stats)


def _build_witness(query, dtd: DTD, graph: DTDGraph, reach) -> XMLTree:
    """The paper's ``Tree(p, D)``: realize one label path from the root,
    then complete it into a conforming tree with minimal expansions."""
    target = min(reach(query, dtd.root))  # deterministic choice
    labels = _path_labels(query, dtd.root, target, dtd, graph, reach)
    tree = _chain_tree(dtd, labels)
    return tree


def _path_labels(sub, source: str, target: str, dtd: DTD, graph: DTDGraph, reach) -> list[str]:
    """``path(p', A, B)``: labels of a witness path from ``A`` (excluded)
    to ``B`` (included; empty when the path stays put)."""
    if isinstance(sub, ast.Empty):
        return []
    if isinstance(sub, (ast.Label, ast.Wildcard)):
        return [target]
    if isinstance(sub, ast.DescOrSelf):
        path = graph.shortest_path(source, target)
        if path is None:
            raise AssertionError("reach promised a path")
        return path[1:]
    if isinstance(sub, ast.Union):
        if target in reach(sub.left, source):
            return _path_labels(sub.left, source, target, dtd, graph, reach)
        return _path_labels(sub.right, source, target, dtd, graph, reach)
    if isinstance(sub, ast.Seq):
        for middle in sorted(reach(sub.left, source)):
            if target in reach(sub.right, middle):
                head = _path_labels(sub.left, source, middle, dtd, graph, reach)
                tail = _path_labels(sub.right, middle, target, dtd, graph, reach)
                return head + tail
        raise AssertionError("reach promised a decomposition")
    raise FragmentError(f"unexpected node: {sub!r}")


def _chain_tree(dtd: DTD, labels: list[str]) -> XMLTree:
    """A conforming tree containing the root-to-leaf label chain
    ``root/labels[0]/labels[1]/...``: each chain node's children word is a
    shortest word containing the next chain label, with the off-chain
    positions expanded minimally.  Built top-down in a loop: the chain
    may be longer than the interpreter's recursion limit."""
    if not labels:
        return minimal_tree(dtd)

    def make(label: str) -> Node:
        node = Node(label=label)
        for attr in sorted(dtd.attrs_of(label)):
            node.attrs[attr] = f"{attr}0"
        return node

    root = node = make(dtd.root)
    for next_label in labels:
        word = shortest_word_containing(dtd.production(node.label), next_label)
        if word is None:
            raise AssertionError(f"{next_label} not a possible child of {node.label}")
        chain_child = None
        for symbol in word:
            if symbol == next_label and chain_child is None:
                chain_child = node.append(make(symbol))
            else:
                node.append(_minimal_node(dtd, symbol))
        node = chain_child
    for child_label in _min_words(dtd)[node.label]:
        node.append(_minimal_node(dtd, child_label))
    return XMLTree(root)


SPEC = register_decider(DeciderSpec(
    name="downward",
    method=METHOD,
    fn=sat_downward,
    allowed=DOWNWARD.allowed,
    shape="X(↓,↓*,∪)",
    theorem="Thm 4.1",
    complexity="PTIME",
    cost_rank=10,
    prepare=ReachTables,
))
