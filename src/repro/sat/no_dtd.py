"""Theorem 6.11(1): in the absence of DTDs, ``SAT(X(↓,↓*,∪,[]))`` is in
PTIME (cubic), and *every* query is satisfiable when label tests are
disallowed.

The algorithm is the paper's ``reach``/``sat`` dynamic program over the
label set ``Ele = labels(p) ∪ {X}``: with no DTD, ``↓``/``↓*`` reach every
label, and a conjunction of qualifiers is satisfiable at a node iff each
conjunct is — witnesses live in independent branches because nothing
constrains the children words.  The witness construction is the paper's
``Tree(p)``: a pattern tree with a separate branch per qualifier, built
on the result's first ``.witness`` read.
"""

from __future__ import annotations

from functools import partial

from repro.errors import FragmentError
from repro.sat.result import SatResult
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier, labels_mentioned
from repro.xpath.canonical import query_key
from repro.xpath.fragments import DOWNWARD_QUAL, Feature, features_of
from repro.sat.registry import DeciderSpec, register_decider

METHOD = "thm6.11-no-dtd"


class _ReachProgram:
    """One question's ``reach(p', A)`` and ``sat(q, A)`` tables over the
    label set ``universe``, filled on demand.  The memos are keyed on the
    stable ``query_key`` (a content digest, so the tables could be shared
    across processes/sessions, unlike per-process salted ``hash()``);
    keys are memoized by node identity because the AST is fixed for the
    duration of the call.  The memos are attributes and the recurrences
    methods, so a question's tables hold no reference cycle."""

    __slots__ = ("universe", "reach_memo", "sat_memo", "node_keys")

    def __init__(self, universe: frozenset[str]):
        self.universe = universe
        self.reach_memo: dict[tuple[str, str], frozenset[str]] = {}
        self.sat_memo: dict[tuple[str, str], bool] = {}
        self.node_keys: dict[int, str] = {}

    def key_of(self, node: Path | Qualifier) -> str:
        key = self.node_keys.get(id(node))
        if key is None:
            key = self.node_keys[id(node)] = query_key(node)
        return key

    def reach(self, sub: Path, label: str) -> frozenset[str]:
        key = (self.key_of(sub), label)
        cached = self.reach_memo.get(key)
        if cached is None:
            cached = self.reach_memo[key] = self._reach(sub, label)
        return cached

    def _reach(self, sub: Path, label: str) -> frozenset[str]:
        if isinstance(sub, ast.Empty):
            return frozenset({label})
        if isinstance(sub, ast.Label):
            # no DTD: any label can appear as a child of any node
            return frozenset({sub.name})
        if isinstance(sub, (ast.Wildcard, ast.DescOrSelf)):
            return self.universe
        if isinstance(sub, ast.Union):
            return self.reach(sub.left, label) | self.reach(sub.right, label)
        if isinstance(sub, ast.Seq):
            targets: set[str] = set()
            for middle in self.reach(sub.left, label):
                targets |= self.reach(sub.right, middle)
            return frozenset(targets)
        if isinstance(sub, ast.Filter):
            return frozenset(
                target for target in self.reach(sub.path, label)
                if self.sat_q(sub.qualifier, target)
            )
        raise FragmentError(f"unexpected node {sub!r}")

    def sat_q(self, qualifier: Qualifier, label: str) -> bool:
        key = (self.key_of(qualifier), label)
        cached = self.sat_memo.get(key)
        if cached is None:
            cached = self.sat_memo[key] = self._sat_q(qualifier, label)
        return cached

    def _sat_q(self, qualifier: Qualifier, label: str) -> bool:
        if isinstance(qualifier, ast.PathExists):
            return bool(self.reach(qualifier.path, label))
        if isinstance(qualifier, ast.LabelTest):
            return qualifier.name == label
        if isinstance(qualifier, ast.And):
            # independent branches: conjuncts decide separately
            return self.sat_q(qualifier.left, label) and self.sat_q(qualifier.right, label)
        if isinstance(qualifier, ast.Or):
            return self.sat_q(qualifier.left, label) or self.sat_q(qualifier.right, label)
        raise FragmentError(f"unexpected qualifier {qualifier!r}")


def sat_no_dtd(query: Path) -> SatResult:
    """Decide satisfiability of ``query ∈ X(↓,↓*,∪,[])`` (label tests
    allowed) over unconstrained trees."""
    used = features_of(query)
    if not used <= SPEC.allowed:
        raise FragmentError(
            f"sat_no_dtd requires X(child,dos,union,qual); query uses "
            f"{sorted(str(f) for f in used - SPEC.allowed)} extra"
        )
    if Feature.LABEL_TEST not in used:
        # the paper's observation: without label tests every query in the
        # fragment is satisfiable
        return SatResult(
            True, METHOD, witness=partial(_build_witness, query),
            reason="label-test-free: always satisfiable",
        )

    labels = sorted(labels_mentioned(query))
    fresh = "X"
    while fresh in labels:
        fresh += "_"
    program = _ReachProgram(frozenset(labels) | {fresh})
    satisfiable_roots = [
        label for label in sorted(program.universe) if program.reach(query, label)
    ]
    stats = {
        "reach_entries": len(program.reach_memo),
        "sat_entries": len(program.sat_memo),
    }
    if not satisfiable_roots:
        return SatResult(False, METHOD, stats=stats)
    witness = partial(_build_witness_checked, query, satisfiable_roots[0], program)
    return SatResult(True, METHOD, witness=witness, stats=stats)


# ---------------------------------------------------------------------------
# Witness construction (the paper's Tree(p)): no DTD constraints, so every
# requirement gets its own branch.
# ---------------------------------------------------------------------------

def _build_witness(query: Path) -> XMLTree:
    """Label-test-free witness: greedily realize one branch per
    requirement; any labels work, so use the mentioned ones."""
    root = Node("X")
    _grow(root, query)
    return XMLTree(root)


def _grow(node: Node, sub: Path) -> Node:
    """Append a witness branch for ``sub`` below ``node``; returns the final
    node.  Only safe without label tests (labels are free)."""
    if isinstance(sub, ast.Empty):
        return node
    if isinstance(sub, ast.Label):
        return node.append(Node(sub.name))
    if isinstance(sub, (ast.Wildcard, ast.DescOrSelf)):
        return node.append(Node("X"))
    if isinstance(sub, ast.Seq):
        middle = _grow(node, sub.left)
        return _grow(middle, sub.right)
    if isinstance(sub, ast.Union):
        return _grow(node, sub.left)
    if isinstance(sub, ast.Filter):
        target = _grow(node, sub.path)
        _grow_qualifier(target, sub.qualifier)
        return target
    raise FragmentError(f"unexpected node {sub!r}")


def _grow_qualifier(node: Node, qualifier: Qualifier) -> None:
    if isinstance(qualifier, ast.PathExists):
        _grow(node, qualifier.path)
        return
    if isinstance(qualifier, ast.And):
        _grow_qualifier(node, qualifier.left)
        _grow_qualifier(node, qualifier.right)
        return
    if isinstance(qualifier, ast.Or):
        _grow_qualifier(node, qualifier.left)
        return
    raise FragmentError(f"unexpected qualifier {qualifier!r}")


def _build_witness_checked(query: Path, root_label: str, program: _ReachProgram) -> XMLTree:
    """Witness construction guided by the reach/sat tables (needed when
    label tests force choices)."""
    root = Node(root_label)
    target = min(program.reach(query, root_label))
    _realize_path(program, root, query, target)
    return XMLTree(root)


def _realize_path(program: _ReachProgram, node: Node, sub: Path, target: str) -> Node:
    if isinstance(sub, ast.Empty):
        return node
    if isinstance(sub, ast.Label):
        return node.append(Node(sub.name))
    if isinstance(sub, ast.Wildcard):
        return node.append(Node(target))
    if isinstance(sub, ast.DescOrSelf):
        if target == node.label:
            return node  # descendant-or-self includes self
        return node.append(Node(target))
    if isinstance(sub, ast.Union):
        if target in program.reach(sub.left, node.label):
            return _realize_path(program, node, sub.left, target)
        return _realize_path(program, node, sub.right, target)
    if isinstance(sub, ast.Seq):
        for middle in sorted(program.reach(sub.left, node.label)):
            if target in program.reach(sub.right, middle):
                mid = _realize_path(program, node, sub.left, middle)
                return _realize_path(program, mid, sub.right, target)
        raise AssertionError("reach promised a decomposition")
    if isinstance(sub, ast.Filter):
        end = _realize_path(program, node, sub.path, target)
        _realize_qualifier(program, end, sub.qualifier)
        return end
    raise FragmentError(f"unexpected node {sub!r}")


def _realize_qualifier(program: _ReachProgram, node: Node, qualifier: Qualifier) -> None:
    if isinstance(qualifier, ast.PathExists):
        targets = program.reach(qualifier.path, node.label)
        _realize_path(program, node, qualifier.path, min(targets))
        return
    if isinstance(qualifier, ast.LabelTest):
        return
    if isinstance(qualifier, ast.And):
        _realize_qualifier(program, node, qualifier.left)
        _realize_qualifier(program, node, qualifier.right)
        return
    if isinstance(qualifier, ast.Or):
        if program.sat_q(qualifier.left, node.label):
            _realize_qualifier(program, node, qualifier.left)
        else:
            _realize_qualifier(program, node, qualifier.right)
        return
    raise FragmentError(f"unexpected qualifier {qualifier!r}")


SPEC = register_decider(DeciderSpec(
    name="no_dtd",
    method=METHOD,
    fn=sat_no_dtd,
    allowed=DOWNWARD_QUAL.allowed | {Feature.LABEL_TEST},
    shape="X(↓,↓*,∪,[])",
    theorem="Thm 6.11(1)",
    complexity="PTIME",
    cost_rank=10,
    needs_dtd=False,
))
