"""Witness construction for the disjunction-free PTIME decider.

The decider (Theorem 6.8) reports satisfiability from its ``reach``/``sat``
tables; this module turns those tables into an actual conforming tree.

Strategy: build a *pattern tree* of required nodes — the selected path plus
one graft per qualifier — merging required children with equal labels.
Merging is sound precisely because of the disjunction-free property the
theorem rests on (``sat(q1 ∧ q2, A) = sat(q1, A) ∧ sat(q2, A)``), and it is
necessary because a concatenation production may supply only one child of a
given type.  Every required child set is then embedded into a single
children word: in a disjunction-free content model the word obtained by
keeping every concatenation part and pumping every star once contains every
alphabet symbol, so a word containing all required labels always exists
(found here by automaton search).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.regex.ops import cached_nfa
from repro.xmltree.generate import minimal_node
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier


@dataclass
class PatternNode:
    """A required node: its label and its required children (unique
    labels; merged on insert)."""

    label: str
    children: dict[str, "PatternNode"] = field(default_factory=dict)

    def child(self, label: str) -> "PatternNode":
        node = self.children.get(label)
        if node is None:
            node = PatternNode(label)
            self.children[label] = node
        return node


class WitnessBuilder:
    def __init__(self, dtd: DTD, reach, sat_qual, graph: DTDGraph):
        self.dtd = dtd
        self.reach = reach
        self.sat_qual = sat_qual
        self.graph = graph

    # -- pattern construction ------------------------------------------------
    def build(self, query: Path) -> XMLTree:
        root = PatternNode(self.dtd.root)
        targets = self.reach(query, self.dtd.root)
        target = min(targets)
        self._graft_path(root, query, target)
        return self._realize(root)

    def _graft_path(self, start: PatternNode, sub: Path, target: str) -> PatternNode:
        """Extend the pattern below ``start`` along a witness of ``sub``
        ending at an element of type ``target``; returns the final node."""
        if isinstance(sub, ast.Empty):
            return start
        if isinstance(sub, (ast.Label, ast.Wildcard)):
            return start.child(target)
        if isinstance(sub, ast.DescOrSelf):
            path = self.graph.shortest_path(start.label, target)
            assert path is not None
            node = start
            for label in path[1:]:
                node = node.child(label)
            return node
        if isinstance(sub, ast.Union):
            if target in self.reach(sub.left, start.label):
                return self._graft_path(start, sub.left, target)
            return self._graft_path(start, sub.right, target)
        if isinstance(sub, ast.Seq):
            for middle in sorted(self.reach(sub.left, start.label)):
                if target in self.reach(sub.right, middle):
                    mid_node = self._graft_path(start, sub.left, middle)
                    return self._graft_path(mid_node, sub.right, target)
            raise AssertionError("reach promised a decomposition")
        if isinstance(sub, ast.Filter):
            node = self._graft_path(start, sub.path, target)
            self._graft_qualifier(node, sub.qualifier)
            return node
        raise AssertionError(f"unexpected node {sub!r}")

    def _graft_qualifier(self, node: PatternNode, qualifier: Qualifier) -> None:
        if isinstance(qualifier, ast.PathExists):
            targets = self.reach(qualifier.path, node.label)
            self._graft_path(node, qualifier.path, min(targets))
            return
        if isinstance(qualifier, ast.LabelTest):
            return  # guaranteed by the sat table
        if isinstance(qualifier, ast.And):
            self._graft_qualifier(node, qualifier.left)
            self._graft_qualifier(node, qualifier.right)
            return
        if isinstance(qualifier, ast.Or):
            if self.sat_qual(qualifier.left, node.label):
                self._graft_qualifier(node, qualifier.left)
            else:
                self._graft_qualifier(node, qualifier.right)
            return
        raise AssertionError(f"unexpected qualifier {qualifier!r}")

    # -- realization -----------------------------------------------------------
    def _realize(self, pattern: PatternNode) -> XMLTree:
        return XMLTree(self._realize_node(pattern))

    def _realize_node(self, pattern: PatternNode) -> Node:
        """Built top-down with an explicit stack: a pattern may be deeper
        than the interpreter's recursion limit (a ``↓*`` step on a deep
        schema grafts one pattern node per schema level)."""

        def make(label: str) -> Node:
            node = Node(label=label)
            for attr in sorted(self.dtd.attrs_of(label)):
                node.attrs[attr] = f"{attr}0"
            return node

        root = make(pattern.label)
        stack = [(root, pattern)]
        while stack:
            node, current = stack.pop()
            required = set(current.children)
            word = word_containing(self.dtd, current.label, required)
            used: set[str] = set()
            for symbol in word:
                if symbol in required and symbol not in used:
                    used.add(symbol)
                    child = node.append(make(symbol))
                    stack.append((child, current.children[symbol]))
                else:
                    node.append(minimal_node(self.dtd, symbol))
        return root


def word_containing(dtd: DTD, label: str, required: set[str]) -> tuple[str, ...]:
    """A shortest children word of ``P(label)`` containing every label in
    ``required`` at least once (BFS over NFA state × remaining set)."""
    production = dtd.production(label)
    nfa = cached_nfa(production)
    start = (0, frozenset(required))
    if not required and nfa.nullable:
        return ()
    parents: dict[tuple[int, frozenset[str]], tuple[tuple[int, frozenset[str]], str]] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        state, remaining = queue.popleft()
        if not remaining and nfa.is_accepting(state):
            word: list[str] = []
            current = (state, remaining)
            while current != start:
                current, letter = parents[current]
                word.append(letter)
            return tuple(reversed(word))
        for succ in nfa.successors(state):
            letter = nfa.symbols[succ]
            assert letter is not None
            succ_node = (succ, remaining - {letter})
            if succ_node not in seen:
                seen.add(succ_node)
                parents[succ_node] = ((state, remaining), letter)
                queue.append(succ_node)
    raise AssertionError(
        f"no children word of {label!r} contains {sorted(required)}; "
        "the reach/sat tables should have prevented this"
    )
