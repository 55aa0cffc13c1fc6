"""Bounded-model search: the library's reference oracle and the honest
substitute for the PSPACE/EXPTIME/NEXPTIME emptiness procedures.

``sat_bounded`` enumerates conforming trees within explicit bounds (depth,
children-word length, node count, tree count) and evaluates the query on
each; for queries with data values it additionally enumerates attribute
assignments over a finite value pool.

Three-valued answers:

* ``True`` — a witness was found (always re-validated);
* ``False`` — the enumeration was *provably exhaustive*: the DTD is
  nonrecursive and star-free within the given depth/width (so the bounded
  space is the whole space), and the value pool provably suffices
  (``|constants| + |attribute slots|`` values cover all equality types);
* ``None`` — bounds exhausted without a witness.

The NEXPTIME decider of Theorem 5.5 instantiates this engine with the
paper's small-model bounds (depth ``|p|``, width ``|D|+|p|``); those runs
return definitive ``False`` only when they cover the bound-implied space,
which is recorded in ``stats``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.dtd.model import DTD
from repro.dtd.properties import is_no_star, is_nonrecursive, max_document_depth
from repro.regex.ops import cached_nfa, enumerate_words
from repro.sat.bits import cached_tables, enumerate_words_packed, longest_accepted_length
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xmltree.model import Node, XMLTree
from repro.xmltree.validate import conforms
from repro.xpath.ast import Path, constants_mentioned
from repro.xpath.fragments import FULL, uses_data
from repro.xpath.semantics import satisfies

METHOD = "bounded-model"

Shape = tuple  # (label, (child_shape, ...))


@dataclass
class BoundedContext:
    """Schema-only precomputation shared across queries (the decider's
    ``prepare`` hook for the plan-grouped batch scheduler).

    Everything here is a pure function of the DTD: the classification
    predicates and word-length analysis that :func:`_exhaustive` re-runs
    per call, plus a memo of content-model word enumerations that
    :func:`_shapes` otherwise regenerates per node expansion.  Sharing a
    context across a group of jobs changes no verdict — only how often
    the same schema walk is repeated.
    """

    nonrecursive: bool
    no_star: bool
    doc_depth: int | None                    # None when recursive
    longest_word: int | None                 # None when starred
    words_memo: dict[tuple[str, int, int], tuple[tuple[str, ...], ...]] = field(
        default_factory=dict
    )

    def words(self, dtd: DTD, label: str, max_width: int,
              cap: int) -> tuple[tuple[str, ...], ...]:
        """The first ``cap + 1`` children words of ``label``'s content
        model (one extra so callers can detect truncation), memoized per
        (label, width, cap)."""
        key = (label, max_width, cap)
        words = self.words_memo.get(key)
        if words is None:
            # the packed kernel enumerates in the exact order of
            # enumerate_words (ints for frozensets), so the truncation
            # point — and therefore every downstream verdict — is
            # unchanged; see repro.sat.bits.enumerate_words_packed
            words = tuple(
                itertools.islice(
                    enumerate_words_packed(
                        cached_tables(dtd.production(label)), max_width
                    ),
                    cap + 1,
                )
            )
            self.words_memo[key] = words
        return words


def prepare_bounded(dtd: DTD) -> BoundedContext:
    """Build the shared per-schema context for :func:`sat_bounded` (and,
    through it, the Theorem 5.5 small-model decider)."""
    dtd.require_terminating()
    nonrecursive = is_nonrecursive(dtd)
    no_star = is_no_star(dtd)
    return BoundedContext(
        nonrecursive=nonrecursive,
        no_star=no_star,
        doc_depth=max_document_depth(dtd) if nonrecursive else None,
        longest_word=max(
            (_max_word_length(dtd, name) for name in dtd.element_types), default=0
        ) if no_star else None,
    )


@dataclass(frozen=True)
class Bounds:
    """Search bounds for :func:`sat_bounded` / :func:`iter_conforming_trees`.

    ``max_width`` bounds the length of each children word; ``value_pool``
    the number of distinct non-constant attribute values tried;
    ``max_assignments`` the number of attribute-value combinations per tree.
    """

    max_depth: int = 4
    max_width: int = 4
    max_nodes: int = 40
    max_trees: int = 20_000
    value_pool: int = 2
    max_assignments: int = 512
    words_per_node: int = 24
    # Frontier completion: nodes at the depth horizon are completed with a
    # minimal conforming subtree instead of being required to be leaves.
    # Sound only when the caller guarantees the query cannot inspect below
    # the horizon (e.g. max_depth >= the query's lookahead depth), which the
    # caller asserts via frontier_sound.
    complete_frontier: bool = False
    frontier_sound: bool = False
    # The caller asserts max_width covers all widths that can matter
    # (e.g. the |D|+|p| bound of Theorem 5.5).
    width_sound: bool = False

    def scaled(self, **overrides) -> "Bounds":
        data = {**self.__dict__, **overrides}
        return Bounds(**data)


@dataclass
class _SearchState:
    trees_seen: int = 0
    truncated: bool = False
    max_slots: int = 0
    notes: set[str] = field(default_factory=set)

    def truncate(self, why: str) -> None:
        self.truncated = True
        self.notes.add(why)


def _shapes(dtd: DTD, label: str, depth_left: int, nodes_left: int,
            bounds: Bounds, state: _SearchState,
            context: BoundedContext | None = None) -> Iterator[tuple[Shape, int]]:
    """Yield ``(shape, node_count)`` for conforming subtrees rooted at
    ``label`` within the remaining budgets."""
    if nodes_left <= 0:
        state.truncate("node budget")
        return
    production = dtd.production(label)
    if depth_left <= 0:
        if bounds.complete_frontier:
            # minimal completion below the horizon; None children marks it
            yield (label, None), 1
            return
        if cached_nfa(production).nullable:
            yield (label, ()), 1
        else:
            state.truncate("depth budget")
        return
    words: Iterable[tuple[str, ...]] = (
        context.words(dtd, label, bounds.max_width, bounds.words_per_node)
        if context is not None
        else enumerate_words(production, bounds.max_width)
    )
    word_count = 0
    for word in words:
        word_count += 1
        if word_count > bounds.words_per_node:
            state.truncate("words-per-node budget")
            break
        if len(word) >= nodes_left:
            state.truncate("node budget")
            continue
        yield from _expand_word(
            dtd, label, word, depth_left, nodes_left, bounds, state, context
        )
    # words longer than max_width are accounted for by the exhaustiveness
    # analysis (star-free width bound), not per-node notes.


def _expand_word(dtd: DTD, label: str, word: tuple[str, ...], depth_left: int,
                 nodes_left: int, bounds: Bounds, state: _SearchState,
                 context: BoundedContext | None = None
                 ) -> Iterator[tuple[Shape, int]]:
    def rec(index: int, budget: int) -> Iterator[tuple[tuple[Shape, ...], int]]:
        if index == len(word):
            yield (), 0
            return
        for child_shape, child_nodes in _shapes(
            dtd, word[index], depth_left - 1, budget, bounds, state, context
        ):
            for rest, rest_nodes in rec(index + 1, budget - child_nodes):
                yield (child_shape,) + rest, child_nodes + rest_nodes

    for children, child_total in rec(0, nodes_left - 1):
        yield (label, children), child_total + 1


def _shape_to_tree(shape: Shape, dtd: DTD, fill_attr: str = "0") -> XMLTree:
    """Build the tree; ``children is None`` marks a frontier node to be
    completed minimally (its subtree is invisible to the query by the
    caller's contract, so its attributes never join value enumeration —
    tracked by the ``_frontier`` marker)."""
    from repro.xmltree.generate import minimal_node

    def build(part: Shape) -> Node:
        label, children = part
        node = Node(label=label)
        for attr in sorted(dtd.attrs_of(label)):
            node.attrs[attr] = fill_attr
        if children is None:
            # the frontier node itself stays visible (label and attributes
            # can be inspected); only its completion subtree is invisible
            from repro.xmltree.generate import _min_words

            for child_label in _min_words(dtd)[label]:
                completion = minimal_node(dtd, child_label)
                _mark_frontier(completion)
                node.append(completion)
            return node
        for child in children:
            node.append(build(child))
        return node

    return XMLTree(build(shape))


def _mark_frontier(node: Node) -> None:
    node.frontier = True  # type: ignore[attr-defined]
    for child in node.children:
        _mark_frontier(child)


def iter_conforming_trees(dtd: DTD, bounds: Bounds | None = None,
                          state: _SearchState | None = None,
                          context: BoundedContext | None = None) -> Iterator[XMLTree]:
    """Enumerate conforming trees within ``bounds`` (smallest first within
    each recursion level).  Attribute values are all ``"0"``; callers doing
    data-value reasoning enumerate assignments separately."""
    bounds = bounds or Bounds()
    state = state or _SearchState()
    dtd.require_terminating()
    for shape, _count in _shapes(dtd, dtd.root, bounds.max_depth, bounds.max_nodes, bounds, state, context):
        state.trees_seen += 1
        if state.trees_seen > bounds.max_trees:
            state.truncate("tree budget")
            return
        yield _shape_to_tree(shape, dtd)


def _attribute_slots(tree: XMLTree) -> list[tuple[Node, str]]:
    """Attribute slots visible to the query (frontier-completion subtrees
    are excluded; the caller guarantees the query cannot reach them)."""
    return [
        (node, attr)
        for node in tree.nodes()
        if not getattr(node, "frontier", False)
        for attr in sorted(node.attrs)
    ]


def _assignments(tree: XMLTree, pool: list[str], cap: int) -> Iterator[bool]:
    """Rewrite the tree's attribute values in place, yielding once per
    assignment; yields ``True`` when capped."""
    slots = _attribute_slots(tree)
    if not slots:
        yield False
        return
    produced = 0
    for combo in itertools.product(pool, repeat=len(slots)):
        for (node, attr), value in zip(slots, combo):
            node.attrs[attr] = value
        produced += 1
        yield produced >= cap
        if produced >= cap:
            return


def sat_bounded(query: Path, dtd: DTD, bounds: Bounds | None = None,
                context: BoundedContext | None = None) -> SatResult:
    """Search for a model of ``(query, dtd)`` within ``bounds``.

    ``context``, when given, is the shared per-schema precomputation from
    :func:`prepare_bounded` — the plan-grouped scheduler builds it once
    per group of jobs so the schema classification and word enumeration
    are not repeated per query.  It never changes a verdict.
    """
    bounds = bounds or Bounds()
    state = _SearchState()
    needs_data = uses_data(query)
    constants = sorted(constants_mentioned(query))
    pool = constants + [f"#v{i}" for i in range(1, bounds.value_pool + 1)]
    if not pool:
        pool = ["#v1"]
    assignment_capped = False

    for tree in iter_conforming_trees(dtd, bounds, state, context):
        if not needs_data:
            if satisfies(tree, query):
                return SatResult(
                    True, METHOD, witness=tree,
                    stats={"trees": state.trees_seen},
                )
            continue
        state.max_slots = max(state.max_slots, len(_attribute_slots(tree)))
        for capped in _assignments(tree, pool, bounds.max_assignments):
            assignment_capped = assignment_capped or capped
            if satisfies(tree, query):
                assert conforms(tree, dtd)
                return SatResult(
                    True, METHOD, witness=tree,
                    stats={"trees": state.trees_seen},
                )

    exhaustive, why = _exhaustive(
        dtd, bounds, state, needs_data, assignment_capped, pool, context
    )
    stats = {"trees": state.trees_seen, "truncations": sorted(state.notes)}
    if exhaustive:
        return SatResult(False, METHOD, reason=why, stats=stats)
    return SatResult(
        None, METHOD,
        reason=f"no model within bounds ({why})",
        stats=stats,
    )


def _exhaustive(dtd: DTD, bounds: Bounds, state: _SearchState,
                needs_data: bool, assignment_capped: bool, pool: list[str],
                context: BoundedContext | None = None
                ) -> tuple[bool, str]:
    """Was the bounded enumeration provably the whole model space?"""
    if state.truncated:
        return False, "search truncated: " + ", ".join(sorted(state.notes))
    # depth coverage: either the caller vouches for the horizon
    # (frontier_sound, e.g. Theorem 5.5's lookahead bound) or the DTD's own
    # depth fits within the bound
    if bounds.complete_frontier:
        if not bounds.frontier_sound:
            return False, "frontier completion without a soundness guarantee"
    else:
        nonrecursive = (
            context.nonrecursive if context is not None else is_nonrecursive(dtd)
        )
        if not nonrecursive:
            return False, "recursive DTD: unbounded depth"
        depth = (
            context.doc_depth if context is not None and context.doc_depth is not None
            else max_document_depth(dtd)
        )
        if depth > bounds.max_depth:
            return False, f"DTD depth {depth} exceeds bound {bounds.max_depth}"
    # width coverage: either the caller vouches for the width bound
    # (width_sound, e.g. |D|+|p| of Theorem 5.5) or words are provably short
    if not bounds.width_sound:
        no_star = context.no_star if context is not None else is_no_star(dtd)
        if not no_star:
            return False, "Kleene star: unbounded width"
        longest = (
            context.longest_word
            if context is not None and context.longest_word is not None
            else max(
                (_max_word_length(dtd, name) for name in dtd.element_types), default=0
            )
        )
        if longest > bounds.max_width:
            return False, f"children words up to {longest} exceed bound {bounds.max_width}"
    if needs_data:
        if assignment_capped:
            return False, "attribute assignments capped"
        # Any equality pattern over k slots is realizable with k distinct
        # fresh values (plus the query constants), so the product over the
        # pool covers every pattern iff value_pool >= max slots seen.
        if bounds.value_pool < state.max_slots:
            return False, (
                f"value pool {bounds.value_pool} smaller than "
                f"{state.max_slots} attribute slots"
            )
        return True, "exhaustive (finite space, value pool covers all patterns)"
    return True, "exhaustive (nonrecursive, star-free, within bounds)"


def _max_word_length(dtd: DTD, name: str) -> int:
    """Longest word of a content model, via the packed kernel's longest
    path through the Glushkov automaton (star-free regexes have acyclic
    Glushkov graphs and finitely many words).  A cyclic graph — a
    reachable Kleene star — maps to the same unbounded sentinel the old
    AST walk used; callers already checked ``is_no_star``."""
    longest = longest_accepted_length(cached_tables(dtd.production(name)))
    return 10**9 if longest is None else longest


SPEC = register_decider(DeciderSpec(
    name="bounded",
    method=METHOD,
    fn=sat_bounded,
    allowed=FULL.allowed,
    shape="anything else (↑ + ¬, siblings + ¬, ...)",
    theorem="—",
    complexity="semi-decision",
    cost_rank=90,
    accepts_bounds=True,
    prepare=prepare_bounded,
))
