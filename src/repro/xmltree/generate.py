"""Generating conforming trees.

* :func:`minimal_tree` — a smallest-depth completion of an element type,
  used whenever the paper "expands the tree into a finite XML tree
  conforming to D" (e.g. the `Tree(p, D)` construction of Theorem 4.1);
* :func:`random_tree` — random conforming trees for property tests;
* :func:`complete_random_tree` / :func:`complete_minimal` — expand the
  frontier of a partially built tree until it conforms.

Attribute values are filled from a configurable pool so generated trees
always carry exactly the attributes the DTD requires.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from repro.dtd.model import DTD
from repro.errors import DTDError
from repro.regex.ast import Regex
from repro.regex.ops import cached_nfa, enumerate_words, shortest_word
from repro.xmltree.model import Node, XMLTree


def _fill_attrs(node: Node, dtd: DTD, value: Callable[[str, str], str]) -> None:
    for attr in sorted(dtd.attrs_of(node.label)):
        if attr not in node.attrs:
            node.attrs[attr] = value(node.label, attr)


def minimal_tree(dtd: DTD, root_type: str | None = None) -> XMLTree:
    """A conforming tree of minimal depth rooted at ``root_type``
    (default: the DTD's root).  Raises :class:`DTDError` if the type does
    not terminate."""
    dtd.require_terminating()
    label = dtd.root if root_type is None else label_checked(dtd, root_type)
    return XMLTree(_minimal_node(dtd, label))


def label_checked(dtd: DTD, label: str) -> str:
    if label not in dtd.element_types:
        raise DTDError(f"unknown element type: {label}")
    return label


def _min_expansion_words(dtd: DTD) -> dict[str, tuple[str, ...]]:
    """For each element type, a children word minimizing completion depth.

    A relaxation on "depth needed to terminate", run as a reverse-
    dependency worklist (the shape of
    :func:`repro.dtd.properties.terminating_types`): every type is tried
    once, in sorted order, and a type is tried again only when a type its
    production mentions gets a smaller depth, its dependents queued in
    sorted order.  So a chain settles in one pass rather than one level
    per round, and the words do not depend on the string-hash seed.
    """
    dependents: dict[str, set[str]] = {}
    for element_type in dtd.element_types:
        for symbol in dtd.production(element_type).alphabet():
            dependents.setdefault(symbol, set()).add(element_type)
    depth: dict[str, int] = {}
    word: dict[str, tuple[str, ...]] = {}
    queue = deque(sorted(dtd.element_types))
    queued = set(queue)
    while queue:
        element_type = queue.popleft()
        queued.discard(element_type)
        best = _best_word(dtd.production(element_type), depth)
        if best is None:
            continue
        candidate_word, candidate_depth = best
        if element_type in depth and candidate_depth >= depth[element_type]:
            continue
        depth[element_type] = candidate_depth
        word[element_type] = candidate_word
        for dependent in sorted(dependents.get(element_type, ())):
            if dependent not in queued:
                queued.add(dependent)
                queue.append(dependent)
    missing = dtd.element_types - set(depth)
    if missing:
        raise DTDError(f"non-terminating element types: {sorted(missing)}")
    return word


def _best_word(production: Regex, depth: dict[str, int]) -> tuple[tuple[str, ...], int] | None:
    """A word over already-terminating symbols minimizing
    ``1 + max(depth of symbols)`` (empty word gives depth 0); Dijkstra over
    the Glushkov automaton with the max-depth cost."""
    nfa = cached_nfa(production)
    if nfa.nullable:
        return (), 0
    best: dict[int, tuple[int, tuple[str, ...]]] = {0: (0, ())}
    frontier = [0]
    result: tuple[tuple[str, ...], int] | None = None
    while frontier:
        frontier.sort(key=lambda state: best[state][0])
        state = frontier.pop(0)
        cost, word = best[state]
        if result is not None and cost >= result[1]:
            break
        for succ in nfa.successors(state):
            symbol = nfa.symbols[succ]
            assert symbol is not None
            if symbol not in depth:
                continue
            succ_cost = max(cost, 1 + depth[symbol])
            if succ not in best or succ_cost < best[succ][0] or (
                succ_cost == best[succ][0] and len(word) + 1 < len(best[succ][1])
            ):
                best[succ] = (succ_cost, word + (symbol,))
                if succ not in frontier:
                    frontier.append(succ)
                if nfa.is_accepting(succ):
                    candidate = (best[succ][1], succ_cost)
                    if result is None or succ_cost < result[1]:
                        result = candidate
    return result


# Keyed by id(dtd) with the DTD pinned in the value so the id cannot be
# recycled by the allocator while the cache entry lives.
_MIN_WORDS_CACHE: dict[int, tuple[DTD, dict[str, tuple[str, ...]]]] = {}


def _min_words(dtd: DTD) -> dict[str, tuple[str, ...]]:
    key = id(dtd)
    entry = _MIN_WORDS_CACHE.get(key)
    if entry is None or entry[0] is not dtd:
        entry = (dtd, _min_expansion_words(dtd))
        _MIN_WORDS_CACHE[key] = entry
    return entry[1]


def _minimal_node(dtd: DTD, label: str) -> Node:
    """Built top-down with an explicit stack: a schema may be deeper than
    the interpreter's recursion limit."""
    words = _min_words(dtd)

    def make(name: str) -> Node:
        node = Node(label=name)
        _fill_attrs(node, dtd, lambda _label, attr: f"{attr}0")
        return node

    root = make(label)
    stack = [root]
    while stack:
        node = stack.pop()
        for child_label in words[node.label]:
            stack.append(node.append(make(child_label)))
    return root


def minimal_node(dtd: DTD, label: str) -> Node:
    """A minimal-depth conforming subtree rooted at ``label`` (public
    counterpart of the internal builder, reused by witness constructions)."""
    return _minimal_node(dtd, label)


def complete_minimal(root: Node, dtd: DTD) -> XMLTree:
    """Expand every node of a partially built tree so it conforms: nodes
    whose current children word is not in the content model get a minimal
    conforming children word appended where possible, and leaves are
    expanded minimally.

    The builder is intentionally simple: it assumes each prefilled node's
    children word is a *prefix* of some word of the content model (true for
    all the paper's witness constructions) and completes it by automaton
    search; it raises :class:`DTDError` otherwise.
    """
    from repro.regex.ops import matches

    def complete(node: Node) -> None:
        _fill_attrs(node, dtd, lambda _label, attr: f"{attr}0")
        production = dtd.production(node.label)
        word = node.child_labels()
        if not matches(production, word):
            suffix = _completion_suffix(production, word, dtd)
            if suffix is None:
                raise DTDError(
                    f"children {list(word)} of {node.label!r} cannot be completed "
                    f"to a word of {production}"
                )
            for child_label in suffix:
                node.append(_minimal_node(dtd, child_label))
        for child in node.children:
            complete(child)

    complete(root)
    tree = XMLTree(root)
    return tree


def _completion_suffix(
    production: Regex, prefix: tuple[str, ...], dtd: DTD
) -> tuple[str, ...] | None:
    """A shortest suffix ``s`` with ``prefix + s`` in the content model."""
    nfa = cached_nfa(production)
    current = {0}
    for letter in prefix:
        nxt: set[int] = set()
        for state in current:
            for succ in nfa.successors(state):
                if nfa.symbols[succ] == letter:
                    nxt.add(succ)
        if not nxt:
            return None
        current = nxt
    # BFS to an accepting state.
    queue: deque[tuple[int, tuple[str, ...]]] = deque((state, ()) for state in current)
    seen = set(current)
    while queue:
        state, suffix = queue.popleft()
        if nfa.is_accepting(state):
            return suffix
        for succ in nfa.successors(state):
            if succ in seen:
                continue
            symbol = nfa.symbols[succ]
            assert symbol is not None
            seen.add(succ)
            queue.append((succ, suffix + (symbol,)))
    return None


def random_tree(
    dtd: DTD,
    rng: random.Random | None = None,
    max_nodes: int = 200,
    max_word_length: int = 4,
    attr_values: tuple[str, ...] = ("0", "1", "2"),
) -> XMLTree:
    """A random conforming tree.

    Children words are sampled uniformly from the (bounded) enumeration of
    each content model, falling back to a minimal word when the node budget
    runs low so generation always terminates.
    """
    rng = rng or random.Random()
    dtd.require_terminating()
    budget = [max_nodes]

    def build(label: str) -> Node:
        budget[0] -= 1
        node = Node(label=label)
        _fill_attrs(node, dtd, lambda _label, attr: rng.choice(attr_values))
        production = dtd.production(label)
        if budget[0] <= 0:
            word = _min_words(dtd)[label]
        else:
            options = list(enumerate_words(production, max_word_length, max_words=12))
            if not options:
                options = [shortest_word(production)]
            word = rng.choice(options)
            if budget[0] - len(word) <= 0:
                word = _min_words(dtd)[label]
        for child_label in word:
            node.append(build(child_label))
        return node

    return XMLTree(build(dtd.root))


def complete_random_tree(
    root: Node, dtd: DTD, rng: random.Random | None = None, **kwargs
) -> XMLTree:
    """Complete a partial tree, then keep it conforming (randomized variant
    currently defers to :func:`complete_minimal`; the hook exists so
    workloads can diversify completions later)."""
    del rng, kwargs
    return complete_minimal(root, dtd)
