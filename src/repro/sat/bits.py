"""Integer-packed Glushkov kernels for the exponential deciders.

Content-model automata are small *per element* but are visited millions
of times on wide schemas — exactly the regime the
symbolic-representation line of work (Genevès/Layaïda; Ishihara et al.
on real-world DTD scaling) shows is tractable when state sets become
machine words.  This module packs them:

* :class:`NFATables` — Glushkov automata as flat tuples: per-state
  successor lists, an accepting-state bitmask, symbol ids assigned in
  sorted order so id-tuple comparison equals name-tuple comparison;
  the Theorem 5.3 types fixpoint (:mod:`repro.sat.exptime_types`) walks
  these tables in its reachability search;
* :func:`longest_accepted_length` / :func:`enumerate_words_packed` —
  the word kernels the bounded engine (and through it the NEXPTIME bound
  computation) reuses for star-free word-length analysis and
  content-model word tables, with determinized state sets carried as int
  bitmasks instead of ``frozenset[int]``.

Every structure here is a pure cache/representation change: it can
never change a verdict.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

from repro.regex.ast import Regex
from repro.regex.ops import cached_nfa


class LruCache:
    """Minimal bounded LRU map (the same move-to-front/evict-oldest
    discipline as the executor layer's ``WorkerRuntime`` context cache)."""

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)


# -- packed Glushkov tables ------------------------------------------------------

@dataclass(frozen=True)
class NFATables:
    """A Glushkov automaton flattened to index-addressed tuples.

    ``arcs[state]`` is the sorted successor tuple, ``accept_mask`` has
    bit ``s`` set iff state ``s`` is accepting, and ``moves[state]``
    pairs each successor with ``(symbol id, successor bit)`` for packed
    determinization.  Symbol ids follow sorted name order, so comparing
    id tuples reproduces lexicographic word order exactly.
    """

    symbols: tuple[str | None, ...]
    arcs: tuple[tuple[int, ...], ...]
    accept_mask: int
    sym_names: tuple[str, ...]
    moves: tuple[tuple[tuple[int, int], ...], ...]


#: content models are shared across schemas and deciders; bounded like
#: every other long-lived cache in the engine
_TABLES_CACHE = LruCache(capacity=4096)


def cached_tables(regex: Regex) -> NFATables:
    """Packed tables of ``regex``'s Glushkov automaton (memoized)."""
    tables = _TABLES_CACHE.get(regex)
    if tables is None:
        nfa = cached_nfa(regex)
        arcs = tuple(
            tuple(sorted(nfa.successors(state)))
            for state in range(nfa.state_count)
        )
        accept_mask = 0
        for state in range(nfa.state_count):
            if nfa.is_accepting(state):
                accept_mask |= 1 << state
        sym_names = tuple(sorted({s for s in nfa.symbols if s is not None}))
        sym_id = {name: index for index, name in enumerate(sym_names)}
        moves = tuple(
            tuple((sym_id[nfa.symbols[succ]], 1 << succ) for succ in arcs[state])
            for state in range(nfa.state_count)
        )
        tables = NFATables(
            symbols=tuple(nfa.symbols), arcs=arcs, accept_mask=accept_mask,
            sym_names=sym_names, moves=moves,
        )
        _TABLES_CACHE.put(regex, tables)
    return tables


def longest_accepted_length(tables: NFATables) -> int | None:
    """Length of the longest accepted word — the longest path from state
    0 in the Glushkov graph — or ``None`` when the graph has a cycle
    (starred content model, unbounded words).

    Glushkov positions are never useless (every occurrence is part of
    some word, and a position with no followers must be a last
    position), so in the acyclic case the longest path always ends at
    an accepting sink and equals the longest word length.
    """
    arcs = tables.arcs
    color = [0] * len(arcs)  # 0 = new, 1 = on stack, 2 = finished
    depth = [0] * len(arcs)  # longest path from the state to a sink
    color[0] = 1
    stack: list[tuple[int, Iterator[int]]] = [(0, iter(arcs[0]))]
    while stack:
        state, pending = stack[-1]
        descended = False
        for succ in pending:
            if color[succ] == 1:
                return None
            if color[succ] == 2:
                if 1 + depth[succ] > depth[state]:
                    depth[state] = 1 + depth[succ]
                continue
            color[succ] = 1
            stack.append((succ, iter(arcs[succ])))
            descended = True
            break
        if not descended:
            color[state] = 2
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if 1 + depth[state] > depth[parent]:
                    depth[parent] = 1 + depth[state]
    return depth[0]


def enumerate_words_packed(
    tables: NFATables,
    max_length: int,
    max_words: int | None = None,
) -> Iterator[tuple[str, ...]]:
    """Yield accepted words in the exact length-lexicographic order of
    :func:`repro.regex.ops.enumerate_words`, with the on-the-fly
    determinization carried as int bitmasks instead of frozensets.

    Order equivalence is what makes this a drop-in for the bounded
    engine's word tables: symbol ids are assigned in sorted name order,
    so sorting id tuples sorts the words identically, and truncation
    points (``max_words`` caps, words-per-node budgets) land on the same
    word either way — a representation change, never a verdict change.
    """
    moves = tables.moves
    names = tables.sym_names
    accept = tables.accept_mask
    emitted = 0
    frontier: dict[tuple[int, ...], int] = {(): 1}
    if accept & 1:  # state 0 accepting = nullable
        yield ()
        emitted += 1
        if max_words is not None and emitted >= max_words:
            return
    for _ in range(max_length):
        extensions: dict[tuple[int, ...], int] = {}
        for word, mask in frontier.items():
            states = mask
            while states:
                low = states & -states
                states ^= low
                for sym, succ_bit in moves[low.bit_length() - 1]:
                    key = word + (sym,)
                    extensions[key] = extensions.get(key, 0) | succ_bit
        if not extensions:
            return
        frontier = extensions
        for word in sorted(frontier):
            if frontier[word] & accept:
                yield tuple(names[sym] for sym in word)
                emitted += 1
                if max_words is not None and emitted >= max_words:
                    return
