"""Theorem 7.1: ``SAT(X(→,←))`` is in PTIME.

A query in ``X(→,←)`` has the shape ``A1/η1/A2/η2/.../An/ηn``: a label
(child) step followed by a block of sibling moves, repeated.  Navigation
inside a block stays within one children word, and — because the fragment
places no constraints on intermediate positions — a block ``η`` from an
occurrence of ``B`` at position ``j`` is realizable iff the word has

* ``B`` at position ``j`` with ``j − 1 ≥ −min(η)`` positions before it,
* the landing label at position ``j + net(η)``,
* at least ``max(η)`` positions at or after ``j`` (room for the rightmost
  excursion),

where ``min``/``max``/``net`` range over the prefix sums of the moves.
(The paper suggests walking the content-model NFA with inverse edges;
naive zig-zag walks can mix incompatible words, but the excursion-bound
characterization above is exactly equivalent for this fragment and is what
we decide, by layered reachability in the Glushkov automaton.)

The decision procedure memoizes ``sat(i, A)`` — "segments ``i..n`` are
realizable starting from a context node of type ``A``" — and for each
segment computes the feasible landing types via the automaton analysis.
A SAT result realizes the recorded landing choices into a witness tree
on its first ``.witness`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.dtd.model import DTD
from repro.errors import FragmentError, UnsupportedQueryError
from repro.regex.ops import cached_nfa, enumerate_words
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xmltree.generate import minimal_node, minimal_tree
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast
from repro.xpath.ast import Path
from repro.xpath.fragments import SIBLING

METHOD = "thm7.1-sibling"


@dataclass(frozen=True)
class Segment:
    """One ``A/η`` block: a child label step plus sibling moves."""

    label: str
    moves: tuple[int, ...]  # +1 for →, -1 for ←

    @property
    def net(self) -> int:
        return sum(self.moves)

    @property
    def min_excursion(self) -> int:
        lowest = 0
        total = 0
        for move in self.moves:
            total += move
            lowest = min(lowest, total)
        return lowest

    @property
    def max_excursion(self) -> int:
        highest = 0
        total = 0
        for move in self.moves:
            total += move
            highest = max(highest, total)
        return highest


def parse_segments(query: Path) -> list[Segment]:
    """Flatten an ``X(→,←)`` query into segments; raises
    :class:`UnsupportedQueryError` if the query starts with a sibling move
    (the root has no siblings — unsatisfiable, handled by the caller)."""
    steps: list[Path] = []
    _flatten(query, steps)
    segments: list[Segment] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if not isinstance(step, ast.Label):
            raise UnsupportedQueryError(
                "sibling moves before the first child step (the root has no siblings)"
            )
        moves: list[int] = []
        index += 1
        while index < len(steps) and isinstance(steps[index], (ast.RightSib, ast.LeftSib)):
            moves.append(1 if isinstance(steps[index], ast.RightSib) else -1)
            index += 1
        segments.append(Segment(step.name, tuple(moves)))
    return segments


def _flatten(node: Path, steps: list[Path]) -> None:
    """Append the steps of ``node`` to ``steps``, left to right."""
    if isinstance(node, ast.Seq):
        _flatten(node.left, steps)
        _flatten(node.right, steps)
        return
    if isinstance(node, ast.Empty):
        return
    if isinstance(node, (ast.Label, ast.RightSib, ast.LeftSib)):
        steps.append(node)
        return
    raise FragmentError(f"sat_sibling requires X(rs,ls) with label steps; got {node}")


class _SegmentProgram:
    """One question's ``sat(i, A)`` table — segments ``i..n`` are
    realizable from a context node of type ``A`` — and the landing each
    true entry chose.  The memo is an attribute and the recurrence a
    method, so a question's tables hold no reference cycle."""

    __slots__ = ("dtd", "segments", "memo", "choice")

    def __init__(self, dtd: DTD, segments: list[Segment]):
        self.dtd = dtd
        self.segments = segments
        self.memo: dict[tuple[int, str], bool] = {}
        self.choice: dict[tuple[int, str], str] = {}

    def sat(self, i: int, context: str) -> bool:
        key = (i, context)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.memo[key] = False  # break accidental cycles conservatively
        feasible = feasible_landings(self.dtd, context, self.segments[i])
        result = False
        if i == len(self.segments) - 1:
            result = bool(feasible)
            if feasible:
                self.choice[key] = min(feasible)
        else:
            for landing in sorted(feasible):
                if self.sat(i + 1, landing):
                    self.choice[key] = landing
                    result = True
                    break
        self.memo[key] = result
        return result


def sat_sibling(query: Path, dtd: DTD) -> SatResult:
    """Decide ``(query, dtd)`` for ``query ∈ X(→,←)``."""
    if not SIBLING.contains(query):
        raise FragmentError(
            f"sat_sibling requires X(rs,ls); query uses "
            f"{sorted(str(f) for f in SIBLING.missing(query))} extra"
        )
    dtd.require_terminating()
    try:
        segments = parse_segments(query)
    except UnsupportedQueryError as exc:
        return SatResult(False, METHOD, reason=str(exc))
    if not segments:
        return SatResult(
            True, METHOD, witness=partial(minimal_tree, dtd), reason="empty path"
        )

    program = _SegmentProgram(dtd, segments)
    satisfiable = program.sat(0, dtd.root)
    stats = {"memo_entries": len(program.memo)}
    if not satisfiable:
        return SatResult(False, METHOD, stats=stats)
    witness = partial(_build_witness, dtd, segments, program.choice)
    return SatResult(True, METHOD, witness=witness, stats=stats)


def feasible_landings(dtd: DTD, context: str, segment: Segment) -> set[str]:
    """Landing labels ``C`` such that some children word of ``context`` has
    an occurrence of ``segment.label`` from which the moves are valid and
    end on ``C``."""
    nfa = cached_nfa(dtd.production(context))
    left_room = -segment.min_excursion
    net = segment.net
    right_room = segment.max_excursion - max(net, 0)

    landings: set[str] = set()
    if net >= 0:
        starts = _reachable_at_least(nfa, {0}, left_room)
        b_states = {
            succ
            for state in starts
            for succ in nfa.successors(state)
            if nfa.symbols[succ] == segment.label
        }
        layer = b_states
        for _ in range(net):
            layer = {succ for state in layer for succ in nfa.successors(state)}
        for state in layer:
            if _can_extend(nfa, state, right_room):
                symbol = nfa.symbols[state]
                assert symbol is not None
                landings.add(symbol)
    else:
        # landing C sits -net positions before B; prefix before C must leave
        # room for the whole left excursion: pos(C) - 1 >= left_room + net
        starts = _reachable_at_least(nfa, {0}, left_room + net)
        c_states = {
            succ for state in starts for succ in nfa.successors(state)
        }
        for c_state in c_states:
            layer = {c_state}
            for _ in range(-net):
                layer = {succ for state in layer for succ in nfa.successors(state)}
            for b_state in layer:
                if nfa.symbols[b_state] != segment.label:
                    continue
                if _can_extend(nfa, b_state, segment.max_excursion):
                    symbol = nfa.symbols[c_state]
                    assert symbol is not None
                    landings.add(symbol)
                    break
    return landings


def _reachable_at_least(nfa, sources: set[int], steps: int) -> set[int]:
    """States reachable from ``sources`` by paths of length ≥ ``steps``
    (length counts transitions)."""
    layer = set(sources)
    for _ in range(max(steps, 0)):
        layer = {succ for state in layer for succ in nfa.successors(state)}
        if not layer:
            return set()
    # close under further steps
    closed = set(layer)
    frontier = set(layer)
    while frontier:
        nxt = {
            succ for state in frontier for succ in nfa.successors(state)
        } - closed
        closed |= nxt
        frontier = nxt
    return closed


def _can_extend(nfa, state: int, extra: int) -> bool:
    """Is there a run continuing from ``state`` with at least ``extra`` more
    positions that reaches an accepting state?"""
    layer = {state}
    for _ in range(max(extra, 0)):
        layer = {succ for s in layer for succ in nfa.successors(s)}
        if not layer:
            return False
    # any accepting state reachable in >= 0 further steps?
    closed = set(layer)
    frontier = set(layer)
    while True:
        if any(nfa.is_accepting(s) for s in closed):
            return True
        nxt = {succ for s in frontier for succ in nfa.successors(s)} - closed
        if not nxt:
            return False
        closed |= nxt
        frontier = nxt


def _build_witness(dtd: DTD, segments: list[Segment], choice: dict) -> XMLTree | None:
    """Realize the recorded landing choices into a conforming tree by
    enumerating candidate children words and simulating the moves."""
    root = _realize(dtd, segments, choice, 0, dtd.root)
    if root is None:
        return None
    return XMLTree(root)


def _realize(
    dtd: DTD, segments: list[Segment], choice: dict, i: int, context_label: str,
) -> Node | None:
    node = Node(context_label)
    for attr in sorted(dtd.attrs_of(context_label)):
        node.attrs[attr] = f"{attr}0"
    if i == len(segments):
        for symbol in _shortest(dtd, context_label):
            node.append(minimal_node(dtd, symbol))
        return node
    segment = segments[i]
    landing = choice.get((i, context_label))
    if landing is None:
        return None
    word, b_pos = _find_word(dtd, context_label, segment, landing)
    if word is None:
        return None
    end_pos = b_pos + segment.net
    for position, symbol in enumerate(word, start=1):
        if position == end_pos:
            child = _realize(dtd, segments, choice, i + 1, symbol)
            if child is None:
                return None
            node.append(child)
        else:
            node.append(minimal_node(dtd, symbol))
    return node


def _shortest(dtd: DTD, label: str) -> tuple[str, ...]:
    from repro.xmltree.generate import _min_words

    return _min_words(dtd)[label]


def _find_word(dtd: DTD, context: str, segment: Segment, landing: str,
               max_length: int = 64, max_words: int = 4096):
    """A children word realizing the segment with the chosen landing:
    enumerate words and check positions directly (the decision procedure
    already guarantees existence within modest length)."""
    production = dtd.production(context)
    needed = max(len(segment.moves) + 2, 2)
    for word in enumerate_words(production, min(max_length, needed + 2 * len(word_bound(production))), max_words):
        for position, symbol in enumerate(word, start=1):
            if symbol != segment.label:
                continue
            if position + segment.min_excursion < 1:
                continue
            if position + segment.max_excursion > len(word):
                continue
            if word[position + segment.net - 1] == landing:
                return word, position
    return None, 0


def word_bound(production) -> tuple:
    """Crude bound helper: the automaton states (used to size the witness
    word search)."""
    nfa = cached_nfa(production)
    return tuple(range(nfa.state_count))


SPEC = register_decider(DeciderSpec(
    name="sibling",
    method=METHOD,
    fn=sat_sibling,
    allowed=SIBLING.allowed,
    shape="X(→,←)",
    theorem="Thm 7.1",
    complexity="PTIME",
    cost_rank=20,
))
