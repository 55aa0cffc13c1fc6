"""An exact decision procedure for ``X(↓,↓*,∪,[],¬)`` under arbitrary DTDs
— the downward case of Theorem 5.3's EXPTIME upper bound.

The paper proves the bound through two-way alternating automata; for the
downward fragment an equivalent, far more implementable procedure is a
*satisfiable-types fixpoint* (the classical EXPTIME tree-automaton
construction specialized to XPath):

1. **Closure.**  The query decomposes into finitely many *residual
   qualifiers* whose truth at a node can matter.  A downward qualifier sees
   the subtree only through *child facts*:

   * ``("c", label | None, q | None)`` — some child with that label (or any
     label) satisfies residual ``q`` (or no constraint);
   * ``("cd", q)`` — some child has a self-or-descendant satisfying ``q``
     (the ``↓*`` fact, transitively propagated).

2. **Types.**  A node type is ``(A, truths, dtruths)``: the element type
   plus the truth values of every closure qualifier and every ``↓*`` fact.
   Both are functions of ``A`` and the set of child facts present.

3. **Fixpoint.**  A type is realizable iff some children word of ``P(A)``
   can be assembled from realizable types producing exactly that fact set.
   Achievable fact sets are computed per element type by reachability over
   (Glushkov state × fact bitmask) — the exponential step, exactly where
   the EXPTIME lives.

``(p, D)`` is satisfiable iff some realizable root type makes ``p`` true.
Only element types reachable from the root can occur in a conforming
tree, and a reachable type's children are reachable too, so the fixpoint
runs over the root-reachable labels alone: their types form a closed
sub-fixpoint whose root types are those of the full one.  Each realizable
type remembers one witnessing children word, so SAT answers come with a
concrete conforming tree, realized on the result's first ``.witness``
read (the batch engine, which keeps only verdicts, never realizes one).

**Joint fixpoints.**  :func:`sat_exptime_types_joint` decides several
questions over one DTD in one fixpoint: the closure collects every
question's seed qualifier ``PathExists(query)``, the worklist below runs
once over that union closure, and a question is SAT iff some realizable
root type has its own seed's truth bit.  This is exact.  A label's types
over the union closure are the truth vectors, over every question's
qualifiers and ``↓*`` facts, that some conforming tree rooted at that
label realizes; projecting them onto one question's qualifiers gives
exactly the types that question's own fixpoint computes, because both
range over the same set of trees.  What a question costs regardless of
its size, a search of every root-reachable label, is then paid once per
joint call, at the price of more types per fixpoint: past a few
questions a joint fixpoint costs more per question than one at a time.
A joint result's ``stats`` describe the shared fixpoint, not its own
question: ``facts`` and ``closure_quals`` of the union closure, and the
``types`` and ``searches`` of the one fixpoint.  A joint call declines
when the union closure has more than ``max_facts`` facts.  The batch
engine's worker runtimes decide a chunk's questions this way (see
:meth:`repro.engine.executors.WorkerRuntime._decide_jointly`); library
``decide()``, ``repro check --witness`` and ``repro explain`` decide one
question at a time, with :func:`sat_exptime_types`.

The closure runs on per-call interned ids (:class:`_Closure`): each
distinct qualifier and path is numbered once, looked up by object
identity first and then by its kind and its children's ids, so deciding
a question hashes and compares no AST node.  Each distinct path is
decomposed by ``first_cases`` once; its cases are recorded as ids and
replayed by the compiler.

Everything past the closure runs on machine integers:

* :class:`CompiledClosure` — the closure compiled once per call (by a
  :class:`_Compiler`) into a linear program of index-addressed bit
  operations: qualifier truths become bits of one int, child facts test
  a mask against the fact bitmask, and a child type's fact contribution
  reads precomputed terms;
* node types pack into single ints ``label_id << (Q + D) | truth_bits <<
  D | dtruth_bits``, and reachability nodes into ``fact_bits <<
  state_shift | state``;
* the fixpoint is a **reverse-dependency worklist**, the shape of
  :func:`repro.dtd.properties.terminating_types` and of the chaotic
  iteration in :mod:`repro.sat.realworld`: the root-reachable labels are
  queued leaf-first (:class:`PackedTypesContext` holds the order, each
  label's parent labels and its arcs grouped by child label), and a
  label's parents are queued again only when it gains a type with a new
  fact contribution;
* :class:`_LabelSearch` — the persistent per-label reachability BFS, one
  per root-reachable label: seen-set, parent links and settled nodes
  (indexed by automaton state) survive between the label's searches, so
  a re-run only walks the arcs into child labels that offered new
  contributions, against just those.

Two stats count the fixpoint's work, over root-reachable labels only:
``types`` is the number of realizable types and ``searches`` the number
of label searches (each reachable label once on a nonrecursive schema).
``facts`` and ``closure_quals`` measure the closure.

The Glushkov tables come from :mod:`repro.sat.bits`, whose packed word
kernels the bounded and NEXPTIME deciders share.  ``first_cases`` and
the step cases are also the query decomposition of
:mod:`repro.sat.realworld`, which decomposes each path object once per
question.  ``first_cases`` itself is not memoized: a process-wide memo
keyed by whole paths cost about as much in hashing as it saved, while
keeping parsed queries alive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.dtd.model import DTD
from repro.errors import FragmentError, ReproError
from repro.sat.bits import cached_tables
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier
from repro.xpath.fragments import REC_NEG_DOWN_UNION, Feature, features_of

METHOD = "thm5.3-types-fixpoint"


# -- step-case decomposition -------------------------------------------------

@dataclass(frozen=True)
class Done:
    """The path may end at the context node."""


@dataclass(frozen=True)
class Child:
    label: str | None
    residual: Path


@dataclass(frozen=True)
class Desc:
    residual: Path


@dataclass(frozen=True)
class Check:
    qualifier: Qualifier
    residual: Path


def first_cases(path: Path) -> tuple:
    """All first-step cases of a downward path, built on every call (see
    the module docstring)."""
    return tuple(_first_cases(path))


def _first_cases(path: Path) -> list:
    if isinstance(path, ast.Empty):
        return [Done()]
    if isinstance(path, ast.Label):
        return [Child(path.name, ast.Empty())]
    if isinstance(path, ast.Wildcard):
        return [Child(None, ast.Empty())]
    if isinstance(path, ast.DescOrSelf):
        return [Done()]  # descendant-or-self is trivially nonempty at self
    if isinstance(path, ast.Union):
        return _first_cases(path.left) + _first_cases(path.right)
    if isinstance(path, ast.Filter):
        if isinstance(path.path, ast.Empty):
            return [Check(path.qualifier, ast.Empty())]
        return _first_cases(
            ast.Seq(path.path, ast.Filter(ast.Empty(), path.qualifier))
        )
    if isinstance(path, ast.Seq):
        left, right = path.left, path.right
        if isinstance(left, ast.Empty):
            return _first_cases(right)
        if isinstance(left, ast.Label):
            return [Child(left.name, right)]
        if isinstance(left, ast.Wildcard):
            return [Child(None, right)]
        if isinstance(left, ast.DescOrSelf):
            return _first_cases(right) + [Desc(right)]
        if isinstance(left, ast.Union):
            return (
                _first_cases(ast.Seq(left.left, right))
                + _first_cases(ast.Seq(left.right, right))
            )
        if isinstance(left, ast.Seq):
            return _first_cases(ast.Seq(left.left, ast.Seq(left.right, right)))
        if isinstance(left, ast.Filter):
            if isinstance(left.path, ast.Empty):
                return [Check(left.qualifier, right)]
            return _first_cases(
                ast.Seq(
                    left.path,
                    ast.Seq(ast.Filter(ast.Empty(), left.qualifier), right),
                )
            )
        raise FragmentError(f"unexpected step {left!r}")
    raise FragmentError(f"unexpected path node {path!r}")


# -- closure collection --------------------------------------------------------

#: node kinds with no fields, and the two that carry only a name
_ATOMS = (ast.Empty, ast.Wildcard, ast.DescOrSelf)
_NAMED = (ast.Label, ast.LabelTest)
#: binary kinds, keyed by their ``left`` and ``right`` ids
_PAIRS = (ast.Seq, ast.Union, ast.And, ast.Or)


class _Closure:
    """The residual-qualifier closure of one or more seeds, on interned
    ids.

    :meth:`intern` numbers each distinct qualifier and path the first
    time it meets it.  It looks a node up by object identity first (and
    holds the node, so identities stay unique), then by its *key*: its
    kind and its children's ids, or its name.  So equal nodes share an
    id, and no lookup hashes or compares an AST node.

    * ``quals`` — qualifier ids in collection order (the seeds first);
      ``qual_slot`` maps an id to its position, the qualifier's truth bit;
    * ``facts``/``fact_index`` — ``("c", label | None, qid | None)`` and
      ``("cd", qid)`` child facts, in collection order;
    * ``dquals`` — ids of the residuals a ``("cd", q)`` fact tracks;
    * ``path_cases`` — each collected path's first-step cases, recorded
      as ids (``None`` for ``Done``, a fact index for ``Child`` and
      ``Desc``, ``(qid, residual path id)`` for ``Check``), which the
      compiler replays instead of decomposing the path again.
    """

    __slots__ = ("quals", "qual_slot", "dquals", "facts", "fact_index",
                 "path_cases", "keys", "nodes", "_ids", "_objects")

    def __init__(self) -> None:
        self.quals: list[int] = []
        self.qual_slot: dict[int, int] = {}
        self.dquals: set[int] = set()
        self.facts: list[tuple] = []
        self.fact_index: dict[tuple, int] = {}
        self.path_cases: dict[int, tuple] = {}
        self.keys: list[tuple] = []                 # id -> key
        self.nodes: list[Path | Qualifier | None] = []   # id -> first object
        self._ids: dict[tuple, int] = {}            # key -> id
        self._objects: dict[int, tuple] = {}        # id(node) -> (node, id)

    def intern(self, node: Path | Qualifier) -> int:
        entry = self._objects.get(id(node))
        if entry is not None:
            return entry[1]
        kind = type(node)
        if kind in _PAIRS:
            key = (kind, self.intern(node.left), self.intern(node.right))
        elif kind is ast.Filter:
            key = (kind, self.intern(node.path), self.intern(node.qualifier))
        elif kind is ast.PathExists:
            key = (kind, self.intern(node.path))
        elif kind is ast.Not:
            key = (kind, self.intern(node.inner))
        elif kind in _NAMED:
            key = (kind, node.name)
        elif kind in _ATOMS:
            key = (kind,)
        else:
            raise FragmentError(f"{node!r} outside X(child,dos,union,qual,neg)")
        nid = self._number(key, node)
        self._objects[id(node)] = (node, nid)
        return nid

    def _number(self, key: tuple, node: Path | Qualifier | None) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.nodes.append(node)
        return nid

    def _residual(self, path: Path) -> int:
        """The id of ``PathExists(path)``, numbered without building it."""
        return self._number((ast.PathExists, self.intern(path)), None)

    def node(self, nid: int) -> Path | Qualifier:
        """The AST node of an id (for messages and tests): the first
        object met with its key, or a new ``PathExists`` for a residual
        qualifier that was numbered without one."""
        node = self.nodes[nid]
        if node is None:
            node = ast.PathExists(self.nodes[self.keys[nid][1]])
        return node

    def add_qual(self, qid: int, pending: deque) -> None:
        if qid not in self.qual_slot:
            self.qual_slot[qid] = len(self.quals)
            self.quals.append(qid)
            pending.append(qid)

    def add_fact(self, fact: tuple) -> int:
        index = self.fact_index.get(fact)
        if index is None:
            index = self.fact_index[fact] = len(self.facts)
            self.facts.append(fact)
        return index

    def collect(self, *seeds: Qualifier) -> list[int]:
        """Collect the closure of every seed, and return each seed's
        truth slot.  The seeds are numbered first, in order, so a lone
        seed's truth is bit 0; a seed equal to another seed, or to a
        residual of one, shares its slot."""
        pending: deque[int] = deque()
        slots = []
        for seed in seeds:
            qid = self.intern(seed)
            self.add_qual(qid, pending)
            slots.append(self.qual_slot[qid])
        keys = self.keys
        while pending:
            key = keys[pending.popleft()]
            kind = key[0]
            if kind is ast.And or kind is ast.Or:
                self.add_qual(key[1], pending)
                self.add_qual(key[2], pending)
            elif kind is ast.Not:
                self.add_qual(key[1], pending)
            elif kind is ast.PathExists:
                self._collect_path(key[1], pending)
            # a LabelTest reads no facts
        return slots

    def _collect_path(self, pid: int, pending: deque) -> None:
        if pid in self.path_cases:
            return
        self.path_cases[pid] = ()
        record: list = []
        for case in first_cases(self.nodes[pid]):
            if isinstance(case, Done):
                record.append(None)
            elif isinstance(case, Child):
                residual = (
                    None if type(case.residual) is ast.Empty
                    else self._residual(case.residual)
                )
                record.append(self.add_fact(("c", case.label, residual)))
                if residual is not None:
                    self.add_qual(residual, pending)
            elif isinstance(case, Desc):
                # with an empty residual this is PathExists(ε): always true
                residual = self._residual(case.residual)
                record.append(self.add_fact(("cd", residual)))
                self.dquals.add(residual)
                self.add_qual(residual, pending)
            else:  # Check
                qid = self.intern(case.qualifier)
                self.add_qual(qid, pending)
                rid = self.intern(case.residual)
                self._collect_path(rid, pending)
                record.append((qid, rid))
        self.path_cases[pid] = tuple(record)


# -- compiled qualifier closure --------------------------------------------------

# opcodes of the compiled closure program (slots start False per run)
_OP_TRUE = 0      # slot = True                      (Done case)
_OP_FACT = 1      # slot |= bool(fact_bits & mask)   (Child/Desc cases)
_OP_TERM = 2      # slot |= slots[a] and slots[b]    (Check case)
_OP_LABEL = 3     # slot = (label_id == operand)     (LabelTest)
_OP_COPY = 4      # slot = slots[a]                  (PathExists = its path)
_OP_AND = 5
_OP_OR = 6
_OP_NOT = 7


class _Compiler:
    """Emits a closure's instruction list: :meth:`qual` and :meth:`path`
    compile one id, after what it reads, and return its slot.  A path
    replays the cases :class:`_Closure` recorded for it.  Its state is
    attributes and the two mutually recursive steps are methods, so
    compiling leaves no reference cycle behind."""

    __slots__ = ("closure", "label_index", "path_slot", "ops", "emitted",
                 "compiling", "next_slot")

    def __init__(self, closure: _Closure, label_index: dict[str, int]):
        self.closure = closure
        self.label_index = label_index
        self.path_slot: dict[int, int] = {}
        self.ops: list[tuple[int, ...]] = []
        self.emitted: set[int] = set()      # qualifier slots already written
        self.compiling: set[int] = set()
        self.next_slot = len(closure.quals)

    def qual(self, qid: int) -> int:
        slot = self.closure.qual_slot[qid]
        if slot in self.emitted:
            return slot
        if qid in self.compiling:
            raise FragmentError(
                f"cyclic qualifier closure at {self.closure.node(qid)!r}"
            )
        self.compiling.add(qid)
        key = self.closure.keys[qid]
        kind = key[0]
        if kind is ast.PathExists:
            op = (_OP_COPY, slot, self.path(key[1]))
        elif kind is ast.LabelTest:
            op = (_OP_LABEL, slot, self.label_index.get(key[1], -1))
        elif kind is ast.And:
            op = (_OP_AND, slot, self.qual(key[1]), self.qual(key[2]))
        elif kind is ast.Or:
            op = (_OP_OR, slot, self.qual(key[1]), self.qual(key[2]))
        else:  # ast.Not
            op = (_OP_NOT, slot, self.qual(key[1]))
        self.ops.append(op)
        self.emitted.add(slot)
        self.compiling.discard(qid)
        return slot

    def path(self, pid: int) -> int:
        slot = self.path_slot.get(pid)
        if slot is not None:
            if pid in self.compiling:
                raise FragmentError(
                    f"cyclic path closure at {self.closure.node(pid)!r}"
                )
            return slot
        slot = self.path_slot[pid] = self.next_slot
        self.next_slot += 1
        self.compiling.add(pid)
        mask = 0
        term_ops: list[tuple[int, ...]] = []
        done = False
        for case in self.closure.path_cases[pid]:
            if case is None:  # Done
                done = True
                break
            if type(case) is int:  # Child or Desc: a fact index
                mask |= 1 << case
            else:  # Check: (qualifier id, residual path id)
                term_ops.append(
                    (_OP_TERM, slot, self.qual(case[0]), self.path(case[1]))
                )
        if done:
            self.ops.append((_OP_TRUE, slot))
        else:
            if mask:
                self.ops.append((_OP_FACT, slot, mask))
            self.ops.extend(term_ops)
        self.compiling.discard(pid)
        return slot


class CompiledClosure:
    """One query's residual-qualifier closure compiled to a bit program.

    ``evaluate(label_id, fact_bits)`` decides every closure qualifier at
    a node: instead of recursive AST walks, a topologically ordered
    instruction list fills a flat slot array (qualifier slots first, one
    slot per distinct residual path after), and the truth and
    ``↓*``-truth bitmasks are read off the qualifier slots.
    ``contribution`` likewise reads precompiled per-fact terms instead
    of re-scanning the fact list per node type.

    ``evaluate`` reads ``label_id`` only through label tests, so it is
    memoized per fact bitmask and *label class*: the label itself when a
    label test names it, one shared class for every other label.
    """

    __slots__ = (
        "qual_count", "dqual_count", "fact_count", "slot_count",
        "ops", "dqual_terms", "c_terms", "cd_terms",
        "tested_labels", "label_classes", "_truths",
    )

    def __init__(self, closure: _Closure, label_index: dict[str, int]):
        qual_slot = closure.qual_slot
        self.qual_count = len(closure.quals)
        self.fact_count = len(closure.facts)
        compiler = _Compiler(closure, label_index)
        for qid in closure.quals:
            compiler.qual(qid)
        ops = compiler.ops
        self.slot_count = compiler.next_slot
        self.ops = tuple(ops)
        self.tested_labels = frozenset(op[2] for op in ops if op[0] == _OP_LABEL)
        self.label_classes = len(label_index) + 1
        self._truths: dict[int, tuple[int, int]] = {}

        # ↓*-truth bits, ordered by the qualifier's closure index so the
        # bit layout is deterministic: bit j is set iff the qualifier
        # holds here or the ("cd", q) fact (when tracked) is present
        dqual_order = sorted(closure.dquals, key=qual_slot.__getitem__)
        self.dqual_count = len(dqual_order)
        self.dqual_terms = tuple(
            (qual_slot[qid], closure.fact_index.get(("cd", qid), -1))
            for qid in dqual_order
        )

        # contribution terms: ("c", label, qual) facts gate on the child's
        # label id (-1 = wildcard, -2 = label absent from the schema) and
        # optionally a truth bit; ("cd", q) facts gate on a ↓*-truth bit
        dqual_bit = {qid: bit for bit, qid in enumerate(dqual_order)}
        c_terms = []
        cd_terms = []
        for index, fact in enumerate(closure.facts):
            if fact[0] == "c":
                _tag, label, qid = fact
                if label is None:
                    label_id = -1
                else:
                    label_id = label_index.get(label, -2)
                c_terms.append((
                    1 << index, label_id,
                    -1 if qid is None else qual_slot[qid],
                ))
            else:
                _tag, qid = fact
                cd_terms.append((1 << index, dqual_bit[qid]))
        self.c_terms = tuple(c_terms)
        self.cd_terms = tuple(cd_terms)

    def evaluate(self, label_id: int, fact_bits: int) -> tuple[int, int]:
        """``(truth_bits, dtruth_bits)`` of every closure qualifier at a
        node with element type ``label_id`` and child facts ``fact_bits``."""
        label_class = label_id + 1 if label_id in self.tested_labels else 0
        key = fact_bits * self.label_classes + label_class
        truths = self._truths.get(key)
        if truths is None:
            truths = self._truths[key] = self._run(label_id, fact_bits)
        return truths

    def _run(self, label_id: int, fact_bits: int) -> tuple[int, int]:
        slots = [False] * self.slot_count
        for op in self.ops:
            code = op[0]
            if code == _OP_FACT:
                if fact_bits & op[2]:
                    slots[op[1]] = True
            elif code == _OP_TERM:
                if slots[op[2]] and slots[op[3]]:
                    slots[op[1]] = True
            elif code == _OP_COPY:
                slots[op[1]] = slots[op[2]]
            elif code == _OP_NOT:
                slots[op[1]] = not slots[op[2]]
            elif code == _OP_AND:
                slots[op[1]] = slots[op[2]] and slots[op[3]]
            elif code == _OP_OR:
                slots[op[1]] = slots[op[2]] or slots[op[3]]
            elif code == _OP_LABEL:
                slots[op[1]] = label_id == op[2]
            else:  # _OP_TRUE
                slots[op[1]] = True
        truth_bits = 0
        for index in range(self.qual_count):
            if slots[index]:
                truth_bits |= 1 << index
        dtruth_bits = 0
        for bit, (qual, cd_fact) in enumerate(self.dqual_terms):
            if slots[qual] or (cd_fact >= 0 and fact_bits >> cd_fact & 1):
                dtruth_bits |= 1 << bit
        return truth_bits, dtruth_bits

    def contribution(self, label_id: int, truth_bits: int, dtruth_bits: int) -> int:
        """Fact bits a child of this type adds to its parent's fact set."""
        mask = 0
        for fact_bit, label, qual in self.c_terms:
            if (label == -1 or label == label_id) and (
                qual == -1 or truth_bits >> qual & 1
            ):
                mask |= fact_bit
        for fact_bit, dbit in self.cd_terms:
            if dtruth_bits >> dbit & 1:
                mask |= fact_bit
        return mask


# -- the reverse-dependency worklist ---------------------------------------------

class _LabelSearch:
    """Persistent reachability over (Glushkov state × fact bitmask) for
    one label, the incremental half of the worklist fixpoint.

    A node packs ``fact_bits << shift | state``; node 0 (initial state,
    no facts) starts the search.  ``seen``, the ``parents`` links and the
    settled (fully expanded) nodes persist across calls, the settled fact
    masks grouped by automaton state, and ``ptr[i]`` records how many
    offers of the ``i``-th child label in ``into`` every settled node has
    been expanded against.  An *offer* is a child type with a fact
    contribution its label had not offered before (see
    :func:`sat_exptime_types`).  So :meth:`extend` walks only new
    transitions — the arcs into child labels with new offers, from the
    settled nodes at each arc's source state, against just those offers
    — and then runs a full BFS of the nodes that first became reachable.
    Each call returns the newly achievable ``(fact bitmask, witnessing
    child-type word)`` pairs.
    """

    __slots__ = ("arcs", "into", "shift", "accept_mask", "ptr", "seen",
                 "parents", "settled", "results")

    def __init__(self, context: PackedTypesContext, label_id: int):
        self.arcs = context.arcs[label_id]
        self.into = context.arcs_into[label_id]
        self.shift = context.shifts[label_id]
        self.accept_mask = context.accept_masks[label_id]
        self.ptr = [0] * len(self.into)
        self.seen: set[int] = set()
        self.parents: dict[int, tuple[int, int]] = {}
        self.settled: list[list[int]] = [[] for _ in self.arcs]
        self.results: set[int] = set()      # fact masks already returned

    def extend(
        self, offers: list[list[tuple[int, int]]],
    ) -> list[tuple[int, tuple[int, ...]]]:
        shift = self.shift
        seen = self.seen
        parents = self.parents
        settled = self.settled
        queue: list[int] = []
        if not seen:
            # node 0 packs (state 0, empty fact set) — the BFS start
            seen.add(0)
            queue.append(0)
        # phase 1: settled nodes × offers made since this search last ran,
        # along the arcs into each child label that made them
        ptr = self.ptr
        for position, (child_label, pairs) in enumerate(self.into):
            child_offers = offers[child_label]
            done = ptr[position]
            if done == len(child_offers):
                continue
            ptr[position] = len(child_offers)
            fresh = child_offers[done:]
            for state, succ in pairs:
                for bits in settled[state]:
                    node = bits << shift | state
                    for child, contrib in fresh:
                        succ_node = (bits | contrib) << shift | succ
                        if succ_node not in seen:
                            seen.add(succ_node)
                            parents[succ_node] = (node, child)
                            queue.append(succ_node)
        # phase 2: full BFS of the newly reachable frontier (the list
        # grows while it is walked)
        arcs = self.arcs
        accept = self.accept_mask
        state_mask = (1 << shift) - 1
        results = self.results
        out: list[tuple[int, tuple[int, ...]]] = []
        for node in queue:
            state = node & state_mask
            bits = node >> shift
            settled[state].append(bits)
            if accept >> state & 1 and bits not in results:
                results.add(bits)
                word: list[int] = []
                current = node
                while current:
                    current, chosen = parents[current]
                    word.append(chosen)
                word.reverse()
                out.append((bits, tuple(word)))
            for succ, child_label in arcs[state]:
                for child, contrib in offers[child_label]:
                    succ_node = (bits | contrib) << shift | succ
                    if succ_node not in seen:
                        seen.add(succ_node)
                        parents[succ_node] = (node, child)
                        queue.append(succ_node)
        return out


# -- shared per-schema setup -----------------------------------------------------

class PackedTypesContext:
    """Schema-side packed tables for :func:`sat_exptime_types` (the
    decider's ``prepare`` hook).  Like every ``prepare`` context this is
    a pure cache: worker-lane runtimes keep it warm across chunks, and it
    can never change a verdict.  It holds nothing per query: the closure
    is compiled once per call, since the decision cache answers repeated
    questions before any decider runs.

    * ``labels`` — element types in sorted order; a label id indexes it;
    * ``arcs[label][state]`` — Glushkov successors ``(succ, child label)``;
    * ``arcs_into[label]`` — the same arcs grouped by child label:
      ``(child label, ((state, succ), ...))`` per distinct child label;
    * ``parent_labels[label]`` — the root-reachable labels whose
      content model mentions it;
    * ``leaf_first`` — the labels reachable from the root, children
      before parents except along recursive cycles (a depth-first
      post-order from the root).  Only these labels are searched: a
      conforming tree contains no other, and a reachable label's
      children are reachable too, so their types form a closed
      sub-fixpoint whose root types are those of the full one;
    * ``shifts``/``accept_masks`` — the packing width of a state and
      the accepting-state bitmask, per label.

    Label ids, ``label_index`` and the arc tables cover every element
    type, reachable or not: label tests and contribution terms index
    them.
    """

    __slots__ = ("labels", "label_index", "arcs", "arcs_into",
                 "parent_labels", "leaf_first", "shifts", "accept_masks")

    def __init__(self, dtd: DTD):
        dtd.require_terminating()
        self.labels = tuple(sorted(dtd.element_types))
        self.label_index = {name: index for index, name in enumerate(self.labels)}
        arcs = []
        arcs_into = []
        shifts = []
        accept_masks = []
        for name in self.labels:
            tables = cached_tables(dtd.production(name))
            label_arcs = tuple(
                tuple(
                    (succ, self.label_index[tables.symbols[succ]])
                    for succ in state_arcs
                )
                for state_arcs in tables.arcs
            )
            grouped: dict[int, list[tuple[int, int]]] = {}
            for state, state_arcs in enumerate(label_arcs):
                for succ, child_label in state_arcs:
                    grouped.setdefault(child_label, []).append((state, succ))
            arcs.append(label_arcs)
            arcs_into.append(tuple(
                (child_label, tuple(grouped[child_label]))
                for child_label in sorted(grouped)
            ))
            shifts.append(max(1, (len(tables.symbols) - 1).bit_length()))
            accept_masks.append(tables.accept_mask)
        self.arcs = tuple(arcs)
        self.arcs_into = tuple(arcs_into)
        children = [[child for child, _pairs in into] for into in arcs_into]
        self.leaf_first = _leaf_first(children, self.label_index[dtd.root])
        parent_labels: list[list[int]] = [[] for _ in self.labels]
        for label_id in sorted(self.leaf_first):
            for child in children[label_id]:
                parent_labels[child].append(label_id)
        self.parent_labels = tuple(tuple(labels) for labels in parent_labels)
        self.shifts = tuple(shifts)
        self.accept_masks = tuple(accept_masks)


def _leaf_first(children: list[list[int]], root: int) -> tuple[int, ...]:
    """The labels reachable from ``root``, in depth-first post-order over
    child edges: a label follows all of its children except those on a
    recursive cycle through it.  Iterative, so a deep schema cannot
    exhaust the stack."""
    visited = [False] * len(children)
    visited[root] = True
    order: list[int] = []
    stack = [(root, iter(children[root]))]
    while stack:
        label, pending = stack[-1]
        for child in pending:
            if not visited[child]:
                visited[child] = True
                stack.append((child, iter(children[child])))
                break
        else:
            stack.pop()
            order.append(label)
    return tuple(order)


def prepare_types(dtd: DTD) -> PackedTypesContext:
    return PackedTypesContext(dtd)


# -- the decider -----------------------------------------------------------------

def sat_exptime_types(
    query: Path, dtd: DTD, max_facts: int = 22,
    context: PackedTypesContext | None = None,
) -> SatResult:
    """Decide ``(query, dtd)`` for ``query ∈ X(↓,↓*,∪,[],¬)``.

    ``max_facts`` caps the fact-bitmask width (the 2^facts reachability is
    the EXPTIME step); a :class:`ReproError` asks callers to fall back to
    the bounded engine beyond it.  ``context`` is the shared per-schema
    setup from :func:`prepare_types` (plan-grouped scheduling); it never
    changes a verdict.  A SAT result realizes its witness tree on its
    first ``.witness`` read.
    """
    return _solve((query,), dtd, max_facts, context)[0]


def sat_exptime_types_joint(
    queries: Sequence[Path], dtd: DTD, max_facts: int = 22,
    context: PackedTypesContext | None = None,
) -> list[SatResult]:
    """Decide several questions over one DTD in one fixpoint, one
    :class:`SatResult` per query, in order, each with the verdict
    :func:`sat_exptime_types` gives it alone (the module docstring says
    why).

    A SAT result realizes, on its first ``.witness`` read, the tree of a
    root type that makes its own query true.  Every result's ``stats``
    describe the joint fixpoint: the union closure's ``facts`` and
    ``closure_quals``, and the ``types`` and ``searches`` of the one
    fixpoint all the queries shared.  Raises :class:`FragmentError` when
    a query is outside the fragment, and declines with
    :class:`ReproError` when the union closure has more than
    ``max_facts`` facts."""
    return _solve(tuple(queries), dtd, max_facts, context)


def _solve(
    queries: tuple[Path, ...], dtd: DTD, max_facts: int,
    context: PackedTypesContext | None,
) -> list[SatResult]:
    for query in queries:
        used = features_of(query)
        if not used <= SPEC.allowed:
            raise FragmentError(
                f"sat_exptime_types requires X(child,dos,union,qual,neg); query uses "
                f"{sorted(str(f) for f in used - SPEC.allowed)} extra"
            )
    if context is None:
        context = prepare_types(dtd)
    closure = _Closure()
    seed_slots = closure.collect(*[ast.PathExists(query) for query in queries])
    if len(closure.facts) > max_facts:
        of = f" of {len(queries)} questions" if len(queries) > 1 else ""
        raise ReproError(
            f"{len(closure.facts)} child facts{of} exceed max_facts={max_facts}; "
            "use sat_bounded for queries this large"
        )
    compiled = CompiledClosure(closure, context.label_index)

    label_count = len(context.labels)
    # only root-reachable labels are searched (see PackedTypesContext),
    # and each starts queued
    searches: list[_LabelSearch | None] = [None] * label_count
    queued = bytearray(label_count)
    for label_id in context.leaf_first:
        searches[label_id] = _LabelSearch(context, label_id)
        queued[label_id] = 1
    qd_shift = compiled.qual_count + compiled.dqual_count
    d_shift = compiled.dqual_count
    type_labels: list[int] = []
    type_truths: list[int] = []
    type_realization: list[tuple[int, ...]] = []
    type_ids: dict[int, int] = {}        # packed (label, truths, dtruths) -> id
    # a parent's search sees a child only through its fact contribution,
    # so each label offers its parents one type per distinct contribution
    offers: list[list[tuple[int, int]]] = [[] for _ in range(label_count)]
    offered: set[int] = set()            # packed (contribution, label)

    parent_labels = context.parent_labels
    queue = deque(context.leaf_first)
    search_count = 0
    while queue:
        label_id = queue.popleft()
        queued[label_id] = 0
        search_count += 1
        gained = False
        for bits, word in searches[label_id].extend(offers):
            truth_bits, dtruth_bits = compiled.evaluate(label_id, bits)
            packed = label_id << qd_shift | truth_bits << d_shift | dtruth_bits
            if packed in type_ids:
                continue
            type_id = len(type_labels)
            type_ids[packed] = type_id
            type_labels.append(label_id)
            type_truths.append(truth_bits)
            type_realization.append(word)
            contrib = compiled.contribution(label_id, truth_bits, dtruth_bits)
            offer_key = contrib * label_count + label_id
            if offer_key not in offered:
                offered.add(offer_key)
                offers[label_id].append((type_id, contrib))
                gained = True
        if gained:
            for parent in parent_labels[label_id]:
                if not queued[parent]:
                    queued[parent] = 1
                    queue.append(parent)

    stats = {
        "closure_quals": compiled.qual_count,
        "facts": compiled.fact_count,
        "types": len(type_labels),
        "searches": search_count,
    }
    # a query holds at the root of a tree whose root type has its seed's
    # truth bit; the first such root type found is its witness
    root_id = context.label_index[dtd.root]
    witness_types: list[int | None] = [None] * len(queries)
    for type_id, label_id in enumerate(type_labels):
        if label_id != root_id:
            continue
        truths = type_truths[type_id]
        for position, slot in enumerate(seed_slots):
            if witness_types[position] is None and truths >> slot & 1:
                witness_types[position] = type_id
    results = []
    for type_id in witness_types:
        if type_id is None:
            results.append(SatResult(False, METHOD, stats=dict(stats)))
            continue
        witness = partial(
            _realize, type_id, context.labels, type_labels, type_realization, dtd
        )
        results.append(SatResult(True, METHOD, witness=witness, stats=dict(stats)))
    return results


def _realize(
    type_id: int,
    labels: tuple[str, ...],
    type_labels: list[int],
    type_realization: list[tuple[int, ...]],
    dtd: DTD,
) -> XMLTree:
    """The witness tree of ``type_id``, built top-down with an explicit
    stack (a witness may be deeper than the interpreter's recursion
    limit).  A type's realization word only references types found
    before it, i.e. smaller ids, so the expansion is finite."""

    def make(current: int) -> Node:
        node = Node(labels[type_labels[current]])
        for attr in sorted(dtd.attrs_of(node.label)):
            node.attrs[attr] = f"{attr}0"
        return node

    root = make(type_id)
    stack = [(root, type_id)]
    while stack:
        node, current = stack.pop()
        for child in type_realization[current]:
            child_node = node.append(make(child))
            stack.append((child_node, child))
    return XMLTree(root)


SPEC = register_decider(DeciderSpec(
    name="exptime_types",
    method=METHOD,
    fn=sat_exptime_types,
    allowed=REC_NEG_DOWN_UNION.allowed | {Feature.LABEL_TEST},
    shape="X(↓,↓*,∪,[],¬)",
    theorem="Thm 5.3",
    complexity="EXPTIME",
    cost_rank=40,
    may_decline=True,  # raises ReproError beyond max_facts: fall back
    prepare=prepare_types,
))

# the joint entry hangs on the decision function itself, so a spec whose
# ``fn`` was replaced (a test double, a timing wrapper) has none and is
# decided one question at a time (see DeciderSpec.joint)
sat_exptime_types.joint = sat_exptime_types_joint
