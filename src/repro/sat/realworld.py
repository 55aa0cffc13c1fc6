"""PTIME satisfiability fast paths for *real-world* DTD classes
(Ishihara/Suzuki/Hashimoto, arXiv:1308.0769).

The paper's EXPTIME lower bounds for qualifiers (and the parent axis via
the Thm 6.8(2) rewriting) rely on content models that force exclusive
choices between duplicated element names.  arXiv:1308.0769 observes that
published real-world DTDs (XHTML, DocBook, RSS, ...) almost never do
that, and proves the qualifier fragment tractable under structural
classes capturing them:

* **disjunction-capsuled (DC)** — every production is a concatenation of
  single symbols, ``ε``, and starred sub-expressions, so every
  disjunction sits inside a star that can be pumped;
* **duplicate-free (DF)** — no production mentions an element name
  twice, so sibling requirements never compete for one position;
* **DC/DF-restrained** — the covering class this module gates on: every
  production is DC *or* DF (a per-production mix).

Under either class, whether one element can host a *multiset* of
required children reduces to a polynomial feasibility check on its
content model (:class:`_DCModel` / :func:`_df_feasible`) — no Glushkov
× fact-set product construction.  The decider is a least-fixpoint
dynamic program over ``(element type, qualifier set)`` keys:

1. decompose each qualifier into disjunctive *choices* of child/
   descendant atoms (via the same :func:`~repro.sat.exptime_types.first_cases`
   step-case decomposition the EXPTIME decider closes over);
2. group atoms into blocks hosted by a single child (merging two
   requirements onto one child can be *necessary*: with ``P(a) = b``,
   ``P(b) = x?, y?`` the query ``a[b/x][b/y]`` needs one ``b`` hosting
   both), assign a host label per block, and test multiset feasibility;
3. recurse into each host's residual qualifier set, iterating
   chaotically to the least fixpoint so recursive schemas (``div`` in
   ``div``) converge without unsound provisional answers.

The search runs on per-question integer ids: the solver interns every
qualifier it meets, keys its tables by ``(element type, frozenset of
ids)``, and an atom is a plain ``(label or None, id or -1)`` pair, so no
table lookup hashes a path and no sort renders one.  Each path object's
first-step cases are decomposed once per question and replayed after
that.  One child of any label of a DC or DF content model fits on its
own, so only assignments of two or more hosts run the multiset check.

A SAT verdict carries a witness: each ``(type, qualifier set)`` key
records the host children that made it true when it flipped, and the
tree is read back from those records, with children words from the
feasibility models and minimal subtrees for every other child.  The
read happens on the result's first ``.witness`` read, so the batch
engine, which keeps only verdicts, never makes it.

All combinatorial widths are hard-budgeted; exceeding a budget raises
:class:`~repro.errors.ReproError`, which the planner's ``may_decline``
fall-through turns into a hand-off to the EXPTIME chain — never a
truncated (possibly wrong) verdict.  Typical real-world queries stay
far inside the budgets, so qualifying traffic runs inline in PTIME.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Iterator, Mapping, Union as TUnion

from repro.dtd.model import DTD
from repro.dtd.properties import (
    concat_factors,
    is_disjunction_capsuled_production,
    is_duplicate_free_production,
)
from repro.errors import FragmentError, ReproError
from repro.regex.ast import Concat, Epsilon, Optional, Regex, Star, Symbol
from repro.regex.ast import Union as RUnion
from repro.sat.exptime_types import Check, Child, Desc, Done, first_cases
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xmltree.generate import minimal_node
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier
from repro.xpath.fragments import CHILD_UP, DOWNWARD_QUAL, features_of
from repro.xpath.rewrite import upward_to_qualifiers

METHOD = "isw-dcdf-restrained"

#: hard budgets — beyond any of them the decider declines (ReproError)
#: rather than truncate the search, so verdicts stay exact
MAX_CHOICES = 64        # disjunctive choice combinations per qualifier set
MAX_ATOMS = 6           # atoms per combination (Bell(6) = 203 partitions)
MAX_ASSIGNMENTS = 512   # host-label assignments per partition
MAX_KEYS = 4096         # (element type, qualifier set) memo entries
MAX_STEPS = 200_000     # overall work counter


# -- content-model feasibility ---------------------------------------------------

@dataclass(frozen=True)
class _DCModel:
    """Multiset feasibility for a disjunction-capsuled production.

    A DC word is a concatenation of one symbol per ``Symbol`` factor plus
    arbitrarily pumpable words from each ``Star`` factor, so a required
    multiset fits iff every needed label is pumpable or needed at most as
    often as it occurs mandatorily."""

    production: Regex
    mandatory: Mapping[str, int]
    pumpable: frozenset[str]
    alphabet: frozenset[str]

    def feasible(self, need: Mapping[str, int]) -> bool:
        return all(
            label in self.pumpable or count <= self.mandatory.get(label, 0)
            for label, count in need.items()
        )


@dataclass(frozen=True)
class _DFModel:
    """Multiset feasibility for a duplicate-free production, by structural
    recursion (:func:`_df_feasible`): duplicate-freeness makes sibling
    alphabets of ``Union``/``Concat`` parts disjoint, so the needed
    multiset splits uniquely."""

    production: Regex
    alphabet: frozenset[str]

    def feasible(self, need: Mapping[str, int]) -> bool:
        return _df_feasible(self.production, dict(need))


def _df_feasible(regex: Regex, need: dict[str, int]) -> bool:
    """Does some word of ``regex`` contain every label of ``need`` at
    least the required number of times?  Exact for duplicate-free
    ``regex`` (disjoint part alphabets make the split below unique); the
    AST has no empty-language constant, so every alphabet symbol occurs
    in some word — which is what makes stars fully pumpable."""
    if not need:
        return True
    if isinstance(regex, Epsilon):
        return False
    if isinstance(regex, Symbol):
        return len(need) == 1 and need.get(regex.name) == 1
    if isinstance(regex, Star):
        return set(need) <= regex.alphabet()
    if isinstance(regex, Optional):
        return _df_feasible(regex.inner, need)
    if isinstance(regex, RUnion):
        for part in regex.parts:
            if set(need) <= part.alphabet():
                return _df_feasible(part, need)
        return False
    if isinstance(regex, Concat):
        remaining = set(need)
        splits: list[tuple[Regex, dict[str, int]]] = []
        for part in regex.parts:
            alphabet = part.alphabet()
            sub = {label: count for label, count in need.items() if label in alphabet}
            remaining -= set(sub)
            if sub:
                splits.append((part, sub))
        if remaining:
            return False
        return all(_df_feasible(part, sub) for part, sub in splits)
    raise FragmentError(f"unexpected regex node {regex!r}")


def _word_holding(regex: Regex, need: Mapping[str, int]) -> tuple[str, ...]:
    """A word of ``regex`` with at least ``need[label]`` copies of each
    label, for a ``need`` its model found feasible.  Every part whose
    alphabet holds a label is asked for all of its copies: a symbol gives
    one and a star pumps them all, so a disjunction-capsuled concatenation
    reaches the count through its mandatory symbols or a star, and a
    duplicate-free one has exactly one such part per label."""
    if not need:
        return _shortest_word(regex)
    if isinstance(regex, Symbol):
        return (regex.name,)
    if isinstance(regex, Star):
        word: list[str] = []
        for label, count in sorted(need.items()):
            word.extend(_word_holding(regex.inner, {label: 1}) * count)
        return tuple(word)
    if isinstance(regex, Optional):
        return _word_holding(regex.inner, need)
    if isinstance(regex, RUnion):
        for part in regex.parts:
            if set(need) <= part.alphabet():
                return _word_holding(part, need)
    if isinstance(regex, Concat):
        word = []
        for part in regex.parts:
            alphabet = part.alphabet()
            word.extend(_word_holding(part, {
                label: count for label, count in need.items() if label in alphabet
            }))
        return tuple(word)
    raise FragmentError(f"no word of {regex} holds {dict(need)}")


def _shortest_word(regex: Regex) -> tuple[str, ...]:
    if isinstance(regex, Symbol):
        return (regex.name,)
    if isinstance(regex, (Epsilon, Star, Optional)):
        return ()
    if isinstance(regex, RUnion):
        return min((_shortest_word(part) for part in regex.parts), key=len)
    if isinstance(regex, Concat):
        return tuple(label for part in regex.parts for label in _shortest_word(part))
    raise FragmentError(f"unexpected regex node {regex!r}")


# -- shared per-schema setup -----------------------------------------------------

@dataclass(frozen=True)
class RealWorldContext:
    """Schema-only precomputation (the decider's ``prepare`` hook): one
    feasibility model per element type.  A pure cache — never changes a
    verdict."""

    models: Mapping[str, TUnion[_DCModel, _DFModel]]


def prepare_realworld(dtd: DTD) -> RealWorldContext:
    dtd.require_terminating()
    models: dict[str, TUnion[_DCModel, _DFModel]] = {}
    for label in sorted(dtd.element_types):
        production = dtd.production(label)
        alphabet = frozenset(production.alphabet())
        if is_disjunction_capsuled_production(production):
            mandatory: Counter[str] = Counter()
            pumpable: set[str] = set()
            for factor in concat_factors(production):
                if isinstance(factor, Symbol):
                    mandatory[factor.name] += 1
                elif isinstance(factor, Star):
                    pumpable |= factor.alphabet()
            models[label] = _DCModel(
                production=production,
                mandatory=dict(mandatory),
                pumpable=frozenset(pumpable),
                alphabet=alphabet,
            )
        elif is_duplicate_free_production(production):
            models[label] = _DFModel(production=production, alphabet=alphabet)
        else:
            raise FragmentError(
                f"production of {label!r} is neither disjunction-capsuled nor "
                "duplicate-free; sat_realworld requires a DC/DF-restrained DTD"
            )
    return RealWorldContext(models=models)


# -- child requirement atoms -----------------------------------------------------

#: an atom ``(label, qualifier id)``: some child — with this label, or of
#: any label when ``None`` — satisfies the interned qualifier (no
#: constraint when the id is ``-1``).  A ``↓*`` case is the atom of its
#: ``↓*``-prefixed residual with label ``None``: any child may host it.
_Atom = tuple[str | None, int]


def _partitions(items: list) -> Iterator[list[list]]:
    """All set partitions of ``items`` (Bell(len) many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        yield [[first]] + partition
        for index in range(len(partition)):
            yield (
                partition[:index]
                + [[first] + partition[index]]
                + partition[index + 1:]
            )


# -- the least-fixpoint solver ---------------------------------------------------

#: a ``satset`` key: an element type and the ids of the qualifiers its
#: node must meet
_Key = tuple[str, frozenset[int]]
#: the children that made a key true: ``(host label, host qualifier ids)``
_Hosts = tuple[_Key, ...]
#: a recorded first-step case of a path: a choice, or a ``Check`` case
#: whose choices depend on the element type
_Case = TUnion[frozenset[_Atom], Check]


@dataclass
class _Solver:
    """Least fixpoint of ``satset(A, Q)`` — "some conforming tree rooted
    at an ``A`` element satisfies every qualifier in ``Q``" — by chaotic
    iteration: the memo is a monotone lower bound (starts all-false, only
    ever flips to true), a cycle hit returns the current provisional
    value, and outer passes repeat until a pass derives nothing new.
    Sound because the fragment is negation-free, so the underlying
    operator is monotone and the stabilized table is the least fixpoint.

    Qualifiers are interned per question: :meth:`intern` numbers each
    distinct qualifier the first time the solver meets it (the goal
    ``PathExists(query)`` is 0, then residuals in ``first_cases`` order),
    and every table is keyed by small ints: no memo lookup hashes a path
    and no sort renders one, and a qualifier is hashed only when a
    decomposition step produces it.  First-sight order is deterministic,
    so the search order does not depend on the string-hash seed.

    A path's first-step decomposition is made once per question:
    ``cases`` maps a path object's identity to the path (held, so the
    identity stays unique) and its recorded cases, which
    :meth:`path_options` replays.  Queries and the residuals the solver
    makes are immutable, so a replay yields the choices a fresh
    decomposition would, and the ``steps`` accounting is unchanged.

    When a key flips to true, ``hosts`` records the ``(host label, host
    qualifier ids)`` children that made it true.  Those keys were all
    true already, so the records form a well-founded derivation that
    :meth:`witness` turns into a tree.  A caller that reads only the
    verdict never reads them back.
    """

    dtd: DTD
    context: RealWorldContext
    #: qualifier id -> qualifier, and back
    quals: list[Qualifier] = field(default_factory=list)
    ids: dict[Qualifier, int] = field(default_factory=dict)
    #: id(path) -> (path, recorded first-step cases)
    cases: dict[int, tuple[Path, tuple[_Case, ...]]] = field(default_factory=dict)
    memo: dict[_Key, bool] = field(default_factory=dict)
    hosts: dict[_Key, _Hosts] = field(default_factory=dict)
    pass_done: set[_Key] = field(default_factory=set)
    active: set[_Key] = field(default_factory=set)
    steps: int = 0
    passes: int = 0
    changed: bool = False

    def intern(self, qualifier: Qualifier) -> int:
        qid = self.ids.get(qualifier)
        if qid is None:
            qid = self.ids[qualifier] = len(self.quals)
            self.quals.append(qualifier)
        return qid

    def goal(self, query: Path) -> _Key:
        return self.dtd.root, frozenset({self.intern(ast.PathExists(query))})

    def top(self, query: Path) -> bool:
        goal_label, goal_ids = self.goal(query)
        while True:
            self.passes += 1
            self.changed = False
            self.pass_done.clear()
            if self.satset(goal_label, goal_ids):
                return True
            if not self.changed:
                return False

    def _step(self) -> None:
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise ReproError(
                f"realworld solver exceeded {MAX_STEPS} steps; falling back"
            )

    def satset(self, label: str, ids: frozenset[int]) -> bool:
        if not ids:
            return True
        key = (label, ids)
        if self.memo.get(key):
            return True
        if key in self.active or key in self.pass_done:
            return self.memo.get(key, False)
        if len(self.memo) >= MAX_KEYS:
            raise ReproError(
                f"realworld solver exceeded {MAX_KEYS} memo keys; falling back"
            )
        self._step()
        self.active.add(key)
        try:
            hosts = self._compute(label, ids)
        finally:
            self.active.discard(key)
        self.pass_done.add(key)
        if hosts is None:
            self.memo.setdefault(key, False)
            return False
        # the key is not true yet: a true key returns above, and a key
        # being computed is active, so its own recursion cannot flip it
        self.memo[key] = True
        self.hosts[key] = hosts
        self.changed = True
        return True

    def _compute(self, label: str, ids: frozenset[int]) -> _Hosts | None:
        """The hosts of one way to satisfy the qualifiers ``ids`` at
        ``label``, or ``None`` when there is none yet."""
        option_lists: list[list[frozenset[_Atom]]] = []
        total = 1
        for qid in sorted(ids):
            choices = self.options(self.quals[qid], label)
            if not choices:
                return None
            option_lists.append(choices)
            total *= len(choices)
            if total > MAX_CHOICES:
                raise ReproError(
                    f"realworld solver exceeded {MAX_CHOICES} choice "
                    "combinations; falling back"
                )
        for combination in product(*option_lists):
            atoms: frozenset[_Atom] = frozenset().union(*combination)
            if not atoms:
                return ()
            if len(atoms) > MAX_ATOMS:
                raise ReproError(
                    f"{len(atoms)} child-requirement atoms exceed "
                    f"{MAX_ATOMS}; falling back"
                )
            hosts = self.solve_atoms(label, atoms)
            if hosts is not None:
                return hosts
        return None

    # disjunctive decomposition: each qualifier becomes a list of choices,
    # each choice a (possibly empty) set of child atoms

    def options(self, qual: Qualifier, label: str) -> list[frozenset[_Atom]]:
        self._step()
        if isinstance(qual, ast.PathExists):
            return self.path_options(qual.path, label)
        if isinstance(qual, ast.LabelTest):
            return [frozenset()] if qual.name == label else []
        if isinstance(qual, ast.And):
            left = self.options(qual.left, label)
            right = self.options(qual.right, label)
            if len(left) * len(right) > MAX_CHOICES:
                raise ReproError(
                    "realworld solver: conjunction too wide; falling back"
                )
            return [l | r for l in left for r in right]
        if isinstance(qual, ast.Or):
            return self.options(qual.left, label) + self.options(qual.right, label)
        raise FragmentError(f"unexpected qualifier {qual!r}")

    def path_options(self, path: Path, label: str) -> list[frozenset[_Atom]]:
        """The choices of ``path`` at ``label``.  The first call on a path
        object decomposes it with :func:`first_cases` and records its
        cases, each turned into a choice as it is met (so residuals are
        interned in first-sight order); later calls on that object replay
        the record.  A ``Check`` case is recorded as itself, since its
        qualifier's choices depend on ``label``."""
        self._step()
        entry = self.cases.get(id(path))
        record: list[_Case] | None = None
        if entry is None:
            cases: tuple = first_cases(path)
            record = []
        else:
            cases = entry[1]
        choices: list[frozenset[_Atom]] = []
        for case in cases:
            if record is not None:
                case = self._choice_of(case)
                record.append(case)
            if type(case) is frozenset:
                choices.append(case)
                continue
            quals = self.options(case.qualifier, label)
            paths = self.path_options(case.residual, label)
            if len(quals) * len(paths) > MAX_CHOICES:
                raise ReproError(
                    "realworld solver: filter step too wide; falling back"
                )
            choices.extend(q | p for q in quals for p in paths)
        if record is not None:
            self.cases[id(path)] = (path, tuple(record))
        if len(choices) > MAX_CHOICES:
            raise ReproError(
                "realworld solver: too many disjunctive choices; falling back"
            )
        return choices

    def _choice_of(self, case) -> _Case:
        """A first-step case as recorded: a ``Child`` or ``Desc`` case
        becomes its one-atom choice, a ``Done`` case the empty choice."""
        if isinstance(case, Child):
            residual = case.residual
            qid = (
                -1 if isinstance(residual, ast.Empty)
                else self.intern(ast.PathExists(residual))
            )
            return frozenset({(case.label, qid)})
        if isinstance(case, Done):
            return frozenset()
        if isinstance(case, Desc):
            wrapped = ast.PathExists(ast.Seq(ast.DescOrSelf(), case.residual))
            return frozenset({(None, self.intern(wrapped))})
        if isinstance(case, Check):
            return case
        raise FragmentError(f"unexpected step case {case!r}")  # pragma: no cover

    def solve_atoms(self, label: str, atoms: frozenset[_Atom]) -> _Hosts | None:
        """The hosting children, if one children word of ``label``'s
        content model can host every atom.  Atoms partition into blocks
        (one hosting child each) — finest partitions first, since
        distinct hosts are feasible most often — then hosts get labels
        and the multiset is checked."""
        model = self.context.models[label]
        if len(atoms) == 1:
            partitions: list[list[list[_Atom]]] = [[list(atoms)]]
        else:
            atom_list = sorted(atoms, key=lambda atom: (atom[0] or "", atom[1]))
            partitions = sorted(_partitions(atom_list), key=len, reverse=True)
        for blocks in partitions:
            self._step()
            infos: list[tuple[tuple[str, ...], frozenset[int]]] = []
            viable = True
            total = 1
            for block in blocks:
                fixed: str | None = None
                block_ids: set[int] = set()
                for atom_label, qid in block:
                    if atom_label is not None:
                        if fixed is None:
                            fixed = atom_label
                        elif fixed != atom_label:
                            viable = False
                            break
                    if qid >= 0:
                        block_ids.add(qid)
                if not viable:
                    break
                if fixed is not None:
                    if fixed not in model.alphabet:
                        viable = False
                        break
                    candidates: tuple[str, ...] = (fixed,)
                else:
                    candidates = tuple(sorted(model.alphabet))
                    if not candidates:
                        viable = False
                        break
                infos.append((candidates, frozenset(block_ids)))
                total *= len(candidates)
            if not viable:
                continue
            if total > MAX_ASSIGNMENTS:
                raise ReproError(
                    f"realworld solver: {total} host assignments exceed "
                    f"{MAX_ASSIGNMENTS}; falling back"
                )
            for assignment in product(*(candidates for candidates, _ in infos)):
                self._step()
                # one child of any label of a DC or DF content model fits on
                # its own (a DC label is mandatory or pumpable, and every
                # label of a DF production occurs in some word), so only two
                # or more hosts need the multiset check
                if len(assignment) > 1 and not model.feasible(Counter(assignment)):
                    continue
                if all(
                    self.satset(host, ids)
                    for host, (_, ids) in zip(assignment, infos)
                ):
                    return tuple(
                        (host, ids) for host, (_, ids) in zip(assignment, infos)
                    )
        return None

    # witness construction from the recorded hosts

    def witness(self, query: Path) -> XMLTree:
        """A conforming tree satisfying ``query``, after :meth:`top` found
        it satisfiable."""
        return XMLTree(self._realize(*self.goal(query)))

    def _realize(self, label: str, ids: frozenset[int]) -> Node:
        hosts = self.hosts[(label, ids)] if ids else ()
        if not hosts:
            return minimal_node(self.dtd, label)
        node = Node(label=label)
        for attr in sorted(self.dtd.attrs_of(label)):
            node.attrs[attr] = f"{attr}0"
        waiting: dict[str, list[frozenset[int]]] = {}
        for host, host_ids in hosts:
            waiting.setdefault(host, []).append(host_ids)
        need = {host: len(pending) for host, pending in waiting.items()}
        for symbol in _word_holding(self.context.models[label].production, need):
            pending = waiting.get(symbol)
            if pending:
                node.append(self._realize(symbol, pending.pop()))
            else:
                node.append(minimal_node(self.dtd, symbol))
        return node


# -- the decider -----------------------------------------------------------------

def sat_realworld(
    query: Path, dtd: DTD, context: RealWorldContext | None = None
) -> SatResult:
    """Decide ``(query, dtd)`` for DC/DF-restrained ``dtd`` and ``query``
    in ``X(↓,↓*,∪,[])`` or ``X(↓,↑)``.

    Declines (``ReproError``) when a combinatorial budget trips, so the
    planner falls through to the EXPTIME chain with verdicts unchanged.
    A SAT result reads its witness tree back on its first ``.witness``
    read.
    """
    rewritten = query
    features = features_of(query)
    if not features <= DOWNWARD_QUAL.allowed and features <= CHILD_UP.allowed:
        result = upward_to_qualifiers(query)
        if not result.complete:
            return SatResult(False, METHOD, reason="query climbs above the root")
        rewritten = result.path
        features = features_of(rewritten)
    missing = features - DOWNWARD_QUAL.allowed
    if missing:
        raise FragmentError(
            "sat_realworld requires X(child,dos,union,qual) or X(child,parent); "
            f"query uses {sorted(str(f) for f in missing)} extra"
        )
    if context is None:
        context = prepare_realworld(dtd)
    solver = _Solver(dtd, context)
    satisfiable = solver.top(rewritten)
    stats = {
        "memo_keys": len(solver.memo),
        "steps": solver.steps,
        "passes": solver.passes,
    }
    witness = partial(solver.witness, rewritten) if satisfiable else None
    return SatResult(satisfiable, METHOD, witness=witness, stats=stats)


SPEC = register_decider(DeciderSpec(
    name="realworld",
    method=METHOD,
    fn=sat_realworld,
    # full DOWNWARD_QUAL including label tests; the X(↓,↑) case arrives
    # through the upward_to_qualifiers rewrite pass (cf. disjunction_free)
    allowed=DOWNWARD_QUAL.allowed,
    shape="X(↓,↓*,∪,[]) / X(↓,↑)",
    theorem="arXiv:1308.0769",
    complexity="PTIME",
    cost_rank=32,  # after disjunction_free (30), before exptime_types (40)
    traits=("dc_df_restrained",),
    may_decline=True,  # budget trips raise ReproError: fall back to EXPTIME
    prepare=prepare_realworld,
))
