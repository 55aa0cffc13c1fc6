"""Decider registry: declarative capability descriptors for every
satisfiability procedure in :mod:`repro.sat`.

Each decider module registers one :class:`DeciderSpec` describing *what*
it can decide — allowed operator set, required schema traits, complexity
class, paper theorem, position in the routing order — instead of hiding
that knowledge in ad-hoc ``_ALLOWED`` frozensets and an if-chain.  The
query planner (:mod:`repro.sat.planner`) consumes this registry to build
explainable, cacheable :class:`~repro.sat.planner.Plan` objects, and the
dispatcher's routing-table docstring is rendered from it, so code and
docs cannot drift.

The registry is populated as decider modules import; :func:`load` imports
every built-in decider so lookups see the full table regardless of which
module the caller touched first.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import FragmentError
from repro.xpath.fragments import Feature


@dataclass(frozen=True)
class DeciderSpec:
    """Capability descriptor of one decision procedure.

    Attributes
    ----------
    name:
        Registry key (e.g. ``"downward"``).
    method:
        The ``SatResult.method`` tag the procedure reports.
    fn:
        The decision function.  Called ``fn(query)`` for no-DTD deciders,
        ``fn(query, dtd)`` for DTD deciders, with a trailing ``bounds``
        argument when ``accepts_bounds``.
    allowed:
        Operator set the procedure accepts (a query routes here only when
        ``features_of(query) <= allowed``).
    shape:
        The paper's rendering of that fragment/setting, for generated docs
        (e.g. ``"X(↓,↓*,∪)"``).
    theorem:
        Paper reference (e.g. ``"Thm 4.1"``).
    complexity:
        Complexity class of the procedure (``"PTIME"``, ``"EXPTIME"``,
        ``"NEXPTIME"``, ``"NP"``, ``"semi-decision"``).  ``"PTIME"`` plans
        run inline in the batch engine; everything else is pooled.
    cost_rank:
        Position in the routing order, the paper's result map: the
        planner picks the *lowest* matching rank, so cheaper/stronger
        procedures get low ranks, and the fallbacks after it follow in
        rank order.  The order is static: no measurement changes it.
    needs_dtd:
        ``True`` for deciders over ``(query, DTD)`` pairs, ``False`` for
        the no-DTD setting.
    accepts_bounds:
        The function takes the engine's search :class:`~repro.sat.bounded.Bounds`.
    traits:
        Schema classification predicates (keys of
        :func:`repro.dtd.properties.classify`) that must hold for the
        schema, e.g. ``("disjunction_free",)``.
    may_decline:
        The procedure may raise :class:`~repro.errors.ReproError` to ask
        for a fallback (e.g. the types fixpoint beyond its fact cap); the
        planner then records a fallback chain.
    prepare:
        Optional shared-setup hook ``prepare(dtd) -> context``: everything
        the procedure can precompute from the schema alone (classification
        predicates, Glushkov automata, content-model word tables).  The
        batch engine's worker runtimes call it **once per schema**, not
        per plan (once per chunk with affinity off), then hand the
        context to every ``call`` on that schema — N jobs pay setup once
        instead of N times; the decision function then takes it as a
        ``context=`` keyword.
        A context is a pure cache: it must never change a verdict.

    A decision function that reads its witness tree off its tables
    returns it unbuilt (see :class:`~repro.sat.result.SatResult`), so a
    caller that keeps only the verdict, as the batch engine does, never
    builds one.  A decision function may also carry a joint entry (see
    :attr:`joint`); only the Thm 5.3 types fixpoint has one.
    """

    name: str
    method: str
    fn: Callable
    allowed: frozenset[Feature]
    shape: str
    theorem: str
    complexity: str
    cost_rank: int
    needs_dtd: bool = True
    accepts_bounds: bool = False
    traits: tuple[str, ...] = ()
    may_decline: bool = False
    prepare: Callable | None = None

    def accepts(self, features: frozenset[Feature]) -> bool:
        return features <= self.allowed

    @property
    def joint(self) -> Callable | None:
        """The decision function's *joint entry*, ``fn.joint``, or
        ``None``: ``joint(queries, dtd, context=...)`` decides several
        questions over one DTD at once and returns one result per query,
        each with the verdict ``fn`` gives that query alone.  It is
        reached only through ``fn``, so a spec whose ``fn`` was replaced
        (``dataclasses.replace(spec, fn=...)``: a test double, a timing
        wrapper) has none, and the batch engine then calls that ``fn``
        on each question."""
        return getattr(self.fn, "joint", None)

    def call(self, query, dtd=None, bounds=None, context=None):
        """Run the decision function, handing it ``context`` (the object
        ``prepare`` returned) when one is given."""
        args = [query]
        if self.needs_dtd:
            args.append(dtd)
        if self.accepts_bounds:
            args.append(bounds)
        if context is not None:
            return self.fn(*args, context=context)
        return self.fn(*args)

    def describe(self) -> str:
        qualifiers = []
        if self.traits:
            qualifiers.append("requires " + ", ".join(self.traits) + " schema")
        if self.may_decline:
            qualifiers.append("may decline")
        suffix = f" ({'; '.join(qualifiers)})" if qualifiers else ""
        return f"{self.name}: {self.shape} — {self.theorem}, {self.complexity}{suffix}"


_REGISTRY: dict[str, DeciderSpec] = {}
_LOADED = False


def register_decider(spec: DeciderSpec) -> DeciderSpec:
    """Add ``spec`` to the registry (idempotent per name at import time)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.method != spec.method:
        raise ValueError(f"decider {spec.name!r} already registered with another method")
    _REGISTRY[spec.name] = spec
    return spec


def load() -> None:
    """Import every built-in decider module so the registry is complete.

    ``_LOADED`` flips only after every import succeeds, so a failing
    decider import surfaces as the real :class:`ImportError` on every
    call instead of being masked by an empty registry.
    """
    global _LOADED
    if _LOADED:
        return
    from repro.sat import (  # noqa: F401  (imported for registration side effects)
        bounded,
        conjunctive,
        disjunction_free,
        downward,
        exptime_types,
        family,
        nexptime,
        no_dtd,
        positive,
        realworld,
        sibling,
    )
    _LOADED = True


def get_decider(name: str) -> DeciderSpec:
    load()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise FragmentError(f"unknown decider {name!r}; registered: {known}") from None


def decider_traits(name: str) -> tuple[str, ...]:
    """Schema-trait gate of a decider, ``()`` for names outside the
    registry (observability callers classify whatever attempt names they
    are handed, registered or not)."""
    load()
    spec = _REGISTRY.get(name)
    return spec.traits if spec is not None else ()


@contextmanager
def disabled(name: str) -> Iterator[DeciderSpec]:
    """Temporarily unregister a decider (benchmark ablation: compare
    routing with and without a fast path).  The registry-size stamp
    changes, so planner scan caches invalidate automatically; callers
    must still build plans on a fresh planner/artifact cache."""
    spec = get_decider(name)
    del _REGISTRY[name]
    try:
        yield spec
    finally:
        _REGISTRY[name] = spec


def registry_size() -> int:
    """Number of registered deciders (cheap staleness stamp for callers
    that memoize derived views of the registry)."""
    load()
    return len(_REGISTRY)


def all_deciders() -> tuple[DeciderSpec, ...]:
    """Every registered decider, in routing (cost-rank) order."""
    load()
    return tuple(sorted(_REGISTRY.values(), key=lambda spec: (spec.cost_rank, spec.name)))


def deciders(needs_dtd: bool) -> tuple[DeciderSpec, ...]:
    """The routing chain for one setting (with or without a DTD)."""
    return tuple(spec for spec in all_deciders() if spec.needs_dtd is needs_dtd)


def routing_table() -> str:
    """The dispatcher's result map, rendered from the registry.

    One row per registered decider, in routing order; this is appended to
    ``repro.sat.dispatch.__doc__`` at import so the documented table can
    never drift from the code.
    """
    rows = []
    for spec in deciders(needs_dtd=False):
        rows.append((f"no DTD, {spec.shape}", f"{spec.theorem} [{spec.method}]"))
    for spec in deciders(needs_dtd=True):
        shape = spec.shape
        if spec.traits:
            shape += ", " + " ".join(trait.replace("_", "-") for trait in spec.traits) + " DTD"
        rows.append((shape, f"{spec.theorem} [{spec.method}]"))
    left = max(len(row[0]) for row in rows)
    right = max(len(row[1]) for row in rows)
    rule = "=" * left + "  " + "=" * right
    lines = [rule, "query / DTD shape".ljust(left) + "  procedure", rule]
    lines += [row[0].ljust(left) + "  " + row[1] for row in rows]
    lines.append(rule)
    return "\n".join(lines)
