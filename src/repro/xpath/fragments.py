"""Fragment lattice: which operators a query uses, and membership in the
paper's named fragments.

The paper denotes a fragment by listing its operators, e.g. ``X(↓,[],¬)``.
:func:`features_of` extracts the operator set of a concrete query;
:class:`Fragment` is a named operator set with a ``contains`` check.  The
registry :data:`FRAGMENTS` holds every fragment the paper names, keyed by
its ASCII rendering (``"X(child,qual,neg)"``); module-level constants
expose the frequently used ones.

Conventions from the paper:

* label steps and ``/`` belong to every fragment;
* the absence of ``∪`` forbids both path union and qualifier disjunction;
* ``lab() = A`` is available wherever qualifiers are, but is tracked as its
  own feature because Theorem 6.11(1) distinguishes the label-test-free
  case;
* ``=`` covers both ``=`` and ``≠`` comparisons (data values).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier


@unique
class Feature(Enum):
    WILDCARD = "child"          # ↓
    DESCENDANT = "dos"          # ↓*
    PARENT = "parent"           # ↑
    ANCESTOR = "aos"            # ↑*
    RIGHT_SIB = "rs"            # →
    RIGHT_SIB_STAR = "rss"      # →*
    LEFT_SIB = "ls"             # ←
    LEFT_SIB_STAR = "lss"       # ←*
    UNION = "union"             # ∪ (and ∨ in qualifiers)
    QUALIFIER = "qual"          # [ ]
    NEGATION = "neg"            # ¬
    DATA = "data"               # = and !=
    LABEL_TEST = "labtest"      # lab() = A

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_PATH_FEATURES: dict[type, Feature] = {
    ast.Wildcard: Feature.WILDCARD,
    ast.DescOrSelf: Feature.DESCENDANT,
    ast.Parent: Feature.PARENT,
    ast.AncOrSelf: Feature.ANCESTOR,
    ast.RightSib: Feature.RIGHT_SIB,
    ast.RightSibStar: Feature.RIGHT_SIB_STAR,
    ast.LeftSib: Feature.LEFT_SIB,
    ast.LeftSibStar: Feature.LEFT_SIB_STAR,
}


#: the operators each AST node type itself uses (types absent here use
#: none of their own: labels, ``ε``, ``/`` and ``PathExists``)
_NODE_FEATURES: dict[type, tuple[Feature, ...]] = {
    **{node_type: (feature,) for node_type, feature in _PATH_FEATURES.items()},
    ast.Union: (Feature.UNION,),
    ast.Filter: (Feature.QUALIFIER,),
    ast.LabelTest: (Feature.LABEL_TEST, Feature.QUALIFIER),
    ast.AttrConstCmp: (Feature.DATA, Feature.QUALIFIER),
    ast.AttrAttrCmp: (Feature.DATA, Feature.QUALIFIER),
    ast.And: (Feature.QUALIFIER,),
    ast.Or: (Feature.UNION,),
    ast.Not: (Feature.NEGATION, Feature.QUALIFIER),
}

#: the last root :func:`features_of` walked and its operator set, as one
#: tuple so a reader never pairs one root with another's features; the
#: initial root is a private object no caller can pass
_LAST: tuple[object, frozenset[Feature]] = (object(), frozenset())


def features_of(query: Path | Qualifier) -> frozenset[Feature]:
    """The exact set of operators used by ``query``.

    The walk runs over an explicit stack (no recursion, no generators).
    AST nodes are immutable, so the function remembers the last root it
    walked, by identity: the batch engine plans on the canonical form's
    features and the deciders of the plan's chain check their fragment on
    that same object, which then costs one identity test instead of a
    second walk.  Only a query a rewrite pass replaced is walked again.
    """
    global _LAST
    last = _LAST
    if last[0] is query:
        return last[1]
    features = _walk_features(query)
    _LAST = (query, features)
    return features


def _walk_features(query: Path | Qualifier) -> frozenset[Feature]:
    features: set[Feature] = set()
    own = _NODE_FEATURES.get
    stack = [query]
    pop, extend = stack.pop, stack.extend
    while stack:
        node = pop()
        node_features = own(type(node))
        if node_features:
            features.update(node_features)
        extend(node.children_paths())
        extend(node.children_qualifiers())
    return frozenset(features)


def feature_signature(features: frozenset[Feature]) -> str:
    """A stable, compact key for an operator set.

    Two queries with the same signature are routed identically by the
    planner (:mod:`repro.sat.planner`), so the signature is the cache key
    of a routing decision: ``plans`` are stored per
    ``(feature_signature × schema fingerprint)``.
    """
    return ",".join(sorted(f.value for f in features)) or "()"


def signature_features(signature: str) -> frozenset[Feature]:
    """The operator set a :func:`feature_signature` names."""
    if signature == "()":
        return frozenset()
    return frozenset(Feature(value) for value in signature.split(","))


@dataclass(frozen=True)
class Fragment:
    """A named set of allowed operators."""

    name: str
    allowed: frozenset[Feature]

    def contains(self, query: Path | Qualifier) -> bool:
        return features_of(query) <= self.allowed

    def missing(self, query: Path | Qualifier) -> frozenset[Feature]:
        """Operators the query uses that the fragment forbids."""
        return features_of(query) - self.allowed

    def __le__(self, other: "Fragment") -> bool:
        return self.allowed <= other.allowed

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _fragment(*features: Feature, label_test: bool | None = None) -> Fragment:
    """Build a fragment; by the paper's convention label tests come with
    qualifiers unless explicitly disabled."""
    allowed = set(features)
    if label_test is None:
        label_test = Feature.QUALIFIER in allowed
    if label_test:
        allowed.add(Feature.LABEL_TEST)
    name = "X(" + ",".join(sorted(f.value for f in allowed)) + ")"
    return Fragment(name, frozenset(allowed))


F = Feature

# Positive fragments (Section 4)
DOWNWARD = _fragment(F.WILDCARD, F.DESCENDANT, F.UNION)                      # X(↓,↓*,∪)
CHILD_QUAL = _fragment(F.WILDCARD, F.QUALIFIER)                              # X(↓,[])
UNION_QUAL = _fragment(F.UNION, F.QUALIFIER)                                 # X(∪,[])
CHILD_UP = _fragment(F.WILDCARD, F.PARENT)                                   # X(↓,↑)
DOWNWARD_QUAL = _fragment(F.WILDCARD, F.DESCENDANT, F.UNION, F.QUALIFIER)    # X(↓,↓*,∪,[])
POSITIVE = _fragment(
    F.WILDCARD, F.DESCENDANT, F.PARENT, F.ANCESTOR, F.UNION, F.QUALIFIER, F.DATA
)                                                                            # X(↓,↓*,↑,↑*,∪,[],=)

# Fragments with negation (Section 5)
CHILD_QUAL_NEG = _fragment(F.WILDCARD, F.QUALIFIER, F.NEGATION)              # X(↓,[],¬)
NONREC_NEG = _fragment(F.WILDCARD, F.PARENT, F.UNION, F.QUALIFIER, F.NEGATION)  # X(↓,↑,∪,[],¬)
REC_NEG_DOWN = _fragment(F.WILDCARD, F.DESCENDANT, F.QUALIFIER, F.NEGATION)  # X(↓,↓*,[],¬)
REC_NEG_DOWN_UNION = _fragment(
    F.WILDCARD, F.DESCENDANT, F.UNION, F.QUALIFIER, F.NEGATION
)                                                                            # X(↓,↓*,∪,[],¬)
REC_NEG = _fragment(
    F.WILDCARD, F.DESCENDANT, F.PARENT, F.ANCESTOR, F.UNION, F.QUALIFIER, F.NEGATION
)                                                                            # X(↓,↓*,↑,↑*,∪,[],¬)
DATA_NEG_DOWN = _fragment(F.WILDCARD, F.UNION, F.QUALIFIER, F.DATA, F.NEGATION)  # X(↓,∪,[],=,¬)
UP_DATA_NEG = _fragment(F.PARENT, F.QUALIFIER, F.DATA, F.NEGATION)           # X(↑,[],=,¬)
FULL_VERTICAL = _fragment(
    F.WILDCARD, F.DESCENDANT, F.PARENT, F.ANCESTOR,
    F.UNION, F.QUALIFIER, F.DATA, F.NEGATION,
)                                                                            # X(↓,↑,↓*,↑*,∪,[],=,¬)

# Fragments with sibling axes (Section 7)
SIBLING = _fragment(F.RIGHT_SIB, F.LEFT_SIB)                                 # X(→,←)
SIBLING_QUAL = _fragment(F.RIGHT_SIB, F.QUALIFIER)                           # X(→,[])
SIBLING_QUAL_NEG = _fragment(F.RIGHT_SIB, F.QUALIFIER, F.NEGATION)           # X(→,[],¬)
SIBLING_VERTICAL_NEG = _fragment(
    F.WILDCARD, F.PARENT, F.RIGHT_SIB, F.LEFT_SIB, F.RIGHT_SIB_STAR, F.LEFT_SIB_STAR,
    F.UNION, F.QUALIFIER, F.NEGATION,
)                                                                            # X(↓,↑,←,→,←*,→*,∪,[],¬)

FULL = _fragment(*Feature)                                                   # everything

FRAGMENTS: dict[str, Fragment] = {
    fragment.name: fragment
    for fragment in (
        DOWNWARD, CHILD_QUAL, UNION_QUAL, CHILD_UP, DOWNWARD_QUAL, POSITIVE,
        CHILD_QUAL_NEG, NONREC_NEG, REC_NEG_DOWN, REC_NEG_DOWN_UNION, REC_NEG,
        DATA_NEG_DOWN, UP_DATA_NEG, FULL_VERTICAL,
        SIBLING, SIBLING_QUAL, SIBLING_QUAL_NEG, SIBLING_VERTICAL_NEG,
        FULL,
    )
}


def is_positive(query: Path | Qualifier) -> bool:
    """No negation (the query is in positive XPath, Section 4)."""
    return Feature.NEGATION not in features_of(query)


def uses_recursion(query: Path | Qualifier) -> bool:
    """Uses ``↓*`` or ``↑*``."""
    return bool(
        features_of(query) & {Feature.DESCENDANT, Feature.ANCESTOR}
    )


def uses_upward(query: Path | Qualifier) -> bool:
    return bool(features_of(query) & {Feature.PARENT, Feature.ANCESTOR})


def uses_sibling(query: Path | Qualifier) -> bool:
    return bool(
        features_of(query)
        & {Feature.RIGHT_SIB, Feature.LEFT_SIB, Feature.RIGHT_SIB_STAR, Feature.LEFT_SIB_STAR}
    )


def uses_data(query: Path | Qualifier) -> bool:
    return Feature.DATA in features_of(query)
