"""Theorem 5.5: ``SAT(X(↓,∪,[],=,¬))`` is in NEXPTIME.

The paper's argument is a small-model property: a satisfiable pair has a
model of depth ≤ ``|p|`` (the query is nonrecursive and downward: nothing
below its lookahead horizon matters) and width ≤ ``|D| + |p|`` (the
``witness()`` pruning), whose attribute-equality pattern needs at most one
distinct value per attribute slot.

We realize the nondeterministic "guess a model" step by instantiating the
bounded-model engine with exactly these bounds, with one refinement: the
depth bound is the query's *lookahead depth* (the deepest chain of child
steps, through qualifiers), which is ≤ ``|p|`` and usually far smaller.
Below the horizon, frontier nodes are completed minimally — sound because
the query cannot inspect them.

When the engine covers the bound-implied space the ``False`` answer is
definitive (that is Theorem 5.5's content); if internal caps were hit the
result is honestly ``unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dtd.model import DTD
from repro.errors import FragmentError
from repro.sat.bounded import Bounds, BoundedContext, prepare_bounded, sat_bounded
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier
from repro.xpath.fragments import DATA_NEG_DOWN, Feature, features_of

METHOD = "thm5.5-smallmodel"


def lookahead_depth(node: Path | Qualifier) -> int:
    """The deepest chain of child steps the expression can inspect,
    counting through qualifiers (``↓*``/``↑`` are outside this fragment)."""
    if isinstance(node, (ast.Label, ast.Wildcard)):
        return 1
    if isinstance(node, ast.Seq):
        return lookahead_depth(node.left) + lookahead_depth(node.right)
    if isinstance(node, ast.Union):
        return max(lookahead_depth(node.left), lookahead_depth(node.right))
    if isinstance(node, ast.Filter):
        return lookahead_depth(node.path) + lookahead_depth(node.qualifier)
    if isinstance(node, ast.PathExists):
        return lookahead_depth(node.path)
    if isinstance(node, (ast.And, ast.Or)):
        return max(lookahead_depth(node.left), lookahead_depth(node.right))
    if isinstance(node, ast.Not):
        return lookahead_depth(node.inner)
    if isinstance(node, (ast.AttrConstCmp,)):
        return lookahead_depth(node.path)
    if isinstance(node, ast.AttrAttrCmp):
        return max(lookahead_depth(node.left_path), lookahead_depth(node.right_path))
    return 0  # ε, label tests


@dataclass
class NexptimeContext:
    """Schema-only precomputation shared across a plan group's queries:
    ``|D|`` (the paper's width bound re-walks every production) plus the
    inner bounded-engine context — which itself rides on the packed
    Glushkov kernel (:mod:`repro.sat.bits`) for its word-length analysis
    and word tables.  ``lookahead_memo`` caches per-query lookahead
    depths across a group (a pure cache of an AST walk: cannot change
    the computed bounds, only how often the walk runs)."""

    size: int
    bounded: BoundedContext
    lookahead_memo: dict[Path, int] = field(default_factory=dict)


def prepare_nexptime(dtd: DTD) -> NexptimeContext:
    """The decider's ``prepare`` hook for the plan-grouped scheduler."""
    return NexptimeContext(size=dtd.size(), bounded=prepare_bounded(dtd))


def sat_nexptime(query: Path, dtd: DTD, width_cap: int = 5,
                 assignment_cap: int = 4096,
                 context: NexptimeContext | None = None) -> SatResult:
    """Decide ``(query, dtd)`` for ``query ∈ X(↓,∪,[],=,¬)`` by small-model
    search (Theorem 5.5 bounds)."""
    used = features_of(query)
    if not used <= SPEC.allowed:
        raise FragmentError(
            f"sat_nexptime requires X(child,union,qual,data,neg); query uses "
            f"{sorted(str(f) for f in used - SPEC.allowed)} extra"
        )
    dtd.require_terminating()
    if context is not None:
        depth = context.lookahead_memo.get(query)
        if depth is None:
            depth = lookahead_depth(query)
            context.lookahead_memo[query] = depth
    else:
        depth = lookahead_depth(query)
    schema_size = context.size if context is not None else dtd.size()
    paper_width = schema_size + query.size()
    width = min(paper_width, width_cap)
    bounds = Bounds(
        max_depth=depth,
        max_width=width,
        max_nodes=max(40, min((width + 1) ** max(depth, 1), 10_000)),
        max_trees=200_000,
        value_pool=3,
        max_assignments=assignment_cap,
        complete_frontier=True,
        frontier_sound=True,       # depth = exact lookahead of the query
        width_sound=width >= paper_width,
    )
    inner = sat_bounded(
        query, dtd, bounds,
        context=context.bounded if context is not None else None,
    )
    reason = inner.reason
    if inner.satisfiable is None and "width" not in reason:
        reason += f" (paper width bound |D|+|p| = {paper_width})"
    return SatResult(
        inner.satisfiable, METHOD, witness=inner.witness, reason=reason,
        stats=inner.stats,
    )


SPEC = register_decider(DeciderSpec(
    name="nexptime",
    method=METHOD,
    fn=sat_nexptime,
    allowed=DATA_NEG_DOWN.allowed | {Feature.LABEL_TEST},
    shape="X(↓,∪,[],=,¬)",
    theorem="Thm 5.5",
    complexity="NEXPTIME",
    cost_rank=50,
    prepare=prepare_nexptime,
))
