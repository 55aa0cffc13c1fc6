"""Theorem 4.4: satisfiability of positive XPath
``X(↓,↓*,↑,↑*,∪,[],=)`` in the presence of DTDs is NP-complete.

The decision strategy layers the exact procedures the library has:

1. **Downward, no data** — positive queries in ``X(↓,↓*,∪,[])`` are a
   special case of the types fixpoint (:mod:`repro.sat.exptime_types`),
   which is exact for every DTD (and fast here: no negation means few
   facts).
2. **Upward steps** — ``X(↓,↑)``-shaped use of ``↑`` is eliminated by the
   rewriting of Theorem 6.8(2); if the residue escapes the root, the query
   is unsatisfiable at the root.
3. **Everything else (data joins, ``↑*``, ↑ inside qualifiers)** — bounded
   search with the paper's small-model bounds: depth ``(3|p|−1)·|D|``
   (Lemma 4.5) and a width budget.  Exhausting the *bounded* space within
   those paper-derived bounds is a definitive "unsatisfiable" only when the
   engine reports its enumeration was complete; otherwise the result is
   honestly ``unknown``.
"""

from __future__ import annotations

from repro.dtd.model import DTD
from repro.errors import FragmentError
from repro.sat.bounded import Bounds, sat_bounded
from repro.sat.exptime_types import sat_exptime_types
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xpath.ast import Path
from repro.xpath.fragments import (
    CHILD_UP,
    POSITIVE,
    REC_NEG_DOWN_UNION,
    Feature,
    features_of,
    is_positive,
)
from repro.xpath.rewrite import upward_to_qualifiers

METHOD = "thm4.4-positive"

_DOWNWARD_OK = REC_NEG_DOWN_UNION.allowed | {Feature.LABEL_TEST}


def sat_positive(query: Path, dtd: DTD, bounds: Bounds | None = None) -> SatResult:
    """Decide ``(query, dtd)`` for positive ``query`` (Theorem 4.4)."""
    if not is_positive(query):
        raise FragmentError("sat_positive requires a negation-free query")
    if not POSITIVE.contains(query):
        raise FragmentError(
            f"sat_positive requires X(child,dos,parent,aos,union,qual,data); "
            f"query uses {sorted(str(f) for f in POSITIVE.missing(query))} extra"
        )
    used = features_of(query)

    if used <= _DOWNWARD_OK:
        return _via_types(
            sat_exptime_types(query, dtd), "downward positive via types fixpoint"
        )

    if CHILD_UP.contains(query):
        rewritten = upward_to_qualifiers(query)
        if not rewritten.complete:
            return SatResult(
                False, METHOD, reason="query climbs above the root"
            )
        return _via_types(
            sat_exptime_types(rewritten.path, dtd),
            "upward steps eliminated (Thm 6.8(2) rewriting)",
        )

    bounds = bounds or small_model_bounds(query, dtd)
    inner = sat_bounded(query, dtd, bounds)
    return SatResult(
        inner.satisfiable, METHOD, witness=inner.witness,
        reason=f"bounded search with Lemma 4.5 bounds: {inner.reason}",
        stats=inner.stats,
    )


def _via_types(inner: SatResult, reason: str) -> SatResult:
    """The types fixpoint's answer under this procedure's name.  Its
    witness is passed on unread: it is realized only if this result's
    ``.witness`` is read."""
    return SatResult(
        inner.satisfiable, METHOD, witness=lambda: inner.witness,
        reason=reason, stats=inner.stats,
    )


def small_model_bounds(query: Path, dtd: DTD, cap_depth: int = 8,
                       cap_width: int = 5) -> Bounds:
    """Bounds instantiating Lemma 4.5: depth ``(3|p|−1)·|D|`` and width
    ``|D|+|p|`` — capped to keep the search tractable (caps are recorded by
    the engine as truncations, so answers stay honest)."""
    p_size = query.size()
    d_size = dtd.size()
    return Bounds(
        max_depth=min((3 * p_size - 1) * d_size, cap_depth),
        max_width=min(d_size + p_size, cap_width),
    )


SPEC = register_decider(DeciderSpec(
    name="positive",
    method=METHOD,
    fn=sat_positive,
    allowed=POSITIVE.allowed,
    shape="positive with ↑*/data joins",
    theorem="Thm 4.4",
    complexity="NP",
    cost_rank=60,
    accepts_bounds=True,
))
