"""Automatic algorithm selection.

``decide(query, dtd)`` routes a satisfiability question to the strongest
procedure the library has for the query's fragment and the DTD's class,
mirroring the paper's result map.  Routing is delegated to the query
planner (:mod:`repro.sat.planner`): the query's feature signature and the
schema's classification select a :class:`~repro.sat.planner.Plan` —
rewrite passes, decider, fallback chain — which is then executed.  Like
the batch engine, ``decide`` plans on the features of the query's
canonical form, so both run the same chain for the same question.  Pass
a pre-computed ``plan`` to skip planning entirely.

The result map below is rendered from the decider registry
(:mod:`repro.sat.registry`) at import time, so this table cannot drift
from the code.
"""

from __future__ import annotations

from repro.dtd.model import DTD
from repro.errors import ReproError, job_error_text
from repro.sat.bounded import Bounds
from repro.sat.planner import DEFAULT_PLANNER, Plan, execute_plan
from repro.sat.registry import routing_table
from repro.sat.result import SatResult
from repro.xpath.ast import Path
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import features_of


def decide(
    query: Path,
    dtd: DTD | None = None,
    bounds: Bounds | None = None,
    *,
    artifacts=None,
    plan: Plan | None = None,
) -> SatResult:
    """Decide satisfiability of ``(query, dtd)`` — or of ``query`` alone
    over unconstrained trees when ``dtd`` is ``None`` — with the strongest
    applicable procedure.

    ``artifacts`` is the batch-engine hook: a pre-registered schema record
    (:class:`repro.engine.SchemaArtifacts`, or any object with ``dtd`` and
    the schema-trait attributes).  When given, ``dtd`` may be omitted; the
    per-schema classification is reused and the routing decision is cached
    on the record's plan cache instead of being re-derived per call.

    The query is canonicalized first (every plan's first rewrite pass)
    and planned on the canonical form's features, as the batch engine
    plans.  ``plan`` short-circuits planning with an already-computed
    :class:`~repro.sat.planner.Plan` (it must have been built for the
    canonical form's feature signature and this schema's class).

    A question nested past the interpreter's recursion limit raises
    :class:`~repro.errors.ReproError` with the text the batch engine
    gives such a job (``query nests too deeply (...)``).
    """
    if dtd is None and artifacts is not None:
        dtd = artifacts.dtd
    try:
        canonical = canonicalize(query)
        if plan is None:
            plan = DEFAULT_PLANNER.plan_for(
                features_of(canonical), artifacts=artifacts, dtd=dtd
            )
        return execute_plan(plan, canonical, dtd, bounds, pre_canonicalized=True)
    except RecursionError as error:
        raise ReproError(job_error_text(error)) from error


__doc__ = (__doc__ or "") + "\n" + routing_table() + "\n"
