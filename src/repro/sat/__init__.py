"""Satisfiability deciders — the paper's upper bounds, one module per
theorem.

============================  ======================================  ============
module                        fragment / setting                      theorem
============================  ======================================  ============
:mod:`repro.sat.downward`     ``X(↓,↓*,∪)`` under any DTD             Thm 4.1
:mod:`repro.sat.disjunction_free`  ``X(↓,↓*,∪,[])`` + ``X(↓,↑)``
                              under disjunction-free DTDs             Thm 6.8
:mod:`repro.sat.no_dtd`       ``X(↓,↓*,∪,[])`` without DTDs           Thm 6.11(1)
:mod:`repro.sat.conjunctive`  ``X(↓,↑,[],=)`` without DTDs            Thm 6.11(2)
:mod:`repro.sat.sibling`      ``X(→,←)`` under any DTD                Thm 7.1
:mod:`repro.sat.exptime_types`  ``X(↓,↓*,∪,[],¬)`` under any DTD      Thm 5.3 (downward case)
:mod:`repro.sat.bits`         integer-packed Glushkov kernels          —
:mod:`repro.sat.positive`     positive XPath (Thm 4.4)                Thm 4.4
:mod:`repro.sat.bounded`      bounded-model engine (semi-decision)    —
:mod:`repro.sat.family`       no-DTD via universal-DTD family         Prop 3.1
:mod:`repro.sat.registry`     decider capability descriptors          —
:mod:`repro.sat.planner`      declarative, cacheable decision plans   —
:mod:`repro.sat.dispatch`     automatic algorithm selection           —
============================  ======================================  ============

Every decider returns a :class:`repro.sat.result.SatResult`; when
satisfiable, the result carries a witness tree that re-validates against
the DTD and the query, built on the first read of ``.witness``.
"""

from repro.sat.result import SatResult
from repro.sat.registry import DeciderSpec, all_deciders, get_decider, routing_table
from repro.sat.downward import sat_downward
from repro.sat.disjunction_free import sat_disjunction_free
from repro.sat.no_dtd import sat_no_dtd
from repro.sat.conjunctive import sat_conjunctive_no_dtd
from repro.sat.sibling import sat_sibling
from repro.sat.exptime_types import sat_exptime_types
from repro.sat.positive import sat_positive
from repro.sat.bounded import Bounds, sat_bounded, iter_conforming_trees
from repro.sat.family import sat_universal_family
from repro.sat.planner import (
    DEFAULT_PLANNER,
    ExecutionTrace,
    Plan,
    Planner,
    SchemaContexts,
    build_plan,
    execute_plan,
)
from repro.sat.telemetry import PlanStats, PlanTelemetry
from repro.sat.dispatch import decide

__all__ = [
    "SatResult",
    "DeciderSpec",
    "all_deciders",
    "get_decider",
    "routing_table",
    "sat_downward",
    "sat_disjunction_free",
    "sat_no_dtd",
    "sat_conjunctive_no_dtd",
    "sat_sibling",
    "sat_exptime_types",
    "sat_positive",
    "sat_universal_family",
    "Bounds",
    "sat_bounded",
    "iter_conforming_trees",
    "DEFAULT_PLANNER",
    "ExecutionTrace",
    "Plan",
    "PlanStats",
    "PlanTelemetry",
    "Planner",
    "SchemaContexts",
    "build_plan",
    "execute_plan",
    "decide",
]
