"""Schema registry: DTD fingerprinting and per-schema artifact caching.

``decide()`` treats every call as independent: it re-classifies the DTD
(disjunction-freeness, recursion, ...) on every query.  A production
checker sees millions of queries against a handful of schemas, so the
registry runs the expensive ``repro.dtd`` pipeline **once per schema** and
hands the precomputed record to the dispatcher through the ``artifacts``
hook of :func:`repro.sat.dispatch.decide`.

A schema is identified by a **fingerprint** — a content hash of the
canonical rendering produced by :meth:`repro.dtd.model.DTD.describe`
(root first, element types alphabetical; it round-trips through
:func:`repro.dtd.parser.parse_dtd`).  Registering the same content twice,
even under different names, shares one artifact record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.dtd.normalize import NormalizationResult, normalize
from repro.dtd.parser import parse_dtd
from repro.dtd.properties import classify
from repro.errors import EngineError
from repro.sat.planner import Plan


def schema_fingerprint(dtd: DTD) -> str:
    """Stable content hash of a DTD (independent of how it was written:
    whitespace, comments, and declaration order do not matter)."""
    return hashlib.sha256(dtd.describe().encode("utf-8")).hexdigest()


@dataclass
class SchemaArtifacts:
    """Everything the engine precomputes for one schema.

    ``classification`` (and the termination check) runs at registration
    time — the dispatcher and the engine's routing consult it on every
    query.  ``graph`` and ``normalized`` are built on first use and then
    cached for the schema's lifetime (they serve registry *clients* —
    workload generators, audits — not the dispatch hot path).

    ``plan_cache`` holds the query planner's routing decisions for this
    schema, keyed by feature signature: the first query of each fragment
    shape pays for planning (one registry scan), every later query —
    across batches, engines, and plain ``decide(..., artifacts=)`` calls —
    reuses the cached :class:`~repro.sat.planner.Plan`.
    """

    name: str
    fingerprint: str
    dtd: DTD
    classification: dict[str, bool] = field(init=False)
    plan_cache: dict[str, "Plan"] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.dtd.require_terminating()
        self.classification = classify(self.dtd)

    @cached_property
    def graph(self) -> DTDGraph:
        """The dependency graph ``G_D`` (computed once, on demand)."""
        return DTDGraph(self.dtd)

    @property
    def disjunction_free(self) -> bool:
        return self.classification["disjunction_free"]

    @property
    def nonrecursive(self) -> bool:
        return self.classification["nonrecursive"]

    @cached_property
    def normalized(self) -> NormalizationResult:
        """Proposition 3.3 normal form ``N(D)`` (computed once, on demand)."""
        return normalize(self.dtd)

    @property
    def short_fingerprint(self) -> str:
        return self.fingerprint[:12]

    def describe(self) -> str:
        classes = ", ".join(name for name, value in self.classification.items() if value)
        return (
            f"{self.name} [{self.short_fingerprint}] "
            f"|D|={self.dtd.size()}, {len(self.dtd.element_types)} types"
            + (f" ({classes})" if classes else "")
        )


class SchemaRegistry:
    """Named, fingerprint-deduplicated collection of schema artifacts."""

    def __init__(self) -> None:
        self._by_name: dict[str, SchemaArtifacts] = {}
        self._by_fingerprint: dict[str, SchemaArtifacts] = {}
        self._pending_plans: dict[str, dict[str, Plan]] = {}
        self._pending_names: dict[str, str] = {}
        self.builds = 0            # artifact pipelines actually run
        self.dedup_hits = 0        # registrations resolved to an existing record
        self.persisted_plans = 0   # plans adopted from a persisted state dir

    # -- registration -------------------------------------------------------
    def register(self, name: str, schema: DTD | str) -> SchemaArtifacts:
        """Register a schema under ``name``; ``schema`` is a parsed
        :class:`DTD` or the textual syntax.  Content already registered
        (under any name) reuses the existing artifact record."""
        dtd = parse_dtd(schema) if isinstance(schema, str) else schema
        fingerprint = schema_fingerprint(dtd)
        artifacts = self._by_fingerprint.get(fingerprint)
        if artifacts is None:
            artifacts = SchemaArtifacts(name=name, fingerprint=fingerprint, dtd=dtd)
            self._by_fingerprint[fingerprint] = artifacts
            self.builds += 1
            self._apply_pending_plans(artifacts)
        else:
            self.dedup_hits += 1
        self._by_name[name] = artifacts
        return artifacts

    # -- persisted plans ----------------------------------------------------
    def adopt_plans(
        self,
        plans_by_fingerprint: dict[str, dict[str, Plan]],
        names: dict[str, str] | None = None,
    ) -> int:
        """Warm plan caches from persisted state (``--state-dir``): plans
        for already-registered schemas are applied immediately, the rest
        wait for their schema's registration.  Existing cache entries
        win.  A persisted plan is adopted as it was saved: one an older
        version reordered or routed by measured cost runs the same
        chain members, so it gives the same answers.  Returns the number
        of plans applied right away."""
        applied = 0
        for fingerprint, per_schema in plans_by_fingerprint.items():
            pending = self._pending_plans.setdefault(fingerprint, {})
            pending.update(per_schema)
            if names and fingerprint in names:
                self._pending_names[fingerprint] = names[fingerprint]
            artifacts = self._by_fingerprint.get(fingerprint)
            if artifacts is not None:
                applied += self._apply_pending_plans(artifacts)
        return applied

    def pending_plan_records(self) -> dict[str, tuple[str, dict[str, Plan]]]:
        """Adopted plans whose schema was never registered this run, as
        ``fingerprint -> (last known name, plans)``.  State persistence
        writes these back so alternating workloads sharing one state dir
        do not erase each other's warm plans."""
        return {
            fingerprint: (
                self._pending_names.get(fingerprint, "(unregistered)"),
                dict(per_schema),
            )
            for fingerprint, per_schema in self._pending_plans.items()
            if per_schema
        }

    def plan_records(self) -> dict[str, tuple[str, dict[str, Plan]]]:
        """Every plan worth persisting, as ``fingerprint -> (name,
        signature -> Plan)``: the live per-schema plan caches plus the
        adopted-but-unapplied plans of schemas never registered this run
        (:meth:`pending_plan_records`) — what the state tier
        serializes."""
        records: dict[str, tuple[str, dict[str, Plan]]] = {}
        for artifacts in self:
            if artifacts.plan_cache:
                records[artifacts.fingerprint] = (
                    artifacts.name, dict(artifacts.plan_cache)
                )
        for fingerprint, entry in self.pending_plan_records().items():
            records.setdefault(fingerprint, entry)
        return records

    def _apply_pending_plans(self, artifacts: SchemaArtifacts) -> int:
        pending = self._pending_plans.pop(artifacts.fingerprint, None)
        if not pending:
            return 0
        applied = 0
        for signature, plan in pending.items():
            if signature not in artifacts.plan_cache:
                artifacts.plan_cache[signature] = plan
                applied += 1
        self.persisted_plans += applied
        return applied

    def register_file(self, name: str, path: str) -> SchemaArtifacts:
        with open(path) as handle:
            return self.register(name, handle.read())

    # -- lookup -------------------------------------------------------------
    def get(self, ref: str) -> SchemaArtifacts:
        """Resolve a schema reference: a registered name or a (full)
        fingerprint; raises :class:`EngineError` when unknown."""
        artifacts = self._by_name.get(ref) or self._by_fingerprint.get(ref)
        if artifacts is None:
            known = ", ".join(sorted(self._by_name)) or "(none)"
            raise EngineError(f"unknown schema {ref!r}; registered: {known}")
        return artifacts

    def __contains__(self, ref: str) -> bool:
        return ref in self._by_name or ref in self._by_fingerprint

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def __iter__(self) -> Iterator[SchemaArtifacts]:
        return iter(self._by_fingerprint.values())

    @property
    def names(self) -> list[str]:
        return sorted(self._by_name)

    def stats(self) -> dict[str, int]:
        return {
            "schemas": len(self._by_fingerprint),
            "names": len(self._by_name),
            "builds": self.builds,
            "dedup_hits": self.dedup_hits,
            "plans": sum(
                len(artifacts.plan_cache)
                for artifacts in self._by_fingerprint.values()
            ),
            "persisted_plans": self.persisted_plans,
        }
