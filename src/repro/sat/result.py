"""The result type shared by all satisfiability deciders."""

from __future__ import annotations

from typing import Any, Callable

from repro.xmltree.model import XMLTree


class SatResult:
    """Outcome of a satisfiability check.

    Attributes
    ----------
    satisfiable:
        ``True`` (a witness exists), ``False`` (proven unsatisfiable), or
        ``None`` — the procedure was a bounded semi-decision and exhausted
        its bounds without an answer (never a proof of unsatisfiability).
    method:
        Which algorithm produced the answer (e.g. ``"thm4.1-reach"``).
    witness:
        A conforming tree satisfying the query, when ``satisfiable``.  A
        decider that reads its tree off its tables after deciding passes
        the constructor a zero-argument callable instead: the first read
        of ``.witness`` runs it once and keeps the tree, so a caller that
        wants only the verdict (the batch engine) never builds one.  Until
        then the result keeps the decider's tables alive, and an error in
        the builder surfaces on that first read.
    reason:
        Free-text explanation (used mostly by ``None`` results).
    stats:
        Algorithm-specific counters (table sizes, trees enumerated, ...).
    """

    __slots__ = ("satisfiable", "method", "reason", "stats", "_witness")

    def __init__(
        self,
        satisfiable: bool | None,
        method: str,
        witness: XMLTree | Callable[[], XMLTree | None] | None = None,
        reason: str = "",
        stats: dict[str, Any] | None = None,
    ) -> None:
        self.satisfiable = satisfiable
        self.method = method
        self._witness = witness
        self.reason = reason
        self.stats = {} if stats is None else stats

    @property
    def witness(self) -> XMLTree | None:
        witness = self._witness
        if callable(witness):
            witness = self._witness = witness()
        return witness

    @property
    def is_sat(self) -> bool:
        return self.satisfiable is True

    @property
    def is_unsat(self) -> bool:
        return self.satisfiable is False

    @property
    def unknown(self) -> bool:
        return self.satisfiable is None

    def __bool__(self) -> bool:
        if self.satisfiable is None:
            raise ValueError(
                f"{self.method} could not decide ({self.reason}); "
                "check .satisfiable explicitly for three-valued results"
            )
        return self.satisfiable

    def __repr__(self) -> str:
        # an unread witness stays unbuilt
        witness = "<unread>" if callable(self._witness) else repr(self._witness)
        return (
            f"SatResult(satisfiable={self.satisfiable!r}, method={self.method!r}, "
            f"witness={witness}, reason={self.reason!r}, stats={self.stats!r})"
        )

    def describe(self) -> str:
        verdict = {True: "SAT", False: "UNSAT", None: "UNKNOWN"}[self.satisfiable]
        parts = [f"{verdict} [{self.method}]"]
        if self.reason:
            parts.append(self.reason)
        if self.witness is not None:
            parts.append(f"witness has {len(self.witness)} nodes")
        return "; ".join(parts)
