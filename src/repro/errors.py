"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when a textual query, content model, or DTD cannot be parsed.

    Attributes
    ----------
    text:
        The input being parsed.
    position:
        Character offset at which parsing failed, or ``None`` if unknown.
    """

    def __init__(self, message: str, text: str | None = None, position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position is not None and self.text is not None:
            snippet = self.text[max(0, self.position - 15):self.position + 15]
            return f"{base} (at offset {self.position}, near {snippet!r})"
        return base


class DTDError(ReproError):
    """Raised for ill-formed DTDs (unknown types, missing root, ...)."""


class ValidationError(ReproError):
    """Raised when an XML tree does not conform to a DTD and the caller
    requested an exception rather than a boolean answer."""


class FragmentError(ReproError):
    """Raised when a query lies outside the fragment a decider supports."""


class UnsupportedQueryError(FragmentError):
    """Raised when a decision procedure is handed a query shape it cannot
    process even within its fragment (e.g. a sibling-fragment query that does
    not start with a label step)."""


class EngineError(ReproError):
    """Raised by the batch decision engine for configuration problems
    (unknown schema references, malformed job records, ...)."""


class BoundsExhausted(ReproError):
    """Raised (or recorded) when a bounded semi-decision procedure exhausted
    its search bounds without finding a model.  This is *not* a proof of
    unsatisfiability; see ``sat.bounded``."""


def job_error_text(error: BaseException) -> str:
    """The error text a failed batch job carries, the same whether the
    job failed at intake or while deciding, in-process or on a worker
    lane: a query nested past the interpreter's recursion limit reads
    ``query nests too deeply (...)``, any other error its message."""
    if isinstance(error, RecursionError):
        return f"query nests too deeply ({error})"
    return str(error)
