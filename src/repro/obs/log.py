"""Structured logging for the repro engine.

Everything under the ``repro`` logger namespace: state corruption
warnings (:mod:`repro.engine.statetier`), executor degrade events (lane
deaths and respawns, :mod:`repro.engine.executors`), and the slow-query
log's over-threshold notices.  Before this module those surfaced as
ad-hoc ``warnings`` lists the caller could silently drop; now they are
ordinary :mod:`logging` records a deployment can route, filter, and
timestamp like any other service log.

:func:`setup_logging` is what the CLI calls (``--log-level``); library
users may call it too, or attach their own handlers to the ``repro``
logger.  Without any setup, warnings still reach ``sys.stderr`` through
logging's last-resort handler — a corrupt state file is never silent.
"""

from __future__ import annotations

import logging
import sys

#: the root of the engine's logger namespace
ROOT_LOGGER = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


class _StderrHandler(logging.StreamHandler):
    """A stream handler bound to *current* ``sys.stderr`` at emit time.

    ``logging.StreamHandler()`` captures ``sys.stderr`` once, at
    construction — under pytest's ``capsys`` (or any stderr redirection)
    that reference goes stale and log output silently bypasses the
    capture.  Resolving the stream per record keeps CLI warnings visible
    wherever stderr currently points.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:  # StreamHandler's ctor assigns; ignore
        pass


def coerce_level(level: str | int) -> int:
    """``"debug"``/``"info"``/... (case-insensitive) or a numeric level."""
    if isinstance(level, int):
        return level
    try:
        return _LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r} (expected one of {sorted(_LEVELS)})"
        ) from None


def setup_logging(level: str | int = "warning", stream=None) -> logging.Logger:
    """Configure the ``repro`` logger: one handler writing to stderr (or
    ``stream``), idempotent — calling again replaces the handler this
    function installed, never ones attached by the embedding
    application."""
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(coerce_level(level))
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
    handler = _StderrHandler() if stream is None else logging.StreamHandler(stream)
    handler._repro_obs_handler = True
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    logger.addHandler(handler)
    return logger


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``get_logger("engine")``
    and ``get_logger("repro.engine")`` are the same logger)."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")
