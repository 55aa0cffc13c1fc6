"""Shared infrastructure for the benchmark harnesses.

Each benchmark regenerates one of the paper's tables/figures (see
DESIGN.md Section 4).  Timing goes through pytest-benchmark; the
regenerated table *rows* are registered through the ``report`` fixture and
printed in the terminal summary (so they survive output capturing), as
well as written to ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import os
import random
import statistics

import pytest

_REPORTS: dict[str, str] = {}
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    widths = [len(h) for h in headers]
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def timing_summary(trial_ms: list[float]) -> dict:
    """Median, min and interquartile range of per-trial milliseconds,
    with the trials themselves, as the kernel harnesses record them
    (one trial, as in a quick mode, has an IQR of 0)."""
    quartiles = (
        statistics.quantiles(trial_ms, n=4, method="inclusive")
        if len(trial_ms) > 1 else trial_ms * 3
    )
    return {
        "median": round(statistics.median(trial_ms), 4),
        "min": round(min(trial_ms), 4),
        "iqr": round(quartiles[2] - quartiles[0], 4),
        "trials": [round(ms, 4) for ms in trial_ms],
    }


@pytest.fixture
def report():
    """Register a named report section: ``report(name, text)``.
    ``save=False`` prints it without writing ``<name>.txt`` (for a
    harness whose text file is committed from its full mode)."""

    def _register(name: str, text: str, save: bool = True) -> None:
        _REPORTS[name] = text
        if not save:
            return
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        path = os.path.join(_RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")

    return _register


@pytest.fixture
def rng():
    return random.Random(20250611)


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("paper table/figure regenerations")
    for name in sorted(_REPORTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {name} ---")
        for line in _REPORTS[name].splitlines():
            terminalreporter.write_line(line)
