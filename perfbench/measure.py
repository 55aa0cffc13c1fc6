"""What a timed phase records, and the figures it reports.

Jobs are recorded in compact arrays (latencies, question indices and
verdict codes), so the benchmark's own memory does not grow with the
throughput it measures.
"""

from __future__ import annotations

import statistics
from array import array
from dataclasses import dataclass, field

_CODES = {True: 1, False: 0, None: -1}
#: at most this many consecutive job windows, whose median p99 is
#: ``job_ms_p99``, each of at least ``TAIL_WINDOW_JOBS`` jobs so that ten
#: or more of its jobs lie beyond its p99
TAIL_WINDOWS = 10
TAIL_WINDOW_JOBS = 1000


def verdict_code(verdict: bool | None) -> int:
    return _CODES[verdict]


@dataclass
class Record:
    """Jobs answered during one phase, in completion order."""

    jobs: int = 0
    failed: int = 0
    #: the phase clock: engine time in-process, loop wall time on a socket
    seconds: float = 0.0
    latencies_ms: array = field(default_factory=lambda: array("d"))
    #: question index and verdict code of every answered job
    questions: array = field(default_factory=lambda: array("i"))
    verdicts: array = field(default_factory=lambda: array("b"))

    def answer(self, question: int, verdict: bool | None) -> None:
        self.questions.append(question)
        self.verdicts.append(_CODES[verdict])

    def answers(self):
        return zip(self.questions, self.verdicts)

    @property
    def jobs_per_s(self) -> float:
        return self.jobs / self.seconds if self.seconds else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "jobs_per_s": self.jobs_per_s,
            "job_ms_p50": percentile(self.latencies_ms, 0.5),
            "job_ms_p99": windowed_percentile(self.latencies_ms, 0.99),
        }


def windowed_percentile(values, q: float) -> float:
    """The median, over up to ``TAIL_WINDOWS`` equal runs of consecutive
    values, of each run's ``q``-quantile: a tail figure that a transient
    stall, confined to a few runs, cannot set."""
    windows = min(TAIL_WINDOWS, len(values) // TAIL_WINDOW_JOBS)
    if windows <= 1:
        return percentile(values, q)
    size = len(values) // windows
    return statistics.median(
        percentile(values[index * size:(index + 1) * size], q)
        for index in range(windows)
    )


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
