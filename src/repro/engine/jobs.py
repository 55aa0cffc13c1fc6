"""JSONL job and result serialization for the batch engine.

A **job file** is one JSON object per line::

    {"query": "product[price and quote]", "schema": "catalog"}
    {"query": "A[not(B)]"}                          # no DTD
    {"id": "q-17", "query": "A//B", "schema": "docs"}

``schema`` references a name registered with the engine's
:class:`repro.engine.registry.SchemaRegistry` (or a full fingerprint).
A **result file** mirrors the jobs, one
:meth:`repro.engine.batch.JobResult.to_record` object per line.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator

from repro.errors import EngineError
from repro.engine.batch import BatchReport, Job


def parse_job_line(line: str, line_number: int = 0) -> Job:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as error:
        # ValueError: a decode error, or an integer past the interpreter's
        # digit limit; RecursionError: arrays or objects nested too deeply
        raise EngineError(f"jobs line {line_number}: invalid JSON ({error})") from None
    if not isinstance(record, dict):
        raise EngineError(f"jobs line {line_number}: expected an object, got {record!r}")
    try:
        return Job.coerce(record)
    except EngineError as error:
        raise EngineError(f"jobs line {line_number}: {error}") from None


def read_jobs(source: IO[str] | Iterable[str]) -> Iterator[Job]:
    """Yield jobs from an open file (or any iterable of JSONL lines);
    blank lines and ``#`` comment lines are skipped."""
    for line_number, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_job_line(line, line_number)


def read_jobs_file(path: str) -> list[Job]:
    with open(path) as handle:
        return list(read_jobs(handle))


def write_results(handle: IO[str], report: BatchReport) -> None:
    """Write one JSON object per job result."""
    for result in report.results:
        handle.write(json.dumps(result.to_record(), sort_keys=True) + "\n")


def write_results_file(path: str, report: BatchReport) -> None:
    with open(path, "w") as handle:
        write_results(handle, report)


def write_jobs_file(path: str, jobs: Iterable[Job | dict]) -> int:
    """Write jobs as JSONL; returns the number written."""
    count = 0
    with open(path, "w") as handle:
        for job in jobs:
            job = Job.coerce(job) if not isinstance(job, Job) else job
            record = {"query": job.query_text}
            if job.schema is not None:
                record["schema"] = job.schema
            if job.id is not None:
                record["id"] = job.id
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count
