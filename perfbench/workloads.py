"""Seeded inputs for the three benchmark workloads.

Every generator here is a pure function of the ``--seed`` argument (plus
fixed constants), so the same seed always yields the same jobs.  The
engine only ever sees the generated :class:`~repro.engine.batch.Job`
objects (or their JSONL lines, on the socket legs).

* ``repeat_hits`` (in-process and on its socket legs) draws from a fixed
  *pool* of a few hundred ``DOWNWARD``/``DOWNWARD_QUAL`` questions over
  small textual DTDs; each pool question has several text forms (the
  exact query plus canonicalization-equivalent syntactic variants), and
  the stream picks (question, form) pairs uniformly.
* ``fresh_realworld`` and ``fresh_exptime`` never repeat a query text:
  :class:`FreshStream` draws new questions and skips any text it has
  already produced (warm-up questions included).
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.dtd import parse_dtd
from repro.dtd.generator import random_dtd
from repro.dtd.model import DTD
from repro.engine.batch import Job
from repro.workloads.batch import batch_jobs, syntactic_variant
from repro.workloads.realworld import realworld_schemas
from repro.xpath.fragments import (
    CHILD_UP,
    DOWNWARD,
    DOWNWARD_QUAL,
    REC_NEG_DOWN,
    REC_NEG_DOWN_UNION,
)
from repro.xpath.parser import parse_query

#: the small, nonrecursive schemas behind the cache-hit workloads (their
#: trees are shallow enough for the brute-force oracle to check verdicts)
SMALL_SCHEMAS: dict[str, str] = {
    "catalog": """
root catalog
catalog -> header, (product + bundle)*
header -> title, note?
bundle -> name, product*
product -> name, price, tag*
title -> eps
note -> eps
name -> eps
price -> eps
tag -> eps
""",
    "memo": """
root memo
memo -> to, from, (body + attachment)
body -> para*
para -> emph + eps
attachment -> name, size?
to -> eps
from -> eps
emph -> eps
name -> eps
size -> eps
""",
    "feed": """
root feed
feed -> meta?, entry*
meta -> title
entry -> title, (summary + content)
content -> para*
title -> eps
summary -> eps
para -> eps
""",
    "inventory": """
root inventory
inventory -> site*
site -> address, item*
item -> sku, qty?
address -> eps
sku -> eps
qty -> eps
""",
}

POOL_SIZE = 300
FORMS_PER_QUESTION = 4
MICRO_BATCH = 64
#: disjoint fixed seeds: warm-up questions never depend on --seed, so
#: set-up does the same work on every run
WARMUP_SEED = 7_919
#: warm-up jobs each fresh workload's set-up decides
FRESH_WARMUP_JOBS = {"fresh_realworld": 256, "fresh_exptime": 128}
EXPTIME_SCHEMA_SEEDS = (11, 12)
EXPTIME_TYPES = 48


def small_schemas() -> dict[str, DTD]:
    return {name: parse_dtd(text) for name, text in SMALL_SCHEMAS.items()}


def exptime_schemas() -> dict[str, DTD]:
    """Two fixed random recursive DTDs of about 48 types (the questions,
    not the schemas, come from ``--seed``)."""
    return {
        f"g{index}": random_dtd(random.Random(seed), n_types=EXPTIME_TYPES)
        for index, seed in enumerate(EXPTIME_SCHEMA_SEEDS, start=1)
    }


@dataclass
class Pool:
    """A fixed set of distinct questions, each with several text forms."""

    schemas: dict[str, DTD]
    questions: list[tuple[str, str]]             # (schema, exact query text)
    forms: list[list[str]] = field(default_factory=list)

    def jobs(self) -> list[Job]:
        """One job per question (exact form): the set-up warm-up."""
        return [
            Job(query=text, schema=schema, id=f"pool-{index}")
            for index, (schema, text) in enumerate(self.questions)
        ]

    def stream(self, seed: int):
        """Endless ``(question index, form index)`` draws."""
        rng = random.Random(seed)
        count = len(self.questions)
        while True:
            yield rng.randrange(count), rng.randrange(FORMS_PER_QUESTION)


def question_pool(seed: int) -> Pool:
    schemas = small_schemas()
    rng = random.Random(seed)
    seen: set[tuple[str, str]] = set()
    questions: list[tuple[str, str]] = []
    while len(questions) < POOL_SIZE:
        for job in batch_jobs(
            rng, schemas, POOL_SIZE, fragments=(DOWNWARD, DOWNWARD_QUAL),
            duplicate_rate=0.0,
        ):
            key = (job.schema, job.query)
            if key not in seen and len(questions) < POOL_SIZE:
                seen.add(key)
                questions.append(key)
    forms = []
    for schema, text in questions:
        path = parse_query(text)
        forms.append(
            [text] + [
                str(syntactic_variant(rng, path))
                for _ in range(FORMS_PER_QUESTION - 1)
            ]
        )
    return Pool(schemas=schemas, questions=questions, forms=forms)


def pool_batches(pool: Pool, seed: int, size: int = MICRO_BATCH):
    """Endless micro-batches ``(jobs, question indices)`` over the pool."""
    draws = pool.stream(seed)
    sequence = 0
    while True:
        jobs, indices = [], []
        for _ in range(size):
            question, form = next(draws)
            sequence += 1
            jobs.append(Job(
                query=pool.forms[question][form],
                schema=pool.questions[question][0],
                id=str(sequence),
            ))
            indices.append(question)
        yield jobs, indices


def pool_lines(pool: Pool, seed: int):
    """Endless ``(id, question index, JSONL bytes)`` for the socket
    workloads; ids are unique per stream."""
    prefixes = [
        [
            json.dumps({"query": form, "schema": schema})[:-1]
            for form in pool.forms[index]
        ]
        for index, (schema, _text) in enumerate(pool.questions)
    ]
    sequence = 0
    for question, form in pool.stream(seed):
        sequence += 1
        job_id = str(sequence)
        line = f'{prefixes[question][form]}, "id": "{job_id}"}}\n'
        yield job_id, question, line.encode("utf-8")


class FreshStream:
    """Never-repeating questions over ``schemas``: every yielded query
    text is new for this stream (warm-up draws included)."""

    def __init__(self, schemas: dict[str, DTD], fragments) -> None:
        self.schemas = schemas
        self.fragments = fragments
        self.seen: set[tuple[str, str]] = set()
        self.questions: list[tuple[str, str]] = []

    def draw(self, rng: random.Random, count: int) -> list[int]:
        """Draw ``count`` new questions; returns their indices."""
        indices: list[int] = []
        while len(indices) < count:
            for job in batch_jobs(
                rng, self.schemas, count, fragments=self.fragments,
                duplicate_rate=0.0,
            ):
                key = (job.schema, job.query)
                if key in self.seen or len(indices) >= count:
                    continue
                self.seen.add(key)
                indices.append(len(self.questions))
                self.questions.append(key)
        return indices

    def jobs(self, indices: list[int]) -> list[Job]:
        return [
            Job(
                query=self.questions[index][1],
                schema=self.questions[index][0],
                id=str(index),
            )
            for index in indices
        ]

    def batches(self, seed: int, size: int = MICRO_BATCH):
        rng = random.Random(seed)
        while True:
            indices = self.draw(rng, size)
            yield self.jobs(indices), indices


def realworld_stream() -> FreshStream:
    return FreshStream(realworld_schemas(), (DOWNWARD_QUAL, CHILD_UP))


def exptime_stream() -> FreshStream:
    return FreshStream(exptime_schemas(), (REC_NEG_DOWN, REC_NEG_DOWN_UNION))


@dataclass
class Inputs:
    """Everything one in-process workload runs on."""

    workers: int
    schemas: dict[str, DTD]
    #: the jobs set-up decides before the engine takes traffic
    warmup: list[Job]
    #: endless micro-batches ``(jobs, question indices)``
    batches: Iterator[tuple[list[Job], list[int]]]
    #: ``(schema, query text)`` per question index (grows with a fresh stream)
    questions: list[tuple[str, str]]
    pool: Pool | None = None


def inputs(workload: str, seed: int) -> Inputs:
    if workload == "repeat_hits":
        pool = question_pool(seed)
        return Inputs(
            1, pool.schemas, pool.jobs(), pool_batches(pool, seed), pool.questions, pool
        )
    stream = realworld_stream() if workload == "fresh_realworld" else exptime_stream()
    warmup = stream.jobs(
        stream.draw(random.Random(WARMUP_SEED), FRESH_WARMUP_JOBS[workload])
    )
    workers = 2 if workload == "fresh_exptime" else 1
    return Inputs(
        workers, stream.schemas, warmup, stream.batches(seed), stream.questions
    )
