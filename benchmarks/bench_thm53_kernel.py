"""The Theorem 5.3 kernel, timed directly on the pooled EXPTIME workload.

Not a paper figure: this harness times :func:`sat_exptime_types` alone,
with no engine around it, on the question shape of the repository
benchmark's ``fresh_exptime`` workload.  The questions are drawn with
:func:`repro.workloads.batch.batch_jobs` over the two fixed 48-type
``random_dtd`` schemas (seeds 11 and 12), from the ``REC_NEG_DOWN`` and
``REC_NEG_DOWN_UNION`` fragments, distinct per ``(schema, query)``.  Each
question is parsed and canonicalized outside the timed loop, the way the
engine's lanes hand it to the kernel, and each schema's ``prepare``
context is built once, the way the lanes keep it warm.

Each trial decides every question once.  The headline column times the
plain call, one question at a time: it reads only the verdict, so no
witness tree is realized (``ms_per_question_verdict`` in the JSON).  The
second column times the same call plus a read of the result's
``.witness``, which realizes the tree, as a caller of library
``decide()`` that reads it does (``ms_per_question``, the key's meaning
since the harness began).  The third, *joint*, decides the same
questions the way the engine's lanes do: each schema's questions, in
stream order, in chunks of ``DEFAULT_GROUP_CHUNK_SIZE``, one
:func:`sat_exptime_types_joint` call per chunk (a chunk whose union of
closures passes ``max_facts`` is decided one question at a time, as the
lanes do).  Its verdicts must equal the one-at-a-time trial's, and the
verdicts of joint calls of every size in ``CHECKED_SIZES`` are checked
the same way, untimed (the ``joint`` object in the JSON: its timing,
its ``speedup`` over the headline column, and ``types_per_fixpoint``).
The harness runs ``TRIALS`` trials of each, alternating, and reports
the median, min and interquartile range of the milliseconds per
question, with the mean number of label searches per question decided
alone (the ``searches`` stat), the number of labels each schema's root
reaches (``reachable_labels``: the kernel searches only those) and the
host's core count and Python version.  Full mode decides 1,500
questions and writes ``benchmarks/results/BENCH_thm53_kernel.json``.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) decides 200 questions.
Its only bar, in both modes, is a count: fewer than twice the larger
root-reachable label count (``2 × 26 = 52``) label searches per
question.  A worklist that searches only reachable labels meets it
(about 33); one that searches all 48 labels (about 60) does not, nor
does a round-based fixpoint (every label re-extended every round, about
280).  No timing bar is asserted.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_thm53_kernel.py -q``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time

from benchmarks.conftest import format_table, timing_summary
from repro.dtd import random_dtd
from repro.dtd.graph import DTDGraph
from repro.engine.batch import DEFAULT_GROUP_CHUNK_SIZE
from repro.errors import ReproError
from repro.sat.exptime_types import (
    prepare_types,
    sat_exptime_types,
    sat_exptime_types_joint,
)
from repro.workloads.batch import batch_jobs
from repro.xpath import parse_query
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import REC_NEG_DOWN, REC_NEG_DOWN_UNION

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
QUESTIONS = 200 if QUICK else 1500
TRIALS = 5
SCHEMA_SEEDS = (11, 12)
SCHEMA_TYPES = 48
QUESTION_SEED = 20250611
#: joint-call sizes whose verdicts are checked against one at a time
CHECKED_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 16)

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def kernel_questions(count: int = QUESTIONS):
    """``count`` distinct ``(dtd, canonical query)`` questions and the
    prepared context of every schema."""
    schemas = {
        f"g{index}": random_dtd(random.Random(seed), n_types=SCHEMA_TYPES)
        for index, seed in enumerate(SCHEMA_SEEDS, start=1)
    }
    rng = random.Random(QUESTION_SEED)
    seen: set[tuple[str, str]] = set()
    questions = []
    while len(questions) < count:
        for job in batch_jobs(
            rng, schemas, count, fragments=(REC_NEG_DOWN, REC_NEG_DOWN_UNION),
            duplicate_rate=0.0,
        ):
            key = (job.schema, job.query)
            if key in seen or len(questions) >= count:
                continue
            seen.add(key)
            questions.append((job.schema, canonicalize(parse_query(job.query))))
    contexts = {name: prepare_types(dtd) for name, dtd in schemas.items()}
    return schemas, contexts, questions


def decide_all(schemas, contexts, questions, read_witness):
    """One trial: ``(seconds, per-question stats or None when declined)``.
    ``read_witness`` reads each result's ``.witness`` too."""
    outcomes = []
    start = time.perf_counter()
    for schema, query in questions:
        try:
            result = sat_exptime_types(query, schemas[schema], context=contexts[schema])
            if read_witness:
                result.witness  # the first read builds the tree
        except ReproError:
            outcomes.append(None)
        else:
            outcomes.append((result.satisfiable, result.stats))
    return time.perf_counter() - start, outcomes


def stream_chunks(questions, size: int) -> list[tuple[str, list[int]]]:
    """Each schema's question indices, in stream order, cut into chunks
    of ``size``: the chunks the engine sends its lanes."""
    per_schema: dict[str, list[int]] = {}
    for index, (schema, _query) in enumerate(questions):
        per_schema.setdefault(schema, []).append(index)
    return [
        (schema, indices[start:start + size])
        for schema, indices in per_schema.items()
        for start in range(0, len(indices), size)
    ]


def decide_chunked(schemas, contexts, questions, chunks):
    """One joint trial: ``(seconds, verdicts, types per joint
    fixpoint)``, a verdict ``None`` when its question declined."""
    verdicts: list[bool | None] = [None] * len(questions)
    types: list[int] = []
    start = time.perf_counter()
    for schema, indices in chunks:
        dtd, context = schemas[schema], contexts[schema]
        try:
            results = sat_exptime_types_joint(
                [questions[index][1] for index in indices], dtd, context=context
            )
        except ReproError:
            # the union passed max_facts: one at a time, as the lanes do
            results = []
            for index in indices:
                try:
                    results.append(
                        sat_exptime_types(questions[index][1], dtd, context=context)
                    )
                except ReproError:
                    results.append(None)
        else:
            types.append(results[0].stats["types"])
        for index, result in zip(indices, results):
            if result is not None:
                verdicts[index] = result.satisfiable
    return time.perf_counter() - start, verdicts, types


def test_thm53_kernel(report):
    schemas, contexts, questions = kernel_questions()
    chunks = stream_chunks(questions, DEFAULT_GROUP_CHUNK_SIZE)
    verdict_ms: list[float] = []
    witness_ms: list[float] = []
    joint_ms: list[float] = []
    outcomes = None
    for _ in range(TRIALS):
        for read_witness, sink in ((False, verdict_ms), (True, witness_ms)):
            seconds, trial = decide_all(schemas, contexts, questions, read_witness)
            sink.append(seconds * 1e3 / len(questions))
            if outcomes is None:
                outcomes = trial
            assert trial == outcomes, "the kernel is not deterministic"
        seconds, joint_verdicts, joint_types = decide_chunked(
            schemas, contexts, questions, chunks
        )
        joint_ms.append(seconds * 1e3 / len(questions))
    alone = [None if outcome is None else outcome[0] for outcome in outcomes]
    assert joint_verdicts == alone, "a joint verdict differs from one at a time"
    for size in CHECKED_SIZES:
        _seconds, verdicts, _types = decide_chunked(
            schemas, contexts, questions, stream_chunks(questions, size)
        )
        assert verdicts == alone, f"a joint verdict differs at chunk size {size}"

    decided = [outcome for outcome in outcomes if outcome is not None]
    searches = statistics.fmean(stats["searches"] for _, stats in decided)
    # the kernel should search only the labels a schema's root reaches
    reachable = {
        name: len(DTDGraph(dtd).reachable_from_root) for name, dtd in schemas.items()
    }
    # the count bar: a worklist runs each searched label about once, plus
    # re-runs inside recursive cycles; twice the label count is the ceiling
    searches_bar = 2 * max(reachable.values())
    types = statistics.fmean(stats["types"] for _, stats in decided)
    payload = {
        "benchmark": "thm53_kernel",
        "quick": QUICK,
        "cpu_cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "questions": len(questions),
        "trials": TRIALS,
        "ms_per_question": timing_summary(witness_ms),
        "ms_per_question_verdict": timing_summary(verdict_ms),
        "searches_per_question": round(searches, 2),
        "searches_bar": searches_bar,
        "reachable_labels": reachable,
        "types_per_question": round(types, 2),
        "sat": sum(1 for verdict, _ in decided if verdict),
        "unsat": sum(1 for verdict, _ in decided if verdict is False),
        "declined": len(outcomes) - len(decided),
        "joint": {
            "chunk_size": DEFAULT_GROUP_CHUNK_SIZE,
            "ms_per_question": timing_summary(joint_ms),
            "speedup": round(
                statistics.median(verdict_ms) / statistics.median(joint_ms), 2
            ),
            "fixpoints": len(joint_types),
            "chunks": len(chunks),
            "types_per_fixpoint": round(statistics.fmean(joint_types), 2),
            "checked_sizes": list(CHECKED_SIZES),
        },
    }
    timing = payload["ms_per_question_verdict"]
    joint = payload["joint"]
    report("thm53_kernel", format_table(
        ["questions", "ms/question median", "min", "IQR", "with witness",
         "reachable labels", "searches/question", "bar", "types/question",
         "sat", "unsat", "declined"],
        [[
            payload["questions"], timing["median"], timing["min"], timing["iqr"],
            payload["ms_per_question"]["median"],
            " ".join(f"{name}:{count}" for name, count in reachable.items()),
            payload["searches_per_question"], searches_bar,
            payload["types_per_question"],
            payload["sat"], payload["unsat"], payload["declined"],
        ]],
    ) + "\n\n" + format_table(
        ["joint chunk size", "ms/question median", "min", "IQR", "speedup",
         "joint fixpoints", "types/fixpoint", "checked sizes"],
        [[
            joint["chunk_size"], joint["ms_per_question"]["median"],
            joint["ms_per_question"]["min"], joint["ms_per_question"]["iqr"],
            joint["speedup"], f"{joint['fixpoints']} of {joint['chunks']}",
            joint["types_per_fixpoint"],
            " ".join(str(size) for size in CHECKED_SIZES),
        ]],
    ))
    if not QUICK:
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        with open(os.path.join(_RESULTS_DIR, "BENCH_thm53_kernel.json"), "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert searches < searches_bar, (
        f"{searches:.1f} label searches per question (bar {searches_bar})"
    )
