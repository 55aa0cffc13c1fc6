"""The arXiv:1308.0769 decider, timed directly on the real-world workload.

Not a paper figure: this harness times :func:`sat_realworld` alone, with
no engine around it, on the question shape of the repository
benchmark's ``fresh_realworld`` workload.  The questions are drawn with
:func:`repro.workloads.batch.batch_jobs` over the XHTML/DocBook/RSS-like
corpus (:func:`repro.workloads.realworld.realworld_schemas`), from the
``DOWNWARD_QUAL`` and ``CHILD_UP`` fragments, distinct per ``(schema,
query)``, and the questions the :class:`~repro.sat.Planner` routes to
``realworld`` are kept.  Each question is parsed, canonicalized and put
through its plan's rewrite passes outside the timed loop, so the
decider gets what the engine hands it; a question whose upward rewrite
climbs above the root never reaches a decider and is skipped.  Each
schema's ``prepare_realworld`` context is built once, the way the engine
keeps it warm.

The same draw's questions that the planner routes to ``downward`` (the
Thm 4.1 reach program, about a quarter of the workload's jobs) are timed
too, with :func:`sat_downward` on each schema's prepared
:class:`~repro.sat.downward.ReachTables`.

The headline column times the plain call, which is what the engine
makes: it reads only the verdict, so no witness tree is built
(``ms_per_question_verdict`` in the JSON).  The second column times the
same call plus a read of the result's ``.witness``, which builds the
tree, as a caller of library ``decide()`` that reads it does
(``ms_per_question``, the key's meaning since the harness began).  The
harness runs ``TRIALS`` trials of each, alternating, and reports the
median, min and interquartile range of the milliseconds per question,
with the mean ``steps`` stat per decided ``realworld`` question, the
sat/unsat/declined counts and the host's core count and Python version.
Full mode decides 1,500 ``realworld`` questions and writes
``benchmarks/results/BENCH_realworld_kernel.json``.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) decides 200 ``realworld``
questions.  Its only bar, in both modes, is that no question declines:
the budgets sit far above this traffic.  No timing bar is asserted.

The harness uses only the public ``sat_realworld``, ``prepare_realworld``,
``sat_downward`` and ``ReachTables``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_realworld_kernel.py -q``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time

from benchmarks.conftest import format_table, timing_summary
from repro.engine import SchemaRegistry
from repro.errors import ReproError
from repro.sat import Planner
from repro.sat.downward import ReachTables, sat_downward
from repro.sat.realworld import prepare_realworld, sat_realworld
from repro.workloads.batch import batch_jobs
from repro.workloads.realworld import realworld_schemas
from repro.xpath import parse_query
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import CHILD_UP, DOWNWARD_QUAL
from repro.xpath.rewrite import get_pass

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
QUESTIONS = 200 if QUICK else 1500
TRIALS = 5
QUESTION_SEED = 20130803

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def kernel_questions(count: int = QUESTIONS):
    """``count`` distinct ``(schema name, rewritten query)`` questions the
    planner routes to ``realworld``, the corpus, and the prepared context
    of every schema."""
    schemas, contexts, questions, _downward = _draw(count)
    return schemas, contexts, questions


def _draw(count: int):
    """:func:`kernel_questions`' draw, plus the ``(schema name, rewritten
    query)`` questions of the same draw that the planner routes to
    ``downward``."""
    schemas = realworld_schemas()
    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    planner = Planner()
    rng = random.Random(QUESTION_SEED)
    seen: set[tuple[str, str]] = set()
    questions = []
    downward = []
    while len(questions) < count:
        for job in batch_jobs(
            rng, schemas, count, fragments=(DOWNWARD_QUAL, CHILD_UP),
            duplicate_rate=0.0,
        ):
            key = (job.schema, job.query)
            if key in seen or len(questions) >= count:
                continue
            seen.add(key)
            parsed = parse_query(job.query)
            plan = planner.plan_query(parsed, artifacts=registry.get(job.schema))
            if plan.decider not in ("realworld", "downward"):
                continue
            query = canonicalize(parsed)
            for name in plan.rewrites:
                if name == "canonicalize":
                    continue
                outcome = get_pass(name).run(query)
                if not outcome.complete:
                    query = None
                    break
                query = outcome.path
            if query is None:
                continue
            if plan.decider == "realworld":
                questions.append((job.schema, query))
            else:
                downward.append((job.schema, query))
    contexts = {name: prepare_realworld(dtd) for name, dtd in schemas.items()}
    return schemas, contexts, questions, downward


def decide_all(schemas, contexts, questions, read_witness, decider=sat_realworld):
    """One trial: ``(seconds, per-question (verdict, stats) or None when
    declined)``.  ``read_witness`` reads each result's ``.witness`` too."""
    outcomes = []
    start = time.perf_counter()
    for schema, query in questions:
        try:
            result = decider(query, schemas[schema], contexts[schema])
            if read_witness:
                result.witness  # the first read builds the tree
        except ReproError:
            outcomes.append(None)
        else:
            outcomes.append((result.satisfiable, result.stats))
    return time.perf_counter() - start, outcomes


def _trials(schemas, contexts, questions, decider):
    """``TRIALS`` alternating verdict-only and witness trials: the two
    ms-per-question lists and the outcomes (equal in every trial)."""
    verdict_ms: list[float] = []
    witness_ms: list[float] = []
    outcomes = None
    for _ in range(TRIALS):
        for read_witness, sink in ((False, verdict_ms), (True, witness_ms)):
            seconds, trial = decide_all(
                schemas, contexts, questions, read_witness, decider=decider
            )
            sink.append(seconds * 1e3 / max(1, len(questions)))
            if outcomes is None:
                outcomes = trial
            assert trial == outcomes, "the decider is not deterministic"
    return verdict_ms, witness_ms, outcomes


def test_realworld_kernel(report):
    schemas, contexts, questions, downward = _draw(QUESTIONS)
    verdict_ms, witness_ms, outcomes = _trials(
        schemas, contexts, questions, sat_realworld
    )
    reach_tables = {name: ReachTables(dtd) for name, dtd in schemas.items()}
    down_verdict_ms, down_witness_ms, down_outcomes = _trials(
        schemas, reach_tables, downward, sat_downward
    )

    decided = [outcome for outcome in outcomes if outcome is not None]
    steps = statistics.fmean(stats["steps"] for _, stats in decided)
    payload = {
        "benchmark": "realworld_kernel",
        "quick": QUICK,
        "cpu_cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "questions": len(questions),
        "trials": TRIALS,
        "ms_per_question": timing_summary(witness_ms),
        "ms_per_question_verdict": timing_summary(verdict_ms),
        "steps_per_question": round(steps, 2),
        "sat": sum(1 for verdict, _ in decided if verdict),
        "unsat": sum(1 for verdict, _ in decided if verdict is False),
        "declined": len(outcomes) - len(decided),
        "downward": {
            "questions": len(downward),
            "ms_per_question": timing_summary(down_witness_ms),
            "ms_per_question_verdict": timing_summary(down_verdict_ms),
            "sat": sum(1 for verdict, _ in down_outcomes if verdict),
            "unsat": sum(1 for verdict, _ in down_outcomes if verdict is False),
        },
    }
    rows = []
    for name, record in (("realworld", payload), ("downward", payload["downward"])):
        verdict, witness = record["ms_per_question_verdict"], record["ms_per_question"]
        rows.append([
            name, record["questions"], verdict["median"], verdict["min"],
            verdict["iqr"], witness["median"], record["sat"], record["unsat"],
        ])
    report("realworld_kernel", format_table(
        ["decider", "questions", "ms/question median", "min", "IQR",
         "with witness", "sat", "unsat"],
        rows,
    ) + f"\nrealworld: {payload['steps_per_question']} steps/question, "
        f"{payload['declined']} declined")
    if not QUICK:
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        path = os.path.join(_RESULTS_DIR, "BENCH_realworld_kernel.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert payload["declined"] == 0, (
        f"{payload['declined']} of {len(questions)} questions declined"
    )
