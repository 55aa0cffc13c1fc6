"""The arXiv:1308.0769 decider, timed directly on the real-world workload.

Not a paper figure: this harness times :func:`sat_realworld` alone, with
no engine around it, on the question shape of the repository
benchmark's ``fresh_realworld`` workload.  The questions are drawn with
:func:`repro.workloads.batch.batch_jobs` over the XHTML/DocBook/RSS-like
corpus (:func:`repro.workloads.realworld.realworld_schemas`), from the
``DOWNWARD_QUAL`` and ``CHILD_UP`` fragments, distinct per ``(schema,
query)``, and only the questions the :class:`~repro.sat.Planner` routes
to ``realworld`` are kept.  Each question is parsed, canonicalized and
put through its plan's rewrite passes outside the timed loop, so the
decider gets what the engine hands it; a question whose upward rewrite
climbs above the root never reaches a decider and is skipped.  Each
schema's ``prepare_realworld`` context is built once, the way the engine
keeps it warm.

Each trial decides every question once, witnesses included.  The
harness runs ``TRIALS`` trials and reports the median, min and
interquartile range of the milliseconds per question, with the mean
``steps`` stat per decided question, the sat/unsat/declined counts and
the host's core count and Python version.  Full mode decides 1,500
questions and writes ``benchmarks/results/BENCH_realworld_kernel.json``.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) decides 200 questions.
Its only bar, in both modes, is that no question declines: the budgets
sit far above this traffic.  No timing bar is asserted.

The harness uses only the public ``sat_realworld`` and
``prepare_realworld``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_realworld_kernel.py -q``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time

from benchmarks.conftest import format_table
from repro.engine import SchemaRegistry
from repro.errors import ReproError
from repro.sat import Planner
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
    schemas = realworld_schemas()
    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    planner = Planner()
    rng = random.Random(QUESTION_SEED)
    seen: set[tuple[str, str]] = set()
    questions = []
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
            if plan.decider != "realworld":
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
            if query is not None:
                questions.append((job.schema, query))
    contexts = {name: prepare_realworld(dtd) for name, dtd in schemas.items()}
    return schemas, contexts, questions


def decide_all(schemas, contexts, questions):
    """One trial: ``(seconds, per-question (verdict, stats) or None when
    declined)``."""
    outcomes = []
    start = time.perf_counter()
    for schema, query in questions:
        try:
            result = sat_realworld(query, schemas[schema], contexts[schema])
        except ReproError:
            outcomes.append(None)
        else:
            outcomes.append((result.satisfiable, result.stats))
    return time.perf_counter() - start, outcomes


def test_realworld_kernel(report):
    schemas, contexts, questions = kernel_questions()
    trial_ms = []
    outcomes = None
    for _ in range(TRIALS):
        seconds, trial = decide_all(schemas, contexts, questions)
        trial_ms.append(seconds * 1e3 / len(questions))
        if outcomes is None:
            outcomes = trial
        assert trial == outcomes, "the decider is not deterministic"

    decided = [outcome for outcome in outcomes if outcome is not None]
    steps = statistics.fmean(stats["steps"] for _, stats in decided)
    quartiles = statistics.quantiles(trial_ms, n=4, method="inclusive")
    payload = {
        "benchmark": "realworld_kernel",
        "quick": QUICK,
        "cpu_cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "questions": len(questions),
        "trials": TRIALS,
        "ms_per_question": {
            "median": round(statistics.median(trial_ms), 4),
            "min": round(min(trial_ms), 4),
            "iqr": round(quartiles[2] - quartiles[0], 4),
            "trials": [round(ms, 4) for ms in trial_ms],
        },
        "steps_per_question": round(steps, 2),
        "sat": sum(1 for verdict, _ in decided if verdict),
        "unsat": sum(1 for verdict, _ in decided if verdict is False),
        "declined": len(outcomes) - len(decided),
    }
    timing = payload["ms_per_question"]
    report("realworld_kernel", format_table(
        ["questions", "ms/question median", "min", "IQR", "steps/question",
         "sat", "unsat", "declined"],
        [[
            payload["questions"], timing["median"], timing["min"], timing["iqr"],
            payload["steps_per_question"], payload["sat"], payload["unsat"],
            payload["declined"],
        ]],
    ))
    if not QUICK:
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        path = os.path.join(_RESULTS_DIR, "BENCH_realworld_kernel.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert payload["declined"] == 0, (
        f"{payload['declined']} of {len(questions)} questions declined"
    )
