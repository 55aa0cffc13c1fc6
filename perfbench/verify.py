"""Reference verdicts, computed outside every timed phase.

Two references, neither of which touches the engine's decision cache,
plan grouping, lanes, server or router:

* the brute-force oracle (:func:`repro.testing.oracle.iter_small_trees`
  with the reference semantics, SAT by exhibition) for
  schemas it can enumerate completely enough — the nonrecursive small
  schemas of the cache-hit workloads — cross-checked against one
  uncached :func:`repro.sat.dispatch.decide`;
* one uncached ``decide()`` per distinct question everywhere else, split
  over a few fresh child processes because the fresh workloads produce
  thousands of distinct questions per run.  Each child runs this file::

      python3 perfbench/verify.py SPEC.json PART PARTS

  and prints, as JSON, the verdicts of questions ``PART::PARTS`` of the
  spec (schemas as DTD text plus ``(schema, query text)`` pairs).  Plain
  subprocesses are used rather than a ``multiprocessing`` pool, whose
  resource-tracker process outlives the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.dtd import parse_dtd  # noqa: E402
from repro.dtd.model import DTD  # noqa: E402
from repro.dtd.properties import is_nonrecursive  # noqa: E402
from repro.sat.dispatch import decide  # noqa: E402
from repro.testing.oracle import iter_small_trees  # noqa: E402
from repro.xpath.parser import parse_query  # noqa: E402
from repro.xpath.semantics import satisfies  # noqa: E402

#: processes deciding reference verdicts for the fresh workloads
VERIFY_PROCESSES = 2
#: fewer distinct questions than this are decided in this process
INLINE_LIMIT = 256
#: seconds the verification children may take before the run fails
VERIFY_TIMEOUT = 150


def oracle_verdicts(
    schemas: dict[str, DTD], questions: list[tuple[str, str]]
) -> list[bool | None]:
    """Oracle verdicts for ``(schema, query text)`` pairs: SAT iff some
    tree the oracle enumerates (once per schema) models the query.
    Raises if the oracle and an uncached ``decide()`` disagree (the
    reference itself would be in doubt)."""
    trees: dict[str, list] = {}
    verdicts = []
    for schema, text in questions:
        dtd = schemas[schema]
        if schema not in trees:
            if not is_nonrecursive(dtd):
                raise ValueError(f"oracle cannot enumerate recursive schema {schema}")
            trees[schema] = list(iter_small_trees(dtd))
        query = parse_query(text)
        oracle = any(satisfies(tree, query) for tree in trees[schema])
        decided = decide(query, dtd).satisfiable
        if decided != oracle:
            raise ValueError(
                f"reference disagreement on {schema}: {text!r} "
                f"(oracle {oracle}, decide {decided})"
            )
        verdicts.append(oracle)
    return verdicts


def _decide_all(
    schemas: dict[str, DTD], questions: list[tuple[str, str]]
) -> list[bool | None]:
    return [
        decide(parse_query(text), schemas[schema]).satisfiable
        for schema, text in questions
    ]


def decide_verdicts(
    schemas: dict[str, DTD], questions: list[tuple[str, str]], workdir: str
) -> list[bool | None]:
    """One uncached ``decide()`` per question, in input order."""
    if len(questions) < INLINE_LIMIT:
        return _decide_all(schemas, questions)
    spec = os.path.join(workdir, "verify.json")
    with open(spec, "w") as handle:
        json.dump({
            "schemas": {name: dtd.describe() for name, dtd in schemas.items()},
            "questions": questions,
        }, handle)
    children: list[subprocess.Popen] = []
    try:
        for part in range(VERIFY_PROCESSES):
            children.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), spec,
                 str(part), str(VERIFY_PROCESSES)],
                stdout=subprocess.PIPE,
            ))
        outputs = [child.communicate(timeout=VERIFY_TIMEOUT)[0] for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    verdicts: list[bool | None] = [None] * len(questions)
    for part, (child, output) in enumerate(zip(children, outputs)):
        if child.returncode != 0:
            raise RuntimeError(f"verification child {part} exited with {child.returncode}")
        verdicts[part::VERIFY_PROCESSES] = json.loads(output)
    return verdicts


def main(spec_path: str, part: int, parts: int) -> None:
    with open(spec_path) as handle:
        spec = json.load(handle)
    schemas = {name: parse_dtd(text) for name, text in spec["schemas"].items()}
    questions = [tuple(question) for question in spec["questions"][part::parts]]
    print(json.dumps(_decide_all(schemas, questions)))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
