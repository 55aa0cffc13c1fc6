"""One set-up of a workload's engine, timed in a fresh process.

    python3 perfbench/coldstart.py SPEC.json

``SPEC.json`` holds the engine's worker count, the schemas as DTD text
and the warm-up jobs (written by ``run.py``).  The clock covers what a
booting server does before it takes traffic: parsing the schemas,
constructing the engine, registering the schemas and deciding the
warm-up jobs in micro-batches.  Nothing is warm when it starts: no
schema analysis, content-model automaton, plan or decision exists in
this process yet.  Only the module imports happen before the clock.
The engine is closed (its lanes reaped) and the seconds printed as the
last line.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.dtd import parse_dtd  # noqa: E402
from repro.engine.batch import Job  # noqa: E402

from inproc import build_engine  # noqa: E402


def main(path: str) -> None:
    with open(path) as handle:
        spec = json.load(handle)
    warmup = [Job(query=query, schema=schema, id=job_id)
              for schema, query, job_id in spec["warmup"]]
    start = perf_counter()
    schemas = {name: parse_dtd(text) for name, text in spec["schemas"].items()}
    engine = build_engine(spec["workers"], schemas, warmup)
    took = perf_counter() - start
    engine.close()
    print(took)


if __name__ == "__main__":
    main(sys.argv[1])
