"""Multi-process scale-out — routed fleet throughput and warm boots.

Regenerates the headline numbers for the ``repro route`` front door: the
same mixed-schema workload pushed through 1-, 2-, and 4-process fleets
sharing one SQLite state tier, measuring end-to-end throughput for a
**cold** fleet (fresh tier, every worker plans from scratch) and a
**warm** fleet (same fleet relaunched over the tier the cold run
seeded — every worker adopts persisted plans before accepting traffic).
Asserts per-job verdicts are identical across every fleet size and both
boot modes, and that warm fleets report **zero planner invocations**.

Full mode additionally asserts the 2-process fleet beats 1 process by
``SPEEDUP_BAR``x — only when the host actually has >= 2 CPU cores; on a
single-core host the bar is recorded as skipped in the JSON payload
(near-linear scaling needs cores to scale onto).

Besides the text table (``benchmarks/results/scaleout_throughput.txt``)
full mode writes ``benchmarks/results/BENCH_scaleout.json`` so the perf
trajectory is machine-readable; both files are committed.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI and the tier-1 smoke)
shrinks the workload to 1- and 2-process fleets and drops the speedup
assertion — verdict equivalence and warm-boot zero-planning are still
enforced.  It prints its table and writes no file, so it never
overwrites the committed full-mode results.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

import repro
from benchmarks.conftest import format_table
from repro.dtd import parse_dtd
from repro.workloads import batch_jobs

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
PROC_COUNTS = (1, 2) if QUICK else (1, 2, 4)
N_JOBS = 60 if QUICK else 400
SEED = 20250611
#: full-mode acceptance bar: a 2-process fleet on a >=2-core host moves
#: at least this much more workload per second than 1 process
SPEEDUP_BAR = 1.6

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_SCHEMAS = {
    "catalog": """
root r
r -> A, (B + C)
A -> D*
B -> D + eps
C -> eps
D -> eps
""",
    "doc": """
root doc
doc -> title, para*
title -> eps
para -> text + eps
text -> eps
""",
    "feed": """
root feed
feed -> entry*
entry -> head, body?
head -> eps
body -> eps
""",
    "inv": """
root inv
inv -> item*
item -> sku, qty
sku -> eps
qty -> eps
""",
}


def _workload() -> list[dict]:
    schemas = {name: parse_dtd(text) for name, text in _SCHEMAS.items()}
    jobs = batch_jobs(
        random.Random(SEED), schemas, n_jobs=N_JOBS, duplicate_rate=0.2,
    )
    return [
        {"query": job.query_text, "schema": job.schema, "id": f"s{i}"}
        for i, job in enumerate(jobs)
    ]


def _start_fleet(workers: int, base: str, tier: str, env: dict):
    sock = os.path.join(base, f"front-{workers}.sock")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "route",
            "--workers", str(workers), "--socket", sock,
            "--schema-dir", os.path.join(base, "schemas"),
            "--state-tier", tier,
            "--worker-dir", os.path.join(base, f"workers-{workers}"),
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=env, cwd=base,
    )
    deadline = time.monotonic() + 180
    while not os.path.exists(sock):
        if process.poll() is not None or time.monotonic() > deadline:
            raise AssertionError(f"route --workers {workers} did not come up")
        time.sleep(0.05)
    return process, sock


def _drive(sock_path: str, jobs: list[dict]) -> tuple[float, dict]:
    """Push the whole workload through the fleet; returns (wall seconds,
    id -> satisfiable)."""
    client = socket.socket(socket.AF_UNIX)
    client.settimeout(600)
    client.connect(sock_path)
    start = time.perf_counter()
    with client, client.makefile("rw", encoding="utf-8") as stream:
        for job in jobs:
            stream.write(json.dumps(job) + "\n")
        stream.flush()
        records = [json.loads(stream.readline()) for _ in jobs]
    elapsed = time.perf_counter() - start
    return elapsed, {r["id"]: r.get("satisfiable") for r in records}


def _fleet_pass(workers: int, base: str, tier: str, env: dict, jobs):
    process, sock = _start_fleet(workers, base, tier, env)
    try:
        elapsed, verdicts = _drive(sock, jobs)
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=180)
    assert process.returncode == 0
    return elapsed, verdicts


def run_scaleout() -> dict:
    base = tempfile.mkdtemp(prefix="repro-bench-scaleout-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    try:
        os.makedirs(os.path.join(base, "schemas"))
        for name, text in _SCHEMAS.items():
            with open(os.path.join(base, "schemas", f"{name}.dtd"), "w") as f:
                f.write(text)
        jobs = _workload()

        from repro.engine import StateTier

        rows = []
        baseline_verdicts = None
        for workers in PROC_COUNTS:
            tier = os.path.join(base, f"tier-{workers}")
            cold_s, cold_verdicts = _fleet_pass(workers, base, tier, env, jobs)
            with StateTier(tier) as handle:
                cold_pids = set(handle.engine_stats_rows())
            warm_s, warm_verdicts = _fleet_pass(workers, base, tier, env, jobs)
            if baseline_verdicts is None:
                baseline_verdicts = cold_verdicts
            assert cold_verdicts == baseline_verdicts, (
                f"cold {workers}-process verdicts diverged"
            )
            assert warm_verdicts == baseline_verdicts, (
                f"warm {workers}-process verdicts diverged"
            )
            with StateTier(tier) as handle:
                stats_rows = handle.engine_stats_rows()
            # workers only report stats once they served a job, so the
            # warm fleet's rows are the ones cold pids did not write
            # (a shard the hash left idle stays absent — that's fine)
            warm_rows = [
                stats for pid, stats in stats_rows.items()
                if pid not in cold_pids
            ]
            rows.append({
                "processes": workers,
                "cold_s": round(cold_s, 4),
                "warm_s": round(warm_s, 4),
                "cold_jobs_per_s": round(len(jobs) / cold_s, 1),
                "warm_jobs_per_s": round(len(jobs) / warm_s, 1),
                "warm_workers": len(warm_rows),
                "warm_planner_invocations": sum(
                    stats.get("planner_invocations", 0) for stats in warm_rows
                ),
            })
            # the relaunched fleet adopted the tier: every serving worker
            # started warm and built zero plans
            assert warm_rows, "warm fleet reported no engine stats"
            assert all(
                stats.get("persisted_plans_loaded", 0) > 0
                for stats in warm_rows
            ), f"a warm {workers}-process worker adopted no plans"
            assert rows[-1]["warm_planner_invocations"] == 0, (
                f"warm {workers}-process fleet built plans"
            )
        return {"jobs": len(jobs), "rows": rows}
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_scaleout_throughput(report, benchmark):
    entry = benchmark.pedantic(run_scaleout, rounds=1, iterations=1)
    by_procs = {row["processes"]: row for row in entry["rows"]}
    cores = os.cpu_count() or 1
    speedup_2p = round(
        by_procs[1]["cold_s"] / by_procs[2]["cold_s"], 2
    ) if 2 in by_procs else None

    report("scaleout_throughput", format_table(
        ["processes", "cold", "warm", "cold jobs/s", "warm jobs/s",
         "warm planners"],
        [[
            row["processes"],
            f"{row['cold_s'] * 1000:.0f} ms", f"{row['warm_s'] * 1000:.0f} ms",
            row["cold_jobs_per_s"], row["warm_jobs_per_s"],
            row["warm_planner_invocations"],
        ] for row in entry["rows"]],
    ), save=not QUICK)

    skipped = None
    if QUICK:
        skipped = "quick mode: no timing assertions"
    elif cores < 2:
        skipped = (
            f"host has {cores} CPU core(s): near-linear multi-process "
            "scaling needs cores to scale onto"
        )
    if not QUICK:
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        payload = {
            "benchmark": "scaleout_throughput",
            "quick": QUICK,
            "cpu_cores": cores,
            "jobs": entry["jobs"],
            "speedup_bar": SPEEDUP_BAR,
            "speedup_2p": speedup_2p,
            "speedup_assertion_skipped": skipped,
            "rows": entry["rows"],
        }
        with open(os.path.join(_RESULTS_DIR, "BENCH_scaleout.json"), "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    if skipped is None:
        assert speedup_2p is not None and speedup_2p >= SPEEDUP_BAR, (
            f"2-process fleet only {speedup_2p}x over 1 process "
            f"(bar {SPEEDUP_BAR}x)"
        )
