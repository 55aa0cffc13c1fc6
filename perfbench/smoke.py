"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/smoke.py -q

(The file name keeps it out of the default ``pytest`` collection; it
boots real ``repro route`` fleets and cold set-up processes and takes
about a minute.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def left_in_session(session: int) -> list[str]:
    """``state command line`` of every process still in ``session``.  A
    zombie counts: it outlived the process that should have reaped it."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _ppid, _pgrp, sid = handle.read().rsplit(") ", 1)[1].split()[:4]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if int(sid) == session:
            found.append(f"{state} {cmdline}")
    return found


def run_benchmark(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own and check that no process
    it started outlives it."""
    argv = [sys.executable, "perfbench/run.py", *args]
    with subprocess.Popen(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as process:
        try:
            stdout, stderr = process.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            raise
    assert left_in_session(process.pid) == []
    return subprocess.CompletedProcess(argv, process.returncode, stdout, stderr)


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric_with_no_errors(workload, trace):
    completed = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace),
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    error_ratio = next(line for line in lines if line.split()[:1] == ["error_ratio"])
    assert float(error_ratio.split()[1]) == 0.0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in expected}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_engine_sources():
    bare = os.path.join(ROOT, ".perfbench_run", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        completed = run_benchmark(
            "--workload", "repeat_hits", "--seed", "1", "--seconds", "1",
            "--trace", "0", cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert completed.stdout == ""
