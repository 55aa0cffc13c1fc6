"""Tests for the multi-process front door (:mod:`repro.engine.router`).

Unit tests pin the pure sharding policy (``pick_shard``) and the
exactly-once fan-in bookkeeping; the smoke tests fork a real ``python -m
repro route`` fleet on a unix socket, drive mixed-schema JSONL jobs
through it, and compare verdicts against a single-process engine.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
import zlib

import pytest

import repro
from repro.engine import BatchEngine, Job, SchemaRegistry
from repro.engine.jsonl import MAX_LINE_BYTES
from repro.engine.router import (
    EngineRouter,
    RouterStats,
    _ClientConn,
    _Pending,
    pick_shard,
)
from repro.errors import EngineError

CATALOG_DTD = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""

# chosen so crc32(fingerprint) lands the two schemas on different
# shards of a 2-worker fleet (the fan-out smoke asserts >1 shard used)
DOC_DTD = """
root doc
doc -> title, para*
title -> eps
para -> text + eps
text -> eps
"""

QUERIES = ["A", "B", ".[B and C]", "A[not(B)]", "r//A"]
DOC_QUERIES = ["doc/title", "doc//text", "doc[not(para)]"]


def _mixed_jobs() -> list[dict]:
    jobs = [
        {"query": query, "schema": "catalog", "id": f"c{i}"}
        for i, query in enumerate(QUERIES)
    ]
    jobs += [
        {"query": query, "schema": "doc", "id": f"d{i}"}
        for i, query in enumerate(DOC_QUERIES)
    ]
    jobs.append({"query": "X[not(Y)]", "id": "nodtd"})
    return jobs


def _single_process_verdicts(jobs: list[dict]) -> dict[str, tuple]:
    registry = SchemaRegistry()
    registry.register("catalog", CATALOG_DTD)
    registry.register("doc", DOC_DTD)
    engine = BatchEngine(registry=registry)
    report = engine.run([
        Job(job["query"], job.get("schema"), job.get("id")) for job in jobs
    ])
    engine.close()
    return {
        r.id: (r.satisfiable, r.method) for r in report.results
    }


# -- the pure sharding policy -----------------------------------------------------

class TestPickShard:
    def test_consistent_hash_is_the_preferred_shard(self):
        for key in ("alpha", "beta", "gamma", "-"):
            expected = zlib.crc32(key.encode("utf-8")) % 3
            index, spilled = pick_shard(key, [0, 0, 0], spill_depth=4)
            assert index == expected
            assert spilled is False

    def test_same_key_same_shard(self):
        depths = [0, 0, 0, 0]
        picks = {pick_shard("catalog", depths, 4)[0] for _ in range(10)}
        assert len(picks) == 1

    def test_hot_shard_spills_to_least_loaded(self):
        key = "k"
        preferred = zlib.crc32(b"k") % 3
        depths = [0, 0, 0]
        depths[preferred] = 4
        index, spilled = pick_shard(key, depths, spill_depth=4)
        assert index != preferred
        assert spilled is True
        assert depths[index] == 0

    def test_no_spill_when_everyone_is_as_hot(self):
        preferred = zlib.crc32(b"k") % 2
        depths = [5, 5]
        index, spilled = pick_shard("k", depths, spill_depth=4)
        assert index == preferred   # spilling to an equally hot shard is futile
        assert spilled is False

    def test_dead_preferred_shard_spills(self):
        preferred = zlib.crc32(b"k") % 2
        alive = [True, True]
        alive[preferred] = False
        index, spilled = pick_shard("k", [0, 0], 4, alive=alive)
        assert index != preferred
        assert spilled is True

    def test_no_shards_and_no_live_shards_error(self):
        with pytest.raises(EngineError, match="no shards"):
            pick_shard("k", [], 4)
        with pytest.raises(EngineError, match="no live shards"):
            pick_shard("k", [0, 0], 4, alive=[False, False])


# -- construction and fan-in bookkeeping ------------------------------------------

def _bare_router(**overrides) -> EngineRouter:
    """A router that is never started: shards marked alive by hand so
    the dispatch/fan-in paths can run synchronously."""
    options = dict(workers=2, socket_path="unused.sock")
    options.update(overrides)
    router = EngineRouter(**options)
    for shard in router.shards:
        shard.alive = True
    return router


class TestRouterConfig:
    def test_requires_exactly_one_endpoint(self):
        with pytest.raises(EngineError, match="exactly one endpoint"):
            EngineRouter(workers=2)
        with pytest.raises(EngineError, match="exactly one endpoint"):
            EngineRouter(workers=2, socket_path="x.sock", port=7000)

    def test_requires_at_least_one_worker(self):
        with pytest.raises(EngineError, match="at least one worker"):
            EngineRouter(workers=0, socket_path="x.sock")

    def test_rejects_bad_tunables(self):
        with pytest.raises(EngineError, match="spill_depth"):
            EngineRouter(workers=1, socket_path="x.sock", spill_depth=0)
        with pytest.raises(EngineError, match="max_restarts"):
            EngineRouter(workers=1, socket_path="x.sock", max_restarts=-1)

    def test_attached_shards_are_unmanaged(self):
        router = EngineRouter(
            workers=1, attach=["/tmp/a.sock"], socket_path="x.sock"
        )
        assert [shard.managed for shard in router.shards] == [True, False]
        assert router.shards[1].socket_path == "/tmp/a.sock"


class TestExactlyOnceFanIn:
    def test_duplicate_response_fans_back_once(self):
        router = _bare_router()
        conn = _ClientConn(1)
        router._ingest(conn, b'{"query": "A", "schema": "s", "id": "j1"}\n')
        assert conn.inflight == 1
        (shard,) = [s for s in router.shards if s.inflight]
        (token,) = shard.inflight
        router._absorb(shard, {"id": token, "satisfiable": True})
        router._absorb(shard, {"id": token, "satisfiable": True})  # repeat
        assert conn.out_queue.qsize() == 1
        assert conn.inflight == 0
        record = conn.out_queue.get_nowait()
        assert record["id"] == "j1"     # original id restored
        assert router.stats.results_returned == 1

    def test_jobs_without_id_get_the_query_text_back(self):
        router = _bare_router()
        conn = _ClientConn(1)
        router._ingest(conn, b'{"query": "A[B]"}\n')
        (shard,) = [s for s in router.shards if s.inflight]
        (token,) = shard.inflight
        router._absorb(shard, {"id": token, "satisfiable": False})
        assert conn.out_queue.get_nowait()["id"] == "A[B]"

    def test_invalid_line_is_answered_not_routed(self):
        router = _bare_router()
        conn = _ClientConn(1)
        router._ingest(conn, b'{"query": 5}\n')
        assert router.stats.invalid_lines == 1
        assert router.stats.jobs_routed == 0
        assert conn.out_queue.get_nowait()["status"] == "error"
        assert not any(shard.inflight for shard in router.shards)

    def test_blank_and_comment_lines_are_ignored(self):
        router = _bare_router()
        conn = _ClientConn(1)
        router._ingest(conn, b"\n")
        router._ingest(conn, b"# note\n")
        assert conn.out_queue.empty()

    def test_a_job_too_long_once_forwarded_is_answered_not_routed(self):
        # a compact line at the limit grows by the router's id token
        router = _bare_router()
        conn = _ClientConn(1)
        head = b'{"query":"'
        line = head + b"A" * (MAX_LINE_BYTES - len(head) - 2) + b'"}'
        assert len(line) == MAX_LINE_BYTES
        router._ingest(conn, line + b"\n")
        record = conn.out_queue.get_nowait()
        assert record["status"] == "error"
        assert "as forwarded" in record["error"]
        assert conn.inflight == 0
        assert not any(shard.inflight for shard in router.shards)

    def test_same_schema_lands_on_one_shard(self):
        router = _bare_router(workers=4)
        conn = _ClientConn(1)
        for i in range(6):
            router._ingest(
                conn,
                json.dumps({"query": "A", "schema": "s", "id": f"j{i}"})
                .encode() + b"\n",
            )
        assert router.stats.spills == 0
        assert sum(1 for s in router.shards if s.inflight) == 1

    def test_worker_shed_is_requeued_not_surfaced(self):
        import asyncio

        async def scenario():
            router = _bare_router()
            conn = _ClientConn(1)
            router._ingest(conn, b'{"query": "A", "schema": "s", "id": "j1"}\n')
            (shard,) = [s for s in router.shards if s.inflight]
            (token,) = shard.inflight
            router._absorb(
                shard, {"id": token, "status": "retry", "error": "backpressure"}
            )
            # the shed never reaches the client; the job requeues instead
            assert conn.out_queue.empty()
            assert conn.inflight == 1
            assert router.stats.sheds_requeued == 1
            await asyncio.sleep(0.1)
            assert any(s.inflight for s in router.shards)

        asyncio.run(scenario())

    def test_metrics_registry_renders_router_gauges(self):
        router = _bare_router()
        conn = _ClientConn(1)
        router._ingest(conn, b'{"query": "A", "schema": "s"}\n')
        rendered = router.metrics_registry().render_prometheus()
        assert "repro_router_jobs_total 1" in rendered
        assert 'repro_router_shard_depth{shard="0"}' in rendered
        assert "repro_router_spills_total 0" in rendered
        assert "repro_router_restarts_total 0" in rendered


class TestWorkerRespawn:
    def test_a_live_worker_is_reaped_before_its_successor_starts(self):
        """A shard whose connection drops while its process still runs:
        the old process is stopped and reaped before the respawn, so a
        respawn never leaves a second worker behind."""

        async def scenario() -> list:
            router = _bare_router(workers=1)
            shard = router.shards[0]
            old = await asyncio.create_subprocess_exec("sleep", "60")
            shard.process = old
            seen = []

            async def start_shard(_shard) -> None:
                seen.append(old.returncode)

            router._start_shard = start_shard
            try:
                await asyncio.wait_for(router._shard_down(shard), 60)
            finally:
                if old.returncode is None:
                    old.kill()
                    await old.wait()
            return seen

        assert asyncio.run(scenario()) == [-signal.SIGTERM]


class TestRouterStats:
    def test_shards_used_counts_nonzero_shards(self):
        stats = RouterStats()
        stats.shard_jobs = {0: 3, 1: 0, 2: 5}
        assert stats.shards_used() == 2


# -- end-to-end smoke over a unix socket ------------------------------------------

def _client_exchange(sock_path: str, jobs: list[dict]) -> list[dict]:
    client = socket.socket(socket.AF_UNIX)
    client.settimeout(120)
    client.connect(sock_path)
    with client, client.makefile("rw", encoding="utf-8") as stream:
        for job in jobs:
            stream.write(json.dumps(job) + "\n")
        stream.flush()
        return [json.loads(stream.readline()) for _ in jobs]


@pytest.fixture
def route_env(tmp_path):
    (tmp_path / "schemas").mkdir()
    (tmp_path / "schemas" / "catalog.dtd").write_text(CATALOG_DTD)
    (tmp_path / "schemas" / "doc.dtd").write_text(DOC_DTD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return tmp_path, env


def _start_route(tmp_path, env, *extra_args):
    """Start a 2-worker fleet; returns ``(process, socket, log)``, the log
    being the file its output goes to."""
    sock = str(tmp_path / "front.sock")
    log = _log_path(tmp_path, "route")
    with open(log, "w") as output:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "route",
                "--workers", "2", "--socket", sock,
                "--schema-dir", str(tmp_path / "schemas"),
                "--state-tier", str(tmp_path / "tier"),
                "--metrics-out", str(tmp_path / "router.prom"),
                "--worker-dir", str(tmp_path / "workers"),
                *extra_args,
            ],
            stdout=output, stderr=subprocess.STDOUT,
            env=env, cwd=str(tmp_path),
        )
    _await_socket(process, sock, log, "route", timeout=120)
    return process, sock, log


def _log_path(tmp_path, name: str):
    """A fresh file for one daemon's output (no pipe that nobody reads
    can fill up or block a read)."""
    index = 0
    while (tmp_path / f"{name}-{index}.log").exists():
        index += 1
    return tmp_path / f"{name}-{index}.log"


def _await_socket(process, sock: str, log, name: str, timeout: float) -> None:
    """Wait for a daemon's socket.  On a missed deadline the daemon is
    killed and reaped before its output is read, so a daemon that hangs
    at start-up fails the test instead of stalling it."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(sock):
        if process.poll() is not None or time.monotonic() > deadline:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)
            raise AssertionError(f"{name} did not come up: {log.read_text()}")
        time.sleep(0.05)


def _drain(process, log) -> str:
    """SIGTERM a daemon, wait (bounded) for it to exit, return its output."""
    process.send_signal(signal.SIGTERM)
    process.wait(timeout=120)
    return log.read_text()


class TestRouteSmoke:
    def test_mixed_schemas_fan_out_and_verdicts_match_single_process(
        self, route_env
    ):
        tmp_path, env = route_env
        process, sock, log = _start_route(tmp_path, env)
        jobs = _mixed_jobs()
        try:
            records = _client_exchange(sock, jobs)
        finally:
            output = _drain(process, log)
        assert process.returncode == 0, output

        expected = _single_process_verdicts(jobs)
        assert {r["id"] for r in records} == set(expected)
        for record in records:
            satisfiable, method = expected[record["id"]]
            assert record["satisfiable"] is satisfiable, record
            assert record["method"] == method, record

        # sharded fan-out: both worker processes took jobs
        metrics = open(tmp_path / "router.prom").read()
        shard_counts = {
            int(line.split("{shard=\"")[1][0]): int(line.rsplit(" ", 1)[1])
            for line in metrics.splitlines()
            if line.startswith("repro_router_shard_jobs_total{")
        }
        assert sum(1 for count in shard_counts.values() if count) > 1
        assert f"repro_router_results_total {len(jobs)}" in metrics
        assert "routed" in output and "2 of 2 shards" in output
        # the workers drained into the shared tier on SIGTERM
        assert os.path.exists(tmp_path / "tier" / "state.sqlite")

    def test_worker_death_restarts_and_jobs_keep_flowing(self, route_env):
        tmp_path, env = route_env
        process, sock, log = _start_route(tmp_path, env)
        try:
            first = _client_exchange(sock, _mixed_jobs())
            assert len(first) == len(_mixed_jobs())
            # kill every engine worker out from under the router
            children = subprocess.run(
                ["pgrep", "-P", str(process.pid)],
                capture_output=True, text=True,
            ).stdout.split()
            assert children, "route should have child engine processes"
            for pid in children:
                os.kill(int(pid), signal.SIGKILL)
            # the router notices, respawns, and keeps serving; jobs that
            # land in the restart window get transient error responses
            deadline = time.monotonic() + 60
            by_id = None
            while time.monotonic() < deadline:
                try:
                    records = _client_exchange(sock, _mixed_jobs())
                except (ConnectionError, OSError, json.JSONDecodeError):
                    time.sleep(0.2)
                    continue
                by_id = {r["id"]: r for r in records}
                if all("satisfiable" in r for r in records):
                    break
                time.sleep(0.2)
            assert by_id is not None, "router never recovered"
            assert by_id["c0"].get("satisfiable") is True
        finally:
            output = _drain(process, log)
        assert process.returncode == 0, output
        metrics = open(tmp_path / "router.prom").read()
        restarts = [
            int(line.rsplit(" ", 1)[1]) for line in metrics.splitlines()
            if line.startswith("repro_router_restarts_total")
        ]
        assert restarts and restarts[0] >= 1

    def test_attach_routes_to_a_prestarted_engine(self, route_env):
        tmp_path, env = route_env
        worker_sock = str(tmp_path / "standalone.sock")
        worker_log = _log_path(tmp_path, "serve")
        with open(worker_log, "w") as output:
            worker = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--socket", worker_sock,
                    "--schema-dir", str(tmp_path / "schemas"),
                ],
                stdout=output, stderr=subprocess.STDOUT,
                env=env, cwd=str(tmp_path),
            )
        try:
            _await_socket(worker, worker_sock, worker_log, "standalone serve", 60)
            sock = str(tmp_path / "front.sock")
            router_log = _log_path(tmp_path, "route")
            with open(router_log, "w") as output:
                router = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "route",
                        "--workers", "0", "--attach", worker_sock,
                        "--socket", sock,
                        "--schema-dir", str(tmp_path / "schemas"),
                    ],
                    stdout=output, stderr=subprocess.STDOUT,
                    env=env, cwd=str(tmp_path),
                )
            try:
                _await_socket(router, sock, router_log, "route", 60)
                records = _client_exchange(sock, _mixed_jobs())
                assert {r["id"] for r in records} == {
                    job["id"] for job in _mixed_jobs()
                }
            finally:
                router.send_signal(signal.SIGTERM)
                assert router.wait(timeout=60) == 0
            # attached engines are not managed: still alive afterwards
            assert worker.poll() is None
        finally:
            if worker.poll() is None:
                worker.send_signal(signal.SIGTERM)
            worker.wait(timeout=60)

    def test_warm_boot_from_the_tier_plans_nothing(self, route_env):
        """The headline property: after one routed run seeded the tier,
        a fresh fleet adopts persisted plans before accepting traffic —
        zero cold planners."""
        tmp_path, env = route_env
        jobs = _mixed_jobs()
        process, sock, _ = _start_route(tmp_path, env)
        try:
            _client_exchange(sock, jobs)
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=120) == 0

        process, sock, _ = _start_route(tmp_path, env)
        try:
            _client_exchange(sock, jobs)
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=120) == 0

        from repro.engine import StateTier

        with StateTier(str(tmp_path / "tier")) as tier:
            rows = tier.engine_stats_rows()
        # the second fleet's workers (fresh pids) planned nothing
        warm = [
            stats for stats in rows.values()
            if stats.get("persisted_plans_loaded", 0) > 0
        ]
        assert len(warm) >= 2
        assert all(stats.get("planner_invocations") == 0 for stats in warm)


@pytest.mark.skipif(
    os.environ.get("REPRO_ROUTED_FUZZ") != "1",
    reason="routed differential fuzz runs nightly (REPRO_ROUTED_FUZZ=1)",
)
class TestRoutedFuzz:
    def test_routed_verdicts_match_single_process_on_random_corpus(
        self, route_env, rng
    ):
        from repro.dtd import parse_dtd
        from repro.workloads import batch_jobs
        from repro.xpath import fragments as frag

        schemas = {
            "catalog": parse_dtd(CATALOG_DTD),
            "doc": parse_dtd(DOC_DTD),
        }
        jobs = [
            {"query": job.query_text, "schema": job.schema, "id": f"f{i}"}
            for i, job in enumerate(batch_jobs(
                rng, schemas, n_jobs=400,
                fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL),
            ))
        ]
        tmp_path, env = route_env
        process, sock, _ = _start_route(tmp_path, env)
        try:
            records = _client_exchange(sock, jobs)
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=300) == 0
        expected = _single_process_verdicts(jobs)
        for record in records:
            assert record["satisfiable"] is expected[record["id"]][0], record
