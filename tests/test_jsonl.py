"""Tests for the JSONL connection layer (:mod:`repro.engine.jsonl`) and
the fault matrix of the two daemons built on it.

The reader tests feed a ``StreamReader`` by hand.  The fault-matrix
tests run a real ``EngineServer`` and a real 2-worker ``EngineRouter``
(whose workers are ``repro serve`` processes) on a thread, drive them
over unix sockets with hostile input, and check the two invariants:
every admitted line gets exactly one response, and verdicts equal those
of one in-process engine.  The state-tier cells (a tier damaged mid-run,
SIGTERM during a snapshot) run through ``serve``.  Every wait is bounded.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager

import pytest

import repro
from repro.engine import BatchEngine, Job, SchemaRegistry, StateTier
from repro.engine.jsonl import (
    MAX_LINE_BYTES,
    MAX_REPLY_BYTES,
    encode_forward,
    encode_record,
    read_lines,
)
from repro.engine.router import EngineRouter, pick_shard
from repro.engine.server import EngineServer

CATALOG_DTD = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""

#: one query of each shape that recursed past the interpreter's limit
#: in a different layer (canonical connectives, the parser, qualifier
#: canonicalization, path sequences)
DEEP_QUERIES = {
    "or-chain": "r[" + " or ".join(["B"] * 3000) + "]",
    "nested-not": "A[" + "not(" * 3000 + "B" + ")" * 3000 + "]",
    "qualifier-chain": "A" + "[B]" * 3000,
    "path": "/".join(["A"] * 3000),
}


# -- the framed reader and the encoders --------------------------------------------

def _read_all(data: bytes, limit: int) -> list[bytes | None]:
    async def scenario():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        lines: list[bytes | None] = []
        await read_lines(reader, lines.append)
        return lines

    return asyncio.run(scenario())


class TestReadLines:
    def test_lines_up_to_the_limit_pass_through(self):
        assert _read_all(b"abcd\n\nxyz", limit=4) == [b"abcd\n", b"\n", b"xyz"]

    def test_an_over_limit_line_is_skipped_through_its_newline(self):
        data = b"ok\n" + b"x" * 5 + b"\nnext\n" + b"y" * 50 + b"\nlast\n"
        assert _read_all(data, limit=4) == [
            b"ok\n", None, b"next\n", None, b"last\n",
        ]

    def test_an_over_limit_tail_without_newline_is_reported_once(self):
        assert _read_all(b"ok\n" + b"z" * 40, limit=4) == [b"ok\n", None]


class TestEncoders:
    def test_response_lines_are_ascii(self):
        line = encode_record({"id": "é", "query": "\ud800"})
        assert line == b'{"id": "\\u00e9", "query": "\\ud800"}\n'

    @pytest.mark.parametrize("query", ["é" * 1000, "\U0001f600" * 500, "\ud800A"])
    def test_forwarded_job_is_no_longer_than_its_line(self, query):
        line = json.dumps({"query": query}).encode("utf-8")
        forwarded = encode_forward({"query": query, "id": "r1"})
        assert len(forwarded) <= len(line) + len(' "id": "r1",\n')
        assert json.loads(forwarded.decode("utf-8"))["query"] == query

    def test_reply_bound_covers_the_largest_echo(self):
        # a string tripled by escaping, echoed twice, fits the bound
        echo = len(encode_record({"s": "é" * (MAX_LINE_BYTES // 2)}))
        assert 2 * echo < MAX_REPLY_BYTES


# -- the fault matrix, through serve and through a 2-worker route -----------------

@contextmanager
def _running(daemon, codes: list | None = None):
    """Run ``daemon`` on a thread for the block (yielding its event
    loop), then drain it (bounded); ``codes`` collects what ``run()``
    returned."""
    ready = threading.Event()
    loops: list = []

    def on_ready(_daemon) -> None:
        loops.append(asyncio.get_running_loop())
        ready.set()

    def serve() -> None:
        code = daemon.run()
        if codes is not None:
            codes.append(code)

    daemon.on_ready = on_ready
    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        assert ready.wait(timeout=120), "daemon did not come up"
        yield loops[0]
    finally:
        if loops:
            loops[0].call_soon_threadsafe(daemon.request_shutdown)
        thread.join(timeout=120)
    assert not thread.is_alive(), "daemon did not drain"


def _catalog() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register("catalog", CATALOG_DTD)
    return registry


def _server(tmp_path, engine: BatchEngine | None = None, **options) -> EngineServer:
    # admission control is not under test: room for every job sent
    return EngineServer(
        engine if engine is not None else BatchEngine(registry=_catalog()),
        socket_path=str(tmp_path / "serve.sock"), max_inflight=1024,
        **options,
    )


def _router(tmp_path, monkeypatch) -> EngineRouter:
    dtd = tmp_path / "catalog.dtd"
    dtd.write_text(CATALOG_DTD)
    # the spawned workers import repro from this checkout
    monkeypatch.setenv(
        "PYTHONPATH", os.path.dirname(os.path.dirname(repro.__file__))
    )
    return EngineRouter(
        workers=2, socket_path=str(tmp_path / "front.sock"),
        schema_files={"catalog": str(dtd)},
        worker_args=["--schema", f"catalog={dtd}"],
        worker_dir=str(tmp_path / "workers"),
    )


@pytest.fixture(params=["serve", "route"])
def daemon(request, tmp_path, monkeypatch):
    if request.param == "serve":
        return _server(tmp_path)
    return _router(tmp_path, monkeypatch)


def _line(job: dict) -> bytes:
    return json.dumps(job).encode("utf-8") + b"\n"


def _exchange(sock: str, data: bytes) -> list[dict]:
    """Send ``data``, close the write side, and read every response until
    the daemon closes the connection."""
    client = socket.socket(socket.AF_UNIX)
    client.settimeout(60)
    client.connect(sock)
    with client:
        client.sendall(data)
        client.shutdown(socket.SHUT_WR)
        with client.makefile("rb") as stream:
            return [json.loads(line) for line in stream]


def _in_process(jobs: list[dict]) -> dict[str, tuple]:
    with BatchEngine(registry=_catalog()) as engine:
        report = engine.run([
            Job(job["query"], job.get("schema"), job["id"]) for job in jobs
        ])
    return {r.id: (r.satisfiable, r.method) for r in report.results}


def _check(records: list[dict], jobs: list[dict], bad_lines: int) -> list[dict]:
    """Exactly one response per admitted line: one per job, with the
    in-process verdict, and one error record per bad line (returned)."""
    errors = [record for record in records if "id" not in record]
    assert len(errors) == bad_lines, errors
    assert all(record["status"] == "error" for record in errors)
    answered = [record for record in records if "id" in record]
    assert sorted(r["id"] for r in answered) == sorted(j["id"] for j in jobs)
    expected = _in_process(jobs)
    for record in answered:
        verdict = (record.get("satisfiable"), record.get("method"))
        assert verdict == expected[record["id"]], record
    return errors


def _in_flight(daemon) -> int:
    if isinstance(daemon, EngineServer):
        return daemon.stats.inflight_jobs
    return sum(shard.depth for shard in daemon.shards)


class TestFaultMatrix:
    def test_over_limit_line_is_answered_and_the_connection_keeps_serving(
        self, daemon
    ):
        jobs = [
            {"query": "A", "schema": "catalog", "id": "at-limit"},
            {"query": ".[B and C]", "schema": "catalog", "id": "after"},
        ]
        head = _line(jobs[0])[:-2]
        at_limit = head + b" " * (MAX_LINE_BYTES - len(head) - 1) + b"}"
        over = b'{"query": "' + b"A" * (MAX_LINE_BYTES - 12) + b'"}'
        assert (len(at_limit), len(over)) == (MAX_LINE_BYTES, MAX_LINE_BYTES + 1)
        with _running(daemon):
            records = _exchange(
                daemon.socket_path,
                at_limit + b"\n" + over + b"\n" + _line(jobs[1]),
            )
        (error,) = _check(records, jobs, bad_lines=1)
        assert error["error"] == f"line longer than {MAX_LINE_BYTES} bytes"
        assert daemon.stats.invalid_lines == 1

    def test_wide_utf8_and_invalid_bytes_cost_no_connection_or_worker(
        self, daemon
    ):
        wide = (MAX_LINE_BYTES - 60) // 2
        jobs = [
            {"query": "é" * wide, "id": "wide-query"},
            {"query": "A", "schema": "é" * wide, "id": "wide-schema"},
            {"query": "A", "schema": "catalog", "id": "after"},
        ]
        lines = [json.dumps(job, ensure_ascii=False).encode() for job in jobs]
        assert all(
            MAX_LINE_BYTES - 64 < len(line) <= MAX_LINE_BYTES
            for line in lines[:2]
        )
        invalid = b'{"query": "' + b"\xff" * 12 * 1024 + b'", "id": "ff"}'
        with _running(daemon):
            records = _exchange(
                daemon.socket_path,
                lines[0] + b"\n" + lines[1] + b"\n" + invalid + b"\n"
                + lines[2] + b"\n",
            )
        (error,) = _check(records, jobs, bad_lines=1)
        assert "not valid UTF-8" in error["error"]
        if isinstance(daemon, EngineRouter):
            assert daemon.stats.restarts == 0
            assert daemon.stats.failed_jobs == 0

    def test_json_the_decoder_refuses_is_an_error_record(self, daemon):
        jobs = [{"query": "A", "schema": "catalog", "id": "after"}]
        nested = b"[" * 50000
        digits = b'{"query": "A", "id": ' + b"1" * 5000 + b"}"
        with _running(daemon):
            records = _exchange(
                daemon.socket_path,
                nested + b"\n" + digits + b"\n" + _line(jobs[0]),
            )
        errors = _check(records, jobs, bad_lines=2)
        assert all("invalid JSON" in error["error"] for error in errors)

    def test_lone_surrogate_escapes_round_trip(self, daemon):
        jobs = [
            {"query": "A[\ud800]", "schema": "catalog", "id": "in-query"},
            {"query": "\udfff", "id": "whole-query"},
            {"query": "A", "schema": "\ud800", "id": "in-schema"},
            {"query": "A", "schema": "catalog", "id": "after"},
        ]
        with _running(daemon):
            records = _exchange(
                daemon.socket_path, b"".join(_line(job) for job in jobs)
            )
        _check(records, jobs, bad_lines=0)
        by_id = {record["id"]: record for record in records}
        assert by_id["in-query"]["query"] == "A[\ud800]"

    def test_client_gone_mid_stream_leaves_nothing_behind(self, daemon):
        queries = ["A", "B", ".[B and C]", "A[not(B)]", "r//A"]
        gone = [
            {"query": queries[i % 5], "schema": "catalog", "id": f"gone-{i}"}
            for i in range(100)
        ]
        stays = [
            {"query": queries[i % 5], "schema": "catalog", "id": f"stays-{i}"}
            for i in range(20)
        ]
        with _running(daemon):
            # the second client is connected, and answered, throughout
            stay = socket.socket(socket.AF_UNIX)
            stay.settimeout(60)
            stay.connect(daemon.socket_path)
            with stay, stay.makefile("rb") as stream:
                stay.sendall(b"".join(_line(job) for job in stays[:10]))
                records = [json.loads(stream.readline()) for _ in range(10)]
                client = socket.socket(socket.AF_UNIX)
                client.connect(daemon.socket_path)
                data = b"".join(_line(job) for job in gone)
                client.sendall(data[:-10])      # the last line is cut short
                client.close()
                stay.sendall(b"".join(_line(job) for job in stays[10:]))
                stay.shutdown(socket.SHUT_WR)
                records += [json.loads(line) for line in stream]
            deadline = time.monotonic() + 30
            while (
                daemon.stats.connections_active or _in_flight(daemon)
            ) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert daemon.stats.connections_active == 0
            assert _in_flight(daemon) == 0
        _check(records, stays, bad_lines=0)
        assert daemon.stats.connections_total == 2

    def test_worker_killed_while_a_stream_is_in_flight(
        self, tmp_path, monkeypatch
    ):
        router = _router(tmp_path, monkeypatch)
        shapes = ["A[not(X{})]", ".[B and C][not(X{})]", "B[not(X{})]"]
        jobs = [
            {"query": shapes[i % 3].format(i), "schema": "catalog",
             "id": f"k{i}"}
            for i in range(200)
        ]
        with _running(router):
            preferred, _ = pick_shard(
                router._shard_key("catalog"), [0, 0], router.spill_depth
            )
            victim = router.shards[preferred].process.pid
            client = socket.socket(socket.AF_UNIX)
            client.settimeout(60)
            client.connect(router.socket_path)
            with client, client.makefile("rb") as stream:
                client.sendall(b"".join(_line(job) for job in jobs))
                records = [json.loads(stream.readline())]
                os.kill(victim, signal.SIGKILL)
                client.shutdown(socket.SHUT_WR)
                records += [json.loads(line) for line in stream]
        _check(records, jobs, bad_lines=0)
        assert router.stats.restarts >= 1


def test_an_unmatched_worker_reply_costs_the_worker_not_the_job(tmp_path):
    """A reply past MAX_REPLY_BYTES cannot be matched to its job: the
    router drops that worker, and the job is still answered once."""
    worker_sock = str(tmp_path / "fake.sock")
    listener = socket.socket(socket.AF_UNIX)
    listener.bind(worker_sock)
    listener.listen(1)
    listener.settimeout(60)

    def fake_worker() -> None:
        conn, _ = listener.accept()
        conn.settimeout(60)
        with conn, conn.makefile("rb") as stream:
            stream.readline()
            conn.sendall(b"x" * (MAX_REPLY_BYTES + 1) + b"\n")
            stream.readline()           # until the router hangs up

    thread = threading.Thread(target=fake_worker, daemon=True)
    thread.start()
    router = EngineRouter(
        attach=[worker_sock], socket_path=str(tmp_path / "front.sock")
    )
    with listener, _running(router):
        records = _exchange(router.socket_path, _line({"query": "A", "id": "j"}))
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert records == [
        {"id": "j", "status": "error", "error": "no live engine workers"}
    ]


@pytest.mark.parametrize("shape", sorted(DEEP_QUERIES))
def test_deep_query_fails_alone_through_serve(tmp_path, shape):
    jobs = [
        {"query": DEEP_QUERIES[shape], "id": "deep"},
        {"query": "A", "schema": "catalog", "id": "ok"},
    ]
    server = _server(tmp_path)
    with _running(server):
        records = _exchange(
            server.socket_path, b"".join(_line(job) for job in jobs)
        )
    by_id = {record["id"]: record for record in records}
    assert len(records) == 2
    assert by_id["deep"]["method"] == "error"
    assert "nests too deeply" in by_id["deep"]["error"]
    assert by_id["ok"]["satisfiable"] is True
    assert server.stats.inflight_jobs == 0


# -- the state-tier cells of the fault matrix, through serve ------------------------

JOBS = [
    {"query": query, "schema": "catalog", "id": f"j{i}"}
    for i, query in enumerate(["A", "B", ".[B and C]", "A[not(B)]", "C"])
]


def _seeded_tier(tmp_path) -> str:
    tier_path = str(tmp_path / "state")
    with BatchEngine(registry=_catalog(), state_tier=tier_path) as seed:
        seed.run([Job(job["query"], job["schema"]) for job in JOBS[:3]])
        seed.save_state()
    return tier_path


class TestTierFaults:
    def test_a_tier_damaged_mid_run_costs_only_the_snapshot(
        self, tmp_path, caplog
    ):
        tier_path = _seeded_tier(tmp_path)
        engine = BatchEngine(registry=_catalog(), state_tier=tier_path)
        server = _server(tmp_path, engine)
        codes: list[int] = []
        with caplog.at_level("ERROR", logger="repro"):
            with _running(server, codes):
                records = _exchange(
                    server.socket_path, b"".join(_line(job) for job in JOBS)
                )
                # overwrite the database and its WAL under the open handle
                for name in ("state.sqlite", "state.sqlite-wal"):
                    with open(os.path.join(tier_path, name), "wb") as handle:
                        handle.write(b"this is not a database" * 256)
        _check(records, JOBS, bad_lines=0)
        assert codes == [0]
        assert engine.closed
        failures = [
            record for record in caplog.records
            if "state snapshot failed" in record.getMessage()
        ]
        assert len(failures) == 1, caplog.records
        with StateTier(tier_path) as tier:
            assert any("moved aside" in w for w in tier.warnings)
            assert tier.load().plan_count == 0
        assert os.path.exists(os.path.join(tier_path, "state.sqlite.corrupt"))

    def test_sigterm_during_a_snapshot_drains_then_saves(
        self, tmp_path, monkeypatch
    ):
        tier_path = _seeded_tier(tmp_path)
        blocked, release = threading.Event(), threading.Event()
        active, overlaps, saves = [0], [0], [0]
        guard = threading.Lock()
        real_save = StateTier.save

        def save(self, **components):
            with guard:
                active[0] += 1
                overlaps[0] = max(overlaps[0], active[0])
                saves[0] += 1
                first = saves[0] == 1
            try:
                if first:
                    blocked.set()
                    assert release.wait(timeout=120)
                return real_save(self, **components)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(StateTier, "save", save)
        engine = BatchEngine(registry=_catalog(), state_tier=tier_path)
        server = _server(tmp_path, engine, snapshot_interval=0.05)
        codes: list[int] = []
        records: list[dict] = []
        with _running(server, codes) as loop:
            assert blocked.wait(timeout=120), "no periodic snapshot began"
            client = threading.Thread(
                target=lambda: records.extend(_exchange(
                    server.socket_path, b"".join(_line(job) for job in JOBS)
                ))
            )
            client.start()
            deadline = time.monotonic() + 60
            while server.stats.jobs_admitted < len(JOBS):
                assert time.monotonic() < deadline, "jobs were not admitted"
                time.sleep(0.01)
            loop.call_soon_threadsafe(server.request_shutdown)
            release.set()
            client.join(timeout=120)
        _check(records, JOBS, bad_lines=0)
        assert codes == [0]
        assert engine.closed
        assert saves[0] >= 2            # the blocked one and the drain's
        assert overlaps[0] == 1
        with StateTier(tier_path) as tier:
            state = tier.load()
        held = {
            (fingerprint, signature)
            for fingerprint, (_name, plans) in engine.registry.plan_records().items()
            for signature in plans
        }
        assert held and held <= {
            (fingerprint, signature)
            for fingerprint, plans in state.plans.items()
            for signature in plans
        }
