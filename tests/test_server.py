"""Tests for the serving daemon (:mod:`repro.engine.server`).

In-process tests drive the admission-control and stats layers directly;
the smoke tests fork a real ``python -m repro serve`` daemon on a unix
socket and speak the JSONL protocol over concurrent client connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.engine import BatchEngine, SchemaRegistry
from repro.engine.server import EngineServer, _Connection
from repro.errors import EngineError

DTD_TEXT = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""


@pytest.fixture
def engine():
    registry = SchemaRegistry()
    registry.register("catalog", DTD_TEXT)
    engine = BatchEngine(registry=registry)
    yield engine
    if not engine.closed:
        engine.close()


# -- construction and admission control ------------------------------------------

class TestServerConfig:
    def test_requires_exactly_one_endpoint(self, engine):
        with pytest.raises(EngineError, match="exactly one endpoint"):
            EngineServer(engine)
        with pytest.raises(EngineError, match="exactly one endpoint"):
            EngineServer(engine, socket_path="x.sock", port=7000)

    def test_rejects_bad_tunables(self, engine):
        with pytest.raises(EngineError, match="max_batch"):
            EngineServer(engine, port=0, max_batch=0)
        with pytest.raises(EngineError, match="max_inflight"):
            EngineServer(engine, port=0, max_inflight=0)
        with pytest.raises(EngineError, match="snapshot_interval"):
            EngineServer(engine, port=0, snapshot_interval=-1.0)

    def test_default_inflight_bar_is_lane_capacity(self, engine):
        # 64 jobs per worker, whatever the chunk size: the engine decides
        # in-process what its lanes have no room for
        server = EngineServer(engine, port=0)
        assert server.max_inflight == 64 * engine.workers

    def test_stats_ride_the_engine_metrics_registry(self, engine):
        EngineServer(engine, port=0)
        rendered = engine.metrics_registry().render_prometheus()
        assert "repro_server_connections_total" in rendered
        assert "repro_server_active_connections" in rendered
        assert "repro_server_inflight_jobs" in rendered
        assert "repro_server_batch_ms" in rendered


class TestAdmissionControl:
    def test_invalid_line_gets_error_response(self, engine):
        server = EngineServer(engine, port=0)
        conn = _Connection(1)
        server._ingest(conn, b'{"query": 5}\n')
        record = conn.out_queue.get_nowait()
        assert record["status"] == "error"
        assert server.stats.invalid_lines == 1
        assert server.stats.inflight_jobs == 0
        assert not conn.pending

    def test_blank_and_comment_lines_are_ignored(self, engine):
        server = EngineServer(engine, port=0)
        conn = _Connection(1)
        server._ingest(conn, b"\n")
        server._ingest(conn, b"# a comment\n")
        assert conn.out_queue.empty()
        assert not conn.pending

    def test_backpressure_sheds_with_retry(self, engine):
        server = EngineServer(engine, port=0, max_inflight=1)
        conn = _Connection(1)
        server._ingest(conn, b'{"query": "A", "schema": "catalog", "id": "a"}\n')
        assert server.stats.jobs_admitted == 1
        assert len(conn.pending) == 1
        assert conn.wakeup.is_set()
        server._ingest(conn, b'{"query": "B", "schema": "catalog", "id": "b"}\n')
        record = conn.out_queue.get_nowait()
        assert record == {
            "id": "b",
            "status": "retry",
            "error": "backpressure: 1 jobs in flight (max 1); retry later",
        }
        assert server.stats.retries_shed == 1
        assert len(conn.pending) == 1       # the shed job was never admitted

    def test_snapshot_counter_lands_in_metrics(self, engine):
        server = EngineServer(engine, port=0)
        server.stats.snapshots = 3
        rendered = engine.metrics_registry().render_prometheus()
        assert "repro_server_snapshots_total 3" in rendered


class TestEngineFailure:
    def test_engine_bug_answers_every_line_and_frees_capacity(self, engine, tmp_path):
        """A non-library exception from ``engine.run`` (a bug inside the
        engine) still gets the batch's jobs an error record each; the
        connection keeps serving and in-flight capacity is returned."""
        real_run = engine.run
        calls = []

        def flaky_run(jobs, on_result=None):
            calls.append(len(jobs))
            if len(calls) == 1:
                raise RuntimeError("injected engine bug")
            return real_run(jobs, on_result=on_result)

        engine.run = flaky_run
        ready = threading.Event()
        loops = []

        def on_ready(server):
            loops.append(asyncio.get_running_loop())
            ready.set()

        sock = str(tmp_path / "serve.sock")
        server = EngineServer(engine, socket_path=sock, on_ready=on_ready)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            assert ready.wait(timeout=30), "server did not come up"
            client = socket.socket(socket.AF_UNIX)
            client.settimeout(20)
            client.connect(sock)
            with client, client.makefile("rw", encoding="utf-8") as stream:
                stream.write(json.dumps(
                    {"query": "A", "schema": "catalog", "id": "first"}
                ) + "\n")
                stream.flush()
                failed = json.loads(stream.readline())
                stream.write(json.dumps(
                    {"query": "B", "schema": "catalog", "id": "second"}
                ) + "\n")
                stream.flush()
                answered = json.loads(stream.readline())
        finally:
            if loops:
                loops[0].call_soon_threadsafe(server.request_shutdown)
            thread.join(timeout=30)
        assert not thread.is_alive(), "server did not drain"
        assert failed["id"] == "first"
        assert failed["status"] == "error"
        assert "RuntimeError: injected engine bug" in failed["error"]
        assert answered["id"] == "second"
        assert answered["satisfiable"] is True
        assert server.stats.inflight_jobs == 0
        assert server.stats.results_streamed == 1


    def test_inline_decider_bug_fails_only_its_lines(
        self, engine, tmp_path, monkeypatch
    ):
        """A non-library exception from one in-process decision fails
        only the lines asking that question: the rest of the micro-batch
        still gets its answers."""
        import dataclasses

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("downward")

        def flaky(query, *args, **kwargs):
            if str(query) == "C":
                raise RuntimeError("latent decider bug")
            return spec.fn(query, *args, **kwargs)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "downward", dataclasses.replace(spec, fn=flaky)
        )
        jobs = [
            {"query": "C", "schema": "catalog", "id": "doomed-1"},
            {"query": "A", "schema": "catalog", "id": "fine-1"},
            {"query": "B", "schema": "catalog", "id": "fine-2"},
            {"query": "C", "schema": "catalog", "id": "doomed-2"},
        ]
        ready = threading.Event()
        loops = []

        def on_ready(server):
            loops.append(asyncio.get_running_loop())
            ready.set()

        sock = str(tmp_path / "serve.sock")
        server = EngineServer(engine, socket_path=sock, on_ready=on_ready)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            assert ready.wait(timeout=30), "server did not come up"
            client = socket.socket(socket.AF_UNIX)
            client.settimeout(20)
            client.connect(sock)
            with client, client.makefile("rb") as stream:
                # one write, so the lines share a micro-batch
                client.sendall(b"".join(
                    json.dumps(job).encode() + b"\n" for job in jobs
                ))
                records = [json.loads(stream.readline()) for _ in jobs]
        finally:
            if loops:
                loops[0].call_soon_threadsafe(server.request_shutdown)
            thread.join(timeout=30)
        assert not thread.is_alive(), "server did not drain"
        by_id = {record["id"]: record for record in records}
        assert set(by_id) == {job["id"] for job in jobs}
        for job_id in ("doomed-1", "doomed-2"):
            assert "latent decider bug" in by_id[job_id]["error"]
        for job_id in ("fine-1", "fine-2"):
            assert "error" not in by_id[job_id], by_id[job_id]
            assert by_id[job_id]["satisfiable"] is True
        assert server.stats.inflight_jobs == 0


# -- end-to-end smoke over a unix socket -----------------------------------------

def _client_exchange(sock_path: str, jobs: list[dict]) -> list[dict]:
    """Connect, send every job line, read one response line per job
    while the write side stays open (streaming, not request/response)."""
    client = socket.socket(socket.AF_UNIX)
    client.settimeout(60)
    client.connect(sock_path)
    with client, client.makefile("rw", encoding="utf-8") as stream:
        for job in jobs:
            stream.write(json.dumps(job) + "\n")
        stream.flush()
        return [json.loads(stream.readline()) for _ in jobs]


class TestServeSmoke:
    @pytest.fixture
    def daemon(self, tmp_path):
        dtd = tmp_path / "catalog.dtd"
        dtd.write_text(DTD_TEXT)
        sock = str(tmp_path / "repro.sock")
        state = str(tmp_path / "state")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        # output goes to a file: a pipe nobody reads could fill up, and
        # reading one blocks until a still-running daemon exits
        log = tmp_path / "serve.log"
        with open(log, "w") as output:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--socket", sock, "--schema", f"catalog={dtd}",
                    "--state-dir", state,
                ],
                stdout=output, stderr=subprocess.STDOUT,
                env=env, cwd=str(tmp_path),
            )
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(sock):
                if process.poll() is not None or time.monotonic() > deadline:
                    if process.poll() is None:
                        process.kill()
                    process.wait(timeout=30)
                    raise AssertionError(
                        f"serve did not come up: {log.read_text()}"
                    )
                time.sleep(0.05)
            yield process, sock, state
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)

    def test_two_concurrent_clients_stream_and_drain(self, daemon):
        process, sock, state = daemon
        outputs: dict[str, list[dict]] = {}

        def client(tag: str, queries: list[str]) -> None:
            outputs[tag] = _client_exchange(sock, [
                {"query": query, "schema": "catalog", "id": f"{tag}-{i}"}
                for i, query in enumerate(queries)
            ])

        threads = [
            threading.Thread(
                target=client, args=("one", ["A", "B", ".[B and C]"])
            ),
            threading.Thread(target=client, args=("two", ["C", "A[B]"])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert {r["id"] for r in outputs["one"]} == {"one-0", "one-1", "one-2"}
        assert {r["id"] for r in outputs["two"]} == {"two-0", "two-1"}
        by_id = {
            r["id"]: r for records in outputs.values() for r in records
        }
        assert by_id["one-0"]["satisfiable"] is True
        assert by_id["one-2"]["satisfiable"] is False   # B and C are exclusive
        assert by_id["two-1"]["satisfiable"] is False   # A has no children

        # graceful SIGTERM drain: exit 0, state + server gauges on disk,
        # socket unlinked
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        metrics = open(os.path.join(state, "metrics.prom")).read()
        assert "repro_server_connections_total 2" in metrics
        assert "repro_server_results_total 5" in metrics
        assert "repro_server_active_connections 0" in metrics
        assert "repro_server_inflight_jobs 0" in metrics
        assert not os.path.exists(sock)

    def test_streams_before_client_closes_write_side(self, daemon):
        # a true streaming check: read the response while the connection
        # is still open for writing, then keep using the same connection
        _process, sock, _state = daemon
        client = socket.socket(socket.AF_UNIX)
        client.settimeout(60)
        client.connect(sock)
        with client, client.makefile("rw", encoding="utf-8") as stream:
            stream.write('{"query": "A", "schema": "catalog", "id": "j1"}\n')
            stream.flush()
            first = json.loads(stream.readline())
            assert first["id"] == "j1" and first["satisfiable"] is True
            stream.write('{"query": "A[B]", "schema": "catalog", "id": "j2"}\n')
            stream.flush()
            second = json.loads(stream.readline())
            assert second["id"] == "j2" and second["satisfiable"] is False

    def test_sigterm_drains_inflight_jobs(self, daemon):
        process, sock, _state = daemon
        client = socket.socket(socket.AF_UNIX)
        client.settimeout(60)
        client.connect(sock)
        with client, client.makefile("rw", encoding="utf-8") as stream:
            jobs = [
                {"query": query, "schema": "catalog", "id": f"d{i}"}
                for i, query in enumerate(["A", "B", "C", ".[B and C]"])
            ]
            for job in jobs:
                stream.write(json.dumps(job) + "\n")
            stream.flush()
            process.send_signal(signal.SIGTERM)
            # every admitted job still streams its verdict before the
            # server closes the connection
            records = []
            while True:
                line = stream.readline()
                if not line:
                    break
                records.append(json.loads(line))
        admitted = {r["id"] for r in records if "id" in r}
        assert admitted == {f"d{i}" for i in range(4)}
        assert process.wait(timeout=30) == 0
