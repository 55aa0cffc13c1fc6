"""Satisfiability-as-a-service: the batch engine behind a socket.

``python -m repro serve --socket PATH`` (or ``--port N``) starts an
asyncio daemon that multiplexes any number of concurrent client
connections onto **one** long-lived
:class:`~repro.engine.batch.BatchEngine`.  The engine's decision cache,
plan caches, cost model, and persistent worker lanes amortize across
every request the process ever serves — the step from "CLI that
amortizes within a run" to "service that amortizes across millions of
requests".

Protocol — the batch engine's existing JSONL job format, framed over
the socket:

* client → server: one job object per line (``{"query": ..., "schema":
  ..., "id": ...}``; ``schema``/``id`` optional, blank lines and ``#``
  comments ignored) — byte-compatible with ``repro batch`` input files;
* server → client: one JSON object per line, streamed **as each job's
  verdict lands** (order across a batch is not input order — match by
  ``id``).  Three shapes:

  - a normal result record (:meth:`~repro.engine.batch.JobResult.to_record`);
  - ``{"id": ..., "status": "retry", "error": ...}`` — admission
    control shed the job (too many in flight); resubmit later;
  - ``{"status": "error", "error": ...}`` — the line was not a valid
    job record (never executed, nothing in flight).

Scheduling: jobs arriving on a connection while the engine is busy
accumulate and dispatch as one engine batch (up to ``max_batch``), so a
client that floods N lines pays per-batch amortization, not N
single-job runs.  Batches from different connections serialize on the
shared engine; results stream back per job via the engine's
``on_result`` callback, so a big batch does not block its own output.

Backpressure: when admitted-but-unanswered jobs reach ``max_inflight``
(default ``workers × lane_queue_depth × group_chunk_size``, the lane
queues' worth of work), new jobs get a ``retry`` response instead of
unbounded buffering — the same shed-don't-queue stance the lanes take
at ``lane_queue_depth``.

Lifecycle: SIGTERM/SIGINT stop intake, drain every admitted job, stream
the remaining results, snapshot ``save_state()`` (when the engine has a
state dir or shared state tier), close the engine, and exit cleanly;
``--snapshot-interval``
additionally snapshots periodically while serving, so a crash loses at
most one interval of telemetry.  Server health (connection and inflight
gauges, ``repro_server_*`` counters, per-batch latency histogram) rides
the unified metrics registry into the state dir's ``metrics.prom``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal as signal_module
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.batch import BatchEngine, Job
from repro.engine.jobs import parse_job_line
from repro.errors import EngineError, ReproError
from repro.obs.log import get_logger
from repro.obs.trace import FAILED, OK
from repro.sat.telemetry import LATENCY_BUCKETS_MS

_LOG = get_logger("repro.engine.server")

#: largest number of pending jobs one engine batch will take
DEFAULT_MAX_BATCH = 256
#: seconds between periodic save_state() snapshots while serving
DEFAULT_SNAPSHOT_INTERVAL = 300.0


@dataclass
class ServerStats:
    """Serving-layer counters and gauges, registered into the engine's
    unified metrics registry (so ``save_state`` snapshots them into
    ``metrics.prom`` alongside the engine's own counters)."""

    connections_total: int = 0
    connections_active: int = 0
    jobs_admitted: int = 0
    results_streamed: int = 0
    retries_shed: int = 0
    invalid_lines: int = 0
    batches: int = 0
    inflight_jobs: int = 0
    snapshots: int = 0
    batch_ms: list[float] = field(default_factory=list)

    def register_metrics(self, registry) -> None:
        for name, attr, help_text in (
            ("connections", "connections_total",
             "client connections accepted"),
            ("jobs", "jobs_admitted", "job lines admitted for execution"),
            ("results", "results_streamed",
             "result lines streamed back to clients"),
            ("retries", "retries_shed",
             "jobs shed with a retry response (backpressure)"),
            ("invalid_lines", "invalid_lines",
             "request lines that were not valid job records"),
            ("batches", "batches", "engine batches dispatched by the server"),
            ("snapshots", "snapshots", "state snapshots written while serving"),
        ):
            registry.counter(f"repro_server_{name}_total", help_text).inc(
                getattr(self, attr)
            )
        registry.gauge(
            "repro_server_active_connections", "currently connected clients"
        ).set(self.connections_active)
        registry.gauge(
            "repro_server_inflight_jobs",
            "jobs admitted but not yet answered",
        ).set(self.inflight_jobs)
        histogram = registry.histogram(
            "repro_server_batch_ms", LATENCY_BUCKETS_MS,
            "wall time of one server-dispatched engine batch (ms)",
        )
        for elapsed_ms in self.batch_ms:
            histogram.observe(elapsed_ms)


class _Connection:
    """Per-client state: jobs waiting for the next batch, the outbound
    line queue, and the wakeup the batch loop parks on."""

    def __init__(self, conn_id: int) -> None:
        self.conn_id = conn_id
        self.pending: list[Job] = []
        self.out_queue: asyncio.Queue = asyncio.Queue()
        self.wakeup = asyncio.Event()
        self.eof = False
        self.jobs = 0
        self.batches = 0

    def kick(self) -> None:
        self.wakeup.set()


class EngineServer:
    """The asyncio daemon behind ``repro serve``.

    One engine, many connections: each connection runs a read loop
    (ingest + admission control), a batch loop (dispatch pending jobs to
    the shared engine), and a writer loop (stream result lines).  The
    engine itself runs on a single dedicated thread — `BatchEngine` is
    not thread-safe, and one thread keeps the event loop free to accept,
    ingest, and stream while a batch decides.

    ``on_ready`` (optional) is called with the server once the socket is
    bound and listening — the CLI uses it to print the endpoint.
    """

    def __init__(
        self,
        engine: BatchEngine,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_inflight: int | None = None,
        snapshot_interval: float | None = None,
        on_ready: Callable[["EngineServer"], None] | None = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise EngineError(
                "serve needs exactly one endpoint: --socket PATH or --port N"
            )
        if max_batch < 1:
            raise EngineError(f"max_batch must be positive, got {max_batch}")
        if max_inflight is not None and max_inflight < 1:
            raise EngineError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise EngineError(
                f"snapshot_interval must be positive, got {snapshot_interval}"
            )
        self.engine = engine
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_batch = max_batch
        # default backpressure bar: the pooled lanes' queueing capacity —
        # admitting more than the lanes can hold only grows server-side
        # buffers without making anything finish sooner
        self.max_inflight = (
            max_inflight if max_inflight is not None
            else max(
                1,
                engine.workers * engine.lane_queue_depth
                * engine.group_chunk_size,
            )
        )
        self.snapshot_interval = snapshot_interval
        self.on_ready = on_ready
        self.stats = ServerStats()
        engine.metrics_sources.append(self.stats)
        self.endpoint: str | None = None
        self._shutdown: asyncio.Event | None = None
        self._engine_lock: asyncio.Lock | None = None
        self._engine_thread: ThreadPoolExecutor | None = None
        self._client_tasks: set = set()
        self._next_conn_id = 0

    # -- entry points -------------------------------------------------------
    def run(self) -> int:
        """Blocking entry point (the CLI): serve until SIGTERM/SIGINT,
        then drain and exit 0."""
        asyncio.run(self.serve_forever())
        return 0

    def request_shutdown(self, reason: str = "request") -> None:
        """Begin a graceful drain (idempotent; also the signal handler)."""
        if self._shutdown is not None and not self._shutdown.is_set():
            _LOG.warning("received %s: draining and shutting down", reason)
            self._shutdown.set()

    async def serve_forever(self) -> None:
        loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._engine_lock = asyncio.Lock()
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.request_shutdown,
                    signal_module.Signals(signum).name,
                )
            except (NotImplementedError, RuntimeError):
                # non-main thread or platform without signal support
                # (e.g. an embedded test loop): shutdown comes from
                # request_shutdown() instead
                pass
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                # a stale socket from a crashed predecessor would fail
                # the bind; a *live* predecessor loses the path — same
                # rule every unix-socket daemon applies
                _LOG.warning("removing stale socket %s", self.socket_path)
                os.unlink(self.socket_path)
            server = await asyncio.start_unix_server(
                self._client, path=self.socket_path
            )
            self.endpoint = f"unix:{self.socket_path}"
        else:
            server = await asyncio.start_server(
                self._client, host=self.host, port=self.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self.endpoint = f"{self.host}:{self.port}"
        snapshot_task = None
        if self.snapshot_interval is not None and self.engine.has_state:
            snapshot_task = asyncio.create_task(self._snapshot_loop())
        _LOG.info(
            "serving on %s (max_batch=%d, max_inflight=%d, workers=%d)",
            self.endpoint, self.max_batch, self.max_inflight,
            self.engine.workers,
        )
        if self.on_ready is not None:
            self.on_ready(self)
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            # graceful drain: every connection handler finishes its
            # admitted jobs and streams their results before we snapshot
            if self._client_tasks:
                await asyncio.gather(
                    *list(self._client_tasks), return_exceptions=True
                )
            if snapshot_task is not None:
                snapshot_task.cancel()
                try:
                    await snapshot_task
                except asyncio.CancelledError:
                    pass
            if self.engine.has_state:
                await self._snapshot()
            self._engine_thread.shutdown(wait=True)
            if not self.engine.closed:
                self.engine.close()
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
            _LOG.info(
                "drained and closed (%d jobs over %d connections)",
                self.stats.jobs_admitted, self.stats.connections_total,
            )

    # -- per-connection machinery -------------------------------------------
    async def _client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._client_tasks.add(task)
        self._next_conn_id += 1
        conn = _Connection(self._next_conn_id)
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        tracer = self.engine.tracer
        trace = None
        if tracer is not None:
            trace = tracer.begin(
                job_id=f"conn-{conn.conn_id}", query="<connection>"
            )
        writer_task = asyncio.create_task(self._writer_loop(conn, writer))
        batch_task = asyncio.create_task(self._batch_loop(conn, trace))
        try:
            await self._read_loop(conn, reader)
        finally:
            conn.eof = True
            conn.kick()
            try:
                await batch_task
            finally:
                await conn.out_queue.put(None)
                try:
                    await writer_task
                finally:
                    if tracer is not None and trace is not None:
                        tracer.finish(
                            trace,
                            verdict=f"{conn.jobs} jobs/{conn.batches} batches",
                            route="serve",
                        )
                    self.stats.connections_active -= 1
                    self._client_tasks.discard(task)
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

    async def _read_loop(self, conn: _Connection, reader) -> None:
        """Ingest lines until client EOF or shutdown (on shutdown the
        connection stops *reading* but its admitted jobs still drain)."""
        shutdown_wait = asyncio.ensure_future(self._shutdown.wait())
        try:
            while True:
                read = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {read, shutdown_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read not in done:
                    read.cancel()
                    try:
                        await read
                    except (asyncio.CancelledError, ConnectionError, OSError):
                        pass
                    return
                try:
                    line = read.result()
                except (ConnectionError, OSError):
                    return
                if not line:
                    return
                self._ingest(conn, line)
        finally:
            shutdown_wait.cancel()
            try:
                await shutdown_wait
            except asyncio.CancelledError:
                pass

    def _ingest(self, conn: _Connection, line: bytes) -> None:
        text = line.decode("utf-8", "replace").strip()
        if not text or text.startswith("#"):
            return
        try:
            job = parse_job_line(text)
        except EngineError as error:
            self.stats.invalid_lines += 1
            conn.out_queue.put_nowait({"status": "error", "error": str(error)})
            return
        if self.stats.inflight_jobs >= self.max_inflight:
            self.stats.retries_shed += 1
            conn.out_queue.put_nowait({
                "id": job.id if job.id is not None else job.query_text,
                "status": "retry",
                "error": (
                    f"backpressure: {self.stats.inflight_jobs} jobs in "
                    f"flight (max {self.max_inflight}); retry later"
                ),
            })
            return
        self.stats.jobs_admitted += 1
        self.stats.inflight_jobs += 1
        conn.jobs += 1
        conn.pending.append(job)
        conn.kick()

    async def _batch_loop(self, conn: _Connection, trace) -> None:
        while True:
            if not conn.pending:
                if conn.eof:
                    return
                conn.wakeup.clear()
                # single-threaded loop: nothing can append between the
                # clear and this check without an await in between
                if not conn.pending and not conn.eof:
                    await conn.wakeup.wait()
                continue
            batch = conn.pending[: self.max_batch]
            del conn.pending[: len(batch)]
            conn.batches += 1
            await self._run_batch(conn, batch, trace)

    async def _run_batch(self, conn: _Connection, batch: list[Job], trace) -> None:
        loop = asyncio.get_running_loop()
        emitted = [0]

        def stream(result) -> None:
            # called on the engine thread; call_soon_threadsafe keeps
            # FIFO order, so every result is enqueued on the loop before
            # the run_in_executor await below resumes
            loop.call_soon_threadsafe(self._emit, conn, result, emitted)

        start = time.perf_counter()
        error: str | None = None
        async with self._engine_lock:
            try:
                await loop.run_in_executor(
                    self._engine_thread, self.engine.run, batch, stream
                )
            except ReproError as exc:
                error = str(exc)
            except Exception as exc:
                # a bug inside the engine: its jobs still get their error
                # records below, and the connection keeps serving
                _LOG.exception("engine run failed")
                error = f"{type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.stats.batches += 1
        self.stats.batch_ms.append(elapsed_ms)
        if trace is not None:
            attrs: dict[str, Any] = {
                "jobs": len(batch), "connection": conn.conn_id,
            }
            if error is not None:
                attrs["error"] = error
            trace.span(
                "serve.batch", ms=elapsed_ms,
                status=FAILED if error is not None else OK, attrs=attrs,
            )
        missing = len(batch) - emitted[0]
        if missing > 0:
            # a batch-level failure (e.g. the engine raised): every
            # admitted job still gets exactly one response line
            message = (
                error if error is not None
                else "engine returned no result for this job"
            )
            _LOG.error(
                "batch of %d jobs ended after %d results: %s",
                len(batch), emitted[0], message,
            )
            self.stats.inflight_jobs -= missing
            if emitted[0] == 0:
                for job in batch:
                    conn.out_queue.put_nowait({
                        "id": job.id if job.id is not None else job.query_text,
                        "status": "error",
                        "error": message,
                    })
            else:
                for _ in range(missing):
                    conn.out_queue.put_nowait(
                        {"status": "error", "error": message}
                    )

    def _emit(self, conn: _Connection, result, emitted: list[int]) -> None:
        emitted[0] += 1
        self.stats.inflight_jobs -= 1
        self.stats.results_streamed += 1
        conn.out_queue.put_nowait(result.to_record())

    async def _writer_loop(self, conn: _Connection, writer) -> None:
        while True:
            record = await conn.out_queue.get()
            if record is None:
                return
            try:
                writer.write(
                    (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
            except (ConnectionError, OSError):
                # client went away mid-stream; keep consuming so the
                # batch loop's puts drain into the void until the
                # sentinel arrives (its verdicts are already cached)
                continue

    # -- snapshots ----------------------------------------------------------
    async def _snapshot_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                await asyncio.wait_for(
                    self._shutdown.wait(), timeout=self.snapshot_interval
                )
            except asyncio.TimeoutError:
                await self._snapshot()
            else:
                return

    async def _snapshot(self) -> None:
        loop = asyncio.get_running_loop()
        async with self._engine_lock:
            try:
                await loop.run_in_executor(
                    self._engine_thread, self.engine.save_state
                )
            except (ReproError, OSError) as error:
                _LOG.error("state snapshot failed: %s", error)
                return
        self.stats.snapshots += 1
        _LOG.info("state snapshot saved to %s", self.engine.state_target)
