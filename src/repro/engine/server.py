"""Satisfiability-as-a-service: the batch engine behind a socket.

``python -m repro serve --socket PATH`` (or ``--port N``) starts an
asyncio daemon that multiplexes any number of concurrent client
connections onto **one** long-lived
:class:`~repro.engine.batch.BatchEngine`.  The engine's decision cache,
plan caches, telemetry, and persistent worker lanes amortize across
every request the process ever serves — the step from "CLI that
amortizes within a run" to "service that amortizes across millions of
requests".

It speaks the JSONL protocol of :mod:`repro.engine.jsonl`, which also
owns framing, intake, the endpoint and the connection lifecycle; this
module is the serving policy on top.

Scheduling: jobs arriving on a connection while the engine is busy
accumulate and dispatch as one engine batch (up to ``max_batch``), so a
client that floods N lines pays per-batch amortization, not N
single-job runs.  Batches from different connections serialize on the
shared engine; results stream back per job via the engine's
``on_result`` callback, so a big batch does not block its own output.

Backpressure: when admitted-but-unanswered jobs reach ``max_inflight``
(default ``64 × workers``), new jobs get a ``retry`` response instead of
unbounded buffering.  The lanes' queues do not bound a batch — the
engine decides in-process the chunks its lanes have no room for — so
the bar is a fixed share of work per worker, not a lane capacity.

Lifecycle: SIGTERM/SIGINT stop intake, drain every admitted job, stream
the remaining results, snapshot ``save_state()`` into the engine's state
tier (``--state-dir`` / ``--state-tier``, when given), close the engine,
and exit cleanly.  ``--snapshot-interval`` additionally snapshots
periodically while serving, so a crash loses at most one interval of
telemetry.  Snapshots run on the engine thread, so two never overlap
and none interleaves with a batch; a failed one (a tier damaged
mid-run) is logged and serving goes on.  Server health (connection and
inflight gauges, ``repro_server_*`` counters, per-batch latency
histogram) rides the unified metrics registry into ``metrics.prom``
next to the tier's database.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.batch import BatchEngine, Job
from repro.engine.jsonl import JsonlDaemon
from repro.errors import EngineError, ReproError
from repro.obs.log import get_logger
from repro.obs.trace import FAILED, OK
from repro.sat.telemetry import LATENCY_BUCKETS_MS

_LOG = get_logger("repro.engine.server")

#: largest number of pending jobs one engine batch will take
DEFAULT_MAX_BATCH = 256

#: admitted-but-unanswered jobs per engine worker before new ones are shed
DEFAULT_INFLIGHT_PER_WORKER = 64
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
    record queue, and the batch loop with the wakeup it parks on."""

    def __init__(self, conn_id: int) -> None:
        self.conn_id = conn_id
        self.pending: list[Job] = []
        self.out_queue: asyncio.Queue = asyncio.Queue()
        self.wakeup = asyncio.Event()
        self.eof = False
        self.jobs = 0
        self.batches = 0
        self.batch_task: asyncio.Task | None = None
        self.trace = None

    def kick(self) -> None:
        self.wakeup.set()


class EngineServer(JsonlDaemon):
    """The asyncio daemon behind ``repro serve``: the serving policy on
    top of :class:`~repro.engine.jsonl.JsonlDaemon`.

    One engine, many connections: :meth:`_ingest` admits (or sheds) each
    line, and a batch loop per connection dispatches its pending jobs to
    the shared engine.  The engine runs on one dedicated thread —
    `BatchEngine` is not thread-safe, and the thread keeps the event
    loop free to accept, ingest, and stream while a batch decides."""

    command = "serve"

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
        super().__init__(
            socket_path=socket_path, host=host, port=port, on_ready=on_ready
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
        self.max_batch = max_batch
        # default backpressure bar: a fixed share of work per worker —
        # admitting much more only grows server-side buffers without
        # making anything finish sooner
        self.max_inflight = (
            max_inflight if max_inflight is not None
            else DEFAULT_INFLIGHT_PER_WORKER * engine.workers
        )
        self.snapshot_interval = snapshot_interval
        self.stats = ServerStats()
        engine.metrics_sources.append(self.stats)
        self._engine_lock: asyncio.Lock | None = None
        self._engine_thread: ThreadPoolExecutor | None = None
        self._snapshot_task: asyncio.Task | None = None

    # -- daemon lifecycle ---------------------------------------------------
    async def _start(self) -> None:
        self._engine_lock = asyncio.Lock()
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )

    def _serving(self) -> None:
        if (
            self.snapshot_interval is not None
            and self.engine.state_tier is not None
        ):
            self._snapshot_task = asyncio.create_task(self._snapshot_loop())
        _LOG.info(
            "serving on %s (max_batch=%d, max_inflight=%d, workers=%d)",
            self.endpoint, self.max_batch, self.max_inflight,
            self.engine.workers,
        )

    async def _stop(self) -> None:
        # every connection has drained its admitted jobs by now
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            await asyncio.gather(self._snapshot_task, return_exceptions=True)
        if self.engine.state_tier is not None:
            await self._snapshot()
        self._engine_thread.shutdown(wait=True)
        if not self.engine.closed:
            self.engine.close()
        _LOG.info(
            "drained and closed (%d jobs over %d connections)",
            self.stats.jobs_admitted, self.stats.connections_total,
        )

    # -- per-connection policy ----------------------------------------------
    def _open(self, conn_id: int) -> _Connection:
        conn = _Connection(conn_id)
        tracer = self.engine.tracer
        if tracer is not None:
            conn.trace = tracer.begin(
                job_id=f"conn-{conn_id}", query="<connection>"
            )
        conn.batch_task = asyncio.create_task(self._batch_loop(conn))
        return conn

    async def _finish(self, conn: _Connection) -> None:
        conn.eof = True
        conn.kick()
        try:
            await conn.batch_task
        finally:
            if conn.trace is not None:
                self.engine.tracer.finish(
                    conn.trace,
                    verdict=f"{conn.jobs} jobs/{conn.batches} batches",
                    route="serve",
                )

    def _ingest(self, conn: _Connection, line: bytes | None) -> None:
        job = self._intake(conn, line)
        if job is None:
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

    async def _batch_loop(self, conn: _Connection) -> None:
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
            await self._run_batch(conn, batch, conn.trace)

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
                path = await loop.run_in_executor(
                    self._engine_thread, self.engine.save_state
                )
            except (ReproError, OSError) as error:
                _LOG.error("state snapshot failed: %s", error)
                return
        self.stats.snapshots += 1
        _LOG.info("state snapshot saved to %s", path)
