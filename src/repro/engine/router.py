"""Multi-process scale-out: the schema-sharded front door.

``python -m repro route --workers N`` starts an asyncio router speaking
the **same JSONL job protocol** as ``repro serve`` — clients cannot tell
the difference — and fans the work out across N independent engine
processes:

* **worker fleet** — the router spawns N ``repro serve`` subprocesses
  (one unix socket each, under ``--worker-dir``) and/or attaches to
  pre-started sockets (``--attach``).  Spawned workers get the shared
  ``--state-tier`` on their command line, so every engine **warms its
  caches from the tier before its socket exists** — the router only
  accepts client traffic once every worker is connectable, hence no
  process ever plans cold;
* **schema-fingerprint sharding** — each job's schema resolves to its
  content fingerprint and ``crc32(fingerprint) % N`` picks the preferred
  shard (the persistent lanes' consistent-hash affinity trick, one
  level up), so one schema's plan cache, prepared contexts, and lane
  affinity concentrate in one process.  When the preferred shard is
  saturated (``--spill-depth`` jobs in flight) or down, the job spills
  to the least-loaded live shard (counted, like the lanes' spills);
* **exactly-once fan-in** — the router rewrites each job id to a unique
  token and keeps ``token -> (client, original id)``; the mapping is
  popped on the first response, so a worker that answers twice (or a
  retried job whose first attempt resurfaces) cannot duplicate a client
  result line.  Responses restore the client's original id (or the
  engine's query-text default, byte-compatible with ``repro serve``).
  A worker's backpressure shed (``status: retry``) never reaches the
  client: the front door owns delivery and requeues the job until a
  shard has capacity;
* **worker supervision** — a shard whose process dies or whose
  connection drops is restarted (up to ``--max-restarts`` times) and
  its in-flight jobs are re-dispatched exactly once; a job whose retry
  also dies gets an error response instead of a third attempt.

The connection layer is :mod:`repro.engine.jsonl`, shared with ``repro
serve``; a job the router admits always fits the worker's line limit.
SIGTERM / SIGINT stop intake, drain every routed job, then SIGTERM the
managed workers — each drains and snapshots the shared tier on its own
— and reap them, as a respawn does first.  ``repro_router_*`` metrics
render into ``--metrics-out``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import zlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.dtd.parser import parse_dtd
from repro.engine.jsonl import (
    MAX_LINE_BYTES,
    MAX_REPLY_BYTES,
    JsonlDaemon,
    encode_forward,
    read_lines,
    write_lines,
)
from repro.engine.registry import schema_fingerprint
from repro.engine.statetier import atomic_write_text
from repro.errors import EngineError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry

_LOG = get_logger("repro.engine.router")

#: in-flight jobs a preferred shard may hold before a job spills to the
#: least-loaded shard (the lanes' DEFAULT_LANE_QUEUE_DEPTH stance, sized
#: for whole processes: one serve worker batches up to 256 jobs)
DEFAULT_SPILL_DEPTH = 64

#: times one shard's process is restarted before it is left for dead
DEFAULT_MAX_RESTARTS = 3

#: seconds to wait for a spawned worker's socket to accept
DEFAULT_WORKER_BOOT_TIMEOUT = 120.0

#: seconds a SIGTERMed worker gets to drain and snapshot before SIGKILL
WORKER_STOP_TIMEOUT = 30.0

#: shard key for jobs without a schema (decided over unconstrained trees)
NO_SCHEMA_KEY = "-"


def pick_shard(
    key: str,
    depths: Sequence[int],
    spill_depth: int,
    alive: Sequence[bool] | None = None,
) -> tuple[int, bool]:
    """Choose a shard for ``key``: the consistent-hash preferred shard
    unless it is saturated (``>= spill_depth`` in flight) or down, in
    which case the least-loaded live shard wins.  Returns ``(index,
    spilled)``; spilling to a shard at least as loaded as the preferred
    one is pointless, so the preferred shard keeps the job then.

    Pure function of its arguments — the routing policy in one testable
    place."""
    if not depths:
        raise EngineError("no shards")
    alive = alive if alive is not None else [True] * len(depths)
    live = [index for index, up in enumerate(alive) if up]
    if not live:
        raise EngineError("no live shards")
    # surrogatepass: a schema reference may hold a lone surrogate (a
    # JSON escape), which must hash rather than raise
    preferred = zlib.crc32(key.encode("utf-8", "surrogatepass")) % len(depths)
    if alive[preferred] and depths[preferred] < spill_depth:
        return preferred, False
    least = min(live, key=lambda index: (depths[index], index))
    if least == preferred:
        return preferred, False
    if alive[preferred] and depths[least] >= depths[preferred]:
        return preferred, False
    return least, True


@dataclass
class RouterStats:
    """Routing-layer counters and gauges (``repro_router_*``)."""

    connections_total: int = 0
    connections_active: int = 0
    jobs_routed: int = 0
    results_returned: int = 0
    spills: int = 0
    restarts: int = 0
    retried_jobs: int = 0
    sheds_requeued: int = 0
    failed_jobs: int = 0
    invalid_lines: int = 0
    shard_jobs: dict[int, int] = field(default_factory=dict)
    shard_depth: dict[int, int] = field(default_factory=dict)

    def shards_used(self) -> int:
        return sum(1 for count in self.shard_jobs.values() if count)

    def register_metrics(self, registry) -> None:
        for name, attr, help_text in (
            ("connections", "connections_total",
             "client connections accepted by the router"),
            ("jobs", "jobs_routed", "jobs routed to engine shards"),
            ("results", "results_returned",
             "result lines fanned back to clients"),
            ("spills", "spills",
             "jobs routed off their preferred shard (hot or down)"),
            ("restarts", "restarts", "engine worker processes restarted"),
            ("retries", "retried_jobs",
             "in-flight jobs re-dispatched after a worker death"),
            ("requeues", "sheds_requeued",
             "jobs a worker shed under backpressure and the router "
             "requeued"),
            ("failures", "failed_jobs",
             "jobs answered with a router-side error"),
            ("invalid_lines", "invalid_lines",
             "request lines that were not valid job records"),
        ):
            registry.counter(f"repro_router_{name}_total", help_text).inc(
                getattr(self, attr)
            )
        registry.gauge(
            "repro_router_active_connections", "currently connected clients"
        ).set(self.connections_active)
        for index in sorted(self.shard_jobs):
            registry.counter(
                "repro_router_shard_jobs_total",
                "jobs routed per shard",
                {"shard": str(index)},
            ).inc(self.shard_jobs[index])
        for index in sorted(self.shard_depth):
            registry.gauge(
                "repro_router_shard_depth",
                "jobs in flight per shard",
                {"shard": str(index)},
            ).set(self.shard_depth[index])


class _Pending:
    """One routed job awaiting its result."""

    __slots__ = ("conn", "original_id", "query_text", "schema", "line", "retried")

    def __init__(self, conn: "_ClientConn", original_id: str | None,
                 query_text: str, schema: str | None, line: bytes) -> None:
        self.conn = conn
        self.original_id = original_id
        self.query_text = query_text
        self.schema = schema
        self.line = line             # the rewritten job line (token id)
        self.retried = False


class _ClientConn:
    """Per-client state: outbound queue plus in-flight accounting."""

    def __init__(self, conn_id: int) -> None:
        self.conn_id = conn_id
        self.out_queue: asyncio.Queue = asyncio.Queue()
        self.inflight = 0
        self.eof = False
        self.drained = asyncio.Event()

    def settle(self) -> None:
        if self.eof and self.inflight == 0:
            self.drained.set()


class _Shard:
    """One engine worker: its socket, process (when managed), connection,
    and in-flight token map."""

    def __init__(self, index: int, socket_path: str, managed: bool) -> None:
        self.index = index
        self.socket_path = socket_path
        self.managed = managed
        self.process: asyncio.subprocess.Process | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reader_task: asyncio.Task | None = None
        self.writer_task: asyncio.Task | None = None
        self.out_queue: asyncio.Queue = asyncio.Queue()
        self.inflight: dict[str, _Pending] = {}
        self.alive = False
        self.restarts = 0

    @property
    def depth(self) -> int:
        return len(self.inflight)


class EngineRouter(JsonlDaemon):
    """The asyncio front door behind ``repro route`` (see the module
    docstring for the routing model): the routing policy on top of
    :class:`~repro.engine.jsonl.JsonlDaemon`.

    ``on_ready`` is called with the router once every worker is
    connectable **and** the client endpoint is bound — the warm-boot
    barrier: by then each spawned engine has already adopted the shared
    tier's plans, telemetry and decisions."""

    command = "route"

    def __init__(
        self,
        *,
        workers: int = 0,
        attach: Sequence[str] = (),
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        schema_files: dict[str, str] | None = None,
        worker_args: Sequence[str] = (),
        worker_dir: str | None = None,
        spill_depth: int = DEFAULT_SPILL_DEPTH,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        boot_timeout: float = DEFAULT_WORKER_BOOT_TIMEOUT,
        metrics_out: str | None = None,
        on_ready: Callable[["EngineRouter"], None] | None = None,
    ) -> None:
        super().__init__(
            socket_path=socket_path, host=host, port=port, on_ready=on_ready
        )
        if workers < 0:
            raise EngineError(f"workers must be non-negative, got {workers}")
        if workers + len(attach) < 1:
            raise EngineError("route needs at least one worker (or --attach)")
        if spill_depth < 1:
            raise EngineError(f"spill_depth must be positive, got {spill_depth}")
        if max_restarts < 0:
            raise EngineError(
                f"max_restarts must be non-negative, got {max_restarts}"
            )
        self.spill_depth = spill_depth
        self.max_restarts = max_restarts
        self.boot_timeout = boot_timeout
        self.metrics_out = metrics_out
        self.worker_args = list(worker_args)
        self.worker_dir = worker_dir
        self.stats = RouterStats()
        # schema name -> content fingerprint: the shard key.  The router
        # never builds artifacts — fingerprinting parses the DTD once.
        self._fingerprints: dict[str, str] = {}
        for name, path in sorted((schema_files or {}).items()):
            with open(path) as handle:
                self._fingerprints[name] = schema_fingerprint(
                    parse_dtd(handle.read())
                )
        self.shards: list[_Shard] = []
        index = 0
        for _ in range(workers):
            self.shards.append(_Shard(index, "", managed=True))
            index += 1
        for sock in attach:
            shard = _Shard(index, sock, managed=False)
            self.shards.append(shard)
            index += 1
        for shard in self.shards:
            self.stats.shard_jobs[shard.index] = 0
            self.stats.shard_depth[shard.index] = 0
        self._next_token = 0
        self._stopping = False

    # -- worker fleet -------------------------------------------------------
    async def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) a managed shard's ``repro serve`` process.
        The worker warms its caches from the shared tier during engine
        construction — before it binds its socket — so connectability
        implies a warm process."""
        shard.socket_path = os.path.join(
            self.worker_dir, f"engine-{shard.index}.sock"
        )
        if os.path.exists(shard.socket_path):
            os.unlink(shard.socket_path)
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--socket", shard.socket_path, *self.worker_args,
        ]
        shard.process = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.DEVNULL,
        )
        _LOG.info(
            "shard %d: spawned worker pid %d on %s",
            shard.index, shard.process.pid, shard.socket_path,
        )

    async def _connect(self, shard: _Shard) -> None:
        """Wait for the shard's socket to accept, then wire the reader
        and writer pumps."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.boot_timeout
        while True:
            if (
                shard.process is not None
                and shard.process.returncode is not None
            ):
                raise EngineError(
                    f"shard {shard.index}: worker exited with "
                    f"{shard.process.returncode} before accepting"
                )
            try:
                shard.reader, shard.writer = await asyncio.open_unix_connection(
                    shard.socket_path, limit=MAX_REPLY_BYTES
                )
                break
            except (ConnectionError, OSError):
                if loop.time() >= deadline:
                    raise EngineError(
                        f"shard {shard.index}: worker socket "
                        f"{shard.socket_path} not accepting after "
                        f"{self.boot_timeout:.0f}s"
                    ) from None
                await asyncio.sleep(0.05)
        shard.alive = True
        shard.out_queue = asyncio.Queue()
        shard.reader_task = asyncio.create_task(self._read_replies(shard))
        shard.writer_task = asyncio.create_task(
            write_lines(shard.writer, shard.out_queue, attrgetter("line"))
        )

    async def _start_shard(self, shard: _Shard) -> None:
        if shard.managed:
            await self._spawn(shard)
        await self._connect(shard)

    # -- shard replies ------------------------------------------------------
    async def _read_replies(self, shard: _Shard) -> None:
        try:
            await read_lines(shard.reader, lambda line: self._reply(shard, line))
        finally:
            if not self._stopping:
                await self._shard_down(shard)

    def _reply(self, shard: _Shard, line: bytes | None) -> None:
        try:
            record = json.loads(line) if line is not None else None
        except ValueError:
            record = None
        if not isinstance(record, dict):
            _LOG.error("shard %d: unreadable response line", shard.index)
            if line is None:
                # over MAX_REPLY_BYTES, so its job is unknown: drop the
                # worker, whose in-flight jobs are then retried
                shard.writer.close()
            return
        self._absorb(shard, record)

    def _absorb(self, shard: _Shard, record: dict[str, Any]) -> None:
        """Fan one worker response back to its client — exactly once:
        the token mapping pops on first arrival, repeats drop."""
        token = record.get("id")
        pending = shard.inflight.pop(token, None) if token is not None else None
        if pending is None:
            return
        self.stats.shard_depth[shard.index] = shard.depth
        if record.get("status") == "retry":
            # worker backpressure: the engine shed the job unexecuted.
            # The front door owns delivery — requeue after a beat (the
            # shard drains between reads) instead of surfacing the shed
            # to the client.
            self.stats.sheds_requeued += 1
            asyncio.get_running_loop().call_later(
                0.05, self._redispatch, token, pending
            )
            return
        self.stats.results_returned += 1
        self._answer(pending, record)

    async def _shard_down(self, shard: _Shard) -> None:
        """Handle a dead shard: restart the worker (managed shards, up to
        ``max_restarts``), then re-dispatch its in-flight jobs exactly
        once — a job that already burned its retry gets an error
        response."""
        if not shard.alive:
            return
        shard.alive = False
        orphans = shard.inflight
        shard.inflight = {}
        self.stats.shard_depth[shard.index] = 0
        shard.out_queue.put_nowait(None)
        if shard.writer is not None:
            shard.writer.close()
        if (
            shard.managed and not self._stopping
            and shard.restarts < self.max_restarts
        ):
            shard.restarts += 1
            self.stats.restarts += 1
            _LOG.warning(
                "shard %d: worker died with %d jobs in flight; restarting "
                "(%d/%d)", shard.index, len(orphans), shard.restarts,
                self.max_restarts,
            )
            # the old process may still be running (only its connection
            # dropped): stop and reap it before its successor starts
            await self._stop_process(shard)
            try:
                await self._start_shard(shard)
            except EngineError as error:
                _LOG.error("shard %d: restart failed: %s", shard.index, error)
        elif orphans:
            _LOG.error(
                "shard %d: down for good with %d jobs in flight",
                shard.index, len(orphans),
            )
        for token, pending in orphans.items():
            if pending.retried or not any(s.alive for s in self.shards):
                self._fail(pending, "engine worker died twice on this job"
                           if pending.retried else "no live engine workers")
                continue
            pending.retried = True
            self.stats.retried_jobs += 1
            self._dispatch(token, pending)

    def _redispatch(self, token: str, pending: _Pending) -> None:
        try:
            self._dispatch(token, pending)
        except EngineError as error:
            self._fail(pending, str(error))

    def _fail(self, pending: _Pending, message: str) -> None:
        self.stats.failed_jobs += 1
        self._answer(pending, {"status": "error", "error": message})

    def _answer(self, pending: _Pending, record: dict[str, Any]) -> None:
        """Hand a job's one response to its client, under the client's
        id (or the engine's query-text default)."""
        record["id"] = (
            pending.original_id if pending.original_id is not None
            else pending.query_text
        )
        pending.conn.inflight -= 1
        pending.conn.out_queue.put_nowait(record)
        pending.conn.settle()

    # -- routing ------------------------------------------------------------
    def _shard_key(self, schema: str | None) -> str:
        if schema is None:
            return NO_SCHEMA_KEY
        # a registered name maps to its content fingerprint; an unknown
        # reference (raw fingerprint, or a name only workers know) still
        # hashes deterministically
        return self._fingerprints.get(schema, schema)

    def _dispatch(self, token: str, pending: _Pending) -> None:
        index, spilled = pick_shard(
            self._shard_key(pending.schema),
            [shard.depth for shard in self.shards],
            self.spill_depth,
            alive=[shard.alive for shard in self.shards],
        )
        shard = self.shards[index]
        if spilled:
            self.stats.spills += 1
        shard.inflight[token] = pending
        self.stats.shard_jobs[index] += 1
        self.stats.shard_depth[index] = shard.depth
        shard.out_queue.put_nowait(pending)

    # -- client side --------------------------------------------------------
    def _open(self, conn_id: int) -> _ClientConn:
        return _ClientConn(conn_id)

    async def _finish(self, conn: _ClientConn) -> None:
        conn.eof = True
        conn.settle()
        await conn.drained.wait()

    def _ingest(self, conn: _ClientConn, line: bytes | None) -> None:
        job = self._intake(conn, line)
        if job is None:
            return
        self._next_token += 1
        token = f"r{self._next_token}"
        payload: dict[str, Any] = {"query": job.query_text, "id": token}
        if job.schema is not None:
            payload["schema"] = job.schema
        pending = _Pending(
            conn, job.id, job.query_text, job.schema, encode_forward(payload)
        )
        conn.inflight += 1
        self.stats.jobs_routed += 1
        try:
            # no admitted line may make a worker drop this connection
            if len(pending.line) - 1 > MAX_LINE_BYTES:
                raise EngineError(
                    f"job is {len(pending.line) - 1} bytes as forwarded, "
                    f"over the {MAX_LINE_BYTES}-byte line limit"
                )
            self._dispatch(token, pending)
        except EngineError as error:
            self._fail(pending, str(error))

    # -- lifecycle ----------------------------------------------------------
    async def _start(self) -> None:
        if any(shard.managed for shard in self.shards):
            if self.worker_dir is None:
                self.worker_dir = tempfile.mkdtemp(prefix="repro-route-")
            else:
                os.makedirs(self.worker_dir, exist_ok=True)
        try:
            # boot the whole fleet before binding the client endpoint:
            # cache warming happens inside each worker's engine
            # construction, so "router accepts" == "no cold planners"
            await asyncio.gather(
                *(self._start_shard(shard) for shard in self.shards)
            )
        except EngineError:
            await self._stop_workers()
            raise

    def _serving(self) -> None:
        _LOG.info(
            "routing on %s across %d shards (spill_depth=%d)",
            self.endpoint, len(self.shards), self.spill_depth,
        )

    async def _stop(self) -> None:
        await self._drain_shards()
        await self._stop_workers()
        if self.metrics_out is not None:
            self._write_metrics()
        _LOG.info(
            "drained and closed (%d jobs over %d connections, "
            "%d shards used)", self.stats.jobs_routed,
            self.stats.connections_total, self.stats.shards_used(),
        )

    async def _drain_shards(self) -> None:
        """Client handlers have finished, which means every in-flight job
        was answered or failed — unless a worker death is mid-recovery;
        give redistribution a bounded grace period."""
        deadline = asyncio.get_running_loop().time() + 30.0
        while any(shard.inflight for shard in self.shards):
            if asyncio.get_running_loop().time() >= deadline:
                _LOG.error(
                    "shutdown with %d jobs still in flight",
                    sum(shard.depth for shard in self.shards),
                )
                break
            await asyncio.sleep(0.05)

    async def _stop_workers(self) -> None:
        self._stopping = True
        for shard in self.shards:
            for task in (shard.reader_task, shard.writer_task):
                if task is not None:
                    task.cancel()
            if shard.writer is not None:
                shard.writer.close()
            shard.alive = False
        for shard in self.shards:
            await self._stop_process(shard)

    async def _stop_process(self, shard: _Shard) -> None:
        """SIGTERM a managed shard's worker — it drains and snapshots the
        shared tier — then SIGKILL it if it outlives
        ``WORKER_STOP_TIMEOUT``, and reap it."""
        process = shard.process
        if process is None:
            return
        try:
            process.terminate()
        except ProcessLookupError:      # already exited
            pass
        try:
            await asyncio.wait_for(process.wait(), WORKER_STOP_TIMEOUT)
        except asyncio.TimeoutError:
            _LOG.error(
                "shard %d: worker pid %d ignored SIGTERM; killing",
                shard.index, process.pid,
            )
            process.kill()
            await process.wait()

    def metrics_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        self.stats.register_metrics(registry)
        return registry

    def _write_metrics(self) -> None:
        try:
            atomic_write_text(
                self.metrics_out,
                self.metrics_registry().render_prometheus(),
            )
        except OSError as error:
            _LOG.error("metrics write to %s failed: %s", self.metrics_out, error)
