"""The JSONL protocol of ``repro serve`` and ``repro route``, and the
connection layer the two daemons share.

Protocol — the batch engine's JSONL job format, framed over a unix
socket or TCP port:

* client → daemon: one job object per line (``{"query": ..., "schema":
  ..., "id": ...}``; ``schema``/``id`` optional, blank lines and ``#``
  comments ignored) — byte-compatible with ``repro batch`` input files;
* daemon → client: one JSON object per line, streamed **as each job's
  verdict lands** (not in input order — match by ``id``).  Three shapes:

  - a normal result record (:meth:`~repro.engine.batch.JobResult.to_record`);
  - ``{"id": ..., "status": "retry", "error": ...}`` — admission
    control shed the job (too many in flight); resubmit later;
  - ``{"status": "error", "error": ...}`` — the line was longer than
    :data:`MAX_LINE_BYTES`, not UTF-8 (decoded strictly: U+FFFD
    substitution lets a line grow when it is re-encoded), or not a job
    record.  Nothing ran, and the connection keeps serving.

Every admitted line gets exactly one response.  The framing lives here
once, for client connections and the router's worker connections alike:
the endpoint, signals, connection lifecycle and intake
(:class:`JsonlDaemon`), one framed reader (:func:`read_lines`), and one
writer (:func:`write_lines`).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal as signal_module
from typing import Any, Callable

from repro.engine.batch import Job
from repro.engine.jobs import parse_job_line
from repro.errors import EngineError
from repro.obs.log import get_logger

_LOG = get_logger("repro.engine.jsonl")

#: longest request line either daemon reads, in bytes without the newline
MAX_LINE_BYTES = 64 * 1024

#: longest reply line the router reads from a worker: a reply echoes its
#: job's strings, escaping can triple them, and one can be echoed twice
#: (a field and an error message quoting it); the rest is headroom
MAX_REPLY_BYTES = 8 * MAX_LINE_BYTES


def encode_record(record: dict[str, Any]) -> bytes:
    """One response line: sorted keys, non-ASCII characters escaped."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def encode_forward(record: dict[str, Any]) -> bytes:
    """One job line as the router forwards it to a worker.  Strings stay
    raw UTF-8, so the line is no longer than the one it came from apart
    from the id the router sets; a lone surrogate, which UTF-8 cannot
    carry, goes as its ``\\uXXXX`` escape."""
    text = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
    return text.encode("utf-8", "backslashreplace")


async def read_lines(
    reader: asyncio.StreamReader, handle: Callable[[bytes | None], None]
) -> None:
    """Call ``handle(line)`` for each line until EOF (a last line may
    lack its newline) or a dropped connection.  A line over the reader's
    limit is skipped through its newline and reported as
    ``handle(None)``."""
    skipping = False
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.LimitOverrunError as overrun:
                # drop the line's buffered head, then read on to its newline
                await reader.readexactly(overrun.consumed)
                skipping = True
                continue
            except asyncio.IncompleteReadError as eof:
                if skipping or eof.partial:
                    handle(None if skipping else eof.partial)
                return
            handle(None if skipping else line)
            skipping = False
    except (ConnectionError, OSError):
        return


async def write_lines(
    writer: asyncio.StreamWriter,
    queue: asyncio.Queue,
    encode: Callable[[Any], bytes],
) -> None:
    """Write ``encode(item)`` for each queued item until the ``None``
    sentinel.  Once the peer is gone, items are dropped until the
    sentinel: their jobs still finish, and nothing waits on a dead
    connection."""
    peer_gone = False
    while (item := await queue.get()) is not None:
        if peer_gone:
            continue
        try:
            writer.write(encode(item))
            await writer.drain()
        except (ConnectionError, OSError):
            peer_gone = True


class JsonlDaemon:
    """Endpoint, signals and connection lifecycle of a JSONL daemon.

    A subclass sets ``command`` and ``stats`` (``connections_total``,
    ``connections_active``, ``invalid_lines``) and supplies the policy:
    ``_start()`` before binding, ``_serving()`` once bound, ``_stop()``
    after the last connection closed; ``_open(conn_id)``, a connection's
    state (with an ``out_queue`` of response records); ``_ingest(conn,
    line)`` per line (``None``: over the limit); and ``_finish(conn)``,
    which waits until the connection answered every job it admitted.
    ``on_ready(daemon)`` runs once the endpoint listens.  Shutdown
    cancels each connection's read task (reading is a plain ``await``),
    then waits for every connection to finish."""

    command: str

    def __init__(self, *, socket_path: str | None, host: str,
                 port: int | None, on_ready: Callable | None) -> None:
        if (socket_path is None) == (port is None):
            raise EngineError(
                f"{self.command} needs exactly one endpoint: "
                "--socket PATH or --port N"
            )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.on_ready = on_ready
        self.endpoint: str | None = None
        self._shutdown: asyncio.Event | None = None
        # connection handler task -> its read task
        self._connections: dict[asyncio.Task, asyncio.Task] = {}
        self._next_conn_id = 0

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
        await self._start()
        try:
            server = await self._listen()
            try:
                self._serving()
                if self.on_ready is not None:
                    self.on_ready(self)
                await self._shutdown.wait()
            finally:
                server.close()
                # end intake first: from Python 3.12.1, wait_closed()
                # waits for every connection.  A cancel queues behind a
                # read step already due, so lines received before
                # shutdown are still read.
                for reading in self._connections.values():
                    loop.call_soon(reading.cancel)
                await server.wait_closed()
                await asyncio.gather(
                    *list(self._connections), return_exceptions=True
                )
                if self.socket_path is not None:
                    try:
                        os.unlink(self.socket_path)
                    except OSError:
                        pass
        finally:
            await self._stop()

    async def _listen(self) -> asyncio.AbstractServer:
        if self.socket_path is None:
            server = await asyncio.start_server(
                self._client, self.host, self.port, limit=MAX_LINE_BYTES
            )
            self.port = server.sockets[0].getsockname()[1]
            self.endpoint = f"{self.host}:{self.port}"
            return server
        if os.path.exists(self.socket_path):
            # a stale socket from a crashed predecessor would fail the
            # bind; a *live* predecessor loses the path — same rule
            # every unix-socket daemon applies
            _LOG.warning("removing stale socket %s", self.socket_path)
            os.unlink(self.socket_path)
        self.endpoint = f"unix:{self.socket_path}"
        return await asyncio.start_unix_server(
            self._client, self.socket_path, limit=MAX_LINE_BYTES
        )

    async def _client(self, reader, writer) -> None:
        self._next_conn_id += 1
        conn = self._open(self._next_conn_id)
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        writing = asyncio.create_task(
            write_lines(writer, conn.out_queue, encode_record)
        )
        reading = asyncio.create_task(
            read_lines(reader, lambda line: self._ingest(conn, line))
        )
        task = asyncio.current_task()
        self._connections[task] = reading
        if self._shutdown.is_set():     # accepted as shutdown began
            asyncio.get_running_loop().call_soon(reading.cancel)
        try:
            await asyncio.wait((reading,))
            await self._finish(conn)
        finally:
            conn.out_queue.put_nowait(None)
            await writing
            self.stats.connections_active -= 1
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if not reading.cancelled():
            reading.result()        # a bug in intake surfaces here

    def _intake(self, conn, line: bytes | None) -> Job | None:
        """The job on one request line, or ``None``: blank and ``#``
        lines are skipped, and any other bad line gets an error record."""
        if line is None:
            error = f"line longer than {MAX_LINE_BYTES} bytes"
        else:
            try:
                text = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                error = f"line is not valid UTF-8 (byte {exc.start})"
            else:
                if not text or text.startswith("#"):
                    return None
                try:
                    return parse_job_line(text)
                except EngineError as exc:
                    error = str(exc)
        self.stats.invalid_lines += 1
        conn.out_queue.put_nowait({"status": "error", "error": error})
        return None
