"""The socket side: a ``repro route`` / ``repro serve`` process under
test, and the closed-loop client that drives it.

Every file and socket lives in a per-run directory inside the checkout.
Sockets are addressed by paths relative to that directory (the fleet
runs with it as its working directory), which keeps them well under the
unix-socket path limit however deep the checkout is.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from time import perf_counter

from measure import Record

#: seconds any boot, response or shutdown may take before the run fails
IO_TIMEOUT = 60.0
#: outstanding jobs the closed-loop client keeps in flight
WINDOW = 64


def descendants(pid: int) -> list[int]:
    """``pid``'s live child processes, recursively (Linux ``/proc``)."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children = [int(child) for child in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(descendants(child))
    return found


def peak_rss_mb(pids) -> float:
    """Summed peak resident set size (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Daemon:
    """One ``python -m repro <route|serve> ...`` process, started in
    ``workdir`` and considered ready once it prints its endpoint line
    (printed only after the socket is bound)."""

    def __init__(self, argv: list[str], workdir: str, src_dir: str,
                 ready_prefix: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        self.log = open(os.path.join(workdir, "daemon.log"), "ab")
        start = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self.log,
            process_group=0,
        )
        try:
            self._await_line(ready_prefix.encode())
        except BaseException:
            self.kill()
            raise
        self.boot_s = perf_counter() - start

    def _await_line(self, prefix: bytes) -> None:
        """Read stdout until a line starts with ``prefix``."""
        fd = self.process.stdout.fileno()
        buffer = b""
        deadline = perf_counter() + IO_TIMEOUT
        while not any(line.startswith(prefix) for line in buffer.split(b"\n")[:-1]):
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"daemon printed no {prefix!r} line")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"daemon exited before ready: {buffer!r}")
                buffer += chunk

    def peak_rss_mb(self) -> float:
        pid = self.process.pid
        return peak_rss_mb([pid, *descendants(pid)])

    def stop(self) -> None:
        """SIGTERM (the daemon drains and snapshots), then wait."""
        family = descendants(self.process.pid)
        try:
            self.process.send_signal(signal.SIGTERM)
            self.process.communicate(timeout=IO_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        finally:
            self._reap(family)
            self.log.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.process.returncode}")

    def kill(self) -> None:
        family = descendants(self.process.pid)
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.communicate()
        self._reap(family)
        self.log.close()

    @staticmethod
    def _reap(pids) -> None:
        """Wait (bounded) until grandchildren the daemon owned are gone;
        they are not our children, so poll instead of ``wait``."""
        deadline = perf_counter() + IO_TIMEOUT
        for pid in pids:
            while os.path.exists(f"/proc/{pid}") and perf_counter() < deadline:
                try:
                    with open(f"/proc/{pid}/stat") as handle:
                        if handle.read().split(") ", 1)[1].startswith("Z"):
                            break
                except OSError:
                    break
                time.sleep(0.01)


def start_router(workdir: str, src_dir: str) -> Daemon:
    return Daemon(
        ["route", "--workers", "1", "--socket", "front.sock",
         "--schema-dir", "schemas", "--state-tier", "tier",
         "--worker-dir", "workers", "--metrics-out", "router.prom"],
        workdir, src_dir, "routing on",
    )


def start_server(workdir: str, src_dir: str) -> Daemon:
    return Daemon(
        ["serve", "--socket", "direct.sock", "--schema-dir", "schemas",
         "--state-tier", "tier"],
        workdir, src_dir, "serving on",
    )


class Client:
    """One connection, one process, a closed loop of ``WINDOW`` jobs.

    Reads and writes go through *separate* binary file objects on the
    socket: interleaving writes with ``readline()`` on one text-mode
    ``makefile("rw")`` stream silently drops read-ahead responses, which
    looks exactly like lost responses at the tail of a closed loop."""

    def __init__(self, path: str, lines) -> None:
        self.lines = lines
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(IO_TIMEOUT)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")
        self.writer = self.sock.makefile("wb")

    def run(self, seconds: float = float("inf"),
            max_jobs: int | None = None) -> Record:
        """Keep ``WINDOW`` jobs outstanding until ``seconds`` pass (or
        ``max_jobs`` were sent), then collect every response."""
        loop = Record()
        sent: dict[str, tuple[float, int]] = {}
        budget = max_jobs if max_jobs is not None else float("inf")

        def send() -> None:
            nonlocal budget
            job_id, question, line = next(self.lines)
            budget -= 1
            sent[job_id] = (perf_counter(), question)
            self.writer.write(line)
            self.writer.flush()

        start = perf_counter()
        deadline = start + seconds
        while len(sent) < WINDOW and budget > 0:
            send()
        while sent:
            raw = self.reader.readline()
            now = perf_counter()
            if not raw:
                raise ConnectionError("server closed the connection mid-loop")
            record = json.loads(raw)
            entry = sent.pop(record.get("id"), None)
            if entry is None:
                raise RuntimeError(f"response for an unknown job: {record!r}")
            loop.jobs += 1
            loop.latencies_ms.append((now - entry[0]) * 1e3)
            if record.get("status") is not None or record.get("error") is not None:
                loop.failed += 1
            else:
                loop.answer(entry[1], record.get("satisfiable"))
            if now < deadline and budget > 0:
                send()
        loop.seconds = perf_counter() - start
        return loop

    def close(self) -> None:
        self.reader.close()
        self.writer.close()
        self.sock.close()


def read_prometheus(path: str) -> dict[str, float]:
    """``name{labels}`` -> value from a Prometheus textfile."""
    values: dict[str, float] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            name, _, value = line.rstrip("\n").rpartition(" ")
            values[name] = float(value)
    return values


def histogram_quantile(values: dict[str, float], name: str, q: float) -> float:
    """The ``q``-quantile of a rendered histogram, interpolated linearly
    inside its bucket (as PromQL's ``histogram_quantile`` does)."""
    buckets = []
    prefix = f'{name}_bucket{{le="'
    for key, count in values.items():
        if key.startswith(prefix):
            edge = key[len(prefix):-2]
            buckets.append((float("inf") if edge == "+Inf" else float(edge), count))
    buckets.sort()
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_edge, lower_count = 0.0, 0.0
    for edge, count in buckets:
        if count >= rank:
            if edge == float("inf"):
                return lower_edge
            share = (rank - lower_count) / (count - lower_count) if count > lower_count else 0
            return lower_edge + (edge - lower_edge) * share
        lower_edge, lower_count = edge, count
    return lower_edge
