"""Execution layer: persistent worker runtimes, in-process and on lanes.

The plan-grouped scheduler (PR 4) made heavy jobs cheap *within* a chunk
— ``DeciderSpec.prepare`` contexts are shared by groupmates — but every
chunk still landed on a stateless ``ProcessPoolExecutor`` task, so the
Glushkov NFAs, termination fixpoints, and word tables of a schema were
rebuilt whenever its *next* chunk arrived.  Real DTD workloads
concentrate on a few recurring schemas (Ishihara et al., arXiv:1308.0769),
which makes the schema the natural long-lived unit of work.

Every decision :class:`~repro.engine.batch.BatchEngine` makes runs as a
:class:`ChunkTask` on a :class:`WorkerRuntime`, in one of two places:

* the engine's own runtime, which the engine calls directly and keeps
  for its lifetime: every PTIME chunk (a chunk of one, absorbed the
  moment it is decided), every chunk when the engine has one worker,
  and the heavy chunks no lane has room for.  The second chunk of a
  schema reuses the first chunk's prepared contexts, even in a later
  run;
* a :class:`PersistentPoolExecutor`, the engine's :class:`Executor`: a
  pool of long-lived worker *lanes* (one process each), every lane
  owning a :class:`WorkerRuntime` that caches DTDs and prepared
  :class:`~repro.sat.planner.SchemaContexts` keyed by schema
  fingerprint **across chunks** — and, because the pool itself is
  engine-lifetime, across :meth:`~repro.engine.batch.BatchEngine.run`
  calls.  The scheduler routes a chunk to a lane by schema-fingerprint
  affinity (a consistent hash, spilling to the least-loaded lane when
  the preferred lane's queue is deep), ships the DTD to a lane only on
  first touch instead of pickling it per chunk, and survives worker
  death by respawning the lane with a cold runtime and retrying its
  in-flight chunks once.

Each lane reads its chunks from its own pipe, which ``submit`` writes in
the calling thread before it returns: a chunk reaches its lane while
the engine goes on scanning, with no feeder thread waiting for the busy
engine thread to hand over the GIL.  A lane holds at most
``lane_queue_depth`` chunks.  When every lane is that deep, ``submit``
refuses the chunk and the engine decides it on its own runtime, so the
engine and its lanes work at the same time instead of taking turns.
``drain(wait=False)`` yields only the outcomes already back; the engine
calls it before each ``submit``, so a send never waits on a lane that
is itself waiting for its results to be read.

A runtime decides a chunk's questions together where a decider can:
the Thm 5.3 types fixpoint has a *joint entry*
(:func:`~repro.sat.exptime_types.sat_exptime_types_joint`), and the
chunk's questions whose plans lead with it share one fixpoint per run
of up to :data:`JOINT_QUESTIONS` (see
:meth:`WorkerRuntime._decide_jointly`), so the per-label work every
question pays is paid once per run.  Every other question runs its own
decider chain, as does every question of a joint call that raises.

Affinity is a *scheduling* feature: with ``affinity=False`` the same
lanes run statelessly (least-loaded routing, a fresh context per chunk,
the DTD shipped every time) — the PR-4 behaviour, kept as the
benchmark baseline (``benchmarks/bench_worker_affinity.py``) and as an
escape hatch.  Either way verdicts, decision-cache contents, and
telemetry verdict mixes are bit-identical: runtimes cache *pure*
setup, never answers (``tests/test_metamorphic.py``).
"""

from __future__ import annotations

import multiprocessing
import time
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Iterator, Protocol, runtime_checkable

from repro.errors import EngineError, job_error_text
from repro.obs.log import get_logger
from repro.sat.planner import ExecutionTrace, Plan, SchemaContexts, execute_plan
from repro.sat.registry import get_decider
from repro.sat.telemetry import verdict_name
from repro.xpath.fragments import signature_features

_LOG = get_logger("repro.engine.executors")

#: one outcome per question in a chunk: (satisfiable, method, reason,
#: error-or-None, trace attempts)
GroupOutcome = tuple[bool | None, str, str, str | None, list[tuple[str, float, str]]]

#: scheduler setting default (see :class:`repro.engine.batch.BatchEngine`)
DEFAULT_LANE_QUEUE_DEPTH = 4

#: the most questions one joint call decides (see
#: :meth:`WorkerRuntime._decide_jointly`).  A joint fixpoint's types grow
#: with its questions, so past a few it costs more per question than
#: deciding them one at a time, and a chunk may hold up to
#: ``group_chunk_size`` questions (the measured curve is in CHANGES.md).
JOINT_QUESTIONS = 4


@dataclass(frozen=True)
class ChunkTask:
    """One unit of executor work: a chunk of pre-canonicalized questions
    against one schema, each with its plan (``plans[i]`` decides
    ``canonicals[i]``; a plan several questions share pickles once)."""

    task_id: int
    fingerprint: str | None
    canonicals: tuple
    plans: tuple[Plan, ...]
    bounds: Any = None


@dataclass
class ChunkOutcome:
    """What came back for one :class:`ChunkTask`.

    ``error`` is a whole-chunk failure (the lane died and its one retry
    died too); otherwise ``outcomes`` has one entry per question.
    ``shared`` names the primary deciders of the chunk's plans that had
    a prepared context for the chunk, and ``warm`` those whose context
    was built before the chunk ran, by an earlier chunk of any plan on
    the schema (the cross-chunk cache paid off).  ``shared_setup`` and
    ``runtime_hit`` say the same of every primary in the chunk; the
    remaining flags record how the scheduler placed the chunk.
    """

    outcomes: list[GroupOutcome] = field(default_factory=list)
    shared: frozenset[str] = frozenset()
    warm: frozenset[str] = frozenset()
    shared_setup: bool = False
    prepare_error: str | None = None
    runtime_hit: bool = False
    lane: int = -1
    dtd_shipped: bool = False
    spilled: bool = False
    retried: bool = False
    error: str | None = None
    # lane-side observability, reassembled into parent-side spans and
    # lane-health gauges: wall time executing the chunk, wall time inside
    # prepare() hooks during this chunk, and the runtime's context-cache
    # occupancy / lifetime evictions after the chunk ran
    elapsed_ms: float = 0.0
    prepare_ms: float = 0.0
    runtime_contexts: int = 0
    runtime_evictions: int = 0
    #: questions decided inside a joint call
    joint_decides: int = 0


@dataclass
class ExecutorStats:
    """What only the executor knows: its lanes, how many it respawned
    over its lifetime, and each lane's deepest in-flight queue.  The
    counts a chunk outcome carries (DTD ships, spills, runtime hits,
    retries) are kept per run on
    :class:`~repro.engine.batch.EngineStats` alone."""

    lanes: int = 0
    lane_respawns: int = 0
    #: deepest in-flight queue each lane reached (lane-health gauge)
    lane_peak_depth: dict[int, int] = field(default_factory=dict)


@runtime_checkable
class Executor(Protocol):
    """The engine's execution contract: submit chunks, then drain.

    ``submit`` may be interleaved with work, and returns whether the
    executor took the chunk (a pool with no lane room refuses it, and
    the caller decides it elsewhere).  ``drain`` yields every
    outstanding ``(task, outcome)`` pair (order unspecified) and returns
    once nothing is in flight; ``drain(wait=False)`` yields only the
    outcomes already back and never blocks.  ``close`` releases workers;
    a closed executor must not be reused.
    """

    def submit(self, task: ChunkTask, dtd) -> bool: ...

    def drain(self, wait: bool = True) -> Iterator[tuple[ChunkTask, ChunkOutcome]]: ...

    def stats(self) -> ExecutorStats: ...

    def close(self) -> None: ...


class WorkerRuntime:
    """Per-worker state that outlives a single chunk.

    Caches the schemas a lane has been shipped (``fingerprint -> DTD``)
    and one :class:`~repro.sat.planner.SchemaContexts` per fingerprint,
    shared by every plan asked of the schema (``prepare`` hooks read
    only the DTD), so the N-th chunk of a schema skips the ``prepare``
    runs an earlier chunk made.  The caches hold *pure* setup — Glushkov
    automata, termination fixpoints, word tables — never verdicts, so a
    warm runtime cannot change an answer (differential-checked).  With
    ``caching=False`` the runtime degrades to PR-4 behaviour: fresh
    contexts per chunk, nothing retained.

    The context cache (the heavy objects) is LRU-bounded at
    ``context_capacity`` schemas, so a worker that sees an endless
    stream of distinct schemas cannot grow without limit; an evicted
    entry is simply rebuilt on its next chunk.  The
    DTD map is kept in full — the parent tracks which schemas it
    shipped to a lane and never re-ships, so evicting a DTD would turn
    its next chunk into an error (see the module ROADMAP note on a
    shared budget).
    """

    DEFAULT_CONTEXT_CAPACITY = 128

    def __init__(self, caching: bool = True, context_capacity: int | None = None):
        capacity = (
            context_capacity if context_capacity is not None
            else self.DEFAULT_CONTEXT_CAPACITY
        )
        if capacity < 1:
            raise EngineError(
                f"context_capacity must be positive, got {capacity}"
            )
        self.caching = caching
        self.context_capacity = capacity
        self._dtds: dict[str, Any] = {}
        self._contexts: "OrderedDict[str, SchemaContexts]" = OrderedDict()
        self.context_evictions = 0

    @property
    def schemas(self) -> int:
        return len(self._dtds)

    def adopt_schema(self, fingerprint: str, dtd) -> None:
        if self.caching and fingerprint is not None and dtd is not None:
            self._dtds[fingerprint] = dtd

    def resolve_dtd(self, fingerprint: str | None, dtd):
        if dtd is not None:
            self.adopt_schema(fingerprint, dtd)
            return dtd
        if fingerprint is not None:
            return self._dtds.get(fingerprint)
        return None

    def contexts_for(self, fingerprint: str | None, dtd) -> SchemaContexts:
        """The schema's shared contexts.  Only chunks against a
        fingerprinted schema are worth caching across chunks — a no-DTD
        plan has no ``prepare`` work to share."""
        if not self.caching or fingerprint is None:
            return SchemaContexts(dtd)
        contexts = self._contexts.get(fingerprint)
        if contexts is not None:
            self._contexts.move_to_end(fingerprint)
            return contexts
        contexts = self._contexts[fingerprint] = SchemaContexts(dtd)
        while len(self._contexts) > self.context_capacity:
            self._contexts.popitem(last=False)
            self.context_evictions += 1
        return contexts

    def run_chunk(self, task: ChunkTask, dtd=None) -> ChunkOutcome:
        """Decide every question in ``task`` (the chunk semantics of the
        plan-grouped scheduler: shared lazy contexts, one question's
        failure never poisons its groupmates).  Every outcome carries
        the lane-side observability fields — chunk wall time, prepare
        time, and the runtime's context-cache health — so the parent can
        reassemble spans and lane gauges without extra IPC."""
        start = time.perf_counter()
        outcome = self._run_chunk_inner(task, dtd)
        outcome.elapsed_ms = (time.perf_counter() - start) * 1e3
        outcome.runtime_contexts = len(self._contexts)
        outcome.runtime_evictions = self.context_evictions
        return outcome

    def _run_chunk_inner(self, task: ChunkTask, dtd) -> ChunkOutcome:
        dtd = self.resolve_dtd(task.fingerprint, dtd)
        if task.fingerprint is not None and dtd is None:
            # the parent thought this lane had the schema but the runtime
            # is cold (e.g. a respawned lane handed a ship-less retry);
            # surfacing a chunk error lets the engine fail it cleanly
            return ChunkOutcome(
                error=f"lane runtime has no schema {task.fingerprint[:12]}"
            )
        contexts = self.contexts_for(task.fingerprint, dtd)
        prepare_ms_before = contexts.prepare_ms
        primaries = dict.fromkeys(plan.decider for plan in task.plans)
        warm = frozenset(name for name in primaries if name in contexts)
        # build each primary's context eagerly: its questions run it, and
        # a failing prepare should be visible even if the first question
        # errors.  shared is pinned here — a fallback context built
        # mid-chunk must not retroactively count earlier questions as
        # setup reuses
        shared = frozenset(
            name for name in primaries if contexts.get(name) is not None
        )
        outcomes: list[GroupOutcome | None] = [None] * len(task.plans)
        joint_decides = (
            self._decide_jointly(task, dtd, contexts, outcomes)
            if len(outcomes) > 1 else 0
        )
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[index] = self._run_question(
                    task.plans[index], task.canonicals[index], dtd,
                    task.bounds, contexts,
                )
        if contexts.prepare_error is not None:
            # a failed prepare is memoized only within the chunk (never
            # re-run per question); evict the schema's entry so the next
            # chunk retries instead of degrading this schema to per-job
            # setup for the runtime's whole lifetime
            self._contexts.pop(task.fingerprint, None)
        return ChunkOutcome(
            outcomes=outcomes,
            shared=shared,
            warm=warm,
            shared_setup=len(shared) == len(primaries),
            prepare_error=contexts.prepare_error,
            runtime_hit=len(warm) == len(primaries),
            prepare_ms=contexts.prepare_ms - prepare_ms_before,
            joint_decides=joint_decides,
        )

    @staticmethod
    def _decide_jointly(
        task: ChunkTask, dtd, contexts: SchemaContexts,
        outcomes: list[GroupOutcome | None],
    ) -> int:
        """Decide the chunk's eligible questions with their primaries'
        joint entries, filling their ``outcomes``; returns how many were
        decided.

        A question is eligible when its plan's primary has a joint entry
        and a prepared context, the plan rewrites nothing but the
        ``canonicalize`` pass the engine already applied, and the
        primary accepts the question's features (the plan's signature:
        the engine plans on the canonical form it sends).  Each
        primary's eligible questions, in chunk order, are cut into
        consecutive runs of at most :data:`JOINT_QUESTIONS`, as even as
        possible; a run of one is left to its own chain.  A joint call
        that raises anything (a decline when the run's union is too
        large, a bug) leaves all of its questions to their own chains,
        where a decline falls through to the fallbacks and a failure
        stays the question's own.  A jointly decided question's one
        attempt is timed at its share of the call."""
        eligible: dict[str, list[int]] = {}
        primaries: dict[Plan, str | None] = {}
        for index, plan in enumerate(task.plans):
            if plan not in primaries:
                primaries[plan] = _joint_primary(plan, contexts)
            name = primaries[plan]
            if name is not None:
                eligible.setdefault(name, []).append(index)
        decided = 0
        for name, indices in eligible.items():
            joint = get_decider(name).joint
            context = contexts.get(name)
            runs = -(-len(indices) // JOINT_QUESTIONS)
            cuts = [len(indices) * run // runs for run in range(runs + 1)]
            for low, high in zip(cuts, cuts[1:]):
                if high - low < 2:
                    continue
                members = indices[low:high]
                start = time.perf_counter()
                try:
                    results = joint(
                        [task.canonicals[index] for index in members], dtd,
                        context=context,
                    )
                except Exception:
                    # a decline (the run's union is past the decider's
                    # cap) or a failure the questions' own chains report
                    _LOG.debug(
                        "joint %s call over %d questions raised; deciding "
                        "them one at a time", name, len(members), exc_info=True,
                    )
                    continue
                share_ms = (time.perf_counter() - start) * 1e3 / len(members)
                for index, result in zip(members, results):
                    outcomes[index] = (
                        result.satisfiable, result.method, result.reason, None,
                        [(name, share_ms, verdict_name(result.satisfiable))],
                    )
                decided += len(members)
        return decided

    @staticmethod
    def _run_question(plan: Plan, canonical, dtd, bounds, contexts) -> GroupOutcome:
        trace = ExecutionTrace()
        try:
            # an outcome carries no witness, so none is ever built
            result = execute_plan(
                plan, canonical, dtd, bounds,
                pre_canonicalized=True, trace=trace, contexts=contexts,
            )
        except Exception as error:
            # any exception — decline with no fallback, a latent decider
            # bug, a query nested too deeply — fails only this question
            return (None, "error", "", job_error_text(error), trace.attempts)
        return (
            result.satisfiable, result.method, result.reason, None,
            trace.attempts,
        )


def _joint_primary(plan: Plan, contexts: SchemaContexts) -> str | None:
    """The name of ``plan``'s primary when its questions may be decided
    jointly (see :meth:`WorkerRuntime._decide_jointly`), else ``None``."""
    spec = get_decider(plan.decider)
    if spec.joint is None:
        return None
    if any(name != "canonicalize" for name in plan.rewrites):
        return None
    if not spec.accepts(signature_features(plan.signature)):
        return None
    if plan.decider not in contexts:
        return None
    return plan.decider


def _worker_main(lane_id: int, caching: bool, requests, results) -> None:
    """Lane entry point: loop over chunk requests until the ``None``
    sentinel or the end of the request pipe, keeping one
    :class:`WorkerRuntime` alive across chunks.  ``requests`` is the
    read end of the lane's own request pipe and ``results`` the write
    end of its own result pipe."""
    runtime = WorkerRuntime(caching=caching)
    while True:
        try:
            message = requests.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task, dtd = message
        try:
            outcome = runtime.run_chunk(task, dtd)
        except BaseException as error:  # never let a lane die silently
            outcome = ChunkOutcome(error=f"{type(error).__name__}: {error}")
        try:
            results.send((lane_id, task.task_id, outcome))
        except Exception:
            break  # parent gone; nothing sensible left to do


@dataclass
class _InFlight:
    task: ChunkTask
    dtd: Any            # kept parent-side so a retry can re-ship it
    attempts: int = 1
    dtd_shipped: bool = False
    spilled: bool = False


class _Lane:
    """One persistent worker process plus its parent-side bookkeeping.

    The process forks lazily on the lane's first ``send`` — routing is
    over lane *slots* (so the consistent hash is stable regardless of
    which lanes are live), but a light run that only ever touches one
    lane pays for one fork, not ``workers``.
    """

    def __init__(self, lane_id: int, ctx, caching: bool) -> None:
        self.lane_id = lane_id
        self._ctx = ctx
        self._caching = caching
        #: write end of the lane's request pipe (its worker holds the
        #: read end)
        self.requests = None
        #: read end of the lane's result pipe (its worker holds the only
        #: write end)
        self.results = None
        self.process = None
        self.shipped: set[str] = set()
        self.in_flight: dict[int, _InFlight] = {}

    @property
    def depth(self) -> int:
        return len(self.in_flight)

    @property
    def started(self) -> bool:
        return self.process is not None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def ensure_started(self) -> None:
        if self.process is None:
            # requests go down a pipe written in the caller's thread: a
            # queue's feeder thread could send only once the busy engine
            # thread yields the GIL, up to a switch interval later
            reader, self.requests = self._ctx.Pipe(duplex=False)
            # one result pipe per lane, not one queue shared by all: a
            # worker killed mid-write, or while holding a shared queue's
            # cross-process write lock, would wedge every other lane's
            # results for good.  Its own pipe just reads EOF, and
            # recovery replaces it.
            self.results, writer = self._ctx.Pipe(duplex=False)
            self.process = self._ctx.Process(
                target=_worker_main,
                args=(self.lane_id, self._caching, reader, writer),
                daemon=True,
            )
            self.process.start()
            reader.close()
            writer.close()
            _LOG.debug("lane %d forked (pid %s)", self.lane_id, self.process.pid)

    def send(self, entry: _InFlight, ship_always: bool) -> None:
        """Pickle and write the chunk before returning.  Raises
        ``OSError`` (``BrokenPipeError``) when the lane's process is
        gone; the entry is in flight by then, so recovery retries it."""
        self.ensure_started()
        task = entry.task
        dtd = None
        if entry.dtd is not None:
            if task.fingerprint is None:
                dtd = entry.dtd
            elif ship_always or task.fingerprint not in self.shipped:
                # record the ship either way: after a recovery retry
                # force-ships a schema, the lane's runtime holds it, so
                # later affinity-routed chunks must not re-pickle it
                dtd = entry.dtd
                self.shipped.add(task.fingerprint)
        entry.dtd_shipped = dtd is not None
        self.in_flight[task.task_id] = entry
        self.requests.send((task, dtd))

    def close_pipes(self) -> None:
        for end in (self.requests, self.results):
            if end is not None:
                try:
                    end.close()
                except OSError:
                    pass

    def stop(self) -> None:
        if self.process is None:
            return
        if not self.in_flight:
            # a lane with chunks in flight is not sent the sentinel: the
            # write could wait on a lane blocked writing unread results
            try:
                self.requests.send(None)
            except Exception:
                pass
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.close_pipes()


class PersistentPoolExecutor:
    """Process-pool :class:`Executor` with schema-affinity lanes.

    Routing: a chunk's affinity key (schema fingerprint, or its first
    plan's telemetry key for no-DTD chunks) hashes to a *preferred*
    lane, so every chunk of one schema keeps landing on the same worker
    and finds its runtime caches warm.  A lane holds at most
    ``lane_queue_depth`` chunks: when the preferred lane is that deep,
    the chunk spills to the least-loaded lane — affinity is a
    preference, not a straitjacket (a skewed workload must not serialize
    behind one hot lane) — and when every lane is, ``submit`` refuses it
    (returns ``False``) and the caller decides it in-process.

    ``submit`` writes the chunk to its lane's request pipe before it
    returns and reads nothing back: the caller calls ``drain(wait=False)``
    first, which takes in the outcomes already back (freeing their
    lanes' room), so the write never waits on a lane that is blocked
    writing results nobody reads.

    Fault tolerance: a lane that dies (killed worker, hard crash in C
    code) is respawned with a cold runtime and each of its in-flight
    chunks is retried **once**; a chunk whose retry also dies comes back
    as a whole-chunk error, which the engine turns into per-job errors.
    A death shows up as the end of the lane's result pipe, as a failed
    write to its request pipe, or as a dead process while ``drain``
    waits.
    """

    def __init__(
        self,
        workers: int,
        *,
        affinity: bool = True,
        lane_queue_depth: int = DEFAULT_LANE_QUEUE_DEPTH,
        mp_context=None,
    ) -> None:
        if workers < 1:
            raise EngineError(f"workers must be positive, got {workers}")
        if lane_queue_depth < 1:
            raise EngineError(
                f"lane_queue_depth must be positive, got {lane_queue_depth}"
            )
        self.affinity = affinity
        self.lane_queue_depth = lane_queue_depth
        if mp_context is None:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                mp_context = multiprocessing.get_context()
        self._ctx = mp_context
        self._lanes = [
            _Lane(lane_id, mp_context, affinity) for lane_id in range(workers)
        ]
        self._stats = ExecutorStats(lanes=workers)
        #: finished chunks waiting for drain to hand them back: outcomes
        #: read off the lanes, and chunks whose retry also died
        self._done: deque[tuple[ChunkTask, ChunkOutcome]] = deque()
        self._closed = False

    # -- routing ------------------------------------------------------------
    def _affinity_key(self, task: ChunkTask) -> str:
        return task.fingerprint or task.plans[0].telemetry_key

    def _route(self, task: ChunkTask) -> tuple[_Lane | None, bool]:
        """Pick the lane for ``task``; returns ``(lane, spilled)``, with
        no lane when every lane already holds ``lane_queue_depth``
        chunks."""
        least = min(self._lanes, key=lambda lane: (lane.depth, lane.lane_id))
        if self.affinity:
            key = self._affinity_key(task)
            preferred = self._lanes[
                zlib.crc32(key.encode("utf-8")) % len(self._lanes)
            ]
            if preferred.depth < self.lane_queue_depth:
                return preferred, False
        if least.depth < self.lane_queue_depth:
            return least, self.affinity
        return None, False

    # -- the Executor contract ----------------------------------------------
    def submit(self, task: ChunkTask, dtd) -> bool:
        if self._closed:
            raise EngineError("executor already closed")
        lane, spilled = self._route(task)
        if lane is None:
            return False
        if lane.started and not lane.alive():
            lane = self._recover(lane)
        self._send(lane, _InFlight(task=task, dtd=dtd, spilled=spilled),
                   ship_always=not self.affinity)
        return True

    def drain(self, wait: bool = True) -> Iterator[tuple[ChunkTask, ChunkOutcome]]:
        if self._closed:
            # without this guard a drain on a closed pool would spin on
            # the torn-down result pipes forever
            raise EngineError("executor already closed")
        while True:
            while self._done:
                yield self._done.popleft()
            busy = [lane for lane in self._lanes if lane.in_flight]
            if not busy:
                return
            ready = connection.wait(
                [lane.results for lane in busy], timeout=0.05 if wait else 0
            )
            # ``lane in self._lanes``: a recovery may replace a lane of
            # ``busy`` part-way through either loop
            if not ready:
                if not wait:
                    return
                for lane in busy:
                    if lane in self._lanes and not lane.alive():
                        self._recover(lane)
                continue
            for lane in busy:
                if lane in self._lanes and lane.results in ready:
                    self._receive(lane)

    def _receive(self, lane: _Lane) -> None:
        """Read one message off a ready lane into ``_done``."""
        try:
            lane_id, task_id, outcome = lane.results.recv()
        except (EOFError, OSError):
            # the worker died, possibly part-way through a message
            self._recover(lane)
            return
        entry = self._pop_in_flight(task_id)
        if entry is not None:  # else a retry already resolved this task
            self._done.append(self._finish(entry, lane_id, outcome))

    def _send(self, lane: _Lane, entry: _InFlight, ship_always: bool) -> None:
        """Put ``entry`` in flight on ``lane``; a lane found dead by the
        write is recovered, which retries the entry with the lane's
        other in-flight chunks."""
        try:
            lane.send(entry, ship_always)
        except OSError:
            self._recover(lane)
            return
        if lane.depth > self._stats.lane_peak_depth.get(lane.lane_id, 0):
            self._stats.lane_peak_depth[lane.lane_id] = lane.depth

    def _pop_in_flight(self, task_id: int) -> _InFlight | None:
        for lane in self._lanes:
            entry = lane.in_flight.pop(task_id, None)
            if entry is not None:
                return entry
        return None

    def _finish(
        self, entry: _InFlight, lane_id: int, outcome: ChunkOutcome
    ) -> tuple[ChunkTask, ChunkOutcome]:
        outcome.lane = lane_id
        outcome.dtd_shipped = entry.dtd_shipped
        outcome.spilled = entry.spilled
        outcome.retried = entry.attempts > 1
        return entry.task, outcome

    def _recover(self, lane: _Lane) -> _Lane:
        """Replace a dead lane with a cold one (same lane id, so affinity
        routing is undisturbed); retry each of its in-flight chunks once
        and finish chunks whose retry already died.

        Retries round-robin over the fresh lane and the other live lanes
        (always re-shipping the schema — the target runtime may be cold):
        a poison chunk that kills whatever lane runs it then takes down
        only itself on its second death, not the innocent chunks that
        happened to be queued behind it."""
        index = self._lanes.index(lane)
        orphans = list(lane.in_flight.values())
        _LOG.warning(
            "worker lane %d died with %d chunk(s) in flight; respawning",
            lane.lane_id, len(orphans),
        )
        lane.in_flight.clear()
        lane.close_pipes()
        fresh = _Lane(lane.lane_id, self._ctx, self.affinity)
        self._lanes[index] = fresh
        self._stats.lane_respawns += 1
        targets = [fresh] + [
            other for other in self._lanes
            if other is not fresh and (other.alive() or not other.started)
        ]
        position = 0
        for entry in orphans:
            if entry.attempts >= 2:
                _LOG.error(
                    "chunk %d survived no lane (retried once, lane died "
                    "again); failing its jobs", entry.task.task_id,
                )
                self._done.append((entry.task, ChunkOutcome(
                    lane=index, retried=True, spilled=entry.spilled,
                    error="worker lane died twice (chunk retried once)",
                )))
                continue
            entry.attempts += 1
            self._send(targets[position % len(targets)], entry, ship_always=True)
            position += 1
        return fresh

    def stats(self) -> ExecutorStats:
        return self._stats

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes:
            lane.stop()

    def __del__(self) -> None:
        # the pool is engine-lifetime: an engine dropped without close()
        # must still reap its forked lanes (daemon processes would die
        # with the interpreter, but not with the engine)
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
