"""Engine state: one SQLite database, many engine processes.

A long-lived checker accumulates routing knowledge that would die with
the process: per-schema plan caches (the planner's routing decisions,
keyed by feature signature), per-plan telemetry
(:class:`~repro.sat.telemetry.PlanTelemetry`), the decision cache, and
the last run's engine stats.  :class:`StateTier` keeps all of it in a
single SQLite database that any number of processes on the host read and
write concurrently, so a cold process that has seen the workload before
builds **zero** plans and re-decides nothing the cache still covers:

* **WAL mode** so readers never block the writer and vice versa, with a
  ``busy_timeout`` plus a bounded retry loop around every write
  transaction — two engines snapshotting at once serialize instead of
  failing;
* **last-writer-wins per key** for plans (``fingerprint × signature``),
  decisions (``query × fingerprint × bounds``) and telemetry rows
  (``telemetry_key``) — a newer snapshot of the same key replaces the
  older one, different keys never interfere;
* **hygiene**: cached decisions are capped per schema (newest win) and
  telemetry rows whose newest observation is older than
  ``telemetry_max_age_days`` age out — size and freshness trims that
  can cost warm-start coverage but never correctness;
* a **versioned schema** (``meta.tier_version``) — a newer on-disk
  version refuses loudly instead of corrupting, an unreadable database
  file is set aside as ``*.corrupt`` and rebuilt, and any other
  database error surfaces as :class:`~repro.errors.EngineError` (state
  is an optimization, never a correctness requirement).

``--state-tier PATH`` (also spelled ``--state-dir``) accepts either a
database file (``*.sqlite`` / ``*.db``) or a directory, where the
database lives at ``<dir>/state.sqlite``.  A directory holding a
**legacy JSON state dir** (written by earlier versions) is migrated on
first open: :func:`read_legacy_json` — the only code that reads those
files — imports them losslessly and leaves them in place, untouched.
``metrics.prom`` is written next to the database for textfile
collectors.

The tier holds learned state only.  An engine's settings come from its
constructor (and the CLI flags that feed it), never from the tier;
settings persisted by earlier versions (a legacy ``scheduler.json``, an
old tier's ``scheduler`` table) are ignored.  So are the measured
decider latencies earlier versions kept for a cost model that reordered
plans (a legacy ``cost_model.json``, an old tier's ``cost_cells`` table
and ``cost_min_samples`` meta row): plans depend only on the query's
feature signature and the schema's class.  An old tier keeps those
leftovers on disk, unread.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EngineError
from repro.obs.log import get_logger
from repro.sat.planner import Plan
from repro.sat.telemetry import PlanTelemetry

_LOG = get_logger("repro.engine.statetier")

#: bump when the table layout changes; a tier written by a *newer*
#: version refuses to open (downgrade protection), an older one upgrades
TIER_VERSION = 1

#: database filename when ``--state-tier`` names a directory
TIER_FILENAME = "state.sqlite"

#: Prometheus text-format snapshot of the unified metrics registry,
#: written next to the database (a textfile collector reads it raw)
METRICS_FILE = "metrics.prom"

#: path suffixes under which ``--state-tier PATH`` is the database itself
_DB_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: the legacy JSON state dir: its files, and the version they carry
LEGACY_JSON_VERSION = 1
PLANS_FILE = "plans.json"
TELEMETRY_FILE = "telemetry.json"
DECISIONS_FILE = "decisions.json"
ENGINE_STATS_FILE = "engine_stats.json"
_LEGACY_FILES = (PLANS_FILE, TELEMETRY_FILE, DECISIONS_FILE, ENGINE_STATS_FILE)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: dump into a sibling tmp
    file, flush + fsync it, then ``os.replace`` over the target.  A crash
    at any point leaves either the complete old file or the complete new
    one — never a torn or empty target (the fsync closes the window where
    the rename lands before the data does).  A failed write cleans up its
    tmp file and re-raises."""
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def _warn(warnings: list[str], message: str) -> None:
    """Record a degrade message both ways: the ``warnings`` list keeps
    the API contract (callers can inspect what was skipped), and the
    structured log makes it visible in a deployment's log stream."""
    warnings.append(message)
    _LOG.warning(message)


@dataclass
class PersistedState:
    """Everything one :meth:`StateTier.load` (or the legacy JSON reader)
    recovered."""

    plans: dict[str, dict[str, Plan]] = field(default_factory=dict)  # fingerprint -> sig -> Plan
    plan_names: dict[str, str] = field(default_factory=dict)         # fingerprint -> schema name
    telemetry: PlanTelemetry | None = None
    decisions: list[tuple[tuple[str, str, str], dict[str, Any]]] = field(default_factory=list)
    #: the last persisted EngineStats.as_dict() snapshot, if any
    engine_stats: dict[str, Any] | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def plan_count(self) -> int:
        return sum(len(per_schema) for per_schema in self.plans.values())


def _read_json(path: str, warnings: list[str]) -> dict[str, Any] | None:
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as error:
        _warn(warnings, f"{os.path.basename(path)}: unreadable ({error}); ignored")
        return None
    if not isinstance(record, dict):
        _warn(warnings, f"{os.path.basename(path)}: not a JSON object; ignored")
        return None
    if record.get("version") != LEGACY_JSON_VERSION:
        _warn(
            warnings,
            f"{os.path.basename(path)}: version {record.get('version')!r} "
            f"!= {LEGACY_JSON_VERSION}; ignored",
        )
        return None
    return record


def read_legacy_json(state_dir: str) -> PersistedState:
    """Read a legacy JSON state dir (missing pieces and corrupt files
    degrade to empty state, recorded in ``warnings``).  Only the one-time
    migration in :class:`StateTier` calls this."""
    state = PersistedState()
    if not os.path.isdir(state_dir):
        return state

    record = _read_json(os.path.join(state_dir, PLANS_FILE), state.warnings)
    if record is not None:
        schemas = record.get("schemas")
        if isinstance(schemas, dict):
            for fingerprint, entry in schemas.items():
                plans = entry.get("plans") if isinstance(entry, dict) else None
                if not isinstance(plans, dict):
                    continue
                per_schema: dict[str, Plan] = {}
                for signature, plan_record in plans.items():
                    try:
                        per_schema[signature] = Plan.from_dict(plan_record)
                    except (KeyError, TypeError, ValueError) as error:
                        _warn(
                            state.warnings,
                            f"{PLANS_FILE}: plan {fingerprint[:12]}/{signature}: "
                            f"{error}; skipped",
                        )
                if per_schema:
                    state.plans[fingerprint] = per_schema
                    name = entry.get("name") if isinstance(entry, dict) else None
                    if isinstance(name, str):
                        state.plan_names[fingerprint] = name

    record = _read_json(os.path.join(state_dir, TELEMETRY_FILE), state.warnings)
    if record is not None:
        try:
            state.telemetry = PlanTelemetry.from_dict(record)
        except (ValueError, TypeError) as error:
            _warn(
                state.warnings,
                f"{TELEMETRY_FILE}: corrupt payload ({error}); ignored",
            )

    record = _read_json(os.path.join(state_dir, DECISIONS_FILE), state.warnings)
    if record is not None:
        entries = record.get("entries")
        if isinstance(entries, list):
            for item in entries:
                if not (
                    isinstance(item, list) and len(item) == 2
                    and isinstance(item[0], list) and len(item[0]) == 3
                    and isinstance(item[1], dict)
                ):
                    continue
                key = (str(item[0][0]), str(item[0][1]), str(item[0][2]))
                state.decisions.append((key, item[1]))

    record = _read_json(os.path.join(state_dir, ENGINE_STATS_FILE), state.warnings)
    if record is not None:
        stats = record.get("stats")
        if isinstance(stats, dict):
            state.engine_stats = stats
    return state


def cap_decision_records(records: list, cap: int) -> list:
    """Decision hygiene: keep at most ``cap`` persisted decisions per
    schema fingerprint.  ``records`` is :meth:`DecisionCache.to_records`
    output (LRU order, oldest first); the newest entries per schema win
    and the surviving records keep their relative order, so a reloaded
    cache preserves recency."""
    if cap < 1:
        raise ValueError(f"decision cap must be positive, got {cap}")
    kept: list = []
    per_schema: dict[str, int] = {}
    for item in reversed(records):
        fingerprint = str(item[0][1])
        seen = per_schema.get(fingerprint, 0)
        if seen >= cap:
            continue
        per_schema[fingerprint] = seen + 1
        kept.append(item)
    kept.reverse()
    return kept


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS plans (
    fingerprint TEXT NOT NULL,
    signature TEXT NOT NULL,
    name TEXT NOT NULL,
    plan TEXT NOT NULL,
    updated REAL NOT NULL,
    PRIMARY KEY (fingerprint, signature)
);
CREATE TABLE IF NOT EXISTS decisions (
    qkey TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    bounds TEXT NOT NULL,
    satisfiable INTEGER,
    method TEXT NOT NULL,
    reason TEXT NOT NULL,
    updated REAL NOT NULL,
    PRIMARY KEY (qkey, fingerprint, bounds)
);
CREATE TABLE IF NOT EXISTS telemetry (
    key TEXT PRIMARY KEY,
    plan TEXT,
    stats TEXT NOT NULL,
    updated REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS engine_stats (
    process TEXT PRIMARY KEY,
    stats TEXT NOT NULL,
    updated REAL NOT NULL
);
"""


def resolve_tier_path(path: str) -> str:
    """The database file a ``--state-tier PATH`` names: the path itself
    when it looks like (or already is) a database file, otherwise
    ``PATH/state.sqlite``."""
    if path.endswith(_DB_SUFFIXES) or os.path.isfile(path):
        return path
    return os.path.join(path, TIER_FILENAME)


def _is_lock_error(error: sqlite3.DatabaseError) -> bool:
    """Contention with another connection, which waiting resolves."""
    message = str(error).lower()
    return "locked" in message or "busy" in message


class StateTier:
    """One shared SQLite state database (see the module docstring).

    A ``StateTier`` is a per-process *handle*: it owns one connection
    and the tier's read/write counters (``register_metrics`` publishes
    them as ``repro_tier_*``).
    The handle is thread-safe (one internal lock serializes its own
    operations); cross-process safety comes from SQLite itself.
    """

    def __init__(
        self,
        path: str,
        *,
        busy_timeout: float = 5.0,
        max_retries: int = 5,
    ) -> None:
        if busy_timeout <= 0:
            raise EngineError(
                f"busy_timeout must be positive, got {busy_timeout}"
            )
        if max_retries < 0:
            raise EngineError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        self.path = resolve_tier_path(path)
        self.busy_timeout = busy_timeout
        self.max_retries = max_retries
        self.warnings: list[str] = []
        # repro_tier_* counters
        self.loads = 0
        self.saves = 0
        self.rows_read = 0
        self.rows_written = 0
        self.lock_retries = 0
        self.migrated_records = 0
        self._lock = threading.RLock()
        self._closed = False
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(self.path)
        self._conn = self._open(fresh)
        if fresh:
            self._migrate_legacy_json(directory)

    # -- connection lifecycle ------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """A connection with the schema in place (closed again if that
        fails)."""
        conn = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout,
            isolation_level=None,       # explicit BEGIN IMMEDIATE below
            check_same_thread=False,    # guarded by self._lock
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
            conn.execute("PRAGMA synchronous=NORMAL")
            return self._init_schema(conn)
        except BaseException:
            conn.close()
            raise

    def _connect_waiting(self) -> sqlite3.Connection:
        """:meth:`_connect`, retrying lock contention with the writers'
        backoff.  Processes opening one database together can get
        "database is locked" at once, without the busy timeout, while
        one of them switches it to WAL; that is contention, not damage."""
        delay = 0.05
        for _ in range(self.max_retries):
            try:
                return self._connect()
            except sqlite3.OperationalError as error:
                if not _is_lock_error(error):
                    raise
            self.lock_retries += 1
            time.sleep(delay)
            delay = min(delay * 2, 0.5)
        return self._connect()

    def _open(self, fresh: bool) -> sqlite3.Connection:
        try:
            return self._connect_waiting()
        except sqlite3.DatabaseError as error:
            if fresh or _is_lock_error(error):
                raise EngineError(f"state tier {self.path}: {error}") from error
            # an unreadable existing database: set it aside and rebuild —
            # shared state is an optimization, refusing to serve over a
            # corrupt file would turn it into a correctness requirement
            corrupt = self.path + ".corrupt"
            message = (
                f"state tier {self.path}: unreadable ({error}); "
                f"moved aside to {corrupt} and rebuilt empty"
            )
            self.warnings.append(message)
            _LOG.warning(message)
            os.replace(self.path, corrupt)
            return self._connect()

    def _init_schema(self, conn: sqlite3.Connection) -> sqlite3.Connection:
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'tier_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                ("tier_version", str(TIER_VERSION)),
            )
        elif int(row[0]) > TIER_VERSION:
            conn.close()
            raise EngineError(
                f"state tier {self.path}: written by tier version {row[0]}, "
                f"this build understands {TIER_VERSION}; refusing to open"
            )
        # (older versions would upgrade here; version 1 is the first)
        return conn

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "StateTier":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _require_open(self) -> None:
        if self._closed:
            raise EngineError("state tier already closed")

    # -- retry plumbing ------------------------------------------------------
    def _with_retry(self, label: str, operation):
        """Run ``operation`` (which issues SQL), retrying on lock/busy
        contention with exponential backoff; other database errors and
        retry exhaustion surface as :class:`EngineError`."""
        delay = 0.05
        for attempt in range(self.max_retries + 1):
            try:
                return operation()
            except sqlite3.DatabaseError as error:
                # a file damaged under the open connection raises a plain
                # DatabaseError ("file is not a database", "database disk
                # image is malformed"); only lock contention is worth a
                # retry
                if not _is_lock_error(error):
                    raise EngineError(
                        f"state tier {label} failed: {error}"
                    ) from error
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                if attempt == self.max_retries:
                    raise EngineError(
                        f"state tier {label}: still locked after "
                        f"{self.max_retries} retries"
                    ) from error
                self.lock_retries += 1
                time.sleep(delay)
                delay = min(delay * 2, 0.5)

    # -- legacy JSON migration ----------------------------------------------
    def _migrate_legacy_json(self, directory: str) -> None:
        """One-time import of a legacy JSON state dir living next to a
        freshly created database.  The JSON files are read through the
        forgiving :func:`read_legacy_json` and left on disk untouched."""
        if not any(
            os.path.exists(os.path.join(directory, name))
            for name in _LEGACY_FILES
        ):
            return
        state = read_legacy_json(directory)
        self.warnings.extend(state.warnings)
        before = self.rows_written
        self._write_state(
            plan_records={
                fingerprint: (state.plan_names.get(fingerprint, "(migrated)"),
                              per_schema)
                for fingerprint, per_schema in state.plans.items()
            },
            telemetry=state.telemetry,
            decision_records=[
                [list(key), record] for key, record in state.decisions
            ],
            engine_stats=state.engine_stats,
            process="legacy-json",
            extra_meta={"migrated_from_json": str(time.time())},
        )
        self.migrated_records = self.rows_written - before
        _LOG.info(
            "state tier %s: migrated %d records from the legacy JSON "
            "state dir %s", self.path, self.migrated_records, directory,
        )

    # -- load ----------------------------------------------------------------
    def load(self) -> PersistedState:
        """Read everything into a :class:`PersistedState`.  Malformed
        rows degrade to warnings, never failures; a damaged database
        raises :class:`~repro.errors.EngineError`."""
        with self._lock:
            self._require_open()
            state = self._with_retry("load", self._read_state)
        self.loads += 1
        return state

    def _read_state(self) -> PersistedState:
        state = PersistedState()

        for fingerprint, signature, name, plan_json in self._conn.execute(
            "SELECT fingerprint, signature, name, plan FROM plans"
        ):
            self.rows_read += 1
            try:
                plan = Plan.from_dict(json.loads(plan_json))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                self._warn(
                    state,
                    f"plan {fingerprint[:12]}/{signature}: {error}; skipped",
                )
                continue
            state.plans.setdefault(fingerprint, {})[signature] = plan
            state.plan_names[fingerprint] = name

        telemetry_record: dict[str, Any] = {}
        for key, plan_json, stats_json in self._conn.execute(
            "SELECT key, plan, stats FROM telemetry"
        ):
            self.rows_read += 1
            try:
                telemetry_record[key] = {
                    "plan": json.loads(plan_json) if plan_json else None,
                    "stats": json.loads(stats_json),
                }
            except json.JSONDecodeError as error:
                self._warn(state, f"telemetry {key}: {error}; skipped")
        if telemetry_record:
            state.telemetry = PlanTelemetry.from_dict(
                {"plans": telemetry_record}
            )

        for qkey, fingerprint, bounds, satisfiable, method, reason in (
            self._conn.execute(
                "SELECT qkey, fingerprint, bounds, satisfiable, method, "
                "reason FROM decisions ORDER BY updated, rowid"
            )
        ):
            self.rows_read += 1
            state.decisions.append((
                (qkey, fingerprint, bounds),
                {
                    "satisfiable": (
                        None if satisfiable is None else bool(satisfiable)
                    ),
                    "method": method,
                    "reason": reason,
                },
            ))

        stats_row = self._conn.execute(
            "SELECT stats FROM engine_stats ORDER BY updated DESC, rowid DESC "
            "LIMIT 1"
        ).fetchone()
        if stats_row is not None:
            self.rows_read += 1
            try:
                stats = json.loads(stats_row[0])
                if isinstance(stats, dict):
                    state.engine_stats = stats
            except json.JSONDecodeError as error:
                self._warn(state, f"engine stats: {error}; skipped")
        return state

    def _warn(self, state: PersistedState, message: str) -> None:
        message = f"state tier {self.path}: {message}"
        state.warnings.append(message)
        self.warnings.append(message)
        _LOG.warning(message)

    def engine_stats_rows(self) -> dict[str, dict[str, Any]]:
        """Per-process engine-stats snapshots (``process -> stats``):
        each engine saves under its own host:pid identity, so a fleet's
        last-run stats are inspectable side by side (``repro stats
        --plans --state-tier --json`` and the scale-out bench read
        these)."""
        with self._lock:
            self._require_open()
            rows = {}
            for process, stats_json in self._conn.execute(
                "SELECT process, stats FROM engine_stats ORDER BY updated"
            ):
                try:
                    stats = json.loads(stats_json)
                except json.JSONDecodeError:
                    continue
                if isinstance(stats, dict):
                    rows[process] = stats
            return rows

    # -- save ----------------------------------------------------------------
    def save(
        self,
        *,
        registry=None,
        telemetry: PlanTelemetry | None = None,
        cache=None,
        decision_cap_per_schema: int | None = None,
        telemetry_max_age_days: float | None = None,
        engine_stats: dict[str, Any] | None = None,
        metrics_text: str | None = None,
    ) -> None:
        """Persist the given engine components (pieces passed as ``None``
        are left untouched) with the tier's consistency model: LWW per
        key, hygiene caps enforced in the database.  One ``BEGIN
        IMMEDIATE`` transaction, retried on lock contention;
        ``engine_stats`` (an ``EngineStats.as_dict()`` snapshot) and
        ``metrics_text`` (a rendered Prometheus textfile, written next to
        the database) are observability exports riding along with the
        state."""
        plan_records = registry.plan_records() if registry is not None else None
        decision_records = None
        if cache is not None:
            decision_records = cache.to_records()
            if decision_cap_per_schema is not None:
                decision_records = cap_decision_records(
                    decision_records, decision_cap_per_schema
                )
        with self._lock:
            self._require_open()
            self._with_retry(
                "save",
                lambda: self._write_state(
                    plan_records=plan_records,
                    telemetry=telemetry,
                    telemetry_max_age_days=telemetry_max_age_days,
                    decision_records=decision_records,
                    decision_cap_per_schema=decision_cap_per_schema,
                    engine_stats=engine_stats,
                ),
            )
        self.saves += 1
        if metrics_text is not None:
            atomic_write_text(
                os.path.join(os.path.dirname(self.path) or ".", METRICS_FILE),
                metrics_text,
            )

    def _write_state(
        self,
        *,
        plan_records=None,
        telemetry: PlanTelemetry | None = None,
        telemetry_max_age_days: float | None = None,
        decision_records=None,
        decision_cap_per_schema: int | None = None,
        engine_stats: dict[str, Any] | None = None,
        process: str | None = None,
        extra_meta: dict[str, str] | None = None,
    ) -> None:
        now = time.time()
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            if plan_records is not None:
                for fingerprint, (name, per_schema) in plan_records.items():
                    for signature, plan in per_schema.items():
                        conn.execute(
                            "INSERT INTO plans(fingerprint, signature, name, "
                            "plan, updated) VALUES(?, ?, ?, ?, ?) "
                            "ON CONFLICT(fingerprint, signature) DO UPDATE SET "
                            "name = excluded.name, plan = excluded.plan, "
                            "updated = excluded.updated",
                            (fingerprint, signature, name,
                             json.dumps(plan.to_dict(), sort_keys=True), now),
                        )
                        self.rows_written += 1

            if telemetry is not None:
                # a row is as fresh as its newest observation, not as
                # this save: a stale row a process loaded still ages out
                for key, stats in telemetry.items():
                    plan_record = telemetry.plan_record(key)
                    conn.execute(
                        "INSERT INTO telemetry(key, plan, stats, updated) "
                        "VALUES(?, ?, ?, ?) "
                        "ON CONFLICT(key) DO UPDATE SET plan = excluded.plan, "
                        "stats = excluded.stats, updated = excluded.updated",
                        (
                            key,
                            json.dumps(plan_record, sort_keys=True)
                            if plan_record is not None else None,
                            json.dumps(stats.to_dict(), sort_keys=True),
                            stats.last_seen or now,
                        ),
                    )
                    self.rows_written += 1
                if telemetry_max_age_days is not None:
                    # cross-process hygiene: rows no process observed
                    # within the window age out of the shared tier
                    conn.execute(
                        "DELETE FROM telemetry WHERE updated < ?",
                        (now - telemetry_max_age_days * 86400.0,),
                    )

            if decision_records is not None:
                touched_fingerprints = set()
                for key, record in decision_records:
                    qkey, fingerprint, bounds = (
                        str(key[0]), str(key[1]), str(key[2])
                    )
                    satisfiable = record.get("satisfiable")
                    conn.execute(
                        "INSERT INTO decisions(qkey, fingerprint, bounds, "
                        "satisfiable, method, reason, updated) "
                        "VALUES(?, ?, ?, ?, ?, ?, ?) "
                        "ON CONFLICT(qkey, fingerprint, bounds) DO UPDATE SET "
                        "satisfiable = excluded.satisfiable, "
                        "method = excluded.method, "
                        "reason = excluded.reason, "
                        "updated = excluded.updated",
                        (qkey, fingerprint, bounds,
                         None if satisfiable is None else int(satisfiable),
                         str(record.get("method", "")),
                         str(record.get("reason", "")), now),
                    )
                    touched_fingerprints.add(fingerprint)
                    self.rows_written += 1
                if decision_cap_per_schema is not None:
                    # enforce the per-schema cap on the *shared* table:
                    # newest rows win, the rule cap_decision_records
                    # applies to this process's records
                    for fingerprint in sorted(touched_fingerprints):
                        conn.execute(
                            "DELETE FROM decisions WHERE fingerprint = ? AND "
                            "rowid NOT IN (SELECT rowid FROM decisions "
                            "WHERE fingerprint = ? "
                            "ORDER BY updated DESC, rowid DESC LIMIT ?)",
                            (fingerprint, fingerprint,
                             decision_cap_per_schema),
                        )

            if engine_stats is not None:
                identity = process if process is not None else self._identity()
                conn.execute(
                    "INSERT INTO engine_stats(process, stats, updated) "
                    "VALUES(?, ?, ?) "
                    "ON CONFLICT(process) DO UPDATE SET "
                    "stats = excluded.stats, updated = excluded.updated",
                    (identity, json.dumps(engine_stats, sort_keys=True), now),
                )
                self.rows_written += 1

            for key, value in (extra_meta or {}).items():
                conn.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                    (key, value),
                )
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    @staticmethod
    def _identity() -> str:
        return f"{socket.gethostname()}:{os.getpid()}"

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry) -> None:
        for name, attr, help_text in (
            ("loads", "loads", "full state loads from the shared tier"),
            ("saves", "saves", "state snapshots written to the shared tier"),
            ("rows_read", "rows_read", "rows read from the shared tier"),
            ("rows_written", "rows_written",
             "rows upserted into the shared tier"),
            ("lock_retries", "lock_retries",
             "write transactions retried on lock contention"),
            ("migrated_records", "migrated_records",
             "records imported from a legacy JSON state dir"),
        ):
            registry.counter(f"repro_tier_{name}_total", help_text).inc(
                getattr(self, attr)
            )
