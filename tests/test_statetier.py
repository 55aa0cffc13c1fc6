"""Tests for the SQLite state tier (:mod:`repro.engine.statetier`).

Covers the tier's consistency model (LWW per key, every writer's rows
landing), crash-safety of its snapshots (the atomic ``metrics.prom``
write, a transaction failing part-way, SIGKILL at random points, a
database damaged mid-run), warm starts through the tier, concurrent
multi-process writers, legacy JSON-dir migration from a committed
fixture, a tier an older version left with its cost-model leftovers,
and version/corruption handling.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.engine import (
    BatchEngine, CachedDecision, DecisionCache, Job, SchemaRegistry, StateTier,
)
from repro.engine.statetier import (
    TIER_FILENAME,
    atomic_write_text,
    read_legacy_json,
    resolve_tier_path,
)
from repro.errors import EngineError
from repro.sat.telemetry import PlanTelemetry
from repro.xpath import parse_query

#: a JSON state dir as the retired JSON writer left it: ``save_state``
#: after ``BatchEngine(registry=_registry()).run(_jobs())``
LEGACY_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "legacy_json_state"
)

DTD_TEXT = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""

DOC_DTD_TEXT = """
root doc
doc -> title, para*
title -> eps
para -> text?
text -> eps
"""

QUERIES = ["A", "B", ".[B and C]", "A[not(B)]", "r//A", "^/A"]


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register("catalog", DTD_TEXT)
    registry.register("doc", DOC_DTD_TEXT)
    return registry


def _jobs() -> list[Job]:
    return [
        Job(query, schema)
        for schema in ("catalog", "doc")
        for query in QUERIES
    ]


def _verdicts(report) -> list[tuple]:
    return [(r.id, r.satisfiable, r.method) for r in report.results]


def _legacy_copy(tmp_path) -> str:
    """A private copy of the legacy JSON state dir fixture."""
    state_dir = str(tmp_path / "state")
    shutil.copytree(LEGACY_FIXTURE, state_dir)
    return state_dir


#: the tables of a tier this version creates
FRESH_TABLES = {"meta", "plans", "decisions", "telemetry", "engine_stats"}


def _tables(db_path: str) -> set[str]:
    conn = sqlite3.connect(db_path)
    try:
        return {
            name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        conn.close()


def _file_bytes(directory: str) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(directory).glob("*.json"))
    }


class _FailingConnection:
    """A tier connection whose ``fail_at``-th INSERT raises, part-way
    through a save's transaction."""

    def __init__(self, conn: sqlite3.Connection, fail_at: int) -> None:
        self._conn = conn
        self.inserts = 0
        self.fail_at = fail_at

    def execute(self, sql: str, *args):
        if sql.startswith("INSERT"):
            self.inserts += 1
            if self.inserts == self.fail_at:
                raise sqlite3.OperationalError("disk I/O error (injected)")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


# -- crash-safety of snapshots ---------------------------------------------------

class TestAtomicWrite:
    def test_writes_fsync_then_rename(self, tmp_path, monkeypatch):
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        path = str(tmp_path / "metrics.prom")
        atomic_write_text(path, "repro_jobs_total 1\n")
        assert synced, "content must be fsynced before the rename"
        assert Path(path).read_text() == "repro_jobs_total 1\n"
        assert not os.path.exists(path + ".tmp")

    def test_crash_before_rename_leaves_original_intact(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "metrics.prom")
        atomic_write_text(path, "generation 1\n")

        def explode(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError):
            atomic_write_text(path, "generation 2\n")
        # the crash never touched the published file, and the torn tmp
        # file was cleaned up
        assert Path(path).read_text() == "generation 1\n"
        assert not os.path.exists(path + ".tmp")

    def test_engine_snapshot_survives_injected_crash(
        self, tmp_path, monkeypatch
    ):
        tier_path = str(tmp_path / "state")
        engine = BatchEngine(registry=_registry(), state_tier=tier_path)
        engine.run(_jobs())
        engine.save_state()
        with StateTier(tier_path) as tier:
            before = tier.load()
        assert before.plan_count >= 1

        engine.run(_jobs())
        real_conn = engine.state_tier._conn
        failing = _FailingConnection(real_conn, fail_at=5)
        monkeypatch.setattr(engine.state_tier, "_conn", failing)
        with pytest.raises(EngineError, match="injected"):
            engine.save_state()
        assert failing.inserts == 5         # it died part-way through
        monkeypatch.setattr(engine.state_tier, "_conn", real_conn)
        # the failed transaction rolled back whole: the previous save
        # loads exactly, with no warnings
        with StateTier(tier_path) as tier:
            after = tier.load()
            assert not tier.warnings
        assert after.plan_count == before.plan_count
        assert after.telemetry.to_dict() == before.telemetry.to_dict()
        assert sorted(after.decisions) == sorted(before.decisions)
        # and the handle still saves afterwards
        engine.save_state()
        engine.close()


# -- tier basics -----------------------------------------------------------------

class TestTierBasics:
    def test_resolve_tier_path(self, tmp_path):
        directory = str(tmp_path / "state")
        assert resolve_tier_path(directory) == os.path.join(
            directory, TIER_FILENAME
        )
        assert resolve_tier_path("/x/tier.sqlite") == "/x/tier.sqlite"
        assert resolve_tier_path("/x/tier.db") == "/x/tier.db"
        plain = tmp_path / "already-there"
        plain.write_text("")
        assert resolve_tier_path(str(plain)) == str(plain)

    def test_rejects_bad_tunables(self, tmp_path):
        with pytest.raises(EngineError, match="busy_timeout"):
            StateTier(str(tmp_path), busy_timeout=0)
        with pytest.raises(EngineError, match="max_retries"):
            StateTier(str(tmp_path), max_retries=-1)

    def test_round_trip_through_engine(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        engine = BatchEngine(registry=_registry(), state_tier=tier_path)
        baseline = _verdicts(engine.run(_jobs()))
        engine.save_state()
        engine.close()

        with StateTier(tier_path) as tier:
            state = tier.load()
        assert state.plan_count == sum(
            len(artifacts.plan_cache) for artifacts in engine.registry
        )
        assert len(state.decisions) == len(engine.cache)
        assert state.telemetry is not None
        assert state.telemetry.to_dict() == engine.telemetry.to_dict()

        warm = BatchEngine(registry=_registry(), state_tier=tier_path)
        report = warm.run(_jobs())
        assert _verdicts(report) == baseline
        warm.close()

    def test_newer_tier_version_refuses_to_open(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        StateTier(tier_path).close()
        conn = sqlite3.connect(resolve_tier_path(tier_path))
        conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'tier_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(EngineError, match="tier version 99"):
            StateTier(tier_path)

    def test_corrupt_database_is_set_aside_and_rebuilt(self, tmp_path):
        db_path = str(tmp_path / "tier.sqlite")
        with open(db_path, "wb") as handle:
            handle.write(b"this is not a database")
        tier = StateTier(db_path)
        assert any("moved aside" in w for w in tier.warnings)
        assert os.path.exists(db_path + ".corrupt")
        state = tier.load()       # rebuilt empty but serviceable
        assert state.plan_count == 0
        tier.close()
        # an engine opening a corrupt database reports it too
        with open(db_path, "wb") as handle:
            handle.write(b"this is not a database")
        with BatchEngine(registry=_registry(), state_tier=db_path) as engine:
            assert any("moved aside" in w for w in engine.state_warnings)

    def test_open_waits_out_lock_contention(self, tmp_path):
        # another process creating the same database holds it exclusively
        # for a moment: opening must wait that out, not mistake the
        # "database is locked" for a corrupt file and move it aside
        db_path = str(tmp_path / "tier.sqlite")
        holder = sqlite3.connect(
            db_path, isolation_level=None, check_same_thread=False,
        )
        holder.execute("BEGIN EXCLUSIVE")
        release = threading.Timer(0.3, holder.execute, args=("ROLLBACK",))
        release.start()
        try:
            with StateTier(db_path, busy_timeout=0.05) as tier:
                assert tier.lock_retries >= 1
                assert not tier.warnings
                assert tier.load().plan_count == 0
        finally:
            release.join(timeout=30)
            holder.close()
        assert not release.is_alive()
        assert not os.path.exists(db_path + ".corrupt")

    def test_open_gives_up_on_a_lock_that_never_clears(self, tmp_path):
        db_path = str(tmp_path / "tier.sqlite")
        holder = sqlite3.connect(db_path, isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            with pytest.raises(EngineError, match="locked"):
                StateTier(db_path, busy_timeout=0.01, max_retries=2)
        finally:
            holder.close()
        assert not os.path.exists(db_path + ".corrupt")

    def test_save_without_target_errors(self):
        engine = BatchEngine(registry=_registry())
        with pytest.raises(EngineError, match="no persistence target"):
            engine.save_state()
        engine.close()

    def test_tier_counters_ride_engine_metrics(self, tmp_path):
        engine = BatchEngine(
            registry=_registry(), state_tier=str(tmp_path / "tier")
        )
        engine.run(_jobs())
        engine.save_state()
        rendered = engine.metrics_registry().render_prometheus()
        assert "repro_tier_loads_total 1" in rendered
        assert "repro_tier_saves_total 1" in rendered
        assert "repro_tier_rows_written_total" in rendered
        assert "repro_tier_rows_read_total" in rendered
        assert "repro_tier_cells" not in rendered
        engine.close()
        # metrics.prom lands next to the database for textfile collectors
        assert os.path.exists(str(tmp_path / "tier" / "metrics.prom"))


# -- satellite: warm starts through the tier --------------------------------------

class TestWarmStart:
    def test_two_sequential_engines_start_warm(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        seed = BatchEngine(registry=_registry(), state_tier=tier_path)
        baseline = _verdicts(seed.run(_jobs()))
        assert seed.run(_jobs()).stats.planner_invocations == 0
        seed.save_state()
        seed.close()

        for _ in range(2):      # two successive warm processes
            engine = BatchEngine(registry=_registry(), state_tier=tier_path)
            report = engine.run(_jobs())
            assert _verdicts(report) == baseline
            assert report.stats.planner_invocations == 0
            assert report.stats.persisted_plans_loaded >= 1
            assert report.stats.decide_calls == 0
            engine.save_state()
            engine.close()

    def test_plan_naming_unregistered_decider_is_replanned(self, tmp_path):
        """A persisted plan whose chain names a decider that is no longer
        registered (e.g. one retired since the state was saved) is
        skipped with a warning on load, so its signature is replanned
        instead of failing the whole run."""
        from repro.sat import registry as sat_registry

        tier_path = str(tmp_path / "state")
        seed = BatchEngine(registry=_registry(), state_tier=tier_path)
        seed.run([Job("C[not(A)]", "catalog")])
        (plan,) = seed.registry.get("catalog").plan_cache.values()
        assert plan.decider == "exptime_types"
        seed.save_state()
        seed.close()

        with sat_registry.disabled("exptime_types"):
            engine = BatchEngine(registry=_registry(), state_tier=tier_path)
            try:
                report = engine.run([Job("B[not(A)]", "catalog")])
                replanned = engine.registry.get("catalog").plan_cache[plan.signature]
            finally:
                engine.close()
        assert any(
            "unknown decider 'exptime_types'" in warning
            for warning in engine.state_warnings
        ), engine.state_warnings
        assert report.stats.errors == 0
        assert report.results[0].satisfiable is True
        assert "exptime_types" not in (replanned.decider,) + replanned.fallbacks

    def test_cli_batch_warm_start_through_tier(self, tmp_path, capsys):
        dtd = tmp_path / "catalog.dtd"
        dtd.write_text(DTD_TEXT)
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text("".join(
            json.dumps({"query": query, "schema": "catalog"}) + "\n"
            for query in QUERIES
        ))
        tier = str(tmp_path / "tier")
        cold_stats = str(tmp_path / "cold.json")
        code = main([
            "batch", str(jobs_file), "--schema", f"catalog={dtd}",
            "--state-tier", tier, "--stats-json", cold_stats,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "state: saved to" in out

        warm_stats = str(tmp_path / "warm.json")
        code = main([
            "batch", str(jobs_file), "--schema", f"catalog={dtd}",
            "--state-tier", tier, "--stats-json", warm_stats,
        ])
        assert code == 0
        (cold,) = json.load(open(cold_stats))
        (warm,) = json.load(open(warm_stats))
        assert cold["planner_invocations"] > 0
        assert warm["planner_invocations"] == 0
        assert warm["persisted_plans_loaded"] >= 1
        assert warm["decide_calls"] == 0

    def test_stats_plans_reads_the_tier(self, tmp_path, capsys):
        tier_path = str(tmp_path / "tier")
        engine = BatchEngine(registry=_registry(), state_tier=tier_path)
        engine.run(_jobs())
        engine.save_state()
        engine.close()
        code = main(["stats", "--plans", "--state-tier", tier_path, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plans"]
        assert "cost_model" not in payload
        assert len(payload["processes"]) == 1

    def test_the_plan_table_lives_only_in_the_telemetry(self, tmp_path, capsys):
        # no run's stats, and no engine_stats row saved from them, repeat
        # the per-plan table: `stats --plans --json` builds its rows from
        # the tier's telemetry rows
        tier_path = str(tmp_path / "tier")
        engine = BatchEngine(registry=_registry(), state_tier=tier_path)
        report = engine.run(_jobs())
        assert "plans" not in report.stats.as_dict()
        engine.save_state()
        telemetry = engine.telemetry
        engine.close()
        with StateTier(tier_path) as tier:
            (saved,) = tier.engine_stats_rows().values()
        assert saved["jobs"] == len(_jobs())
        assert "plans" not in saved

        assert main(["stats", "--plans", "--state-tier", tier_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "plans" not in payload["engine"]
        assert all("plans" not in row for row in payload["processes"].values())
        expected = telemetry.summary()
        assert set(payload["plans"]) == set(expected)
        for key, row in payload["plans"].items():
            assert row.pop("plan") == telemetry.plan_record(key)
            # the tier keeps total_ms to 4 decimals, so a mean rounded
            # to 4 decimals may differ in its last digit
            assert row.pop("mean_ms") == pytest.approx(
                expected[key].pop("mean_ms"), abs=1e-4
            )
            assert row == expected[key]
        assert {key: row["count"] for key, row in payload["plans"].items()} == {
            key: stats.count for key, stats in telemetry.items()
        }


def _writer_key(writer: int, index: int) -> tuple[str, str, str]:
    """A decision key only writer ``writer`` saves."""
    return (f"w{writer}-q{index}", f"fp{writer}", "-")


def _writer_rows(writer: int, rows: int) -> DecisionCache:
    cache = DecisionCache(capacity=max(rows, 1))
    for index in range(rows):
        cache.put(
            _writer_key(writer, index),
            CachedDecision(index % 2 == 0, "test", f"row {index}"),
        )
    return cache


def _concurrent_writer(tier_path: str, writer: int, rows: int) -> None:
    """Save this writer's decision rows, growing by one row at a time,
    with a snapshot every fifth row and one at the end."""
    tier = StateTier(tier_path)
    for index in range(rows):
        if index % 5 == 0:
            tier.save(cache=_writer_rows(writer, index + 1))
    tier.save(cache=_writer_rows(writer, rows))
    tier.close()


def _saved_keys(tier_path: str) -> list[tuple[str, str, str]]:
    with StateTier(tier_path) as tier:
        return [key for key, _record in tier.load().decisions]


class TestConcurrentWriters:
    """Writers save their own keys into one tier, at once: every row
    each of them saved lands, once."""

    def _run(self, tier_path: str, writers: int, rows: int) -> None:
        processes = [
            multiprocessing.Process(
                target=_concurrent_writer, args=(tier_path, writer, rows)
            )
            for writer in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

    def _expected(self, writers: int, rows: int) -> list[tuple[str, str, str]]:
        return sorted(
            _writer_key(writer, index)
            for writer in range(writers) for index in range(rows)
        )

    def test_two_process_writers_lose_no_samples(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        self._run(tier_path, writers=2, rows=25)
        assert sorted(_saved_keys(tier_path)) == self._expected(2, 25)

    @pytest.mark.skipif(
        os.environ.get("REPRO_TIER_STRESS") != "1",
        reason="heavier tier stress runs nightly (REPRO_TIER_STRESS=1)",
    )
    def test_many_process_writers_lose_no_samples(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        self._run(tier_path, writers=6, rows=200)
        assert sorted(_saved_keys(tier_path)) == self._expected(6, 200)


# -- satellite: legacy JSON migration ---------------------------------------------

class TestLegacyMigration:
    def test_json_dir_migrates_losslessly_on_first_open(self, tmp_path):
        with BatchEngine(registry=_registry()) as cold:
            baseline = _verdicts(cold.run(_jobs()))
        state_dir = _legacy_copy(tmp_path)
        files = _file_bytes(state_dir)
        legacy = read_legacy_json(state_dir)
        assert not legacy.warnings and legacy.plan_count >= 1

        tier = StateTier(state_dir)     # same directory: auto-migration
        assert tier.migrated_records > 0
        state = tier.load()
        tier.close()

        # plans and decisions round-trip exactly
        assert {
            (fp, sig) for fp, plans in state.plans.items() for sig in plans
        } == {
            (fp, sig) for fp, plans in legacy.plans.items() for sig in plans
        }
        assert sorted(key for key, _ in state.decisions) == sorted(
            key for key, _ in legacy.decisions
        )
        assert sorted(state.telemetry.items()) == sorted(
            legacy.telemetry.items()
        )
        # the JSON files stay on disk untouched; the fixture's
        # cost_model.json and scheduler.json are not imported
        assert _file_bytes(state_dir) == files
        assert "cost_model.json" in files and "scheduler.json" in files
        assert _tables(os.path.join(state_dir, TIER_FILENAME)) == FRESH_TABLES

        # and a tier-backed engine serves identical verdicts, warm
        warm = BatchEngine(registry=_registry(), state_tier=state_dir)
        report = warm.run(_jobs())
        assert _verdicts(report) == baseline
        assert report.stats.planner_invocations == 0
        warm.close()

    def test_a_telemetry_row_with_grouped_jobs_still_loads(self):
        # the fixture's rows carry grouped_jobs, a count that equalled
        # `count` and is no longer kept: they load with their counts, and
        # write back without the key
        with open(os.path.join(LEGACY_FIXTURE, "telemetry.json")) as handle:
            record = json.load(handle)
        rows = record["plans"]
        assert all("grouped_jobs" in row["stats"] for row in rows.values())
        telemetry = PlanTelemetry.from_dict(record)
        assert {key: stats.count for key, stats in telemetry.items()} == {
            key: row["stats"]["count"] for key, row in rows.items()
        }
        saved = telemetry.to_dict()
        assert all(
            "grouped_jobs" not in row["stats"] for row in saved["plans"].values()
        )
        assert PlanTelemetry.from_dict(saved).to_dict() == saved
        assert any("groups" in row for row in telemetry.summary().values())
        assert all(
            "grouped_jobs" not in row for row in telemetry.summary().values()
        )

    def test_migration_runs_only_once(self, tmp_path):
        state_dir = _legacy_copy(tmp_path)
        first = StateTier(state_dir)
        assert first.migrated_records > 0
        first.close()
        second = StateTier(state_dir)   # database exists: no re-import
        assert second.migrated_records == 0
        second.close()

    def test_cli_state_dir_starts_warm_and_writes_no_json(
        self, tmp_path, capsys
    ):
        state_dir = _legacy_copy(tmp_path)
        files = _file_bytes(state_dir)
        schemas = []
        for name, text in (("catalog", DTD_TEXT), ("doc", DOC_DTD_TEXT)):
            (tmp_path / f"{name}.dtd").write_text(text)
            schemas += ["--schema", f"{name}={tmp_path / f'{name}.dtd'}"]
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text("".join(
            json.dumps({"query": job.query, "schema": job.schema}) + "\n"
            for job in _jobs()
        ))
        stats_file = str(tmp_path / "stats.json")
        code = main([
            "batch", str(jobs_file), *schemas,
            "--state-dir", state_dir, "--stats-json", stats_file,
        ])
        assert code == 0
        assert "state: saved to" in capsys.readouterr().out
        (stats,) = json.loads(Path(stats_file).read_text())
        assert stats["planner_invocations"] == 0
        assert stats["persisted_plans_loaded"] >= 1
        assert stats["decide_calls"] == 0
        # the run saved into the tier; the JSON files are as they were
        assert os.path.getsize(os.path.join(state_dir, TIER_FILENAME)) > 0
        assert _file_bytes(state_dir) == files


# -- a tier an older version wrote ------------------------------------------------

#: the table layout of a version-1 tier as versions with a measured cost
#: model wrote it, ``cost_cells`` included
_COST_MODEL_ERA_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE plans (
    fingerprint TEXT NOT NULL, signature TEXT NOT NULL, name TEXT NOT NULL,
    plan TEXT NOT NULL, updated REAL NOT NULL,
    PRIMARY KEY (fingerprint, signature)
);
CREATE TABLE cost_cells (
    signature TEXT NOT NULL, bucket TEXT NOT NULL, decider TEXT NOT NULL,
    count REAL NOT NULL, total_ms REAL NOT NULL, last_tick INTEGER NOT NULL,
    PRIMARY KEY (signature, bucket, decider)
);
CREATE TABLE decisions (
    qkey TEXT NOT NULL, fingerprint TEXT NOT NULL, bounds TEXT NOT NULL,
    satisfiable INTEGER, method TEXT NOT NULL, reason TEXT NOT NULL,
    updated REAL NOT NULL, PRIMARY KEY (qkey, fingerprint, bounds)
);
CREATE TABLE telemetry (
    key TEXT PRIMARY KEY, plan TEXT, stats TEXT NOT NULL,
    updated REAL NOT NULL
);
CREATE TABLE engine_stats (
    process TEXT PRIMARY KEY, stats TEXT NOT NULL, updated REAL NOT NULL
);
"""


def _cost_model_era_tier(tier_dir: Path, cells: list[tuple]) -> str:
    """A version-1 tier at ``tier_dir`` holding the given ``cost_cells``
    rows and a ``cost_min_samples`` meta row, and nothing else."""
    tier_dir.mkdir()
    conn = sqlite3.connect(str(tier_dir / TIER_FILENAME))
    try:
        conn.executescript(_COST_MODEL_ERA_DDL)
        conn.executemany(
            "INSERT INTO meta(key, value) VALUES(?, ?)",
            [("tier_version", "1"), ("cost_min_samples", "3")],
        )
        conn.executemany("INSERT INTO cost_cells VALUES(?, ?, ?, ?, ?, ?)", cells)
        conn.commit()
    finally:
        conn.close()
    return str(tier_dir)


def _cost_cells(tier_path: str) -> list[tuple]:
    conn = sqlite3.connect(os.path.join(tier_path, TIER_FILENAME))
    try:
        return sorted(conn.execute("SELECT * FROM cost_cells"))
    finally:
        conn.close()


class TestOldTier:
    """A tier an older version left behind — measured cost cells, their
    ``cost_min_samples`` meta row, and a plan it promoted and routed
    inline by measurement, carrying ``costs`` — opens without a
    warning, adopts that plan as it was routed, serves, saves, and
    reads back through ``repro stats --plans --json``.  The cost-model
    leftovers stay on disk, unread."""

    QUERY = "A[not(B)]"

    def _old_tier(self, tmp_path) -> tuple[str, dict]:
        from repro.sat import Planner

        artifacts = _registry().get("catalog")
        static = Planner().plan_query(parse_query(self.QUERY), artifacts=artifacts)
        assert static.route == "pool" and len(static.fallbacks) == 1
        record = dict(
            static.to_dict(),
            decider=static.fallbacks[0], fallbacks=[static.decider],
            route="inline",
            notes=["cost model (xs schemas): nexptime promoted"],
            costs=[[static.fallbacks[0], 0.041], [static.decider, 0.12]],
        )
        tier_path = _cost_model_era_tier(
            tmp_path / "old",
            [(static.signature, "xs", static.fallbacks[0], 3.0, 0.123, 7),
             (static.signature, "xs", static.decider, 3.0, 0.36, 6)],
        )
        conn = sqlite3.connect(os.path.join(tier_path, TIER_FILENAME))
        conn.execute(
            "INSERT INTO plans VALUES(?, ?, ?, ?, ?)",
            (artifacts.fingerprint, static.signature, "catalog",
             json.dumps(record, sort_keys=True), 1.0),
        )
        conn.commit()
        conn.close()
        return tier_path, record

    def test_an_old_tier_opens_adopts_serves_and_saves(self, tmp_path, capsys):
        tier_path, record = self._old_tier(tmp_path)
        with StateTier(tier_path) as tier:
            state = tier.load()
            assert not tier.warnings
        (adopted,) = state.plans[_registry().get("catalog").fingerprint].values()
        assert (adopted.decider, adopted.fallbacks, adopted.route) == (
            record["decider"], tuple(record["fallbacks"]), "inline"
        )
        assert "costs" not in adopted.to_dict()

        with BatchEngine(registry=_registry()) as fresh:
            (expected,) = fresh.run([Job(self.QUERY, "catalog")]).results
        with BatchEngine(registry=_registry(), state_tier=tier_path) as engine:
            assert engine.state_warnings == []
            report = engine.run([Job(self.QUERY, "catalog")])
            assert report.stats.planner_invocations == 0
            (result,) = report.results
            assert result.satisfiable == expected.satisfiable
            engine.save_state()

        db_path = os.path.join(tier_path, TIER_FILENAME)
        assert _tables(db_path) == FRESH_TABLES | {"cost_cells"}
        conn = sqlite3.connect(db_path)
        try:
            assert conn.execute("SELECT COUNT(*) FROM cost_cells").fetchone() == (2,)
            assert conn.execute(
                "SELECT value FROM meta WHERE key = 'cost_min_samples'"
            ).fetchone() == ("3",)
            (saved,) = conn.execute("SELECT plan FROM plans").fetchone()
        finally:
            conn.close()
        assert json.loads(saved) == {
            key: value for key, value in record.items() if key != "costs"
        }

        assert main(["stats", "--plans", "--state-tier", tier_path, "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "cost_model" not in payload
        (row,) = payload["plans"].values()
        assert row["plan"]["decider"] == record["decider"]
        assert row["count"] == 1
        assert captured.err == ""

    def test_a_fresh_tier_has_no_cost_cells(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        with BatchEngine(registry=_registry(), state_tier=tier_path) as engine:
            engine.run(_jobs())
            engine.save_state()
        db_path = os.path.join(tier_path, TIER_FILENAME)
        assert _tables(db_path) == FRESH_TABLES
        conn = sqlite3.connect(db_path)
        try:
            keys = {key for (key,) in conn.execute("SELECT key FROM meta")}
        finally:
            conn.close()
        assert keys == {"tier_version"}


#: leftover cost cells of an old tier: (signature, bucket, decider,
#: count, total_ms, last_tick)
_OLD_COST_CELLS = [
    ("sig", "xs", "exptime_types", 3.0, 0.123, 7),
    ("sig", "xs", "nexptime", 5.0, 0.5, 9),
]


class TestCostMergeHygiene:
    """Saves merge no cost samples: what handles sharing a tier merge is
    their keyed rows, every handle's rows landing once.  An old tier's
    leftover cost cells are never added to, re-counted or dropped by
    those saves."""

    def test_tier_merge_is_additive_across_handles(self, tmp_path):
        tier_path = _cost_model_era_tier(tmp_path / "old", _OLD_COST_CELLS)
        one = StateTier(tier_path)
        one.save(cache=_writer_rows(0, 3))

        two = StateTier(tier_path)
        assert len(two.load().decisions) == 3
        two.save(cache=_writer_rows(1, 2))

        assert sorted(key for key, _ in one.load().decisions) == sorted(
            [_writer_key(0, index) for index in range(3)]
            + [_writer_key(1, index) for index in range(2)]
        )
        assert _cost_cells(tier_path) == sorted(_OLD_COST_CELLS)
        one.close()
        two.close()

    def test_resave_without_new_samples_adds_nothing(self, tmp_path):
        tier_path = _cost_model_era_tier(tmp_path / "old", _OLD_COST_CELLS)
        tier = StateTier(tier_path)
        cache = _writer_rows(0, 4)
        tier.save(cache=cache)
        first = sorted(tier.load().decisions)
        tier.save(cache=cache)      # nothing new since the last save
        tier.save(cache=cache)
        assert sorted(tier.load().decisions) == first
        assert len(first) == 4
        assert _cost_cells(tier_path) == sorted(_OLD_COST_CELLS)
        tier.close()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=4),
    )
    def test_no_samples_lost_across_interleaved_saves(
        self, tmp_path_factory, writers, save_every
    ):
        """Property: however two handles interleave new rows and saves,
        the tier ends up with each handle's newest rows."""
        tier_path = str(tmp_path_factory.mktemp("tier-prop") / "tier")
        handles = [StateTier(tier_path), StateTier(tier_path)]
        rows = [0, 0]
        for step, writer in enumerate(writers):
            rows[writer] += 1
            if step % save_every == 0:
                handles[writer].save(cache=_writer_rows(writer, rows[writer]))
        for writer, handle in enumerate(handles):
            handle.save(cache=_writer_rows(writer, rows[writer]))
        with_rows = [
            _writer_key(writer, index)
            for writer in (0, 1) for index in range(rows[writer])
        ]
        state = handles[0].load()
        assert sorted(key for key, _ in state.decisions) == sorted(with_rows)
        for key, record in state.decisions:
            index = int(key[0].split("-q")[1])
            assert record["satisfiable"] == (index % 2 == 0)
        for handle in handles:
            handle.close()


# -- the fault matrix of a snapshot ----------------------------------------------

#: decision rows each snapshot of the SIGKILL test rewrites, so that
#: its transaction lasts long enough for a kill to land inside it
_KILL_ROWS = 4200

#: the fingerprint of those rows
_KILL_FINGERPRINT = "kill-test"

#: the SIGKILL test's engine process: warm from the tier at argv[1],
#: then snapshot in a loop with a fresh verdict in every row until
#: killed, printing "writing" as each save's transaction begins and
#: "saved" after each save
_SNAPSHOT_FOREVER = f"""
import sys
from repro.engine import (
    BatchEngine, CachedDecision, DecisionCache, Job, SchemaRegistry, StateTier,
)

real_write = StateTier._write_state

def write(self, **components):
    print("writing", flush=True)
    return real_write(self, **components)

StateTier._write_state = write
registry = SchemaRegistry()
registry.register("catalog", {DTD_TEXT!r})
registry.register("doc", {DOC_DTD_TEXT!r})
engine = BatchEngine(
    registry=registry, state_tier=sys.argv[1],
    cache=DecisionCache(capacity={_KILL_ROWS} * 2),
    decision_cap_per_schema={_KILL_ROWS},
)
engine.run([Job(q, s) for s in ("catalog", "doc") for q in {QUERIES!r}])
snapshot = 0
while True:
    snapshot += 1
    for row in range({_KILL_ROWS}):
        engine.cache.put(
            (f"q{{row}}", {_KILL_FINGERPRINT!r}, "-"),
            CachedDecision(snapshot % 2 == 0, "test", f"snapshot {{snapshot}}"),
        )
    engine.save_state()
    print("saved", flush=True)
"""


def _read_until(stream, wanted: str) -> bool:
    """Consume ``stream`` through the next line ``wanted`` (False at
    EOF)."""
    return any(line.strip() == wanted for line in stream)


class TestSnapshotFaults:
    def test_sigkill_mid_snapshot_leaves_a_clean_tier(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        rng = random.Random(20261017)
        first_plans = None
        for _ in range(10):
            process = subprocess.Popen(
                [sys.executable, "-c", _SNAPSHOT_FOREVER, tier_path],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            watchdog = threading.Timer(120, process.kill)
            watchdog.start()
            try:
                if first_plans is None:
                    assert _read_until(process.stdout, "saved"), (
                        "no snapshot landed"
                    )
                # kill at a random point early in a save's transaction
                assert _read_until(process.stdout, "writing")
                threading.Event().wait(rng.uniform(0.0, 0.03))
            finally:
                process.kill()
                process.wait(timeout=60)
                process.stdout.close()
                watchdog.cancel()
            assert process.returncode == -signal.SIGKILL
            with StateTier(tier_path) as tier:
                state = tier.load()
                assert not tier.warnings
            assert not [
                name for name in os.listdir(tier_path)
                if name.endswith(".corrupt")
            ]
            if first_plans is None:
                first_plans = state.plan_count
                assert first_plans >= 1
            assert state.plan_count >= first_plans
            # every row of one snapshot: the last that committed
            kill_rows = [
                record for key, record in state.decisions
                if key[1] == _KILL_FINGERPRINT
            ]
            assert len(kill_rows) == _KILL_ROWS
            assert len({record["reason"] for record in kill_rows}) == 1

    def test_batch_over_a_tier_damaged_mid_run_exits_3(
        self, tmp_path, monkeypatch, capsys
    ):
        tier_path = str(tmp_path / "state")
        with BatchEngine(registry=_registry(), state_tier=tier_path) as seed:
            seed.run(_jobs())
            seed.save_state()
        (tmp_path / "catalog.dtd").write_text(DTD_TEXT)
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text("".join(
            json.dumps({"query": query, "schema": "catalog"}) + "\n"
            for query in QUERIES
        ))
        original = BatchEngine.run

        def run_then_damage(self, jobs, on_result=None):
            report = original(self, jobs, on_result)
            _damage(tier_path)
            return report

        monkeypatch.setattr(BatchEngine, "run", run_then_damage)
        out = tmp_path / "results.jsonl"
        code = main([
            "batch", str(jobs_file),
            "--schema", f"catalog={tmp_path / 'catalog.dtd'}",
            "--state-tier", tier_path, "--out", str(out),
        ])
        assert code == 3
        assert "error: state tier save failed" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == len(QUERIES)


def _damage(tier_path: str) -> None:
    """Overwrite the tier's database and its WAL under open handles."""
    for name in (TIER_FILENAME, TIER_FILENAME + "-wal"):
        with open(os.path.join(tier_path, name), "wb") as handle:
            handle.write(b"this is not a database" * 256)
