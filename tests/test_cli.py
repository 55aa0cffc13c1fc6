"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main

DTD_TEXT = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""


@pytest.fixture
def dtd_file(tmp_path):
    path = tmp_path / "schema.dtd"
    path.write_text(DTD_TEXT)
    return str(path)


class TestCheck:
    def test_satisfiable(self, dtd_file, capsys):
        code = main(["check", "--dtd", dtd_file, "A"])
        assert code == 0
        assert "SAT" in capsys.readouterr().out

    def test_unsatisfiable(self, dtd_file, capsys):
        code = main(["check", "--dtd", dtd_file, ".[B and C]"])
        assert code == 1
        assert "UNSAT" in capsys.readouterr().out

    def test_witness_printed(self, dtd_file, capsys):
        code = main(["check", "--dtd", dtd_file, "B", "--witness"])
        assert code == 0
        out = capsys.readouterr().out
        assert "r" in out and "B" in out

    def test_no_dtd(self, capsys):
        assert main(["check", "A[B]"]) == 0
        assert main(["check", ".[lab() = A and lab() = B]"]) == 1

    def test_parse_error_exit_code(self, dtd_file, capsys):
        code = main(["check", "--dtd", dtd_file, "A[["])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_missing_dtd_file(self, capsys):
        code = main(["check", "--dtd", "/nonexistent.dtd", "A"])
        assert code == 3


class TestContains:
    def test_contained(self, dtd_file, capsys):
        code = main(["contains", "--dtd", dtd_file, "B", "*"])
        assert code == 0
        assert "contained" in capsys.readouterr().out

    def test_not_contained_with_witness(self, dtd_file, capsys):
        code = main(["contains", "--dtd", dtd_file, "*", "B", "--witness"])
        assert code == 1
        out = capsys.readouterr().out
        assert "not contained" in out


class TestClassify:
    def test_query_and_dtd_report(self, dtd_file, capsys):
        code = main(["classify", "--dtd", dtd_file, "**/B[@a != '1']"])
        assert code == 0
        out = capsys.readouterr().out
        assert "data" in out and "dos" in out
        assert "nonrecursive" in out

    def test_query_only(self, capsys):
        assert main(["classify", "A/B"]) == 0
        assert "label steps only" in capsys.readouterr().out


class TestExplain:
    def test_prints_plan_with_dtd(self, dtd_file, capsys):
        code = main(["explain", "--dtd", dtd_file, "A[not(B)]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decider" in out
        assert "exptime_types" in out
        assert "Thm 5.3" in out
        assert "EXPTIME" in out
        assert "pool" in out

    def test_prints_plan_without_dtd(self, capsys):
        code = main(["explain", "A[B]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no_dtd" in out
        assert "Thm 6.11(1)" in out
        assert "inline" in out

    def test_rewrites_listed(self, dtd_file, capsys):
        assert main(["explain", "--dtd", dtd_file, "A/^/B"]) == 0
        out = capsys.readouterr().out
        assert "canonicalize" in out
        assert "upward_to_qualifiers" in out

    def test_json_plan_round_trips(self, dtd_file, capsys):
        import json as json_module

        from repro.sat import Plan

        assert main(["explain", "--json", "--dtd", dtd_file, "A[not(B)]"]) == 0
        record = json_module.loads(capsys.readouterr().out)
        plan = Plan.from_dict(record)
        assert plan.decider == "exptime_types"
        assert plan.route == "pool"

    def test_parse_error_exit_code(self, capsys):
        assert main(["explain", "A[["]) == 3


DISJFREE_DTD_TEXT = """
root r
r -> A, B
A -> C*
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


@pytest.fixture
def schema_dir(tmp_path):
    directory = tmp_path / "schemas"
    directory.mkdir()
    (directory / "main.dtd").write_text(DTD_TEXT)
    (directory / "disjfree.dtd").write_text(DISJFREE_DTD_TEXT)
    (directory / "doc.dtd").write_text(DOC_DTD_TEXT)
    return str(directory)


@pytest.fixture
def jobs_file(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        "\n".join([
            '{"query": "A", "schema": "main"}',
            '{"query": ".[B and C]", "schema": "main", "id": "dead"}',
            '{"query": "A[C]", "schema": "disjfree"}',
            '{"query": "title | para/text", "schema": "doc"}',
            '{"query": "A[B]"}',
        ]) + "\n"
    )
    return str(path)


class TestBatch:
    def test_batch_and_stats(self, schema_dir, jobs_file, tmp_path, capsys):
        results = str(tmp_path / "results.jsonl")
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--out", results, "--repeat", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass 1" in out and "pass 2" in out
        assert "cache" in out

        code = main(["stats", results])
        assert code == 0
        out = capsys.readouterr().out
        assert "results : 5" in out
        assert "sat" in out and "unsat" in out

    def test_sequential_batches_restore_signal_handlers(
        self, schema_dir, jobs_file, capsys
    ):
        # regression: `repro batch` used to leave its SIGINT/SIGTERM
        # handlers installed on return, so a second in-process invocation
        # (or the host application) inherited stale traps
        import signal

        before = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        for _ in range(2):
            code = main(["batch", jobs_file, "--schema-dir", schema_dir])
            assert code == 0
            for signum, handler in before.items():
                assert signal.getsignal(signum) is handler
        capsys.readouterr()

    def test_failed_batch_still_restores_signal_handlers(
        self, schema_dir, tmp_path, capsys
    ):
        import signal

        before = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        missing = str(tmp_path / "no-such-jobs.jsonl")
        try:
            code = main(["batch", missing, "--schema-dir", schema_dir])
        except OSError:
            pass  # either a mapped exit code or a raised error is fine
        else:
            assert code != 0
        for signum, handler in before.items():
            assert signal.getsignal(signum) is handler
        capsys.readouterr()

    def test_sigint_mid_run_saves_state_and_exits_130(
        self, schema_dir, jobs_file, tmp_path, monkeypatch, capsys
    ):
        # a signal between passes must snapshot --state-dir (plans,
        # telemetry, cost samples) before exiting 128+SIGINT, not drop it
        import os
        import signal

        from repro.engine import BatchEngine, StateTier

        state = tmp_path / "state"
        original = BatchEngine.run

        def interrupted(self, jobs, on_result=None):
            report = original(self, jobs, on_result)
            os.kill(os.getpid(), signal.SIGINT)
            return report

        monkeypatch.setattr(BatchEngine, "run", interrupted)
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", str(state), "--repeat", "3",
        ])
        assert code == 130
        err = capsys.readouterr().err
        assert "SIGINT" in err
        assert f"state: saved to {state}" in err
        with StateTier(str(state)) as tier:
            saved = tier.load()
        assert saved.plan_count >= 1
        assert saved.telemetry is not None and len(saved.telemetry) >= 1

    def test_sigint_without_state_dir_still_exits_130(
        self, schema_dir, jobs_file, monkeypatch, capsys
    ):
        import os
        import signal

        from repro.engine import BatchEngine

        original = BatchEngine.run

        def interrupted(self, jobs, on_result=None):
            report = original(self, jobs, on_result)
            os.kill(os.getpid(), signal.SIGINT)
            return report

        monkeypatch.setattr(BatchEngine, "run", interrupted)
        code = main(["batch", jobs_file, "--schema-dir", schema_dir])
        assert code == 130
        assert "SIGINT" in capsys.readouterr().err

    def test_serve_requires_exactly_one_endpoint(self, schema_dir, capsys):
        code = main(["serve", "--schema-dir", schema_dir])
        assert code == 3
        assert "exactly one endpoint" in capsys.readouterr().err

    def test_named_schema_and_stdout_results(self, tmp_path, jobs_file, capsys):
        import json

        schema_path = tmp_path / "main.dtd"
        schema_path.write_text(DTD_TEXT)
        jobs = tmp_path / "one.jsonl"
        jobs.write_text('{"query": ".[B and C]", "schema": "catalog"}\n')
        code = main([
            "batch", str(jobs), "--schema", f"catalog={schema_path}", "--out", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        record = next(
            json.loads(line) for line in out.splitlines() if line.startswith("{")
        )
        assert record["satisfiable"] is False
        assert record["schema"] == "catalog"

    def test_warm_rerun_reported_in_stats_json(
        self, schema_dir, tmp_path, capsys
    ):
        """Acceptance: a 1k-query JSONL workload against 3 registered
        schemas in one process; the warm pass must report >= 10x fewer
        decide() invocations."""
        import json
        import random

        from repro.dtd import parse_dtd
        from repro.engine import write_jobs_file
        from repro.workloads import batch_jobs
        from repro.xpath import fragments as frag

        schemas = {
            "main": parse_dtd(DTD_TEXT),
            "disjfree": parse_dtd(DISJFREE_DTD_TEXT),
            "doc": parse_dtd(DOC_DTD_TEXT),
        }
        jobs = batch_jobs(
            random.Random(3), schemas, n_jobs=1000,
            fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL),
            duplicate_rate=0.5,
        )
        jobs_path = str(tmp_path / "big.jsonl")
        write_jobs_file(jobs_path, jobs)
        stats_path = str(tmp_path / "stats.json")

        code = main([
            "batch", jobs_path, "--schema-dir", schema_dir,
            "--repeat", "2", "--stats-json", stats_path,
        ])
        assert code == 0
        with open(stats_path) as handle:
            cold, warm = json.load(handle)
        assert cold["jobs"] == warm["jobs"] == 1000
        assert cold["registry"]["schemas"] >= 3
        assert cold["decide_calls"] > 0
        assert warm["decide_calls"] * 10 <= cold["decide_calls"]

    def test_affinity_flags_reach_engine_and_do_not_persist(
        self, schema_dir, jobs_file, tmp_path, capsys
    ):
        state_dir = str(tmp_path / "state")
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", state_dir,
            "--no-affinity", "--lane-queue-depth", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "affinity off" in out
        # a rerun without the flags runs the defaults: the state dir holds
        # learned state, never settings
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", state_dir,
        ])
        assert code == 0
        assert "affinity on" in capsys.readouterr().out

    def test_bad_lane_queue_depth_exits_3(self, schema_dir, jobs_file, capsys):
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--lane-queue-depth", "0",
        ])
        assert code == 3
        assert "lane_queue_depth" in capsys.readouterr().err

    def test_bad_schema_spec_exits_3(self, jobs_file, capsys):
        code = main(["batch", jobs_file, "--schema", "no-equals-sign"])
        assert code == 3
        assert "NAME=PATH" in capsys.readouterr().err

    def test_missing_jobs_file_exits_3(self, capsys):
        code = main(["batch", "/nonexistent.jsonl"])
        assert code == 3


class TestStateDir:
    def test_warm_start_across_processes(self, schema_dir, jobs_file, tmp_path, capsys):
        """Acceptance: batch run with --state-dir, then a new engine (fresh
        process in production, fresh registry here) on the same corpus
        builds 0 plans and loads >= 1 persisted plan."""
        import json

        state_dir = str(tmp_path / "state")
        cold_stats = str(tmp_path / "cold.json")
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", state_dir, "--stats-json", cold_stats,
        ])
        assert code == 0
        assert "state: saved" in capsys.readouterr().out

        warm_stats = str(tmp_path / "warm.json")
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", state_dir, "--stats-json", warm_stats,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "persisted plans" in out
        with open(cold_stats) as handle:
            (cold,) = json.load(handle)
        with open(warm_stats) as handle:
            (warm,) = json.load(handle)
        assert cold["planner_invocations"] > 0
        assert warm["planner_invocations"] == 0
        assert warm["persisted_plans_loaded"] >= 1
        assert warm["decide_calls"] == 0  # decisions persisted too

    def test_stats_plans_prints_latency_verdict_table(
        self, schema_dir, jobs_file, tmp_path, capsys
    ):
        state_dir = str(tmp_path / "state")
        assert main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", state_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["stats", "--plans", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "mean_ms" in out and "p50_ms" in out and "fb%" in out
        assert "sat" in out and "unsat" in out
        assert "winner" in out
        assert "cost model" not in out

    def test_empty_state_dir_is_fine(self, schema_dir, jobs_file, tmp_path, capsys):
        state_dir = tmp_path / "empty"
        state_dir.mkdir()
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", str(state_dir),
        ])
        assert code == 0
        assert "0 persisted plans" in capsys.readouterr().out

    def test_corrupt_state_dir_warns_and_continues(
        self, schema_dir, jobs_file, tmp_path, capsys
    ):
        state_dir = tmp_path / "corrupt"
        state_dir.mkdir()
        (state_dir / "plans.json").write_text("not json at all {")
        (state_dir / "telemetry.json").write_text('{"version": 42}')
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", str(state_dir),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "unreadable" in captured.err
        assert "version" in captured.err
        # the run's fresh save landed in the tier next to the corrupt files
        assert main(["stats", "--plans", "--state-dir", str(state_dir)]) == 0
        assert "mean_ms" in capsys.readouterr().out

    def test_state_dir_and_state_tier_are_one_option(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in (
            ["batch", "jobs.jsonl"], ["serve", "--port", "0"], ["route"],
            ["stats", "--plans"], ["explain", "A"],
        ):
            for flag in ("--state-dir", "--state-tier"):
                args = parser.parse_args([*command, flag, "state"])
                assert args.state_tier == "state"
                assert not hasattr(args, "state_dir")

    def test_stats_plans_without_state_dir_exits_3(self, capsys):
        assert main(["stats", "--plans"]) == 3
        assert "--state-dir" in capsys.readouterr().err

    def test_stats_without_results_or_plans_exits_3(self, capsys):
        assert main(["stats"]) == 3
        assert "results" in capsys.readouterr().err

    def test_stats_plans_empty_state_dir_reports_nothing(self, tmp_path, capsys):
        state_dir = tmp_path / "void"
        state_dir.mkdir()
        assert main(["stats", "--plans", "--state-dir", str(state_dir)]) == 0
        assert "no plan telemetry" in capsys.readouterr().out

    def test_explain_surfaces_persisted_telemetry(
        self, schema_dir, jobs_file, tmp_path, capsys
    ):
        import json as json_module
        import os

        state_dir = str(tmp_path / "state")
        assert main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", state_dir,
        ]) == 0
        capsys.readouterr()
        dtd_path = os.path.join(schema_dir, "main.dtd")
        assert main([
            "explain", "--json", "--dtd", dtd_path,
            "--state-dir", state_dir, ".[B and C]",
        ]) == 0
        record = json_module.loads(capsys.readouterr().out)
        # the main schema is duplicate-free, so the qualifier query takes
        # the trait-gated realworld fast path (PR 9)
        assert record["decider"] == "realworld"
        assert record["telemetry"]["count"] >= 1
        assert "verdicts" in record["telemetry"]


class TestObservability:
    def test_trace_out_and_trace_render(
        self, schema_dir, jobs_file, tmp_path, capsys
    ):
        from repro.obs import read_trace_file

        trace_path = str(tmp_path / "traces.jsonl")
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--workers", "2", "--trace-out", trace_path,
        ])
        assert code == 0
        assert "traces" in capsys.readouterr().out
        records = read_trace_file(trace_path)
        assert len(records) == 5          # one finished trace per job
        assert len({r["trace_id"] for r in records}) == 5

        assert main(["trace", trace_path, "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 of 5 trace(s) shown" in out
        assert "trace " in out and "verdict=" in out
        # the two shown are the slowest
        shown_first = out.splitlines()[0]
        slowest = max(records, key=lambda r: r["elapsed_ms"])
        assert slowest["trace_id"] in shown_first

    def test_trace_schema_filter_and_json(
        self, schema_dir, jobs_file, tmp_path, capsys
    ):
        import json

        trace_path = str(tmp_path / "traces.jsonl")
        assert main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--trace-out", trace_path,
        ]) == 0
        capsys.readouterr()
        assert main(["trace", trace_path, "--schema", "disjfree", "--json"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        records = [json.loads(line) for line in lines]
        assert records and all(r["schema"] == "disjfree" for r in records)

    def test_trace_on_missing_file_exits_3(self, capsys):
        assert main(["trace", "/nonexistent-traces.jsonl"]) == 3

    def test_slow_log_flags(self, schema_dir, jobs_file, tmp_path, capsys):
        import json

        slow_path = str(tmp_path / "slow.jsonl")
        code = main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--slow-ms", "0", "--slow-log", slow_path,
        ])
        assert code == 0
        assert "slow queries" in capsys.readouterr().out
        with open(slow_path) as handle:
            entries = [json.loads(line) for line in handle if line.strip()]
        assert len(entries) == 5
        # heavy jobs carry the routing explanation for postmortems
        explained = [e for e in entries if "explain" in e]
        assert explained and "decider" in explained[0]["plan"]

    def test_stats_json_aggregation(self, schema_dir, jobs_file, tmp_path, capsys):
        import json

        results = str(tmp_path / "results.jsonl")
        assert main([
            "batch", jobs_file, "--schema-dir", schema_dir, "--out", results,
        ]) == 0
        capsys.readouterr()
        assert main(["stats", results, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"] == 5
        assert record["verdicts"]["sat"] >= 1
        assert record["verdicts"]["unsat"] >= 1
        assert "routes" in record and "schemas" in record

    def test_stats_plans_json(self, schema_dir, jobs_file, tmp_path, capsys):
        import json

        state_dir = str(tmp_path / "state")
        assert main([
            "batch", jobs_file, "--schema-dir", schema_dir,
            "--state-dir", state_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["stats", "--plans", "--state-dir", state_dir, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["engine"]["jobs"] == 5
        assert record["plans"]
        row = next(iter(record["plans"].values()))
        assert "mean_ms" in row and "verdicts" in row
        assert "plan" in row and row["plan"]["decider"]
        assert set(record) == {"engine", "plans", "processes"}

    def test_log_level_debug_shows_engine_internals(
        self, schema_dir, tmp_path, capsys
    ):
        # needs a job that actually pools (lane forking is the debug-level
        # engine internal): negation stays off the PTIME fast paths
        jobs = tmp_path / "pooled.jsonl"
        jobs.write_text('{"query": ".[not(B)]", "schema": "main"}\n')
        code = main([
            "--log-level", "debug", "batch", str(jobs),
            "--schema-dir", schema_dir, "--workers", "2",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "DEBUG repro." in err

    def test_default_log_level_is_quiet(self, schema_dir, jobs_file, capsys):
        assert main([
            "batch", jobs_file, "--schema-dir", schema_dir,
        ]) == 0
        assert "DEBUG" not in capsys.readouterr().err
