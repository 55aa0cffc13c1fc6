"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``check``
    Decide satisfiability of a query against a DTD file (or no DTD)::

        python -m repro check --dtd schema.dtd "product[price and quote]"
        python -m repro check "A[not(B)]"              # no DTD

    Exit code 0 = satisfiable, 1 = unsatisfiable, 2 = undecided within
    bounds.  ``--witness`` prints a conforming witness document.

``contains``
    Containment check ``p1 ⊆ p2`` (Proposition 3.2)::

        python -m repro contains --dtd schema.dtd "view/path" "policy/path"

``classify``
    Report a query's fragment features and a DTD's Section-6 classes::

        python -m repro classify --dtd schema.dtd "A//B[@x = '1']"

``explain``
    Print the query planner's routing decision — rewrite passes, chosen
    decider (theorem + complexity class), fallback chain, inline/pool
    route — without deciding anything::

        python -m repro explain --dtd schema.dtd "A[not(B)]"
        python -m repro explain --json "A/^/B"

``batch``
    Decide a JSONL workload of ``(query, schema)`` jobs with the batch
    engine (schema-artifact reuse, plan-cached routing, canonical-form
    decision cache, plan-grouped process pool for heavy fragments)::

        python -m repro batch jobs.jsonl \
            --schema catalog=catalog.dtd --schema docs=docs.dtd \
            --out results.jsonl --workers 4 --repeat 2 --state-dir state/

    Every decision runs as a chunk of one schema's jobs, with shared
    per-schema setup: PTIME jobs as chunks of one, in-process and
    answered during the scan; heavy jobs in chunks of up to
    ``--group-chunk-size N`` (default 4), on worker lanes when
    ``--workers`` is above 1.  Chunks route to **persistent worker
    lanes** by schema-fingerprint affinity, so a lane keeps each
    schema's DTD and prepared contexts warm across chunks;
    ``--no-affinity`` restores stateless runtimes.  A lane holds at most
    ``--lane-queue-depth N`` chunks (default 4): a chunk spills off a
    preferred lane that deep, and the engine decides a chunk in-process
    when every lane is that deep.
    ``--group-chunk-size 1 --no-affinity`` dispatches per job.
    ``--decision-cap`` / ``--telemetry-max-age`` control state
    hygiene (persisted decisions per schema, telemetry row aging).

    Each input line is ``{"query": ..., "schema": ..., "id": ...}``
    (``schema`` and ``id`` optional); each output line is the structured
    per-job result.  ``--repeat`` re-runs the workload in the same
    process, so the second pass exercises the warm cache; per-pass
    ``decide()`` counts and cache stats are printed at the end.
    ``--state-dir DIR`` (or its other name, ``--state-tier``) persists
    plan caches, per-plan telemetry, and the decision cache across
    processes in the SQLite state tier ``DIR/state.sqlite``
    (see :mod:`repro.engine.statetier`): a rerun on a previously-seen
    workload starts warm (zero plans built).

``serve``
    Run the engine as a long-lived daemon speaking the same JSONL job
    protocol over a unix socket or TCP port (see
    :mod:`repro.engine.jsonl` for the protocol and its line limit, and
    :mod:`repro.engine.server` for batching and backpressure)::

        python -m repro serve --socket /run/repro.sock \
            --schema catalog=catalog.dtd --workers 4 --state-dir state/
        python -m repro serve --port 7077 --schema-dir schemas/

    Clients write job lines and read streamed result lines on the same
    connection.  The engine — lanes, caches, telemetry — persists
    across every request; SIGTERM drains in-flight jobs, snapshots
    the state tier, and exits 0.  ``--max-inflight`` bounds admitted
    jobs (excess gets a ``retry`` response), ``--snapshot-interval``
    controls periodic state snapshots.

``route``
    Multi-process scale-out: a front door speaking the same JSONL
    protocol that spawns N ``repro serve`` worker processes, shards
    incoming jobs across them by schema fingerprint (consistent hash,
    spill to least-loaded on hot shards), fans streamed results back
    exactly-once, and restarts dead workers (see
    :mod:`repro.engine.router`)::

        python -m repro route --workers 4 --socket /run/repro.sock \
            --schema-dir schemas/ --state-tier state/

    With ``--state-tier`` every worker warms its plan and decision
    caches from the shared SQLite tier before the router accepts
    traffic, so no process ever plans cold; on SIGTERM each worker
    drains and saves its state back.  Spawned workers run ``serve``'s
    default settings: ``route`` passes none, and the tier never carries
    them.  ``--attach SOCKET`` routes to pre-started engines instead of
    spawning.

``stats``
    Aggregate a batch result file (verdicts, methods, routes, schemas)::

        python -m repro stats results.jsonl

    ``--plans`` renders the persisted per-plan telemetry table (latency,
    verdict mix, fallback rate) from a ``--state-dir``; ``--json``
    switches either mode to machine-readable output (with ``--plans``
    that is the full engine-stats snapshot, per-plan rows, and each
    process's last-run stats)::

        python -m repro stats --plans --state-dir state/
        python -m repro stats --plans --state-dir state/ --json

``trace``
    Render a JSONL trace file written by ``batch --trace-out``: one
    span tree per job, with per-chain-member attempt latencies, lane
    IDs, and cache/coalescing provenance::

        python -m repro trace traces.jsonl --slowest 5
        python -m repro trace traces.jsonl --schema 9f3a --json

Observability flags: the global ``--log-level`` routes engine warnings
and lane lifecycle events through structured logging; ``batch
--trace-out FILE`` records a span tree per job; ``--slow-ms`` /
``--slow-log`` capture jobs over a latency threshold with their plan
explanation (see the README's "Observability" section).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import signal
import sys

from repro.containment import contains as containment_check
from repro.dtd import parse_dtd
from repro.dtd.properties import classify as classify_dtd
from repro.engine import (
    BatchEngine,
    DecisionCache,
    SchemaRegistry,
    read_jobs,
    read_jobs_file,
    write_results,
    write_results_file,
)
from repro.errors import EngineError, ReproError
from repro.obs import (
    JsonlTraceSink,
    SlowQueryLog,
    Tracer,
    read_trace_file,
    render_trace_record,
    setup_logging,
)
from repro.sat import DEFAULT_PLANNER, decide
from repro.xpath import parse_query
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import features_of


def _load_dtd(path: str | None):
    if path is None:
        return None
    with open(path) as handle:
        return parse_dtd(handle.read())


def _cmd_check(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd)
    query = parse_query(args.query)
    result = decide(query, dtd)
    print(result.describe())
    if result.is_sat and args.witness and result.witness is not None:
        print(result.witness.pretty())
    if result.is_sat:
        return 0
    if result.is_unsat:
        return 1
    return 2


def _cmd_contains(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd)
    p1 = parse_query(args.query1)
    p2 = parse_query(args.query2)
    result = containment_check(p1, p2, dtd)
    verdict = {True: "contained", False: "not contained", None: "undecided"}
    print(f"{verdict[result.contained]} [{result.method}] {result.reason}")
    if result.contained is False and args.witness and result.counterexample is not None:
        print(result.counterexample.pretty())
    if result.contained is True:
        return 0
    if result.contained is False:
        return 1
    return 2


def _render_features(features) -> str:
    rendered = sorted(str(f) for f in features)
    return ", ".join(rendered) if rendered else "(label steps only)"


def _cmd_classify(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    print(f"query features : {_render_features(features_of(query))}")
    print(f"query size     : {query.size()}")
    if args.dtd is not None:
        dtd = _load_dtd(args.dtd)
        assert dtd is not None
        print(f"DTD size       : {dtd.size()}")
        for name, value in classify_dtd(dtd).items():
            print(f"DTD {name:<16}: {'yes' if value else 'no'}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    # planned on the canonical form, as the engine and decide() plan
    features = features_of(canonicalize(query))
    state = _load_tier(args)[0] if args.state_tier is not None else None
    if args.dtd is not None:
        registry = SchemaRegistry()
        if state is not None:
            registry.adopt_plans(state.plans)
        name = os.path.splitext(os.path.basename(args.dtd))[0]
        artifacts = registry.register_file(name, args.dtd)
        plan = DEFAULT_PLANNER.plan_for(features, artifacts=artifacts)
    else:
        plan = DEFAULT_PLANNER.plan_for(features)
    stats = (
        state.telemetry.get(plan.telemetry_key)
        if state is not None and state.telemetry is not None
        else None
    )
    if args.json:
        record = plan.to_dict()
        if stats is not None:
            record["telemetry"] = stats.to_dict()
        print(json.dumps(record, indent=2))
        return 0
    print(f"query      : {args.query}")
    print(f"features   : {_render_features(features)}")
    print(plan.explain())
    if stats is not None:
        print(
            f"telemetry  : {stats.count} runs, mean {stats.mean_ms:.3f}ms, "
            f"p90 {stats.percentile_ms(0.9):.2f}ms, "
            f"fallback rate {stats.fallback_rate:.1%}"
        )
    return 0


def _build_registry(args: argparse.Namespace) -> SchemaRegistry:
    registry = SchemaRegistry()
    for spec in args.schema or []:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            raise EngineError(f"--schema expects NAME=PATH, got {spec!r}")
        registry.register_file(name, path)
    if args.schema_dir is not None:
        pattern = os.path.join(args.schema_dir, "*.dtd")
        for path in sorted(glob.glob(pattern)):
            name = os.path.splitext(os.path.basename(path))[0]
            registry.register_file(name, path)
    return registry


class _SignalExit(Exception):
    """Raised from the batch signal handler to unwind into the
    snapshot-and-exit path (never escapes ``_cmd_batch``)."""

    def __init__(self, signum: int) -> None:
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


@contextlib.contextmanager
def _trap_signals(handler):
    """Install ``handler`` for SIGINT/SIGTERM for the duration of the
    block, restoring whatever handlers were installed before on **every**
    exit path (normal return, :class:`~repro.errors.ReproError`,
    :class:`_SignalExit`) — repeated in-process invocations must not
    stack handlers or leak ours to the caller.  Install failures
    (non-main thread, embedded use) degrade to no trapping; each restore
    is independent so one failure cannot skip the other signal's
    restore."""
    previous: dict[int, object] = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
    except ValueError:
        # not the main thread: no handlers, old behaviour
        pass
    try:
        yield
    finally:
        for signum, previous_handler in previous.items():
            try:
                signal.signal(signum, previous_handler)
            except (ValueError, OSError):
                pass


def _make_tracer(args: argparse.Namespace):
    """Tracer + slow-query log from the shared observability flags.  A
    tracer exists only when asked for — the engine's default-off tracing
    branches then cost nothing but a None check."""
    slow_log = None
    if args.slow_ms is not None or args.slow_log is not None:
        slow_log = SlowQueryLog(
            threshold_ms=args.slow_ms if args.slow_ms is not None else 250.0,
            path=args.slow_log,
        )
    tracer = None
    if args.trace_out is not None or slow_log is not None:
        sinks = (
            (JsonlTraceSink(args.trace_out),) if args.trace_out is not None
            else ()
        )
        tracer = Tracer(sinks=sinks, slow_log=slow_log)
    return tracer, slow_log


def _make_engine(args: argparse.Namespace, registry, tracer) -> BatchEngine:
    """One engine from the shared tunable flags (``batch`` and ``serve``
    construct their engines identically)."""
    if args.cache_size < 1:
        raise EngineError(f"--cache-size must be positive, got {args.cache_size}")
    engine = BatchEngine(
        registry=registry,
        cache=DecisionCache(capacity=args.cache_size),
        workers=args.workers,
        state_tier=args.state_tier,
        group_chunk_size=args.group_chunk_size,
        decision_cap_per_schema=args.decision_cap,
        telemetry_max_age_days=args.telemetry_max_age,
        affinity=args.affinity,
        lane_queue_depth=args.lane_queue_depth,
        tracer=tracer,
    )
    if engine.state_tier is not None:
        print(
            f"state: {engine.registry.persisted_plans} persisted plans, "
            f"{engine.persisted_decisions_loaded} cached decisions loaded "
            f"from {engine.state_tier.path}"
        )
    return engine


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise EngineError(f"--repeat must be positive, got {args.repeat}")
    registry = _build_registry(args)
    tracer, slow_log = _make_tracer(args)
    engine = _make_engine(args, registry, tracer)

    # a SIGINT/SIGTERM mid-run must not lose the run's plans, telemetry,
    # and decisions: unwind via _SignalExit, snapshot the state tier,
    # close the engine (the finally), and exit 128+signum
    def _interrupt(signum, frame):
        raise _SignalExit(signum)

    try:
        with _trap_signals(_interrupt):
            return _run_batch_passes(args, engine, tracer, slow_log)
    finally:
        if not engine.closed:
            engine.close()


def _run_batch_passes(args, engine, tracer, slow_log) -> int:
    try:
        if args.jobs == "-":
            jobs = list(read_jobs(sys.stdin))
        else:
            jobs = read_jobs_file(args.jobs)

        passes = []
        report = None
        for pass_number in range(1, args.repeat + 1):
            current = engine.run(jobs)
            passes.append(current.stats)
            if report is None:
                report = current  # --out gets the cold pass: real methods/timings
            print(
                f"pass {pass_number}: {current.stats.jobs} jobs, "
                f"{current.stats.decide_calls} decide() calls, "
                f"{current.stats.cache_hits} cache hits, "
                f"{current.stats.elapsed_s:.3f}s"
            )
        assert report is not None

        if args.out == "-":
            write_results(sys.stdout, report)
        elif args.out is not None:
            write_results_file(args.out, report)
            print(f"wrote {len(report.results)} results to {args.out}")

        counts = report.verdict_counts()
        print(
            f"verdicts      : {counts['sat']} sat, {counts['unsat']} unsat, "
            f"{counts['unknown']} unknown, {counts['error']} errors"
        )
        print(passes[-1].describe())
        if engine.state_tier is not None:
            print(f"state: saved to {engine.save_state()}")
        if args.stats_json is not None:
            with open(args.stats_json, "w") as handle:
                json.dump([stats.as_dict() for stats in passes], handle, indent=2)
                handle.write("\n")
        if tracer is not None:
            tracer.close()
            if args.trace_out is not None:
                print(
                    f"traces        : {tracer.finished} recorded "
                    f"to {args.trace_out}"
                )
            if slow_log is not None:
                threshold = args.slow_ms if args.slow_ms is not None else 250.0
                print(
                    f"slow queries  : {slow_log.count} over {threshold:g}ms"
                    + (f" (logged to {args.slow_log})" if args.slow_log else "")
                )
        return 0
    except _SignalExit as exit_signal:
        print(
            f"\ninterrupted by {exit_signal} — saving state before exit",
            file=sys.stderr,
        )
        if engine.state_tier is not None:
            print(f"state: saved to {engine.save_state()}", file=sys.stderr)
        if tracer is not None:
            tracer.close()
        return 128 + exit_signal.signum


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine.server import EngineServer

    registry = _build_registry(args)
    tracer, _slow_log = _make_tracer(args)
    engine = _make_engine(args, registry, tracer)
    server = EngineServer(
        engine,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        snapshot_interval=(
            args.snapshot_interval if engine.state_tier is not None else None
        ),
        on_ready=lambda ready: print(f"serving on {ready.endpoint}", flush=True),
    )
    try:
        code = server.run()
    finally:
        if tracer is not None:
            tracer.close()
    print(
        f"served {server.stats.jobs_admitted} jobs over "
        f"{server.stats.connections_total} connections "
        f"({server.stats.retries_shed} shed, "
        f"{server.stats.snapshots} snapshots)"
    )
    return code


def _schema_paths(args: argparse.Namespace) -> dict[str, str]:
    """NAME -> DTD path from the shared ``--schema`` / ``--schema-dir``
    flags, without building artifacts (the router only fingerprints)."""
    paths: dict[str, str] = {}
    for spec in args.schema or []:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            raise EngineError(f"--schema expects NAME=PATH, got {spec!r}")
        paths[name] = path
    if args.schema_dir is not None:
        pattern = os.path.join(args.schema_dir, "*.dtd")
        for path in sorted(glob.glob(pattern)):
            paths[os.path.splitext(os.path.basename(path))[0]] = path
    return paths


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.engine.router import EngineRouter

    attach = args.attach or []
    workers = args.workers
    if workers is None:
        workers = 0 if attach else 2
    schema_paths = _schema_paths(args)
    worker_args: list[str] = []
    for name, path in sorted(schema_paths.items()):
        worker_args += ["--schema", f"{name}={path}"]
    if args.state_tier is not None:
        worker_args += ["--state-tier", args.state_tier]
    if args.engine_workers is not None:
        worker_args += ["--workers", str(args.engine_workers)]
    if args.snapshot_interval is not None:
        worker_args += ["--snapshot-interval", str(args.snapshot_interval)]
    router = EngineRouter(
        workers=workers,
        attach=attach,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        schema_files=schema_paths,
        worker_args=worker_args,
        worker_dir=args.worker_dir,
        spill_depth=args.spill_depth,
        max_restarts=args.max_restarts,
        metrics_out=args.metrics_out,
        on_ready=lambda ready: print(
            f"routing on {ready.endpoint} across {len(ready.shards)} shards",
            flush=True,
        ),
    )
    code = router.run()
    stats = router.stats
    print(
        f"routed {stats.jobs_routed} jobs over {stats.connections_total} "
        f"connections across {stats.shards_used()} of {len(router.shards)} "
        f"shards ({stats.spills} spills, {stats.restarts} restarts)"
    )
    return code


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.plans:
        return _cmd_stats_plans(args)
    if args.results is None:
        raise EngineError("stats needs a results file (or --plans --state-dir DIR)")

    def bump(table: dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1

    verdict_names = {True: "sat", False: "unsat", None: "unknown"}
    verdicts: dict[str, int] = {}
    methods: dict[str, int] = {}
    routes: dict[str, int] = {}
    schemas: dict[str, int] = {}
    total = cached = 0
    with open(args.results) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            total += 1
            if record.get("error") is not None:
                bump(verdicts, "error")
            else:
                bump(verdicts, verdict_names[record.get("satisfiable")])
            bump(methods, record.get("method", "?"))
            bump(routes, record.get("route", "?"))
            bump(schemas, record.get("schema") or "(no DTD)")
            if record.get("cached"):
                cached += 1

    if args.json:
        print(json.dumps({
            "results": total,
            "cached": cached,
            "verdicts": verdicts,
            "methods": methods,
            "routes": routes,
            "schemas": schemas,
        }, indent=2))
        return 0
    print(f"results : {total} ({cached} answered from cache)")
    for title, table in (
        ("verdict", verdicts), ("method", methods),
        ("route", routes), ("schema", schemas),
    ):
        for key in sorted(table, key=lambda k: (-table[k], k)):
            print(f"{title:<8}: {table[key]:>6}  {key}")
    return 0


def _load_tier(args: argparse.Namespace):
    """The persisted state and per-process engine stats of the
    ``--state-dir`` / ``--state-tier`` option (warnings reach stderr
    through repro.obs.log)."""
    from repro.engine.statetier import StateTier

    with StateTier(args.state_tier) as tier:
        return tier.load(), tier.engine_stats_rows()


def _cmd_stats_plans(args: argparse.Namespace) -> int:
    """The per-plan telemetry report backing ``repro stats --plans``."""
    if args.state_tier is None:
        raise EngineError("stats --plans needs --state-dir DIR")
    state, engine_rows = _load_tier(args)
    if args.json:
        telemetry = state.telemetry
        rows = telemetry.summary() if telemetry is not None else {}
        payload = {
            "engine": state.engine_stats,
            "plans": {
                key: {
                    "plan": (
                        telemetry.plan_record(key)
                        if telemetry is not None else None
                    ),
                    **row,
                }
                for key, row in rows.items()
            },
            "processes": engine_rows,
        }
        print(json.dumps(payload, indent=2))
        return 0
    if engine_rows:
        print(
            f"processes : {len(engine_rows)} engine(s) reported into the tier"
        )
    if state.telemetry is None or not len(state.telemetry):
        print("no plan telemetry recorded")
        return 0
    print(state.telemetry.table())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render (or filter) a JSONL trace file from ``batch --trace-out``."""
    if args.slowest is not None and args.slowest < 1:
        raise EngineError(f"--slowest must be positive, got {args.slowest}")
    records = read_trace_file(args.file)
    total = len(records)
    if args.schema is not None:
        records = [
            record for record in records
            if record.get("schema") == args.schema
            or (record.get("fingerprint") or "").startswith(args.schema)
        ]
    if args.slowest is not None:
        records = sorted(
            records,
            key=lambda record: record.get("elapsed_ms", 0.0),
            reverse=True,
        )[:args.slowest]
    if args.json:
        for record in records:
            print(json.dumps(record))
        return 0
    for record in records:
        print(render_trace_record(record))
    print(f"{len(records)} of {total} trace(s) shown")
    return 0


def _add_endpoint_options(parser: argparse.ArgumentParser) -> None:
    """The endpoint flags ``serve`` and ``route`` listen on."""
    parser.add_argument(
        "--socket", metavar="PATH",
        help="listen on a unix domain socket at PATH",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address for --port (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="listen on TCP port N (0 picks a free port)",
    )


def _add_state_option(parser: argparse.ArgumentParser) -> None:
    """``--state-tier`` and ``--state-dir``: two names for one option."""
    parser.add_argument(
        "--state-tier", "--state-dir", dest="state_tier", metavar="PATH",
        help="persisted engine state (plans, telemetry, decisions): a "
             "SQLite state tier at PATH, or at PATH/state.sqlite when PATH "
             "is a directory (a legacy JSON state dir there is imported on "
             "first open).  Any number of processes may load and save it "
             "at once",
    )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Shared engine flags: ``batch`` and ``serve`` build identical engines."""
    parser.add_argument(
        "--schema", action="append", metavar="NAME=PATH",
        help="register a DTD file under NAME (repeatable)",
    )
    parser.add_argument(
        "--schema-dir", metavar="DIR",
        help="register every *.dtd file in DIR under its basename",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for heavy (EXPTIME/NEXPTIME) jobs (default 1: inline)",
    )
    parser.add_argument(
        "--group-chunk-size", type=int, default=None, metavar="N",
        help="max jobs per chunk of a schema's heavy (pool-route) "
             "questions; PTIME plans run in chunks of one (default 4)",
    )
    parser.add_argument(
        "--affinity", action=argparse.BooleanOptionalAction, default=None,
        help="route plan-group chunks to persistent worker lanes by "
             "schema-fingerprint affinity, so lane runtimes keep schemas "
             "and prepared contexts warm across chunks (default: on; "
             "--no-affinity restores stateless pooling)",
    )
    parser.add_argument(
        "--lane-queue-depth", type=int, default=None, metavar="N",
        help="in-flight chunks a lane may hold: a chunk spills off a "
             "preferred lane this deep, and the engine decides it "
             "in-process when every lane is (default 4)",
    )
    parser.add_argument(
        "--decision-cap", type=int, default=None, metavar="N",
        help="max persisted decision-cache entries per schema when saving "
             "state (default 512)",
    )
    parser.add_argument(
        "--telemetry-max-age", type=float, default=None, metavar="DAYS",
        help="age out persisted telemetry rows not seen for DAYS when "
             "saving state (default 30)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=4096,
        help="decision-cache capacity (default 4096 entries)",
    )
    _add_state_option(parser)
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="record one JSONL span tree per job (render with 'repro trace')",
    )
    parser.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="slow-query threshold: jobs at or over MS are kept with their "
             "full span tree and plan explanation (default 250 when "
             "--slow-log is given)",
    )
    parser.add_argument(
        "--slow-log", metavar="PATH",
        help="append slow-query records (span tree + plan explanation) "
             "to PATH as JSONL",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XPath satisfiability in the presence of DTDs "
                    "(Benedikt, Fan, Geerts; PODS 2005 / JACM 2008)",
    )
    parser.add_argument(
        "--log-level", default="warning", metavar="LEVEL",
        choices=("debug", "info", "warning", "error", "critical"),
        help="structured-log threshold on stderr (default: warning; "
             "debug shows lane forks and state adoption)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide satisfiability of (query, DTD)")
    check.add_argument("query", help="XPath query (ASCII syntax; see README)")
    check.add_argument("--dtd", help="path to a DTD file (textual syntax)")
    check.add_argument("--witness", action="store_true", help="print a witness tree")
    check.set_defaults(func=_cmd_check)

    cont = sub.add_parser("contains", help="check containment p1 ⊆ p2")
    cont.add_argument("query1")
    cont.add_argument("query2")
    cont.add_argument("--dtd", help="path to a DTD file")
    cont.add_argument("--witness", action="store_true",
                      help="print a counterexample document on non-containment")
    cont.set_defaults(func=_cmd_contains)

    classify = sub.add_parser("classify", help="report fragment and DTD classes")
    classify.add_argument("query")
    classify.add_argument("--dtd", help="path to a DTD file")
    classify.set_defaults(func=_cmd_classify)

    explain = sub.add_parser(
        "explain", help="print the planner's routing decision for a query"
    )
    explain.add_argument("query", help="XPath query (ASCII syntax)")
    explain.add_argument("--dtd", help="path to a DTD file (textual syntax)")
    explain.add_argument(
        "--json", action="store_true",
        help="print the serialized plan instead of the human-readable form",
    )
    _add_state_option(explain)
    explain.set_defaults(func=_cmd_explain)

    batch = sub.add_parser(
        "batch", help="decide a JSONL workload with the batch engine"
    )
    batch.add_argument("jobs", help="JSONL job file ('-' for stdin)")
    _add_engine_options(batch)
    batch.add_argument(
        "--out", metavar="PATH",
        help="write per-job results as JSONL ('-' for stdout)",
    )
    batch.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="run the workload K times in one process (pass 2+ is warm-cache)",
    )
    batch.add_argument(
        "--stats-json", metavar="PATH",
        help="write per-pass engine stats as JSON",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="run a long-lived engine daemon speaking the JSONL job "
             "protocol over a unix socket or TCP port",
    )
    _add_engine_options(serve)
    _add_endpoint_options(serve)
    serve.add_argument(
        "--max-batch", type=int, default=256, metavar="N",
        help="max jobs folded into one engine.run() per connection "
             "(default 256)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admitted-but-unfinished jobs across all connections before "
             "new jobs are shed with a retry response (default: 64 x "
             "workers)",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=300.0, metavar="SECONDS",
        help="seconds between periodic save_state() snapshots when "
             "--state-dir is set (default 300)",
    )
    serve.set_defaults(func=_cmd_serve)

    route = sub.add_parser(
        "route",
        help="multi-process front door: shard JSONL jobs across N engine "
             "processes by schema fingerprint",
    )
    route.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="engine processes to spawn, each a 'repro serve' worker "
             "(default 2, or 0 when --attach is given)",
    )
    route.add_argument(
        "--attach", action="append", metavar="SOCKET",
        help="route to a pre-started engine socket instead of spawning "
             "(repeatable; attached engines are never restarted)",
    )
    _add_endpoint_options(route)
    route.add_argument(
        "--schema", action="append", metavar="NAME=PATH",
        help="register a DTD file under NAME (repeatable; passed through "
             "to spawned workers and used for fingerprint sharding)",
    )
    route.add_argument(
        "--schema-dir", metavar="DIR",
        help="register every *.dtd file in DIR under its basename",
    )
    _add_state_option(route)
    route.add_argument(
        "--spill-depth", type=int, default=64, metavar="N",
        help="in-flight jobs a preferred shard may hold before a job "
             "spills to the least-loaded shard (default 64)",
    )
    route.add_argument(
        "--engine-workers", type=int, default=None, metavar="N",
        help="process-pool size inside each spawned engine (its --workers)",
    )
    route.add_argument(
        "--worker-dir", metavar="DIR",
        help="directory for spawned workers' sockets (default: a fresh "
             "temporary directory)",
    )
    route.add_argument(
        "--max-restarts", type=int, default=3, metavar="N",
        help="times one shard's dead worker is restarted (default 3)",
    )
    route.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SECONDS",
        help="periodic tier-snapshot interval passed to spawned workers",
    )
    route.add_argument(
        "--metrics-out", metavar="PATH",
        help="write repro_router_* metrics (Prometheus text) at shutdown",
    )
    route.set_defaults(func=_cmd_route)

    stats = sub.add_parser(
        "stats", help="aggregate a batch result file or persisted plan telemetry"
    )
    stats.add_argument(
        "results", nargs="?",
        help="JSONL result file produced by 'batch --out'",
    )
    stats.add_argument(
        "--plans", action="store_true",
        help="print the per-plan latency/verdict/fallback table from --state-dir",
    )
    _add_state_option(stats)
    stats.add_argument(
        "--json", action="store_true",
        help="machine-readable output (with --plans: engine-stats "
             "snapshot, per-plan rows, and per-process stats)",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace", help="render a JSONL trace file from 'batch --trace-out'"
    )
    trace.add_argument("file", help="JSONL trace file")
    trace.add_argument(
        "--slowest", type=int, default=None, metavar="N",
        help="show only the N slowest traces",
    )
    trace.add_argument(
        "--schema", metavar="NAME_OR_FP",
        help="keep only traces whose schema name matches, or whose "
             "fingerprint starts with, NAME_OR_FP",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the filtered records as JSONL instead of rendering",
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
