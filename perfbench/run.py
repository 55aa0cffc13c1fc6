"""The repository benchmark: three workloads against the unchanged engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload repeat_hits --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``repeat_hits`` — in-process, ``workers=1``, a pool of a few hundred
  questions replayed as exact repeats and syntactic variants: cache hits;
* ``fresh_realworld`` — in-process, ``workers=1``, never-repeating
  questions over the XHTML/DocBook/RSS-like corpus: inline PTIME
  ``realworld`` decisions, cache writes and evictions;
* ``fresh_exptime`` — in-process, ``workers=2``, never-repeating
  recursive-negation questions over two 48-type random DTDs: plan
  groups on persistent lanes.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
of five set-ups, each timed in a fresh process (``coldstart.py``): schema
parsing, engine construction, registration and warm-up, with nothing
cached yet.  ``job_ms_p99`` is the median of the p99s of up to ten equal
runs of at least 1000 consecutive jobs, so one transient host stall
cannot set it.

``--trace 1`` runs a separate traced phase and prints the per-layer
metrics (counts and times per job), the self-time breakdown and its
unattributed remainder (``engine.batch`` self time: ``BatchEngine.run``
time that no named layer covers), and writes the spans to
``.perfbench_run/spans-<workload>.jsonl``.  Every verdict is checked
against a reference computed outside the timed phase; ``error_ratio``
(errored, shed or unanswered jobs and wrong verdicts over jobs
attempted) is printed and is the ``failed`` / ``attempted`` pair of the
result.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

The traced run of ``repeat_hits`` also drives its stream through
``repro route --workers 1`` and through a directly attached
``repro serve`` on unix sockets (one client connection, a closed loop of
64 outstanding jobs), booted warm from a state tier seeded with the
pool.  ``engine.router.hop_ms_p50`` is routed minus direct-serve p50
latency and ``engine.server.jsonl_ms_p50`` is direct-serve minus
in-process; the server, router and tier counters come from the
``metrics.prom`` files those processes write.

Which end-to-end metric each per-layer metric should move:

* ``xpath.parser.*``, ``xpath.canonical.*``: ``jobs_per_s`` and
  ``job_ms_p50`` on ``repeat_hits``; no change on ``fresh_exptime``;
* ``engine.cache.*``: ``jobs_per_s`` (reads on ``repeat_hits``, writes
  and evictions on ``fresh_realworld``);
* ``sat.planner.*``: ``jobs_per_s`` on ``fresh_realworld``;
* ``sat.decider.*``: ``jobs_per_s`` and ``job_ms_p99`` on
  ``fresh_exptime`` and ``fresh_realworld``;
* ``sat.prepare.*``: ``jobs_per_s`` on ``fresh_realworld``;
* ``engine.executors.*``: ``jobs_per_s`` and ``job_ms_p99`` on
  ``fresh_exptime``;
* ``engine.batch.*``: ``jobs_per_s`` on every workload;
* ``engine.server.*``, ``engine.router.*``, ``engine.statetier.*``: the
  socket legs of the ``repeat_hits`` traced run (no end-to-end workload
  runs the socket path; its tail latency swung past any allowed bound
  between runs on a shared 2-vCPU host).

``obs.trace.overhead_ratio`` is the traced slices' throughput over the
untraced slices' run alongside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

#: untimed jobs each socket leg sends after boot, before its clock starts
SOCKET_WARMUP_JOBS = 256


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from layers import DECIDERS

    units = {
        "xpath.parser.calls": "1/job", "xpath.parser.self_ms": "ms/job",
        "xpath.canonical.calls": "1/job", "xpath.canonical.self_ms": "ms/job",
        "engine.cache.gets": "1/job", "engine.cache.hit_ratio": "ratio",
        "engine.cache.puts": "1/job", "engine.cache.evictions": "1/job",
        "engine.cache.self_ms": "ms/job",
        "sat.planner.plan_calls": "1/job", "sat.planner.builds": "1/job",
        "sat.planner.self_ms": "ms/job",
    }
    for name in DECIDERS:
        units[f"sat.decider.{name}.attempts"] = "1/job"
        units[f"sat.decider.{name}.ms"] = "ms/job"
    units.update({
        "sat.decider.useful_ratio": "ratio",
        "sat.prepare.calls": "1/job", "sat.prepare.ms": "ms/job",
        "sat.prepare.per_decide": "ratio",
        "engine.executors.chunks": "1/job", "engine.executors.jobs_per_chunk": "jobs",
        "engine.executors.dwell_ms_p50": "ms", "engine.executors.dwell_ms_p99": "ms",
        "engine.executors.chunk_ms": "ms", "engine.executors.dtd_ships": "1/job",
        "engine.executors.context_hit_ratio": "ratio",
        "engine.executors.respawns": "1/job", "engine.executors.self_ms": "ms/job",
        "engine.batch.self_ms": "ms/job", "engine.batch.coalesced": "1/job",
        "engine.server.batches": "1/job", "engine.server.jobs_per_batch": "jobs",
        "engine.server.batch_ms_p50": "ms", "engine.server.shed": "1/job",
        "engine.server.jsonl_ms_p50": "ms",
        "engine.router.hop_ms_p50": "ms", "engine.router.requeues": "1/job",
        "engine.router.boot_ms": "ms",
        "engine.statetier.load_ms": "ms", "engine.statetier.busy_retries": "count",
        "obs.trace.overhead_ratio": "ratio",
    })
    return units


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    #: throughput and latency of each leg the routing tax compares
    legs: dict[str, dict[str, float]] = field(default_factory=dict)


def host_facts() -> str:
    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}"
    )


def own_peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children (engine lanes)."""
    from routed import descendants, peak_rss_mb

    return peak_rss_mb([os.getpid(), *descendants(os.getpid())])


def mismatches(records, questions, schemas, workdir: str, reference=None) -> int:
    """Answers whose verdict differs from the reference (computed here,
    one uncached decide per distinct question, when not given)."""
    from measure import verdict_code
    from verify import decide_verdicts

    if reference is None:
        distinct = sorted({index for record in records for index in record.questions})
        verdicts = decide_verdicts(schemas, [questions[i] for i in distinct], workdir)
        reference = dict(zip(distinct, verdicts))
    codes = {index: verdict_code(verdict) for index, verdict in reference.items()}
    return sum(
        1 for record in records for index, code in record.answers()
        if code != codes[index]
    )


# -- in-process workloads ------------------------------------------------------
def in_process(args, given, workdir: str, seconds: float, reference=None) -> Result:
    from inproc import (
        breakdown, build_engine, cold_setups, layer_metrics, run_phase, traced_phase,
    )

    result = Result()
    if not args.trace:
        setup_times = cold_setups(given.workers, given.schemas, given.warmup, workdir)
        engine = build_engine(given.workers, given.schemas, given.warmup)
        try:
            phase = run_phase(engine, given.batches, seconds)
            rss = own_peak_rss_mb()
        finally:
            engine.close()
        result.metrics = {
            "setup_s": statistics.median(setup_times),
            **phase.summary(),
            "peak_rss_mb": rss,
        }
        result.report.append(
            f"setup: {len(setup_times)} cold processes, "
            + ", ".join(f"{took:.3f}s" for took in setup_times)
        )
        phases = [phase]
    else:
        engine = build_engine(given.workers, given.schemas, given.warmup)
        try:
            plain, phase, layers, lanes, totals, deltas = traced_phase(
                engine, given.batches, seconds
            )
        finally:
            engine.close()
        result.metrics = layer_metrics(plain, phase, layers, lanes, totals, deltas)
        result.legs["inproc"] = plain.summary()
        result.report += format_breakdown(breakdown(phase, layers), phase.jobs)
        result.report.append(write_spans(args, layers))
        phases = [plain, phase]
    wrong = mismatches(phases, given.questions, given.schemas, workdir, reference)
    result.attempted = sum(phase.jobs for phase in phases)
    result.failed = sum(phase.failed for phase in phases) + wrong
    result.report.append(
        f"jobs: {result.attempted} attempted, "
        f"{sum(len(phase.questions) for phase in phases)} answered, "
        f"{wrong} verdict mismatches"
    )
    return result


def format_breakdown(rows, jobs: int) -> list[str]:
    lines = [f"self time per job over {jobs} traced jobs:"]
    total = sum(ms for _, _, ms in rows) or 1.0
    for layer, calls, ms in rows:
        lines.append(f"  {layer:<34} {ms * 1e3:10.2f} us  {ms / total:6.1%}  calls={calls}")
    remainder = next((ms for layer, _, ms in rows if layer == "engine.batch"), 0.0)
    lines.append(
        f"  unattributed remainder (engine.batch self time): {remainder * 1e3:.2f} us"
    )
    return lines


def write_spans(args, layers) -> str:
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, f"spans-{args.workload}.jsonl")
    origin = layers.spans[0][1] if layers.spans else 0.0
    count = layers.write_spans(path, origin)
    return f"spans: {count} written to {os.path.relpath(path, ROOT)}"


def repeat_hits(args, workdir) -> Result:
    from verify import oracle_verdicts
    from workloads import inputs

    given = inputs(args.workload, args.seed)
    pool = given.pool
    reference = dict(enumerate(oracle_verdicts(pool.schemas, pool.questions)))
    # the traced run gives half of its time to the socket legs
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = in_process(args, given, workdir, seconds, reference)
    if args.trace:
        routing_tax(args, workdir, pool, reference, result)
    return result


def fresh(args, workdir) -> Result:
    from workloads import inputs

    return in_process(args, inputs(args.workload, args.seed), workdir, args.seconds)


# -- the socket path (traced repeat_hits runs) ---------------------------------
def seed_tier(workdir: str, pool) -> None:
    """Write the schema files and warm the shared tier with the pool's
    plans and decisions (what a long-running fleet would have)."""
    from repro.engine.batch import BatchEngine
    from workloads import SMALL_SCHEMAS

    os.makedirs(os.path.join(workdir, "schemas"))
    for name, text in SMALL_SCHEMAS.items():
        with open(os.path.join(workdir, "schemas", f"{name}.dtd"), "w") as handle:
            handle.write(text)
    with BatchEngine(workers=1, state_tier=os.path.join(workdir, "tier")) as engine:
        for name, dtd in pool.schemas.items():
            engine.registry.register(name, dtd)
        engine.run(pool.jobs())
        engine.save_state()


def socket_leg(socket_name: str, workdir: str, lines, seconds: float):
    from routed import Client

    client = Client(os.path.relpath(os.path.join(workdir, socket_name)), lines)
    try:
        client.run(max_jobs=SOCKET_WARMUP_JOBS)
        return client.run(seconds=seconds)
    finally:
        client.close()


def routing_tax(args, workdir, pool, reference, result: Result) -> None:
    """Drive the identical stream through ``repro route --workers 1`` and
    a directly attached ``repro serve`` (a quarter of ``--seconds`` each),
    both warm from a tier seeded with the pool, and fold the server,
    router and tier layers into ``result``."""
    from layers import LayerTracer
    from repro.engine.batch import BatchEngine
    from routed import (
        histogram_quantile, read_prometheus, start_router, start_server,
    )
    from workloads import pool_lines

    seed_tier(workdir, pool)
    loops = []
    for name, start, socket_name in (
        ("routed", start_router, "front.sock"), ("direct", start_server, "direct.sock"),
    ):
        daemon = start(workdir, SRC)
        try:
            loop = socket_leg(
                socket_name, workdir, pool_lines(pool, args.seed), args.seconds / 4
            )
        except BaseException:
            daemon.kill()
            raise
        daemon.stop()
        loops.append(loop)
        result.legs[name] = loop.summary()
        if name == "routed":
            boot_ms = daemon.boot_s * 1e3
            worker = read_prometheus(os.path.join(workdir, "tier", "metrics.prom"))
            router = read_prometheus(os.path.join(workdir, "router.prom"))

    boot_layers = LayerTracer().install()
    try:
        engine = BatchEngine(workers=1, state_tier=os.path.join(workdir, "tier"))
    finally:
        boot_layers.remove()
    tier_retries = engine.state_tier.lock_retries
    engine.close()

    p50 = {name: leg["job_ms_p50"] for name, leg in result.legs.items()}
    batches = worker.get("repro_server_batches_total", 0.0)
    served = max(worker.get("repro_server_jobs_total", 0.0), 1.0)
    routed = SOCKET_WARMUP_JOBS + loops[0].jobs
    result.metrics.update({
        "engine.server.batches": batches / served,
        "engine.server.jobs_per_batch": served / batches if batches else 0.0,
        "engine.server.batch_ms_p50": histogram_quantile(
            worker, "repro_server_batch_ms", 0.5
        ),
        "engine.server.shed": worker.get("repro_server_retries_total", 0.0) / served,
        "engine.server.jsonl_ms_p50": p50["direct"] - p50["inproc"],
        "engine.router.hop_ms_p50": p50["routed"] - p50["direct"],
        "engine.router.requeues": (
            router.get("repro_router_requeues_total", 0.0) / routed
        ),
        "engine.router.boot_ms": boot_ms,
        "engine.statetier.load_ms": boot_layers.total["engine.statetier"] * 1e3,
        "engine.statetier.busy_retries": (
            worker.get("repro_tier_lock_retries_total", 0.0) + tier_retries
        ),
    })
    wrong = mismatches(loops, pool.questions, pool.schemas, workdir, reference)
    result.attempted += sum(loop.jobs for loop in loops)
    result.failed += sum(loop.failed for loop in loops) + wrong
    result.report.append("routing tax over the identical stream (p50 per job):")
    for name, label in (("routed", "client -> router -> serve"),
                        ("direct", "client -> serve"),
                        ("inproc", "in-process micro-batch")):
        leg = result.legs[name]
        result.report.append(
            f"  {label:<28} p50 {leg['job_ms_p50']:8.3f} ms  "
            f"p99 {leg['job_ms_p99']:8.3f} ms  {leg['jobs_per_s']:10.1f} jobs/s"
        )
    result.report.append(
        f"socket legs: {sum(loop.jobs for loop in loops)} jobs, "
        f"{wrong} verdict mismatches, fleet boot {boot_ms:.0f} ms"
    )


WORKLOADS = {
    "repeat_hits": repeat_hits,
    "fresh_realworld": fresh,
    "fresh_exptime": fresh,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if "PYTHONHASHSEED" not in os.environ:
        # string hashing orders set iteration inside the deciders' searches;
        # pin it so the same seed repeats the same work (recorded in output)
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run with this pid
    os.makedirs(workdir)
    try:
        result = WORKLOADS[args.workload](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    unknown = set(result.metrics) - set(units)
    if unknown:
        raise ValueError(f"metrics missing from the catalogue: {sorted(unknown)}")
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    error_ratio = result.failed / result.attempted
    print(host_facts())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in result.report:
        print(line)
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:14.4f} {entry['unit']}")
    print(f"  {'error_ratio':<40} {error_ratio:14.4f} ratio "
          f"({result.failed} of {result.attempted})")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
