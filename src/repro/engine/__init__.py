"""Batch decision engine: serve many queries per schema.

The paper's deciders answer one ``(query, DTD)`` question at a time; this
package amortizes their setup across production-scale workloads:

* :mod:`repro.engine.registry` — :class:`SchemaRegistry` fingerprints
  DTDs and precomputes per-schema artifacts (parsed model, dependency
  graph, Section-6 classification, Proposition 3.3 normal form) once;
* :mod:`repro.engine.cache` — :class:`DecisionCache`, a bounded LRU over
  canonical query form × schema fingerprint;
* :mod:`repro.engine.batch` — :class:`BatchEngine` runs ``(query,
  schema_ref)`` job streams, inline for PTIME fragments and on a process
  pool for EXPTIME/NEXPTIME ones (deciding in-process what the pool has
  no room for);
* :mod:`repro.engine.executors` — the execution layer: the
  :class:`WorkerRuntime` that decides chunks and caches schemas and
  prepared contexts across them (the engine calls its own directly),
  and the :class:`Executor` contract with its one implementation,
  :class:`PersistentPoolExecutor`, whose long-lived worker lanes each
  hold a runtime and take chunks by schema-fingerprint affinity;
* :mod:`repro.engine.jobs` — JSONL serialization driving ``python -m
  repro batch``;
* :mod:`repro.engine.server` — :class:`EngineServer`, the asyncio daemon
  behind ``python -m repro serve``: one shared engine multiplexed across
  concurrent JSONL connections, with admission control and snapshots
  (import it from its module: the package does not re-export the two
  daemons, so an in-process engine never loads ``asyncio``);
* :mod:`repro.engine.statetier` — :class:`StateTier`, the one place
  engine state persists: a concurrent-safe SQLite (WAL) database that
  N processes load and save simultaneously, each key's newest write
  winning (a legacy JSON state dir is imported on first open);
* :mod:`repro.engine.router` — :class:`EngineRouter`, the multi-process
  front door behind ``python -m repro route``: shards JSONL jobs across
  N engine processes by schema fingerprint and warms them from the tier.
"""

from repro.engine.batch import (
    BatchEngine,
    BatchReport,
    EngineStats,
    Job,
    JobResult,
)
from repro.engine.cache import CachedDecision, DecisionCache, decision_key, decision_key_for
from repro.engine.executors import (
    ChunkOutcome,
    ChunkTask,
    Executor,
    ExecutorStats,
    PersistentPoolExecutor,
    WorkerRuntime,
)
from repro.engine.jobs import (
    read_jobs,
    read_jobs_file,
    write_jobs_file,
    write_results,
    write_results_file,
)
from repro.engine.registry import SchemaArtifacts, SchemaRegistry, schema_fingerprint
from repro.engine.statetier import PersistedState, StateTier, resolve_tier_path

__all__ = [
    "BatchEngine", "BatchReport", "EngineStats", "Job", "JobResult",
    "CachedDecision", "DecisionCache", "decision_key", "decision_key_for",
    "ChunkOutcome", "ChunkTask", "Executor", "ExecutorStats",
    "PersistentPoolExecutor", "WorkerRuntime",
    "SchemaArtifacts", "SchemaRegistry", "schema_fingerprint",
    "PersistedState", "StateTier", "resolve_tier_path",
    "read_jobs", "read_jobs_file", "write_jobs_file",
    "write_results", "write_results_file",
]
