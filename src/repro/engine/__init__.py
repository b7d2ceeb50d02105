"""Parallel experiment engine: multiprocess analysis jobs over a shared
trace cache.

The paper's workflow is "capture once, analyze under many configurations";
this package makes the *analyze many* half run as wide as the hardware
allows. See DESIGN.md ("Parallel experiment engine") for the architecture
and the reasoning behind jobs — not trace shards — as the unit of
parallelism.

Public surface:

- :class:`ExperimentEngine` — facade the harness uses (``analyze_grid``);
- :class:`AnalysisJob` — one (workload, cap, config) unit of work;
- :class:`ResultCache` — content-addressed on-disk result cache;
- :class:`JobOutcome` / :class:`JobFailedError` — per-job terminal states;
- progress events and telemetry in :mod:`repro.engine.progress`;
- fault tolerance (retry/backoff, run journals) in
  :mod:`repro.engine.resilience`, and the deterministic fault-injection
  harness that pins it in :mod:`repro.engine.faults`;
- observability (phase spans, counters, JSONL run metrics) lives in
  :mod:`repro.obs` and is threaded through every path here — enable it
  with ``ExperimentEngine(metrics=True)`` or ``REPRO_METRICS=1``.
"""

from repro.engine.api import ExperimentEngine
from repro.engine.cache import ResultCache, cache_key
from repro.engine.jobs import AnalysisJob
from repro.engine.pool import (
    EngineError,
    JobFailedError,
    JobOutcome,
    PoolBrokenError,
    execute_jobs,
    execute_serial,
)
from repro.engine.progress import (
    EngineTelemetry,
    JobEvent,
    console_listener,
    fanout,
    metrics_listener,
)
from repro.engine.resilience import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    RunJournal,
    classify_failure,
    execute_jobs_resilient,
)

__all__ = [
    "AnalysisJob",
    "EngineError",
    "EngineTelemetry",
    "ExperimentEngine",
    "JobEvent",
    "JobFailedError",
    "JobOutcome",
    "PERMANENT",
    "PoolBrokenError",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "TRANSIENT",
    "cache_key",
    "classify_failure",
    "console_listener",
    "execute_jobs",
    "execute_jobs_resilient",
    "execute_serial",
    "fanout",
    "metrics_listener",
]
