"""The engine facade the harness programs against.

An :class:`ExperimentEngine` bundles a trace store, a parallelism degree, an
optional result cache, and progress reporting behind two calls:

- :meth:`ExperimentEngine.analyze` — one analysis, in-process (cache-aware);
- :meth:`ExperimentEngine.analyze_grid` — a batch of jobs, fanned out to the
  worker pool when ``jobs > 1``, with results in submission order.

Experiment code builds grids of :class:`~repro.engine.jobs.AnalysisJob` and
never touches multiprocessing, trace files, or cache keys directly; swapping
``--jobs 1`` for ``--jobs 8`` (or adding ``--result-cache``) changes no
experiment code, only this object's construction.
"""

from __future__ import annotations

import tempfile
from typing import List, Optional, Sequence, Union

from repro.core.config import AnalysisConfig
from repro.core.results import AnalysisResult
from repro.engine.cache import ResultCache
from repro.engine.jobs import AnalysisJob
from repro.engine.pool import JobFailedError, JobOutcome, execute_jobs
from repro.engine.progress import (
    EngineTelemetry,
    ProgressListener,
    fanout,
    metrics_listener,
)
from repro.engine.resilience import (
    RetryPolicy,
    RunJournal,
    execute_jobs_resilient,
    new_run_id,
)
from repro.obs import metrics as obs
from repro.obs.export import MetricsWriter
from repro.obs.export import metrics_path as default_metrics_path


def outcome_row(outcome: JobOutcome) -> dict:
    """The metrics-export row for one terminal job outcome (see
    :mod:`repro.obs.export` for the file layout)."""
    if outcome.cached:
        status = "cached"
    elif outcome.replayed:
        status = "replayed"
    elif outcome.ok:
        status = "ok"
    else:
        status = "failed"
    return {
        "index": outcome.index,
        "job": outcome.job.short_digest,
        "describe": outcome.job.describe(),
        "workload": outcome.job.workload,
        "cap": outcome.job.cap,
        "ok": outcome.ok,
        "status": status,
        "seconds": outcome.seconds,
        "attempts": outcome.attempts,
        "worker": outcome.worker,
        "queue_wait": outcome.queue_wait,
        "phases": outcome.phases,
        "error": outcome.error,
    }


def _pending(snapshot: dict) -> bool:
    """True when a registry snapshot recorded anything since its last
    drain (drained instruments keep their names at zero)."""
    return (
        any(snapshot["counters"].values())
        or any(snapshot["gauges"].values())
        or any(dump["count"] for dump in snapshot["histograms"].values())
    )


class ExperimentEngine:
    """Job-based executor for experiment grids.

    Attributes:
        store: the trace store (created in-memory when not given).
        jobs: worker process count; 1 = in-process serial execution.
        result_cache: optional :class:`ResultCache` (or a directory path).
        timeout: optional per-job wall-clock limit in seconds.
        retries: transient-failure retries per job (0 = fail on first
            error); retried with exponential backoff + deterministic
            jitter, then quarantined.
        retry_policy: full :class:`RetryPolicy` override (wins over
            ``retries`` when given).
        journal_dir: directory for append-only run journals; every grid
            outcome is journaled as it lands.
        resume: a previous run id to resume — completed jobs replay from
            that run's journal instead of re-executing.
        fail_fast: abort the grid at the first unretryable failure
            (default is keep-going: every job gets its chance).
        telemetry: cumulative :class:`EngineTelemetry` across grids.
        metrics: collect per-phase timings, cache/pool counters, and a
            per-run JSONL metrics export (``None`` defers to the
            ``REPRO_METRICS`` environment switch; default off).
        metrics_path: explicit metrics file path (default:
            ``<journal_dir>/<run-id>.metrics.jsonl`` when journaling, else
            ``<run-id>.metrics.jsonl`` in the working directory).
    """

    def __init__(
        self,
        store=None,
        jobs: int = 1,
        result_cache: Optional[Union[ResultCache, str]] = None,
        timeout: Optional[float] = None,
        progress: Optional[ProgressListener] = None,
        start_method: Optional[str] = None,
        retries: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        journal_dir: Optional[str] = None,
        resume: Optional[str] = None,
        fail_fast: bool = False,
        metrics: Optional[bool] = None,
        metrics_path: Optional[str] = None,
        result_cache_max_bytes: Optional[int] = None,
    ):
        if store is None:
            from repro.harness.runner import TraceStore

            store = TraceStore()
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if resume and not journal_dir:
            raise ValueError("resume requires a journal_dir to read the journal from")
        if isinstance(result_cache, str):
            result_cache = ResultCache(result_cache, max_bytes=result_cache_max_bytes)
        elif result_cache is not None and result_cache_max_bytes is not None:
            result_cache.max_bytes = result_cache_max_bytes
        self.store = store
        self.jobs = jobs
        self.result_cache = result_cache
        self.timeout = timeout
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=retries + 1)
        self.fail_fast = fail_fast
        self.journal: Optional[RunJournal] = None
        if journal_dir:
            self.journal = RunJournal(journal_dir, run_id=resume, resume=bool(resume))
        self.telemetry = EngineTelemetry()
        self._progress = progress
        self._start_method = start_method
        self.metrics = obs.env_enabled() if metrics is None else bool(metrics)
        self._metrics_explicit = metrics is not None
        self.metrics_registry = None
        self._journal_dir = journal_dir
        self._metrics_path = metrics_path
        self._metrics_run_id: Optional[str] = None
        self._metrics_writer: Optional[MetricsWriter] = None
        if self.metrics:
            self.metrics_registry = obs.enable()

    @property
    def run_id(self) -> Optional[str]:
        """The journal run id (``None`` when journaling is off)."""
        return self.journal.run_id if self.journal is not None else None

    # -- metrics export ----------------------------------------------------

    @property
    def metrics_run_id(self) -> Optional[str]:
        """The id naming this run's metrics file: the journal run id when
        journaling, else a fresh id pinned at first use (``None`` with
        metrics off)."""
        if not self.metrics:
            return None
        if self.run_id is not None:
            return self.run_id
        if self._metrics_run_id is None:
            self._metrics_run_id = new_run_id()
        return self._metrics_run_id

    @property
    def metrics_file(self) -> Optional[str]:
        """Where this run's metrics JSONL lands: the explicit
        ``metrics_path``, else beside the run journal, else (only when
        metrics were requested explicitly, not via ``REPRO_METRICS``) the
        working directory. ``None`` means collect-only — counters and
        phase timings stay queryable on :attr:`metrics_registry` but no
        file is written."""
        if not self.metrics:
            return None
        if self._metrics_path:
            return self._metrics_path
        if self._journal_dir:
            return default_metrics_path(self._journal_dir, self.metrics_run_id)
        if self._metrics_explicit:
            return default_metrics_path(".", self.metrics_run_id)
        return None

    def _writer(self) -> MetricsWriter:
        if self._metrics_writer is None:
            self._metrics_writer = MetricsWriter(self.metrics_file, self.metrics_run_id)
        return self._metrics_writer

    def _export_grid(self, outcomes: Sequence[JobOutcome]) -> None:
        """Append one row per terminal outcome plus the grid's merged
        registry snapshot (parent + workers) to the run's metrics file.
        Collect-only mode (no file destination) keeps the registry
        accumulating across grids instead."""
        if self.metrics_file is None:
            return
        writer = self._writer()
        for outcome in outcomes:
            writer.write_job(outcome_row(outcome))
        writer.write_grid(obs.registry().drain(), jobs=len(outcomes))

    def close(self) -> None:
        """Flush and close this run's artifacts: the run journal and the
        metrics export stream. Journal records are already fsync'd as they
        land, so this is about releasing handles and flushing buffered
        metrics deterministically — the graceful-shutdown paths (batch CLI
        signal handling, server drain) call it instead of trusting
        ``atexit``. Idempotent; the engine stays usable for trace reads
        but must not run further grids afterwards.

        Counters recorded after the last grid (Table 2's full runs, trace
        loads outside any grid) are written as a final grid row with no
        jobs, so a metrics file always carries everything the run
        counted."""
        if self.journal is not None:
            self.journal.close()
        if self.metrics and self.metrics_file is not None:
            leftover = obs.registry().drain()
            if _pending(leftover):
                self._writer().write_grid(leftover, jobs=0)
        if self._metrics_writer is not None:
            self._metrics_writer.close()
            self._metrics_writer = None

    # -- trace passthrough -------------------------------------------------

    def trace(self, workload, cap: int, optimize: bool = False):
        """The input trace for a job (delegates to the store)."""
        return self.store.trace(workload, cap, optimize=optimize)

    # -- execution ---------------------------------------------------------

    def _ensure_disk_store(self) -> None:
        """Parallel runs need a disk-shared trace cache; attach a scratch
        directory when the store was created memory-only."""
        if self.jobs > 1 and not self.store.directory:
            self.store.persist_to(tempfile.mkdtemp(prefix="paragraph-traces-"))

    def run_grid(self, grid: Sequence[AnalysisJob]) -> List[JobOutcome]:
        """Execute a grid; returns per-job outcomes (never raises on job
        failure — inspect :attr:`JobOutcome.error`). Runs through the
        resilience layer: transient failures are retried per
        :attr:`retry_policy`, outcomes are journaled when a journal is
        configured, and a broken pool degrades to serial execution."""
        self._ensure_disk_store()
        return self.run_grid_with_store(grid, self.store)

    def run_grid_with_store(self, grid: Sequence[AnalysisJob], store) -> List[JobOutcome]:
        """:meth:`run_grid` against an explicit trace store (the sharded
        analysis path substitutes a :class:`~repro.engine.shards.ShardTraceStore`
        serving byte-extent slices of one big trace file). The store must
        already be disk-backed when ``jobs > 1``."""
        outcomes = execute_jobs_resilient(
            grid,
            store,
            njobs=self.jobs,
            result_cache=self.result_cache,
            timeout=self.timeout,
            progress=fanout(self.telemetry, self._progress, metrics_listener()),
            start_method=self._start_method,
            retry=self.retry_policy,
            journal=self.journal,
            fail_fast=self.fail_fast,
            metrics=self.metrics,
        )
        if self.metrics:
            self._export_grid(outcomes)
        return outcomes

    def analyze_grid(self, grid: Sequence[AnalysisJob]) -> List[AnalysisResult]:
        """Execute a grid strictly: results in submission order, or
        :class:`JobFailedError` listing every failed job."""
        outcomes = self.run_grid(grid)
        failures = [outcome for outcome in outcomes if not outcome.ok]
        if failures:
            raise JobFailedError(failures)
        return [outcome.result for outcome in outcomes]

    def analyze(
        self,
        workload,
        cap: int,
        config: Optional[AnalysisConfig] = None,
        method: str = "forward",
        optimize: bool = False,
    ) -> AnalysisResult:
        """One analysis, in-process, through the result cache."""
        name = workload if isinstance(workload, str) else workload.name
        job = AnalysisJob(
            workload=name,
            cap=cap,
            config=config if config is not None else AnalysisConfig(),
            method=method,
            optimize=optimize,
        )
        outcomes = execute_jobs(
            [job],
            self.store,
            njobs=1,
            result_cache=self.result_cache,
            progress=fanout(self.telemetry, self._progress, metrics_listener()),
            metrics=self.metrics,
        )
        outcome = outcomes[0]
        if not outcome.ok:
            raise JobFailedError([outcome])
        return outcome.result
