"""The analysis service: one engine pool behind an async submission queue.

This is the piece that turns the batch :class:`~repro.engine.api.
ExperimentEngine` into a long-lived multi-tenant system:

- **Content-addressed dedupe.** A submission is hashed to its job digest
  before anything executes; identical submissions from any client attach
  to the same :class:`~repro.serve.state.JobRecord`. Completed records
  answer resubmissions without touching the queue, and the engine's
  shared :class:`~repro.engine.cache.ResultCache` catches identical work
  across server processes and restarts before it ever reaches the pool.
- **Bounded fair intake.** Submissions land in a per-client round-robin
  queue (:class:`~repro.serve.state.FairQueue`); a full queue rejects
  loudly (HTTP 429 upstream) instead of buffering without limit.
- **One dispatcher, one engine.** A single dispatcher task drains the
  queue in batches and runs each batch as one engine grid on a dedicated
  executor thread — the engine keeps its multiprocess pool, retry/
  quarantine, journaling, and metrics untouched; worker crashes surface
  as retries, not 500s.
- **Graceful drain.** ``drain()`` closes intake, cancels queued jobs,
  waits for the in-flight grid (whose outcomes are journaled as they
  land), and flushes the journal + metrics export through the shared
  shutdown helper — a drained run resumes with ``--resume <run-id>``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import AnalysisConfig
from repro.engine.api import ExperimentEngine
from repro.engine.cache import ResultCache
from repro.engine.jobs import AnalysisJob
from repro.engine.progress import (
    JOB_RETRY,
    JOB_STARTED,
    JobEvent,
)
from repro.engine.serialize import result_to_dict
from repro.engine.shutdown import flush_engine
from repro.harness.runner import DEFAULT_CAP, TraceStore
from repro.obs import metrics as obs
from repro.serve.state import (
    DONE,
    FAILED,
    TERMINAL_STATES,
    FairQueue,
    JobRecord,
    JobRegistry,
    QueueFullError,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import read_trace_digest, write_trace_file


class SpecError(ValueError):
    """A submission spec that cannot become an :class:`AnalysisJob`."""


class UploadBudgetError(Exception):
    """The upload byte budget is exhausted and nothing is evictable
    (HTTP 413 upstream)."""


@dataclass
class ServeConfig:
    """Server construction knobs (the ``repro serve`` CLI surface)."""

    host: str = "127.0.0.1"
    port: int = 8037
    jobs: int = 1
    trace_dir: Optional[str] = None
    result_cache: Optional[str] = None
    result_cache_max_bytes: Optional[int] = None
    journal_dir: Optional[str] = None
    resume: Optional[str] = None
    retries: int = 2
    job_timeout: Optional[float] = None
    queue_limit: int = 256
    batch: Optional[int] = None
    metrics: bool = True
    port_file: Optional[str] = None
    #: Seconds an idle keep-alive connection may sit between requests
    #: before the server closes it (None disables the timeout). Keeps a
    #: parked client from holding its handler open across a drain.
    keepalive_timeout: Optional[float] = 75.0
    #: Byte budget for uploaded traces held in memory; the least recently
    #: used upload not referenced by a live job is evicted when a new
    #: upload would exceed it (HTTP 413 when nothing is evictable).
    upload_budget_bytes: int = 256 * 1024 * 1024


class ServeStore:
    """A :class:`TraceStore` that also serves uploaded PGT2 traces.

    Uploads are registered in the base store's memory cache under a
    content-derived name (``upload-<digest prefix>``), so the engine pool's
    disk-spill and shared-memory machinery work on them unchanged (the
    same composition trick as ``repro.verify``'s ``GeneratedTraceStore``);
    suite workload names fall through to the normal store.

    Uploads live under a byte budget: registering one that would exceed
    ``upload_budget`` evicts least-recently-used uploads first, skipping
    any the ``pinned`` callback claims (the service pins uploads that a
    live job references). When nothing evictable frees enough room, the
    upload is refused with :class:`UploadBudgetError`.
    """

    def __init__(self, directory: Optional[str] = None, upload_budget: Optional[int] = None):
        self._base = TraceStore(directory)
        self._uploads: Dict[str, int] = {}
        self._upload_sizes: "OrderedDict[str, int]" = OrderedDict()  # LRU order
        self._upload_total = 0
        self.upload_budget = upload_budget
        #: Set by the owning service: ``pinned(name)`` is True while a
        #: live (non-terminal) job references the upload.
        self.pinned: Optional[Callable[[str], bool]] = None

    @property
    def directory(self):
        return self._base.directory

    def persist_to(self, directory: str) -> None:
        self._base.persist_to(directory)

    # -- uploads -----------------------------------------------------------

    def add_upload(self, trace: ColumnarTrace, size: Optional[int] = None) -> Tuple[str, int]:
        """Register an uploaded trace; returns its (name, cap). Identical
        uploads land on the same name — uploads dedupe by content too.
        ``size`` is the wire size charged against the upload budget;
        raises :class:`UploadBudgetError` when it cannot be made to fit."""
        name = f"upload-{trace.digest()[:16]}"
        cap = max(1, len(trace))
        if name in self._uploads:
            self.touch_upload(name)  # re-upload of known content: free
            return name, cap
        # Charged at wire size (the caller knows it); fall back to a
        # per-record estimate of the PGT2 encoding for direct callers.
        charged = size if size is not None else 48 * max(1, len(trace))
        if self.upload_budget is not None:
            if charged > self.upload_budget:
                raise UploadBudgetError(
                    f"upload of {charged} bytes exceeds the "
                    f"{self.upload_budget} byte upload budget"
                )
            self._evict_uploads(self.upload_budget - charged)
        self._base._memory[(name, cap, False)] = trace
        self._uploads[name] = cap
        self._upload_sizes[name] = charged
        self._upload_total += charged
        return name, cap

    def _evict_uploads(self, budget: int) -> None:
        """Evict LRU un-pinned uploads until the total fits ``budget``;
        raises :class:`UploadBudgetError` if it cannot."""
        if self._upload_total <= budget:
            return
        for name in list(self._upload_sizes):
            if self._upload_total <= budget:
                return
            if self.pinned is not None and self.pinned(name):
                continue
            cap = self._uploads.pop(name)
            self._upload_total -= self._upload_sizes.pop(name)
            self._base._memory.pop((name, cap, False), None)
            obs.inc("serve.upload_evictions")
        if self._upload_total > budget:
            raise UploadBudgetError(
                "upload budget exhausted and every resident upload is "
                "referenced by a live job; retry once they finish"
            )

    def touch_upload(self, name: str) -> None:
        """Mark an upload recently used (eviction is LRU)."""
        if name in self._upload_sizes:
            self._upload_sizes.move_to_end(name)

    def upload_cap(self, name: str) -> Optional[int]:
        return self._uploads.get(name)

    @property
    def upload_bytes(self) -> int:
        return self._upload_total

    def _require_upload(self, name: str, cap: int, optimize: bool) -> ColumnarTrace:
        if optimize or self._uploads.get(name) != cap:
            raise KeyError(
                f"unknown uploaded trace {name!r} at cap {cap} (optimize={optimize})"
            )
        return self._base._memory[(name, cap, False)]

    # -- TraceStore protocol -----------------------------------------------

    def trace(self, workload, cap: int = DEFAULT_CAP, optimize: bool = False):
        name = workload if isinstance(workload, str) else workload.name
        if name in self._uploads:
            return self._require_upload(name, cap, optimize)
        return self._base.trace(workload, cap, optimize)

    def ensure_on_disk(self, workload, cap: int = DEFAULT_CAP, optimize: bool = False):
        name = workload if isinstance(workload, str) else workload.name
        if name not in self._uploads:
            return self._base.ensure_on_disk(workload, cap, optimize)
        trace = self._require_upload(name, cap, optimize)
        if not self.directory:
            raise ValueError("ensure_on_disk requires a disk-backed store")
        path = self._base._path(name, cap, optimize)
        digest = trace.digest()
        if os.path.exists(path):
            try:
                if read_trace_digest(path) == digest:
                    return path, digest
            except Exception:  # noqa: BLE001 - stale/corrupt file; rewrite below
                pass
        write_trace_file(path, trace)
        return path, digest

    def invalidate(self, workload, cap: int = DEFAULT_CAP, optimize: bool = False) -> bool:
        name = workload if isinstance(workload, str) else workload.name
        if name in self._uploads:
            # The memory copy is the source of truth for uploads; only the
            # disk spill can go stale.
            path = self._base._path(name, cap, optimize)
            if path and os.path.exists(path):
                try:
                    os.remove(path)
                    return True
                except OSError:
                    return False
            return False
        return self._base.invalidate(workload, cap, optimize)

    def full_run_length(self, workload) -> int:
        return self._base.full_run_length(workload)

    @property
    def generations(self):
        """The base store's landed generations, which the engine drains
        into the metrics export after each grid."""
        return self._base.generations


#: Headline numbers a finished job's status carries — whichever of them
#: its result has. An :class:`~repro.core.results.AnalysisResult` has all
#: but ``average_parallelism``, the prior-work baselines report
#: ``average_parallelism`` in place of ``available_parallelism``, and a
#: shard segment summary has none of them.
SUMMARY_FIELDS = (
    "available_parallelism",
    "average_parallelism",
    "critical_path_length",
    "placed_operations",
)


def result_summary(result) -> dict:
    """The :data:`SUMMARY_FIELDS` ``result`` has, by name."""
    return {name: getattr(result, name) for name in SUMMARY_FIELDS if hasattr(result, name)}


def job_from_spec(spec: dict, store: Optional[ServeStore] = None) -> AnalysisJob:
    """Build an :class:`AnalysisJob` from a submission spec dict.

    Spec shape: ``{"workload": <suite name or upload id>, "cap": <int>,
    "config": {<canonical keys>}, "method": ..., "optimize": ...}``.
    ``cap`` defaults to the upload's record count for uploaded traces and
    to :data:`DEFAULT_CAP` otherwise. A partial ``config`` is merged over
    the defaults (dedupe stays exact: the job digest is computed from the
    reconstructed :class:`AnalysisConfig`, not from the raw spec), but an
    unknown config key is rejected — a typo silently meaning "default"
    would dedupe two submissions the client believes are different.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"job spec must be an object, got {type(spec).__name__}")
    workload = spec.get("workload") or spec.get("trace")
    if not isinstance(workload, str) or not workload:
        raise SpecError("job spec needs a 'workload' (suite name or uploaded trace id)")
    upload_cap = store.upload_cap(workload) if store is not None else None
    cap = spec.get("cap")
    if cap is None:
        cap = upload_cap if upload_cap is not None else DEFAULT_CAP
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise SpecError(f"cap must be an integer, got {cap!r}")
    if upload_cap is not None:
        # Uploaded traces are served only at their registered cap and
        # unoptimized; anything else would pass validation here and fail
        # at execution — reject it as a 400 now instead.
        if cap != upload_cap:
            raise SpecError(
                f"uploaded trace {workload!r} is registered at cap "
                f"{upload_cap}; a job may not override it (got cap {cap})"
            )
        if spec.get("optimize"):
            raise SpecError(
                f"uploaded trace {workload!r} cannot run with optimize=true "
                "(uploads are served exactly as submitted)"
            )
    config_data = spec.get("config")
    if config_data is None:
        config = AnalysisConfig()
    else:
        if not isinstance(config_data, dict):
            raise SpecError(f"config must be an object, got {type(config_data).__name__}")
        defaults = AnalysisConfig().canonical()
        unknown = sorted(set(config_data) - set(defaults))
        if unknown:
            raise SpecError(f"unknown config keys: {', '.join(unknown)}")
        try:
            config = AnalysisConfig.from_canonical({**defaults, **config_data})
        except Exception as error:  # noqa: BLE001 - any malformed canonical form
            raise SpecError(f"malformed config: {type(error).__name__}: {error}") from None
    try:
        return AnalysisJob(
            workload=workload,
            cap=cap,
            config=config,
            method=spec.get("method", "forward"),
            optimize=bool(spec.get("optimize", False)),
        )
    except ValueError as error:
        raise SpecError(str(error)) from None


def expand_specs(body: dict) -> List[dict]:
    """Expand a submission body into per-job specs.

    Accepted shapes: a single spec; a spec with ``configs`` (one job per
    config — the grid form); or ``{"jobs": [spec, ...]}``.
    """
    if "jobs" in body:
        jobs = body["jobs"]
        if not isinstance(jobs, list) or not jobs:
            raise SpecError("'jobs' must be a non-empty list of job specs")
        return [spec for item in jobs for spec in expand_specs(item)]
    if "configs" in body:
        configs = body["configs"]
        if not isinstance(configs, list) or not configs:
            raise SpecError("'configs' must be a non-empty list of canonical configs")
        base = {key: value for key, value in body.items() if key != "configs"}
        return [{**base, "config": config} for config in configs]
    return [body]


class AnalysisService:
    """Owns the engine, the registry, the queue, and the dispatcher."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.store = ServeStore(config.trace_dir, upload_budget=config.upload_budget_bytes)
        self.store.pinned = self._upload_pinned
        cache = None
        if config.result_cache:
            cache = ResultCache(config.result_cache, max_bytes=config.result_cache_max_bytes)
        self.engine = ExperimentEngine(
            store=self.store,
            jobs=config.jobs,
            result_cache=cache,
            timeout=config.job_timeout,
            progress=self._on_engine_event,
            retries=config.retries,
            journal_dir=config.journal_dir,
            resume=config.resume,
            metrics=config.metrics or None,
        )
        self.registry = JobRegistry()
        self.queue = FairQueue(limit=config.queue_limit)
        self.batch_size = config.batch or max(1, config.jobs)
        self.started_at = time.time()
        self.draining = False
        self.stats = {
            "submitted": 0,
            "deduped": 0,
            "completed": 0,
            "executed": 0,
            "cached": 0,
            "replayed": 0,
            "failed": 0,
            "cancelled": 0,
            "retried": 0,
            "uploads": 0,
            "http_requests": 0,
        }
        self.in_flight = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._grid_records: Optional[List[JobRecord]] = None
        # One thread: the engine (and its multiprocess pool) is not
        # thread-safe, and grids are the unit of pool-level parallelism.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )
        # Separate small executor for upload parsing — a 64MB PGT2 parse
        # must neither stall the event loop nor queue behind the engine.
        self._io_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="serve-io"
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind to the running loop and start the dispatcher task."""
        self._loop = asyncio.get_running_loop()
        self._dispatcher = self._loop.create_task(self._dispatch_loop())

    async def drain(self) -> None:
        """Stop intake, cancel queued jobs, wait out the in-flight grid,
        flush the journal and metrics export. Idempotent."""
        if self.draining:
            if self._dispatcher is not None:
                await self._dispatcher
            return
        self.draining = True
        obs.inc("serve.drains")
        for job_id in self.queue.drain_pending():
            record = self.registry.get(job_id)
            if record is not None and record.state not in TERMINAL_STATES:
                record.cancel("server draining")
                self._bump("cancelled")
        self.queue.close()
        if self._dispatcher is not None:
            await self._dispatcher
        self._executor.shutdown(wait=True)
        self._io_executor.shutdown(wait=True)
        flush_engine(self.engine)

    @property
    def run_id(self) -> Optional[str]:
        return self.engine.run_id

    def _bump(self, name: str, amount: int = 1) -> None:
        self.stats[name] = self.stats.get(name, 0) + amount
        obs.inc(f"serve.{name}", amount)

    def _upload_pinned(self, name: str) -> bool:
        """An upload referenced by a live job must not be evicted."""
        return any(
            record.job.workload == name and record.state not in TERMINAL_STATES
            for record in self.registry.records()
        )

    # -- submission --------------------------------------------------------

    def submit(self, spec: dict, client: str) -> Tuple[JobRecord, bool]:
        """Dedupe-or-enqueue one spec; returns ``(record, deduped)``.

        Raises :class:`SpecError` (bad spec) or
        :class:`~repro.serve.state.QueueFullError` (backpressure/drain).
        """
        return self.submit_many([spec], client)[0]

    def submit_many(self, specs: Sequence[dict], client: str) -> List[Tuple[JobRecord, bool]]:
        """Dedupe-or-enqueue a batch, all-or-nothing.

        Every spec is validated and the queue capacity checked against
        the batch's distinct fresh digests *before* anything enqueues, so
        a 400/429 means no job from this body was accepted — the client
        never has to guess which half of a rejected batch is running.
        (The service is single-threaded on the event loop and nothing
        awaits between the check and the puts, so the check cannot race.)
        """
        if self.draining:
            raise QueueFullError("server is draining; submissions refused")
        jobs = [job_from_spec(spec, self.store) for spec in specs]
        fresh = set()
        for job in jobs:
            digest = job.digest()
            if digest in fresh or self._dedupe_target(digest) is not None:
                continue
            fresh.add(digest)
        if len(fresh) > self.queue.remaining:
            raise QueueFullError(
                f"batch needs {len(fresh)} queue slots but only "
                f"{self.queue.remaining} of {self.queue.limit} remain; "
                "no jobs from this submission were enqueued"
            )
        return [self._submit_job(job, client) for job in jobs]

    def _dedupe_target(self, digest: str) -> Optional[JobRecord]:
        """The live-or-done record a resubmission of ``digest`` attaches
        to, if any (failed/cancelled records invite an explicit retry)."""
        existing = self.registry.get(digest)
        if existing is None:
            return None
        if existing.state in (DONE,) or existing.state not in TERMINAL_STATES:
            return existing
        return None

    def _submit_job(self, job: AnalysisJob, client: str) -> Tuple[JobRecord, bool]:
        self._bump("submitted")
        digest = job.digest()
        target = self._dedupe_target(digest)
        if target is not None:
            # Same digest, result live or on the way: attach, don't re-run.
            if client not in target.clients:
                target.clients.append(client)
            self._bump("deduped")
            return target, True
        self.store.touch_upload(job.workload)  # live reference: protect from LRU
        record = JobRecord(job, client)
        self.queue.put(client, record.id)
        if self.registry.get(digest) is not None:
            self.registry.replace(record)
        else:
            self.registry.add(record)
        record.post("queued", queue_depth=self.queue.depth)
        obs.gauge_set("serve.queue_depth", self.queue.depth)
        return record, False

    async def upload(self, payload: bytes) -> Tuple[str, int, str]:
        """Register an uploaded PGT2 trace; returns (name, cap, digest).

        The temp-file write, parse, and digest run on the I/O executor so
        a large body never stalls the event loop; registration (budget
        accounting, eviction) happens back on the loop thread, where the
        pin check can read the registry safely.
        """
        loop = self._loop if self._loop is not None else asyncio.get_running_loop()
        trace, digest = await loop.run_in_executor(
            self._io_executor, self._parse_upload, payload
        )
        name, cap = self.store.add_upload(trace, size=len(payload))
        self._bump("uploads")
        obs.gauge_set("serve.upload_bytes", self.store.upload_bytes)
        return name, cap, digest

    @staticmethod
    def _parse_upload(payload: bytes) -> Tuple[ColumnarTrace, str]:
        import tempfile

        from repro.trace.io import TraceFormatError, read_trace_file

        handle = tempfile.NamedTemporaryFile(suffix=".pgt2", delete=False)
        try:
            with handle:
                handle.write(payload)
            try:
                trace = read_trace_file(handle.name)
            except TraceFormatError as error:
                raise SpecError(f"bad PGT2 payload: {error}") from None
        finally:
            try:
                os.remove(handle.name)
            except OSError:
                pass
        return trace, trace.digest()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None
        while True:
            job_ids = await self.queue.take(self.batch_size)
            if not job_ids:
                return  # queue closed and empty: drain complete
            obs.gauge_set("serve.queue_depth", self.queue.depth)
            records = [self.registry.get(job_id) for job_id in job_ids]
            records = [r for r in records if r is not None and r.state not in TERMINAL_STATES]
            if not records:
                continue
            grid = [record.job for record in records]
            self._grid_records = records
            self.in_flight = len(records)
            obs.gauge_set("serve.in_flight", self.in_flight)
            try:
                outcomes = await self._loop.run_in_executor(
                    self._executor, self.engine.run_grid, grid
                )
            except Exception as error:  # noqa: BLE001 - engine-level failure
                message = f"engine failure: {type(error).__name__}: {error}"
                for record in records:
                    record.error = message
                    record.finish(FAILED, "failed", error=message)
                    self._bump("failed")
            else:
                for record, outcome in zip(records, outcomes):
                    self._finish(record, outcome)
            finally:
                self._grid_records = None
                self.in_flight = 0
                obs.gauge_set("serve.in_flight", 0)

    def _finish(self, record: JobRecord, outcome) -> None:
        record.seconds = outcome.seconds
        record.attempts = max(record.attempts, outcome.attempts)
        if outcome.ok:
            if outcome.cached:
                status = "cached"
            elif outcome.replayed:
                status = "replayed"
            else:
                status = "ok"
                self._bump("executed")
            self._bump("completed")
            if status in ("cached", "replayed"):
                self._bump(status)
            record.result = result_to_dict(outcome.result)
            record.summary = summary = result_summary(outcome.result)
            record.finish(
                DONE,
                status,
                seconds=outcome.seconds,
                attempts=outcome.attempts,
                phases=outcome.phases,
                summary=summary,
            )
        else:
            self._bump("failed")
            record.error = outcome.error
            record.finish(
                FAILED,
                "failed",
                error=outcome.error,
                seconds=outcome.seconds,
                attempts=outcome.attempts,
            )

    def _on_engine_event(self, event: JobEvent) -> None:
        """Engine progress listener — called on the dispatcher's executor
        thread; marshals per-job transitions onto the event loop. Terminal
        transitions are *not* taken from events: the dispatcher applies
        them from the returned outcomes, which carry the results."""
        records = self._grid_records
        loop = self._loop
        if records is None or loop is None or event.index >= len(records):
            return
        record = records[event.index]
        if event.kind == JOB_STARTED:
            loop.call_soon_threadsafe(record.mark_running, event.worker)
        elif event.kind == JOB_RETRY:
            self.stats["retried"] += 1
            loop.call_soon_threadsafe(record.mark_retry, event.error)

    # -- views -------------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": self.queue.depth,
            "in_flight": self.in_flight,
            "jobs": self.engine.jobs,
            "run_id": self.run_id,
            "records": len(self.registry),
            "stats": dict(self.stats),
        }

    def metrics_snapshot(self) -> dict:
        return {
            "stats": dict(self.stats),
            "queue_depth": self.queue.depth,
            "in_flight": self.in_flight,
            "registry": obs.registry().snapshot(),
        }
