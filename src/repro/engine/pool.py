"""Multiprocess job execution over the shared trace cache.

Parallelization strategy: the parent materializes each distinct input trace
*once* — in the on-disk trace cache (via :meth:`TraceStore.ensure_on_disk`,
which keys the result cache) and, for the jobs that actually run, as a
columnar trace in a ``multiprocessing.shared_memory`` block. Workers are
shipped job specs plus a trace reference and attach the shared block
zero-copy — a multi-hundred-thousand-record trace is never pickled per job
and never decoded per worker. When shared memory is unavailable (or
disabled) workers fall back to loading the ``.pgt`` file themselves,
keeping a tiny per-process LRU of loaded traces which the grid order
(workload-major) keeps hot. The parent owns every shared block and
closes/unlinks them once the grid drains.

Fault containment: every worker wraps job execution, so an analysis error
returns a structured failure for that job while the rest of the grid
proceeds. The parent additionally enforces an optional per-job wall-clock
timeout and detects crashed workers; in both cases the worker process is
killed (or found dead), the job is marked failed, and a replacement worker
is spawned so pool capacity survives bad configs.

Fork-safe bootstrap: workers rebuild all state from (path, spec) messages —
nothing depends on inherited open file handles or parent caches — so the
pool runs identically under ``fork`` (fast, the default where available)
and ``spawn``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue as queue_module
import signal
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import faults
from repro.engine.cache import ResultCache, cache_key
from repro.engine.jobs import AnalysisJob
from repro.engine.progress import (
    JOB_CACHED,
    JOB_DONE,
    JOB_FAILED,
    JOB_STARTED,
    JobEvent,
    ProgressListener,
)
from repro.engine.serialize import JobResult, result_from_dict, result_to_dict
from repro.obs import metrics as obs
from repro.obs.spans import span
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import read_trace_file

#: Traces an idle worker keeps loaded/attached (grid order keeps this tiny
#: LRU hot).
_WORKER_TRACE_LRU = 2

#: Seconds the scheduling loop sleeps waiting for worker messages between
#: deadline/liveness sweeps.
_POLL_INTERVAL = 0.05

#: How long the pool tolerates "no running jobs, no queued tasks, no
#: messages" before declaring the remaining jobs lost (see the backstop in
#: :func:`execute_jobs`). Long enough to cover a worker's window between
#: claiming a task and reporting JOB_STARTED.
_IDLE_GRACE = 1.0


class EngineError(Exception):
    """Base class for engine failures."""


class PoolBrokenError(EngineError):
    """Raised when the worker pool itself is unhealthy (respawn budget
    exhausted) — an infrastructure failure, distinct from any one job
    failing. :mod:`repro.engine.resilience` catches this and degrades the
    remainder of the grid to in-process serial execution."""


class JobFailedError(EngineError):
    """Raised when a grid is executed in strict mode and any job failed."""

    def __init__(self, failures: List["JobOutcome"]):
        self.failures = failures
        lines = [f"{len(failures)} job(s) failed:"]
        for outcome in failures[:5]:
            lines.append(f"  - {outcome.job.describe()}: {outcome.error}")
        if len(failures) > 5:
            lines.append(f"  ... and {len(failures) - 5} more")
        super().__init__("\n".join(lines))


@dataclass
class JobOutcome:
    """Terminal state of one submitted job.

    Attributes:
        index: position in the submitted grid.
        job: the job spec.
        result: the analysis result (``None`` on failure).
        error: one-line failure description (``None`` on success).
        detail: full worker-side traceback when one exists.
        seconds: wall-clock execution time (0 for cache hits).
        cached: the result came from the result cache.
        worker: id of the worker that ran the job (``None`` for in-process
            execution and cache hits).
        attempts: executions this outcome took (>1 after resilience retries).
        replayed: the result was replayed from a run journal (``--resume``).
        phases: per-phase wall seconds measured where the job ran
            (``trace_load``/``kernel``/``serialize``; ``None`` with
            metrics off or for cache hits/replays).
        queue_wait: seconds the task sat queued before a worker picked it
            up (0 with metrics off or for in-process execution).
    """

    index: int
    job: AnalysisJob
    result: Optional[JobResult] = None
    error: Optional[str] = None
    detail: Optional[str] = None
    seconds: float = 0.0
    cached: bool = False
    worker: Optional[int] = None
    attempts: int = 1
    replayed: bool = False
    phases: Optional[Dict[str, float]] = None
    queue_wait: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _null_listener(event: JobEvent) -> None:
    return None


#: Callback invoked with each :class:`JobOutcome` the moment it becomes
#: final, in completion order (not submission order). The resilience layer
#: journals outcomes through this hook so a SIGKILL'd run loses nothing
#: already finished. Exceptions propagate and abort the grid (fail-fast).
OutcomeListener = Callable[[JobOutcome], None]


def _payload_checksum(result_dict: dict) -> str:
    """Checksum of a result payload in its canonical JSON form. Workers
    stamp it before the payload crosses the result queue; the parent
    recomputes it on receipt, so a mangled payload surfaces as a structured
    job failure (retryable) instead of silently skewing a table."""
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """``fork`` where the platform offers it (cheap bootstrap), else
    ``spawn``; an explicit request wins."""
    if start_method is not None:
        return start_method
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _resolve_metrics(metrics: Optional[bool]) -> bool:
    """Resolve a tri-state metrics request: an explicit bool wins; ``None``
    means "on if a registry is already live or the environment switch is
    set". Resolving to on installs a live registry process-wide so every
    instrumentation point (caches, kernels, trace store) records."""
    if metrics is None:
        metrics = obs.enabled() or obs.env_enabled()
    if metrics and not obs.enabled():
        obs.enable()
    return bool(metrics)


def _job_telemetry(
    metrics: bool, phases: Optional[Dict[str, float]], queue_wait: float
) -> Optional[dict]:
    """The observability sidecar a worker attaches to each result payload:
    the per-job phase breakdown plus this process's registry delta
    (:meth:`~repro.obs.metrics.MetricsRegistry.drain`, so repeated jobs
    never double-count)."""
    if not metrics:
        return None
    return {
        "phases": phases,
        "queue_wait": queue_wait,
        "registry": obs.registry().drain(),
    }


def _absorb_telemetry(telemetry: Optional[dict]):
    """Parent side: merge a worker's registry delta into the live registry
    and return ``(phases, queue_wait)`` for the outcome."""
    if not telemetry:
        return None, 0.0
    obs.registry().merge(telemetry.get("registry"))
    return telemetry.get("phases"), telemetry.get("queue_wait") or 0.0


# -- worker side ---------------------------------------------------------------


def _load_trace(trace_ref: Tuple[str, str]):
    """Resolve a ``(kind, target)`` trace reference: attach a shared-memory
    columnar block zero-copy, decode one byte-extent slice of a trace file
    (a shard segment, digest-verified in isolation), or decode a whole
    ``.pgt`` file."""
    kind, target = trace_ref
    if kind == "shm":
        return ColumnarTrace.from_shared_memory(target)
    if kind == "slice":
        from repro.trace.chunked import decode_slice
        from repro.trace.segments import SegmentMap

        spec = json.loads(target)
        return decode_slice(
            spec["path"],
            spec["offset"],
            spec["length"],
            spec["count"],
            SegmentMap(
                data_base=spec["segments"]["data_base"],
                stack_floor=spec["segments"]["stack_floor"],
                stack_top=spec["segments"]["stack_top"],
            ),
            digest=spec.get("digest"),
        )
    return read_trace_file(target)


def _sigterm_to_exit(signum, frame) -> None:
    """Turn the parent's ``terminate()`` into an orderly unwind so the
    worker's cleanup path (shm detach, queue release) runs."""
    raise SystemExit(128 + signum)


def _worker_main(worker_id: int, task_queue, result_queue, metrics: bool = False) -> None:
    """Worker loop: pull ``(index, job wire form, trace reference, enqueue
    timestamp)`` tasks until the ``None`` sentinel. All state is rebuilt
    from the message contents.

    With ``metrics`` on, each stage runs under a span (trace decode/shm
    attach, kernel scan, serialization), queue wait is derived from the
    parent's enqueue timestamp, and the worker's registry delta rides each
    result payload back to the parent for merging.

    Shutdown discipline: whether the loop ends via the sentinel, a Ctrl-C
    forwarded to the process group, or the parent's SIGTERM, shared-memory
    attachments are closed before interpreter teardown (a ``SharedMemory``
    finalized while column views are still exported raises noisy
    ``BufferError``/resource-tracker warnings at exit). An interrupted
    worker then leaves through ``os._exit``: the interrupt may have left a
    queue's internal lock held, which its close finalizer would deadlock on.
    """
    # A forked worker inherits the parent's signal wakeup fd. If the parent
    # runs an asyncio loop (repro.serve), that fd is the loop's self-pipe:
    # any signal delivered to the worker (e.g. the pool's own terminate()
    # backstop) would write its signal byte into the PARENT's loop, which
    # then acts as if the parent itself was signalled. Detach before
    # installing handlers so worker signals stay in the worker.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread / closed fd: nothing to shed
        pass
    signal.signal(signal.SIGTERM, _sigterm_to_exit)
    if metrics:
        # A forked worker inherits the parent's registry, counters the
        # parent has not exported yet included; its first drain would ship
        # those back to be merged a second time. Start from a fresh one.
        obs.enable(obs.MetricsRegistry())
    traces: "OrderedDict[Tuple[str, str], ColumnarTrace]" = OrderedDict()
    exit_code: Optional[int] = None
    try:
        while True:
            task = task_queue.get()
            if task is None:
                return
            index, wire, trace_ref, enqueued = task
            queue_wait = 0.0
            if metrics and enqueued is not None:
                queue_wait = max(0.0, time.time() - enqueued)
                obs.observe("job.queue_wait", queue_wait)
            result_queue.put((JOB_STARTED, worker_id, index, None))
            if faults.fire("crash", index):
                faults.crash_now()
            if faults.fire("hang", index):
                faults.hang_now()
            start = time.perf_counter()
            phases: Optional[Dict[str, float]] = {} if metrics else None
            try:
                with span("setup", phases=phases):
                    job = AnalysisJob.from_canonical(wire)
                trace = traces.get(trace_ref)
                if trace is None:
                    if trace_ref[0] == "shm" and faults.fire("shm", index):
                        raise RuntimeError(
                            f"injected shm attach failure for block {trace_ref[1]!r}"
                        )
                    with span("trace_load", phases=phases):
                        trace = _load_trace(trace_ref)
                    traces[trace_ref] = trace
                    while len(traces) > _WORKER_TRACE_LRU:
                        _, evicted = traces.popitem(last=False)
                        evicted.close()
                else:
                    traces.move_to_end(trace_ref)
                with span("kernel", phases=phases):
                    result = job.run(trace)
                with span("serialize", phases=phases):
                    result_dict = result_to_dict(result)
                    checksum = _payload_checksum(result_dict)
                if faults.fire("corrupt", index):
                    result_dict = faults.corrupt_payload(result_dict)
                seconds = time.perf_counter() - start
                if phases is not None:
                    # Attribute inter-span dispatch overhead (cache lookups,
                    # scheduler preemption between phases) to setup so the
                    # phase times always sum to the journaled wall time.
                    slack = seconds - sum(phases.values())
                    if slack > 0.0:
                        phases["setup"] = phases.get("setup", 0.0) + slack
                payload = (
                    result_dict,
                    seconds,
                    checksum,
                    _job_telemetry(metrics, phases, queue_wait),
                )
                result_queue.put((JOB_DONE, worker_id, index, payload))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:  # noqa: BLE001 - one bad job must not kill the grid
                payload = (
                    f"{type(error).__name__}: {error}",
                    traceback.format_exc(),
                    time.perf_counter() - start,
                    _job_telemetry(metrics, phases, queue_wait),
                )
                result_queue.put((JOB_FAILED, worker_id, index, payload))
    except SystemExit as error:
        exit_code = error.code if isinstance(error.code, int) else 1
    except KeyboardInterrupt:
        exit_code = 128 + signal.SIGINT
    finally:
        for trace in traces.values():
            trace.close()
        if exit_code is not None:
            # Interrupted mid-grid. The signal can land inside a queue's
            # put while this thread holds the queue's lock, and the queues'
            # close/join finalizers would then deadlock on it; undelivered
            # results are moot, so leave without running finalizers.
            os._exit(exit_code)


# -- parent side ---------------------------------------------------------------


def _cache_lookup(
    result_cache: Optional[ResultCache], trace_digest: str, job: AnalysisJob
) -> Tuple[Optional[str], Optional[JobResult]]:
    if result_cache is None:
        return None, None
    key = cache_key(trace_digest, job)
    return key, result_cache.load(key)


def execute_serial(
    jobs: Sequence[AnalysisJob],
    store,
    result_cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    on_outcome: Optional[OutcomeListener] = None,
    metrics: Optional[bool] = None,
) -> List[JobOutcome]:
    """In-process execution — the ``--jobs 1`` path. No subprocesses, no
    serialization round-trips beyond the result cache: exceptions surface
    with their original tracebacks, which keeps this the debuggable
    default."""
    metrics = _resolve_metrics(metrics)
    emit = progress or _null_listener
    land = on_outcome or (lambda outcome: None)
    total = len(jobs)
    outcomes: List[JobOutcome] = []
    for index, job in enumerate(jobs):
        try:
            with span("trace_load"):
                trace = store.trace(job.workload, job.cap, optimize=job.optimize)
        except Exception as error:  # noqa: BLE001 - bad workload spec, not a crash
            outcome = JobOutcome(
                index,
                job,
                error=f"{type(error).__name__}: {error}",
                detail=traceback.format_exc(),
            )
            outcomes.append(outcome)
            land(outcome)
            emit(JobEvent(JOB_FAILED, index, total, job, 0.0, outcome.error))
            continue
        trace_digest = trace.digest()
        key, cached = _cache_lookup(result_cache, trace_digest, job)
        if cached is not None:
            outcome = JobOutcome(index, job, result=cached, cached=True)
            outcomes.append(outcome)
            land(outcome)
            emit(JobEvent(JOB_CACHED, index, total, job))
            continue
        emit(JobEvent(JOB_STARTED, index, total, job))
        start = time.perf_counter()
        phases: Optional[Dict[str, float]] = {} if metrics else None
        try:
            with span("kernel", phases=phases):
                result = job.run(trace)
        except Exception as error:  # noqa: BLE001 - match worker fault containment
            seconds = time.perf_counter() - start
            outcome = JobOutcome(
                index,
                job,
                error=f"{type(error).__name__}: {error}",
                detail=traceback.format_exc(),
                seconds=seconds,
                phases=phases,
            )
            outcomes.append(outcome)
            land(outcome)
            emit(JobEvent(JOB_FAILED, index, total, job, seconds, outcome.error))
            continue
        seconds = time.perf_counter() - start
        if result_cache is not None:
            result_cache.store(key, trace_digest, job, result)
        outcome = JobOutcome(index, job, result=result, seconds=seconds, phases=phases)
        outcomes.append(outcome)
        land(outcome)
        emit(JobEvent(JOB_DONE, index, total, job, seconds))
    return outcomes


def execute_jobs(
    jobs: Sequence[AnalysisJob],
    store,
    njobs: int = 1,
    result_cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    progress: Optional[ProgressListener] = None,
    start_method: Optional[str] = None,
    on_outcome: Optional[OutcomeListener] = None,
    max_respawns: Optional[int] = None,
    shm_manifest=None,
    metrics: Optional[bool] = None,
) -> List[JobOutcome]:
    """Execute a job grid, fanning out to ``njobs`` worker processes.

    Results come back in submission order regardless of completion order.
    ``njobs == 1`` (or a single-job grid) runs in-process via
    :func:`execute_serial`. Each distinct input trace is packed once into
    a shared-memory columnar block that workers attach zero-copy; any
    failure to create a block falls back to workers decoding the ``.pgt``
    files.

    ``on_outcome`` is invoked with each outcome as it lands (journaling
    hook); ``max_respawns`` bounds replacement-worker spawns before the
    pool declares itself broken with :class:`PoolBrokenError`;
    ``shm_manifest`` (a :class:`~repro.engine.resilience.ShmManifest`)
    records every shared-memory block the parent creates so a SIGKILL'd
    run's blocks can be swept by the next one; ``metrics`` turns per-phase
    instrumentation on (``None`` inherits the process/environment state).
    """
    if njobs < 1:
        raise ValueError(f"njobs must be >= 1, got {njobs}")
    metrics = _resolve_metrics(metrics)
    if njobs == 1 or len(jobs) <= 1:
        return execute_serial(jobs, store, result_cache, progress, on_outcome, metrics)
    if not getattr(store, "directory", None):
        raise EngineError(
            "parallel execution requires a disk-backed TraceStore "
            "(workers load traces from the shared on-disk cache)"
        )

    emit = progress or _null_listener
    land = on_outcome or (lambda outcome: None)
    total = len(jobs)
    outcomes: List[Optional[JobOutcome]] = [None] * total

    # Materialize each distinct trace once; collect digests for cache keys.
    # A trace that cannot be produced (unknown workload, generation error)
    # fails its jobs — fault containment starts before the pool.
    trace_files: Dict[tuple, Tuple[str, str]] = {}
    trace_errors: Dict[tuple, Tuple[str, str]] = {}
    for job in jobs:
        if job.trace_key in trace_files or job.trace_key in trace_errors:
            continue
        try:
            trace_files[job.trace_key] = store.ensure_on_disk(
                job.workload, job.cap, optimize=job.optimize
            )
        except Exception as error:  # noqa: BLE001 - bad workload spec, not a crash
            trace_errors[job.trace_key] = (
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            )

    # Resolve cache hits in the parent; only misses reach the pool.
    pending_tasks: List[Tuple[int, AnalysisJob]] = []
    keys: Dict[int, Tuple[str, str]] = {}
    for index, job in enumerate(jobs):
        if job.trace_key in trace_errors:
            error, detail = trace_errors[job.trace_key]
            outcomes[index] = JobOutcome(index, job, error=error, detail=detail)
            land(outcomes[index])
            emit(JobEvent(JOB_FAILED, index, total, job, 0.0, error))
            continue
        path, trace_digest = trace_files[job.trace_key]
        key, cached = _cache_lookup(result_cache, trace_digest, job)
        if cached is not None:
            outcomes[index] = JobOutcome(index, job, result=cached, cached=True)
            land(outcomes[index])
            emit(JobEvent(JOB_CACHED, index, total, job))
            continue
        if key is not None:
            keys[index] = (key, trace_digest)
        pending_tasks.append((index, job))
    if not pending_tasks:
        return [outcome for outcome in outcomes if outcome is not None]

    # One trace reference per distinct input: a shared-memory columnar
    # block (workers attach zero-copy, nobody re-decodes the trace) with
    # the .pgt path as the fallback reference. Blocks are owned by the
    # parent and unlinked in the finally below once the grid drains.
    shm_blocks: List[object] = []
    trace_refs: Dict[tuple, Tuple[str, str]] = {}
    ref_hook = getattr(store, "trace_ref", None)
    for index, job in enumerate(jobs):
        trace_key = job.trace_key
        if outcomes[index] is not None or trace_key in trace_refs:
            continue
        path, _ = trace_files[trace_key]
        ref = ("path", path)
        if ref_hook is not None:
            # A store that knows a cheaper way for workers to load this
            # trace (e.g. a shard store handing out byte-extent slices of
            # one big file) overrides both shm packing and whole-file
            # decode; any hook failure falls back to the standard refs.
            try:
                hook_ref = ref_hook(job.workload, job.cap, optimize=job.optimize)
            except Exception:  # noqa: BLE001 - the hook is advisory
                hook_ref = None
            if hook_ref is not None:
                trace_refs[trace_key] = (hook_ref[0], hook_ref[1])
                continue
        try:
            with span("shm_pack"):
                block = store.trace(
                    job.workload, job.cap, optimize=job.optimize
                ).to_shared_memory()
        except Exception:  # noqa: BLE001 - shm is an optimization, not a requirement
            pass
        else:
            shm_blocks.append(block)
            if shm_manifest is not None:
                shm_manifest.register(block.name)
            ref = ("shm", block.name)
        trace_refs[trace_key] = ref
    enqueued_at = time.time() if metrics else None
    tasks: List[Tuple[int, dict, Tuple[str, str], Optional[float]]] = [
        (index, job.canonical(), trace_refs[job.trace_key], enqueued_at)
        for index, job in pending_tasks
    ]

    context = multiprocessing.get_context(resolve_start_method(start_method))
    task_queue = context.Queue()
    result_queue = context.Queue()
    for task in tasks:
        task_queue.put(task)
    worker_count = min(njobs, len(tasks))
    for _ in range(worker_count):
        task_queue.put(None)

    workers: Dict[int, multiprocessing.Process] = {}
    next_worker_id = 0

    def spawn_worker() -> None:
        nonlocal next_worker_id
        if max_respawns is not None and next_worker_id >= worker_count + max_respawns:
            raise PoolBrokenError(
                f"worker pool broken: {next_worker_id - worker_count} replacement "
                f"workers already spawned (limit {max_respawns}); "
                "the pool, not any one job, is failing"
            )
        worker_id = next_worker_id
        next_worker_id += 1
        process = context.Process(
            target=_worker_main,
            args=(worker_id, task_queue, result_queue, metrics),
            daemon=True,
            name=f"paragraph-worker-{worker_id}",
        )
        process.start()
        workers[worker_id] = process
        if metrics:
            obs.inc("pool.spawns")
            if worker_id >= worker_count:
                obs.inc("pool.respawns")
            live = obs.registry().gauge("pool.workers.live")
            if len(workers) > live.value:
                live.set(len(workers))

    for _ in range(worker_count):
        spawn_worker()

    #: worker id -> (job index, start wall-clock) while a job is in flight.
    running: Dict[int, Tuple[int, float]] = {}
    pending = len(tasks)

    def finish(outcome: JobOutcome, kind: str) -> None:
        nonlocal pending
        if outcomes[outcome.index] is not None:
            return  # already resolved (e.g. timed out before its result arrived)
        outcomes[outcome.index] = outcome
        pending -= 1
        # Outcome listener first: it may reclassify the event (the
        # resilience layer turns a to-be-retried failure into a retry
        # event and filters the redundant failed event).
        land(outcome)
        emit(
            JobEvent(
                kind,
                outcome.index,
                total,
                outcome.job,
                outcome.seconds,
                outcome.error,
                outcome.worker,
            )
        )

    def handle_message(message) -> None:
        kind, worker_id, index, payload = message
        job = jobs[index]
        if worker_id not in workers:
            # A terminated worker's last messages can still be sitting in
            # the queue; acting on them would resurrect a dead worker id.
            return
        if kind == JOB_STARTED:
            running[worker_id] = (index, time.perf_counter())
            emit(JobEvent(JOB_STARTED, index, total, job, worker=worker_id))
        elif kind == JOB_DONE:
            running.pop(worker_id, None)
            result_dict, seconds, checksum, telemetry = payload
            phases, queue_wait = _absorb_telemetry(telemetry)
            if _payload_checksum(result_dict) != checksum:
                finish(
                    JobOutcome(
                        index,
                        job,
                        error="corrupted result payload from worker "
                        "(checksum mismatch)",
                        seconds=seconds,
                        worker=worker_id,
                        phases=phases,
                        queue_wait=queue_wait,
                    ),
                    JOB_FAILED,
                )
                return
            result = result_from_dict(result_dict)
            if result_cache is not None and index in keys:
                key, trace_digest = keys[index]
                result_cache.store(key, trace_digest, job, result)
            finish(
                JobOutcome(
                    index,
                    job,
                    result=result,
                    seconds=seconds,
                    worker=worker_id,
                    phases=phases,
                    queue_wait=queue_wait,
                ),
                JOB_DONE,
            )
        elif kind == JOB_FAILED:
            running.pop(worker_id, None)
            error, detail, seconds, telemetry = payload
            phases, queue_wait = _absorb_telemetry(telemetry)
            finish(
                JobOutcome(
                    index,
                    job,
                    error=error,
                    detail=detail,
                    seconds=seconds,
                    worker=worker_id,
                    phases=phases,
                    queue_wait=queue_wait,
                ),
                JOB_FAILED,
            )

    def kill_worker(worker_id: int, index: int, error: str) -> None:
        obs.inc("pool.worker_kills")
        entry = running.pop(worker_id, None)
        started_at = entry[1] if entry else time.perf_counter()
        process = workers.pop(worker_id, None)
        if process is not None:
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        seconds = time.perf_counter() - started_at
        finish(
            JobOutcome(index, jobs[index], error=error, seconds=seconds, worker=worker_id),
            JOB_FAILED,
        )
        if pending > 0:
            spawn_worker()

    #: Backstop for tasks a terminated worker claimed but never reported:
    #: when nothing is running, nothing is queued, and no message arrives
    #: for a grace period, the unresolved jobs are failed rather than
    #: hanging the grid.
    idle_since: Optional[float] = None

    try:
        while pending > 0:
            try:
                handle_message(result_queue.get(timeout=_POLL_INTERVAL))
                idle_since = None
                continue
            except queue_module.Empty:
                pass
            now = time.perf_counter()
            if running or not task_queue.empty():
                idle_since = None
            elif idle_since is None:
                idle_since = now
            elif now - idle_since > _IDLE_GRACE:
                for index in range(total):
                    if outcomes[index] is None:
                        finish(
                            JobOutcome(
                                index,
                                jobs[index],
                                error="job lost after worker termination",
                            ),
                            JOB_FAILED,
                        )
                break
            if timeout is not None:
                for worker_id, (index, started_at) in list(running.items()):
                    if now - started_at > timeout:
                        kill_worker(
                            worker_id,
                            index,
                            f"timeout: exceeded {timeout:g}s per-job limit",
                        )
            # Liveness sweep: a worker that died without reporting (OOM
            # kill, segfault) would otherwise hang the grid.
            for worker_id, process in list(workers.items()):
                if process.is_alive():
                    continue
                # Drain any messages it managed to send before dying.
                drained = True
                while drained:
                    try:
                        handle_message(result_queue.get_nowait())
                    except queue_module.Empty:
                        drained = False
                if worker_id in running:
                    obs.inc("pool.worker_crashes")
                    index, _ = running[worker_id]
                    workers.pop(worker_id)
                    running.pop(worker_id)
                    finish(
                        JobOutcome(
                            index,
                            jobs[index],
                            error=f"worker crashed (exit code {process.exitcode})",
                            worker=worker_id,
                        ),
                        JOB_FAILED,
                    )
                    if pending > 0:
                        spawn_worker()
                elif process.exitcode == 0 or pending == 0 or task_queue.empty():
                    workers.pop(worker_id)
                else:
                    # Died with no claimed job on record while work remains:
                    # its JOB_STARTED message was lost with it (os._exit
                    # beats the queue feeder thread). Replace it so the
                    # queue keeps draining; the idle backstop resolves any
                    # task it claimed silently.
                    obs.inc("pool.worker_crashes")
                    workers.pop(worker_id)
                    spawn_worker()
    finally:
        for process in workers.values():
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        task_queue.close()
        task_queue.cancel_join_thread()
        result_queue.close()
        result_queue.cancel_join_thread()
        for block in shm_blocks:
            try:
                block.close()
                block.unlink()
            except OSError:  # already gone (e.g. external cleanup)
                pass
            if shm_manifest is not None:
                shm_manifest.release(block.name)

    return [outcome for outcome in outcomes if outcome is not None]
