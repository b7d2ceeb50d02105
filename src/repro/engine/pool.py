"""Multiprocess job execution over the shared trace cache.

Parallelization strategy: the parent plans each distinct input trace
*once* (:meth:`TraceStore.plan`): a trace already at hand — in memory or
in the on-disk trace cache, whose header digest keys the result cache — is
packed, for the jobs that actually run, as a columnar trace into a
``multiprocessing.shared_memory`` block that workers attach zero-copy; a
trace that is missing becomes a *generation task* (compile, simulate, PGT2
write) on the same worker pool, queued ahead of the analysis jobs. When a
generated trace lands, the parent resolves its jobs' cache lookups and
queues the misses, which load the new ``.pgt`` file. So the parent never
simulates in
a parallel run, and analysis of a ready trace overlaps the generation of
the others. A multi-hundred-thousand-record trace is never pickled per
job. Workers keep a tiny per-process LRU of loaded traces which the grid
order (workload-major) keeps hot. The parent owns every shared block and
closes/unlinks them once the grid drains.

Fault containment: every worker wraps job execution, so an analysis error
returns a structured failure for that job while the rest of the grid
proceeds. The parent additionally enforces an optional per-job wall-clock
timeout and detects crashed workers; in both cases the worker process is
killed (or found dead), the job is marked failed, and a replacement worker
is spawned so pool capacity survives bad configs. Each worker sends its
results down a pipe of its own, so a worker killed mid-message loses only
that message; a result queue shared by all workers would keep its write
lock, and every other worker's results, forever.

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
import signal
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_for_any
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

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

if TYPE_CHECKING:
    from repro.harness.runner import Generation

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
        trace_digest: content digest of the input trace (``None`` when the
            trace could not be produced, or for replays).
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
    trace_digest: Optional[str] = None

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
    stamp it before the payload crosses the result pipe; the parent
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


def _keep_trace(traces: "OrderedDict", trace_ref: Tuple[str, str], trace) -> None:
    """Insert a loaded trace into a worker's LRU, evicting the oldest."""
    traces[trace_ref] = trace
    while len(traces) > _WORKER_TRACE_LRU:
        _, evicted = traces.popitem(last=False)
        evicted.close()


def _generate_payload(task, metrics: bool, queue_wait: float) -> tuple:
    """Run one generation task (see :func:`repro.harness.runner.generate`)
    and build its ``JOB_DONE`` payload: the written trace's digest and the
    full-run length. The jobs on the trace load it from its file."""
    from repro.harness.runner import generate

    done = generate(task)
    result = {"digest": done.digest, "length": done.length}
    return result, done.seconds, None, _job_telemetry(metrics, done.phases, queue_wait)


class _ResultPipe:
    """A worker's end of its own result pipe. ``put`` sends synchronously:
    unlike one queue shared by every worker, there is no feeder thread,
    and no write lock that a worker killed mid-message (a crash, an OOM
    kill) takes down with it, leaving every other worker's results stuck
    behind the lock and the grid hung."""

    def __init__(self, connection):
        self.connection = connection

    def put(self, message) -> None:
        self.connection.send(message)


def _worker_main(worker_id: int, task_queue, result_queue, metrics: bool = False) -> None:
    """Worker loop: pull ``(index, job wire form, trace reference, enqueue
    timestamp)`` tasks until the ``None`` sentinel, and ``put`` each
    message on ``result_queue`` (the pool passes a :class:`_ResultPipe`).
    All state is rebuilt from the message contents. A task whose wire
    form is ``None`` is a generation task: its third field is a
    :class:`~repro.harness.runner.Generation`, and its index lies past the
    grid's jobs (fault injection never fires on it).

    With ``metrics`` on, each stage runs under a span (trace decode/shm
    attach, kernel scan, serialization; compile/simulate/encode/full run
    for generation), queue wait is derived from the parent's enqueue
    timestamp, and the worker's registry delta rides each result payload
    back to the parent for merging.

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
                if wire is not None:
                    obs.observe("job.queue_wait", queue_wait)
            result_queue.put((JOB_STARTED, worker_id, index, None))
            if wire is not None:
                if faults.fire("crash", index):
                    faults.crash_now()
                if faults.fire("hang", index):
                    faults.hang_now()
            start = time.perf_counter()
            phases: Optional[Dict[str, float]] = {} if metrics else None
            try:
                if wire is None:
                    payload = _generate_payload(trace_ref, metrics, queue_wait)
                    result_queue.put((JOB_DONE, worker_id, index, payload))
                    continue
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
                    _keep_trace(traces, trace_ref, trace)
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
                    type(error).__name__,
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
            outcome = JobOutcome(index, job, result=cached, cached=True, trace_digest=trace_digest)
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
                trace_digest=trace_digest,
            )
            outcomes.append(outcome)
            land(outcome)
            emit(JobEvent(JOB_FAILED, index, total, job, seconds, outcome.error))
            continue
        seconds = time.perf_counter() - start
        if result_cache is not None:
            result_cache.store(key, trace_digest, job, result)
        outcome = JobOutcome(
            index, job, result=result, seconds=seconds, phases=phases, trace_digest=trace_digest
        )
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
    prepare: Sequence["Generation"] = (),
) -> List[JobOutcome]:
    """Execute a job grid, fanning out to ``njobs`` worker processes.

    Results come back in submission order regardless of completion order.
    ``njobs == 1`` (or a single task) runs in-process via
    :func:`execute_serial`, where the store generates what it misses.
    Otherwise every input trace missing from the disk cache becomes a
    generation task on the same pool, queued ahead of the analysis jobs;
    when it lands, its jobs' cache lookups run and their misses are
    queued, so analysis of a ready trace overlaps the generation of the
    others. ``prepare`` adds generation requests of its own
    (:class:`~repro.harness.runner.Generation` without paths, e.g. Table
    2's traces with their full runs); whatever they produce lands in the
    store, never in the returned outcomes. Each distinct trace already at
    hand is packed once into a shared-memory columnar block that workers
    attach zero-copy (any failure to create one falls back to workers
    decoding the ``.pgt`` file); a worker-generated trace is loaded from
    its file.

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
    if njobs == 1 or len(jobs) + len(prepare) <= 1:
        return execute_serial(jobs, store, result_cache, progress, on_outcome, metrics)
    if not getattr(store, "directory", None):
        raise EngineError(
            "parallel execution requires a disk-backed TraceStore "
            "(workers load traces from the shared on-disk cache)"
        )
    from repro.harness import runner

    emit = progress or _null_listener
    land = on_outcome or (lambda outcome: None)
    total = len(jobs)
    outcomes: List[Optional[JobOutcome]] = [None] * total

    # Plan each distinct trace once: at hand (path and digest, which key
    # the result cache) or to be generated. A trace that cannot be planned
    # (unknown workload) fails its jobs — fault containment starts before
    # the pool. A store without a planner materializes traces itself.
    requests: Dict[tuple, "Generation"] = {
        (request.workload, request.cap, request.optimize): request for request in prepare
    }
    for job in jobs:
        if job.trace_key not in requests:
            requests[job.trace_key] = runner.Generation(job.workload, job.cap, job.optimize)
    planner = getattr(store, "plan", None)
    trace_files: Dict[tuple, Tuple[str, str]] = {}
    trace_errors: Dict[tuple, Tuple[str, str]] = {}
    generations: List[Tuple[tuple, "Generation"]] = []
    for trace_key, request in requests.items():
        try:
            if planner is None:
                trace_files[trace_key] = store.ensure_on_disk(
                    request.workload, request.cap, optimize=request.optimize
                )
                continue
            ready, task = planner(request)
        except Exception as error:  # noqa: BLE001 - bad workload spec, not a crash
            trace_errors[trace_key] = (f"{type(error).__name__}: {error}", traceback.format_exc())
            continue
        if ready is not None:
            trace_files[trace_key] = ready
        if task is not None:
            generations.append((trace_key, task))
    # Full runs are the long tasks; start them first.
    generations.sort(key=lambda item: not item[1].full_run)
    #: trace key -> indices of the jobs waiting for its generation.
    waiting: Dict[tuple, List[int]] = {
        trace_key: [] for trace_key, task in generations if task.cap is not None
    }
    for index, job in enumerate(jobs):
        if job.trace_key in waiting:
            waiting[job.trace_key].append(index)
    #: Traces a worker generated: jobs load them from their files.
    generated: set = set()

    #: Unresolved tasks: grid jobs plus generations.
    pending = total + len(generations)
    #: Task indices (past the grid's jobs) of the generations resolved.
    resolved_generations: set = set()

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

    # Resolve a job whose trace is settled: a failure or a cache hit lands
    # its outcome; a miss returns True, to be queued for the pool.
    keys: Dict[int, str] = {}

    def resolve(index: int) -> bool:
        job = jobs[index]
        if job.trace_key in trace_errors:
            error, detail = trace_errors[job.trace_key]
            finish(JobOutcome(index, job, error=error, detail=detail), JOB_FAILED)
            return False
        _, trace_digest = trace_files[job.trace_key]
        key, cached = _cache_lookup(result_cache, trace_digest, job)
        if cached is not None:
            finish(
                JobOutcome(index, job, result=cached, cached=True, trace_digest=trace_digest),
                JOB_CACHED,
            )
            return False
        if key is not None:
            keys[index] = key
        return True

    # Cache hits in the parent; only misses reach the pool.
    runnable = [
        index
        for index, job in enumerate(jobs)
        if job.trace_key not in waiting and resolve(index)
    ]
    if pending == 0:
        return [outcome for outcome in outcomes if outcome is not None]

    # One trace reference per distinct input at hand: a shared-memory
    # columnar block (workers attach zero-copy, nobody re-decodes the
    # trace) with the .pgt path as the fallback reference. Blocks are owned
    # by the parent and unlinked in the finally below once the grid drains.
    # A worker-generated trace is referenced by its path: packing it would
    # mean decoding it here first.
    shm_blocks: List[object] = []
    trace_refs: Dict[tuple, Tuple[str, str]] = {}
    ref_hook = getattr(store, "trace_ref", None)

    def trace_ref(job: AnalysisJob) -> Tuple[str, str]:
        trace_key = job.trace_key
        if trace_key in trace_refs:
            return trace_refs[trace_key]
        path, _ = trace_files[trace_key]
        ref = ("path", path)
        if trace_key in generated:
            trace_refs[trace_key] = ref
            return ref
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
                return trace_refs[trace_key]
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
        return ref

    context = multiprocessing.get_context(resolve_start_method(start_method))
    task_queue = context.Queue()
    worker_count = min(
        njobs,
        len(generations) + len(runnable) + sum(len(indices) for indices in waiting.values()),
    )
    sentinels_sent = False

    def close_queue_when_planned() -> None:
        """Queue the stop sentinels once no generation can queue more
        jobs (replacement workers consume those of the killed ones)."""
        nonlocal sentinels_sent
        if not sentinels_sent and len(resolved_generations) == len(generations):
            sentinels_sent = True
            for _ in range(worker_count):
                task_queue.put(None)

    workers: Dict[int, multiprocessing.Process] = {}
    #: worker id -> the parent's end of that worker's result pipe.
    results: Dict[int, Connection] = {}
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
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(worker_id, task_queue, _ResultPipe(writer), metrics),
            daemon=True,
            name=f"paragraph-worker-{worker_id}",
        )
        process.start()
        # Only the worker may hold the write end, so its death reads as EOF.
        writer.close()
        workers[worker_id] = process
        results[worker_id] = reader
        if metrics:
            obs.inc("pool.spawns")
            if worker_id >= worker_count:
                obs.inc("pool.respawns")
            live = obs.registry().gauge("pool.workers.live")
            if len(workers) > live.value:
                live.set(len(workers))

    #: worker id -> (task index, start wall-clock) while a task is in flight.
    running: Dict[int, Tuple[int, float]] = {}

    def land_generation(task_index: int, done) -> None:
        """A generation landed (or failed): hand it to the store, then
        settle the jobs that waited for its trace."""
        nonlocal pending
        if task_index in resolved_generations:
            return  # already resolved (e.g. timed out before its result arrived)
        resolved_generations.add(task_index)
        pending -= 1
        store.land(done)
        trace_key = generations[task_index - total][0]
        if trace_key in waiting:
            if done.error is None:
                trace_files[trace_key] = (done.task.trace_path, done.digest)
                generated.add(trace_key)
            else:
                trace_errors[trace_key] = (done.error, done.detail)
            now = time.time() if metrics else None
            for index in waiting.pop(trace_key):
                if resolve(index):
                    job = jobs[index]
                    task_queue.put((index, job.canonical(), trace_ref(job), now))
        close_queue_when_planned()

    def fail_task(
        task_index: int, error: str, worker_id: Optional[int], seconds: float = 0.0
    ) -> None:
        if task_index >= total:
            task = generations[task_index - total][1]
            land_generation(
                task_index, runner.Generated(task, seconds=seconds, worker=worker_id, error=error)
            )
        else:
            job = jobs[task_index]
            finish(
                JobOutcome(
                    task_index,
                    job,
                    error=error,
                    seconds=seconds,
                    worker=worker_id,
                    trace_digest=trace_files[job.trace_key][1],
                ),
                JOB_FAILED,
            )

    def handle_generation(kind: str, worker_id: int, index: int, payload) -> None:
        if kind == JOB_STARTED:
            running[worker_id] = (index, time.perf_counter())
            return
        running.pop(worker_id, None)
        if kind == JOB_DONE:
            result, seconds, _, telemetry = payload
            error = detail = error_type = None
        else:
            error, detail, seconds, telemetry, error_type = payload
            result = {"digest": None, "length": None}
        phases, queue_wait = _absorb_telemetry(telemetry)
        done = runner.Generated(
            generations[index - total][1],
            digest=result["digest"],
            length=result["length"],
            seconds=seconds,
            phases=phases or {},
            worker=worker_id,
            queue_wait=queue_wait,
            error=error,
            error_type=error_type,
            detail=detail,
        )
        land_generation(index, done)

    def handle_message(message) -> None:
        kind, worker_id, index, payload = message
        if worker_id not in workers:
            # A terminated worker's last messages can still be sitting in
            # the queue; acting on them would resurrect a dead worker id.
            return
        if index >= total:
            handle_generation(kind, worker_id, index, payload)
            return
        job = jobs[index]
        if kind == JOB_STARTED:
            running[worker_id] = (index, time.perf_counter())
            emit(JobEvent(JOB_STARTED, index, total, job, worker=worker_id))
        elif kind == JOB_DONE:
            running.pop(worker_id, None)
            result_dict, seconds, checksum, telemetry = payload
            phases, queue_wait = _absorb_telemetry(telemetry)
            trace_digest = trace_files[job.trace_key][1]
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
                        trace_digest=trace_digest,
                    ),
                    JOB_FAILED,
                )
                return
            result = result_from_dict(result_dict)
            if result_cache is not None and index in keys:
                result_cache.store(keys[index], trace_digest, job, result)
            finish(
                JobOutcome(
                    index,
                    job,
                    result=result,
                    seconds=seconds,
                    worker=worker_id,
                    phases=phases,
                    queue_wait=queue_wait,
                    trace_digest=trace_digest,
                ),
                JOB_DONE,
            )
        elif kind == JOB_FAILED:
            running.pop(worker_id, None)
            error, detail, seconds, telemetry, _ = payload
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
                    trace_digest=trace_files[job.trace_key][1],
                ),
                JOB_FAILED,
            )

    def receive(worker_id: int) -> None:
        """Handle every message waiting in one worker's pipe; at its end
        of file (the worker exited or died) the pipe is closed."""
        reader = results[worker_id]
        while True:
            try:
                if not reader.poll():
                    return
                message = reader.recv()
            except (EOFError, OSError):
                reader.close()
                del results[worker_id]
                return
            handle_message(message)

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
        reader = results.pop(worker_id, None)
        if reader is not None:
            reader.close()  # what it sent last is moot
        fail_task(index, error, worker_id, time.perf_counter() - started_at)
        if pending > 0:
            spawn_worker()

    #: Backstop for tasks a terminated worker claimed but never reported:
    #: when nothing is running, nothing is queued, and no message arrives
    #: for a grace period, the unresolved tasks are failed rather than
    #: hanging the grid.
    idle_since: Optional[float] = None

    try:
        # Generations first, then the jobs whose traces are at hand. Their
        # blocks are packed before any worker forks, so the workers share
        # the resource tracker the first block starts.
        enqueued_at = time.time() if metrics else None
        for offset, (_, task) in enumerate(generations):
            task_queue.put((total + offset, None, task, enqueued_at))
        for index in runnable:
            job = jobs[index]
            task_queue.put((index, job.canonical(), trace_ref(job), enqueued_at))
        close_queue_when_planned()
        for _ in range(worker_count):
            spawn_worker()
        while pending > 0:
            ready = wait_for_any(list(results.values()), timeout=_POLL_INTERVAL)
            if ready:
                for worker_id, reader in list(results.items()):
                    if reader in ready and worker_id in results:
                        receive(worker_id)
                idle_since = None
                continue
            now = time.perf_counter()
            if running or not task_queue.empty():
                idle_since = None
            elif idle_since is None:
                idle_since = now
            elif now - idle_since > _IDLE_GRACE:
                lost = "job lost after worker termination"
                for offset in range(len(generations)):
                    if total + offset not in resolved_generations:
                        fail_task(total + offset, lost, None)
                for index in range(total):
                    if outcomes[index] is None:
                        finish(JobOutcome(index, jobs[index], error=lost), JOB_FAILED)
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
                # Handle any messages it managed to send before dying.
                if worker_id in results:
                    receive(worker_id)
                if worker_id in running:
                    obs.inc("pool.worker_crashes")
                    index, _ = running[worker_id]
                    workers.pop(worker_id)
                    running.pop(worker_id)
                    fail_task(
                        index, f"worker crashed (exit code {process.exitcode})", worker_id
                    )
                    if pending > 0:
                        spawn_worker()
                elif process.exitcode == 0 or pending == 0 or task_queue.empty():
                    workers.pop(worker_id)
                else:
                    # Died with no claimed job on record while work remains
                    # (killed between taking a task and reporting it).
                    # Replace it so the queue keeps draining; the idle
                    # backstop resolves any task it claimed silently.
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
        for reader in results.values():
            reader.close()
        for block in shm_blocks:
            try:
                block.close()
                block.unlink()
            except OSError:  # already gone (e.g. external cleanup)
                pass
            if shm_manifest is not None:
                shm_manifest.release(block.name)

    return [outcome for outcome in outcomes if outcome is not None]
