"""Fault-tolerant grid execution: retry/backoff, journaled resume, sweeps.

The experiment grids of the paper (Tables 2-4, Figures 7-8) are hours-long
multi-config sweeps at production trace sizes; a single OOM-killed worker,
stuck job, corrupt cache entry, or leaked ``/dev/shm`` segment must never
cost the whole run. This module wraps :func:`repro.engine.pool.execute_jobs`
with the policies that make a grid survivable:

**Failure taxonomy.** Every failed outcome is classified *transient* (worker
crash, per-job timeout, shm attach failure, corrupted result payload,
trace/cache IO errors — retrying can help) or *permanent* (unknown
workload, analysis exception, digest mismatch — deterministic, retrying is
waste). Transient failures are retried with exponential backoff plus
deterministic jitter; a job still failing after its attempt budget is
*quarantined* — reported failed with the attempt count, never retried again.

**Journaled runs.** With a :class:`RunJournal`, every terminal outcome is
appended to a schema-versioned JSONL journal (fsync'd per record, keyed by
job digest + trace content digest) the moment it lands. ``--resume
<run-id>`` replays finished jobs straight from the journal and re-executes
only the remainder, so a crash or Ctrl-C halfway through a grid costs only
the unfinished half.

**Graceful degradation.** A pool whose replacement-worker budget is
exhausted (:class:`~repro.engine.pool.PoolBrokenError`) falls back to
in-process serial execution with a loud warning instead of aborting — slow
results beat no results. Shared-memory blocks are registered in a per-process
:class:`ShmManifest` swept on startup, at exit, and on SIGTERM, so even a
SIGKILL'd run never leaks ``/dev/shm`` segments past the next invocation.
"""

from __future__ import annotations

import atexit
import dataclasses
import errno
import hashlib
import json
import logging
import os
import signal
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache
from repro.engine.jobs import AnalysisJob
from repro.engine.pool import (
    JobOutcome,
    PoolBrokenError,
    execute_jobs,
)
from repro.engine.progress import (
    JOB_FAILED,
    JOB_REPLAYED,
    JOB_RETRY,
    JobEvent,
    ProgressListener,
)
from repro.engine.serialize import result_from_dict, result_to_dict
from repro.obs import metrics as obs
from repro.obs.spans import span

logger = logging.getLogger(__name__)

#: Failure categories.
TRANSIENT = "transient"
PERMANENT = "permanent"

#: Error-string markers of failures worth retrying. Matched as substrings
#: of the one-line ``JobOutcome.error`` — the wire format every failure
#: path already produces (``"ExcType: message"``).
_TRANSIENT_MARKERS = (
    "worker crashed",            # liveness sweep found the process dead
    "timeout:",                  # per-job wall-clock limit enforced
    "job lost after worker termination",  # claimed task never reported
    "shm attach",                # shared-memory block vanished/failed
    "corrupted result payload",  # parent-side checksum mismatch
    "truncated",                 # trace/cache file cut short (IO error)
    "FileNotFoundError",         # cache/trace file reaped under us
    "PermissionError",
    "BlockingIOError",
    "BrokenPipeError",
    "ConnectionResetError",
    "OSError",
)

#: Markers that force PERMANENT even when a transient marker also matches
#: (a digest mismatch *is* reported via an OSError-adjacent path but
#: retrying cannot fix stale content addressed by the wrong digest).
_PERMANENT_MARKERS = (
    "unknown workload",
    "digest mismatch",
)

#: Trace-cache corruption markers: transient *and* the cached trace file is
#: invalidated before the retry so the parent regenerates it from the
#: workload instead of re-reading the same damaged bytes.
_INVALIDATE_MARKERS = ("truncated record", "truncated header")


def classify_failure(error: Optional[str]) -> str:
    """Classify a one-line failure description as ``transient`` or
    ``permanent``. Unrecognized failures default to permanent: an analysis
    exception is deterministic, and retrying a mystery three times only
    delays the report."""
    if not error:
        return PERMANENT
    for marker in _PERMANENT_MARKERS:
        if marker in error:
            return PERMANENT
    for marker in _TRANSIENT_MARKERS:
        if marker in error:
            return TRANSIENT
    return PERMANENT


# -- retry policy --------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job retry budget and backoff shape.

    Attributes:
        max_attempts: total executions per job (1 = never retry).
        base_delay: backoff before the first retry, in seconds.
        max_delay: backoff ceiling.
        jitter: +/- fraction of the raw delay applied as deterministic
            jitter (seeded from the job key, not the clock, so reruns and
            tests see identical schedules).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based) of the job
        identified by ``key``: exponential, capped, with deterministic
        jitter so a thousand quarantine-bound jobs don't retry in
        lockstep."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        seed = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(seed[:4], "big") / 0xFFFFFFFF
        return raw * (1.0 + self.jitter * (2.0 * fraction - 1.0))


# -- run journal ---------------------------------------------------------------

#: Bump when the journal record layout changes; old journals refuse replay.
JOURNAL_SCHEMA = 1


def new_run_id() -> str:
    """A fresh, filename-safe run id (timestamp + random suffix)."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


class JournalError(Exception):
    """Raised when a journal cannot be opened for resume."""


class RunJournal:
    """Append-only JSONL journal of one grid run.

    Records land as they complete (one fsync'd line each), so the journal
    is exactly as current as the run itself — a SIGKILL loses nothing that
    already finished. Replay identity is content-based: an ``outcome``
    line is keyed by ``(job digest, trace content digest)``, so a resumed
    run with a changed config or regenerated trace re-executes rather than
    replaying stale results.
    """

    def __init__(self, directory: str, run_id: Optional[str] = None, resume: bool = False):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.run_id = run_id or new_run_id()
        self.path = os.path.join(directory, f"{self.run_id}.jsonl")
        self._replay: Dict[Tuple[str, Optional[str]], dict] = {}
        if resume:
            self._replay = self._load()
        self._handle = open(self.path, "a")
        if self._handle.tell() == 0:
            self._append({"event": "run", "run_id": self.run_id})

    # -- writing -----------------------------------------------------------

    def _append(self, entry: dict) -> None:
        entry = {"schema": JOURNAL_SCHEMA, **entry}
        self._handle.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_attempt(
        self, outcome: JobOutcome, trace_digest: Optional[str], attempt: int
    ) -> None:
        """Journal a failed-but-retryable execution (audit trail only;
        attempts never replay)."""
        self._append(
            {
                "event": "attempt",
                "index": outcome.index,
                "job": outcome.job.digest(),
                "trace": trace_digest,
                "attempt": attempt,
                "error": outcome.error,
            }
        )

    def record_outcome(self, outcome: JobOutcome, trace_digest: Optional[str]) -> None:
        """Journal a terminal outcome the moment it lands."""
        self._append(
            {
                "event": "outcome",
                "index": outcome.index,
                "job": outcome.job.digest(),
                "spec": outcome.job.canonical(),
                "trace": trace_digest,
                "ok": outcome.ok,
                "cached": outcome.cached,
                "seconds": outcome.seconds,
                "attempts": outcome.attempts,
                "error": outcome.error,
                "result": result_to_dict(outcome.result) if outcome.ok else None,
            }
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    # -- replay ------------------------------------------------------------

    def _load(self) -> Dict[Tuple[str, Optional[str]], dict]:
        """Parse the journal for resume. A torn final line (the fsync that
        never finished before a SIGKILL) is tolerated and ignored; a
        schema mismatch refuses replay loudly rather than resurrecting
        results of unknown shape."""
        if not os.path.exists(self.path):
            raise JournalError(
                f"no journal for run {self.run_id!r} under {self.directory}"
            )
        replay: Dict[Tuple[str, Optional[str]], dict] = {}
        with open(self.path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # Only a torn tail is tolerable; damage elsewhere means
                    # the file is not trustworthy.
                    remainder = handle.read(1)
                    if remainder:
                        raise JournalError(
                            f"corrupt journal line {lineno} in {self.path}"
                        ) from None
                    logger.warning(
                        "ignoring torn final journal line %d in %s "
                        "(interrupted mid-write)", lineno, self.path,
                    )
                    break
                if entry.get("schema") != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"journal {self.path} has schema "
                        f"{entry.get('schema')!r}, expected {JOURNAL_SCHEMA}"
                    )
                if entry.get("event") != "outcome" or not entry.get("ok"):
                    continue
                if entry.get("result") is None:
                    continue
                replay[(entry["job"], entry.get("trace"))] = entry
        return replay

    def lookup(self, job_digest: str, trace_digest: Optional[str]) -> Optional[dict]:
        """The replayable outcome entry for a (job, trace) identity."""
        if trace_digest is None:
            return None
        return self._replay.get((job_digest, trace_digest))

    @property
    def replay_count(self) -> int:
        return len(self._replay)


# -- shared-memory manifest ----------------------------------------------------


#: Environment override for the manifest directory (test isolation, CI).
ENV_MANIFEST_DIR = "REPRO_SHM_MANIFEST_DIR"


def default_manifest_dir() -> str:
    """Where run manifests live unless told otherwise (stable across runs
    of the same user on the same machine, which is what makes the startup
    sweep find a dead run's leavings)."""
    override = os.environ.get(ENV_MANIFEST_DIR)
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), "paragraph-shm")


def _unlink_block(name: str) -> bool:
    """Best-effort unlink of a shared-memory block by name; ``True`` when a
    block was actually reclaimed."""
    from multiprocessing import shared_memory

    try:
        try:
            block = shared_memory.SharedMemory(name=name, create=False, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            block = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    try:
        block.unlink()
    except FileNotFoundError:  # lost a race with another sweeper
        pass
    block.close()
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError as error:
        return error.errno not in (errno.ESRCH,)
    return True


class ShmManifest:
    """Parent-side ledger of live shared-memory blocks, persisted to
    ``<dir>/<pid>.manifest`` so blocks survive being forgotten but never
    survive being leaked: a later run finds the manifest of a dead pid and
    unlinks everything it names."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or default_manifest_dir()
        os.makedirs(self.directory, exist_ok=True)
        self._pid = os.getpid()
        self.path = os.path.join(self.directory, f"{self._pid}.manifest")
        self._names: List[str] = []

    def _write(self) -> None:
        if not self._names:
            try:
                os.remove(self.path)
            except OSError:
                pass
            return
        blob = "".join(f"{name}\n" for name in self._names)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.directory, prefix=".tmp-", delete=False
        )
        with handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, self.path)

    def register(self, name: str) -> None:
        """Record a block *before* it can leak (called at creation)."""
        if name not in self._names:
            self._names.append(name)
            self._write()

    def release(self, name: str) -> None:
        """Forget a block that was cleanly unlinked."""
        if name in self._names:
            self._names.remove(name)
            self._write()

    def sweep_own(self) -> List[str]:
        """Unlink every block still on this run's ledger (atexit/SIGTERM
        path). A no-op in forked children — only the process that created
        the blocks may reap them."""
        if os.getpid() != self._pid:
            return []
        reclaimed = [name for name in self._names if _unlink_block(name)]
        self._names = []
        self._write()
        return reclaimed


def sweep_stale_manifests(directory: Optional[str] = None) -> List[str]:
    """Startup sweep: reclaim the shared-memory blocks of every manifest
    whose owning process is gone (SIGKILL'd runs can't clean up after
    themselves, so the *next* run does it for them). Returns the names of
    the blocks actually unlinked."""
    directory = directory or default_manifest_dir()
    if not os.path.isdir(directory):
        return []
    reclaimed: List[str] = []
    for filename in os.listdir(directory):
        if not filename.endswith(".manifest"):
            continue
        try:
            pid = int(filename[: -len(".manifest")])
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        path = os.path.join(directory, filename)
        try:
            with open(path, "r") as handle:
                names = [line.strip() for line in handle if line.strip()]
        except OSError:
            continue
        for name in names:
            if _unlink_block(name):
                reclaimed.append(name)
        try:
            os.remove(path)
        except OSError:
            pass
    if reclaimed:
        logger.warning(
            "swept %d leaked shared-memory block(s) from dead runs: %s",
            len(reclaimed),
            ", ".join(reclaimed),
        )
    return reclaimed


class _ShmGuard:
    """atexit + SIGTERM coverage for one manifest's lifetime. SIGINT needs
    no handler (KeyboardInterrupt unwinds through the ``finally`` chain);
    SIGKILL needs none either (the next run's startup sweep covers it)."""

    def __init__(self, manifest: ShmManifest):
        self.manifest = manifest
        self._previous = None
        self._installed = False

    def __enter__(self):
        atexit.register(self.manifest.sweep_own)
        try:
            if threading.current_thread() is threading.main_thread():
                self._previous = signal.getsignal(signal.SIGTERM)
                if self._previous in (signal.SIG_DFL, None):
                    signal.signal(signal.SIGTERM, self._on_sigterm)
                    self._installed = True
        except (ValueError, OSError):
            self._installed = False
        return self

    def _on_sigterm(self, signum, frame) -> None:
        self.manifest.sweep_own()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def __exit__(self, *exc_info):
        if self._installed:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):
                pass
        atexit.unregister(self.manifest.sweep_own)
        return False


# -- resilient execution -------------------------------------------------------


class _FailFastAbort(Exception):
    """Internal control flow: first unretryable failure under fail-fast."""

    def __init__(self, outcome: JobOutcome):
        self.outcome = outcome
        super().__init__(outcome.error)


def _trace_digest_for(store, job: AnalysisJob) -> Optional[str]:
    """Content digest of a job's input trace (journal replay identity);
    ``None`` when the trace cannot be produced — the job will fail in the
    executor with the real error."""
    try:
        if getattr(store, "directory", None):
            _, digest = store.ensure_on_disk(job.workload, job.cap, optimize=job.optimize)
            return digest
        return store.trace(job.workload, job.cap, optimize=job.optimize).digest()
    except Exception:  # noqa: BLE001 - surfaced by the executor, not here
        return None


def execute_jobs_resilient(
    jobs: Sequence[AnalysisJob],
    store,
    njobs: int = 1,
    result_cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    progress: Optional[ProgressListener] = None,
    start_method: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    fail_fast: bool = False,
    manifest_dir: Optional[str] = None,
    sleep: Callable[[float], None] = time.sleep,
    metrics: Optional[bool] = None,
) -> List[JobOutcome]:
    """Execute a grid with retries, journaling, and degradation.

    A drop-in superset of :func:`~repro.engine.pool.execute_jobs`: same
    submission-order outcome list, plus

    - transient failures retried up to ``retry.max_attempts`` total
      executions with backoff (then quarantined);
    - every terminal outcome journaled as it lands when ``journal`` is
      given, and journal entries replayed instead of re-executed;
    - pool-level failure (:class:`PoolBrokenError`) degrading the rest of
      the grid to in-process serial execution with a loud warning;
    - stale shared-memory manifests swept before the pool starts, and this
      run's blocks guarded by manifest + atexit/SIGTERM hooks.
    """
    retry = retry or RetryPolicy()
    emit = progress or (lambda event: None)
    total = len(jobs)
    final: List[Optional[JobOutcome]] = [None] * total
    attempts = [0] * total

    sweep_stale_manifests(manifest_dir)
    manifest = ShmManifest(manifest_dir) if njobs > 1 else None

    # Trace digests are only needed for journal identity. Outcomes carry
    # the digest of the trace they ran on; only a resume must know them
    # before anything runs, to find the journal entries it replays.
    trace_digests: Dict[tuple, Optional[str]] = {}
    if journal is not None and journal.replay_count:
        for job in jobs:
            if job.trace_key not in trace_digests:
                trace_digests[job.trace_key] = _trace_digest_for(store, job)

    # Replay completed jobs from the journal before any execution.
    if journal is not None and journal.replay_count:
        for index, job in enumerate(jobs):
            entry = journal.lookup(job.digest(), trace_digests.get(job.trace_key))
            if entry is None:
                continue
            final[index] = JobOutcome(
                index,
                job,
                result=result_from_dict(entry["result"]),
                seconds=entry.get("seconds", 0.0),
                attempts=entry.get("attempts", 1),
                replayed=True,
            )
            obs.inc("journal.replayed")
            emit(JobEvent(JOB_REPLAYED, index, total, job))

    degraded = False

    def degrade(reason: str) -> None:
        nonlocal degraded
        degraded = True
        obs.inc("pool.degraded")
        logger.warning(
            "worker pool unhealthy (%s); degrading the remaining grid to "
            "in-process serial execution — slower, but the run completes",
            reason,
        )

    guard_context = _ShmGuard(manifest) if manifest is not None else None
    try:
        if guard_context is not None:
            guard_context.__enter__()
        rounds = 0
        while True:
            pending = [index for index in range(total) if final[index] is None]
            if not pending:
                break
            rounds += 1
            if rounds > retry.max_attempts + 2:  # belt over suspenders
                for index in pending:
                    final[index] = JobOutcome(
                        index, jobs[index], error="retry scheduling stuck; giving up"
                    )
                break

            mapping = list(pending)
            batch = [jobs[index] for index in pending]
            retry_queue: List[int] = []
            retrying = set()

            def remap_event(event: JobEvent) -> None:
                index = mapping[event.index]
                if event.kind == JOB_FAILED and index in retrying:
                    return  # already reported as a retry event by land()
                emit(dataclasses.replace(event, index=index, total=total))

            def land(outcome: JobOutcome) -> None:
                index = mapping[outcome.index]
                job = jobs[index]
                attempts[index] += 1
                outcome = dataclasses.replace(
                    outcome, index=index, attempts=attempts[index]
                )
                digest = None
                if journal is not None:
                    digest = outcome.trace_digest or trace_digests.get(job.trace_key)
                if outcome.ok:
                    final[index] = outcome
                    if journal is not None:
                        journal.record_outcome(outcome, digest)
                    return
                category = classify_failure(outcome.error)
                if category == TRANSIENT and attempts[index] < retry.max_attempts:
                    if journal is not None:
                        journal.record_attempt(outcome, digest, attempts[index])
                    if any(marker in outcome.error for marker in _INVALIDATE_MARKERS):
                        invalidate = getattr(store, "invalidate", None)
                        if invalidate is not None:
                            invalidate(job.workload, job.cap, optimize=job.optimize)
                    retry_queue.append(index)
                    retrying.add(index)
                    obs.inc("retry.scheduled")
                    emit(
                        JobEvent(
                            JOB_RETRY, index, total, job,
                            outcome.seconds, outcome.error, outcome.worker,
                        )
                    )
                    return
                if category == TRANSIENT and retry.max_attempts > 1:
                    obs.inc("jobs.quarantined")
                    outcome = dataclasses.replace(
                        outcome,
                        error=f"{outcome.error} "
                        f"[quarantined after {attempts[index]} attempts]",
                    )
                final[index] = outcome
                if journal is not None:
                    journal.record_outcome(outcome, digest)
                if fail_fast:
                    raise _FailFastAbort(outcome)

            effective_njobs = 1 if degraded else njobs
            worker_count = min(effective_njobs, len(batch))
            try:
                execute_jobs(
                    batch,
                    store,
                    njobs=effective_njobs,
                    result_cache=result_cache,
                    timeout=timeout,
                    progress=remap_event,
                    start_method=start_method,
                    on_outcome=land,
                    max_respawns=max(4, 2 * worker_count),
                    shm_manifest=manifest,
                    metrics=metrics,
                )
            except PoolBrokenError as error:
                degrade(str(error))
                continue
            except _FailFastAbort as abort:
                for index in range(total):
                    if final[index] is None:
                        final[index] = JobOutcome(
                            index,
                            jobs[index],
                            error="skipped: fail-fast abort after job "
                            f"{abort.outcome.job.short_digest} "
                            f"({abort.outcome.job.describe()}) failed",
                        )
                break

            if retry_queue:
                delay = max(
                    retry.delay(attempts[index], jobs[index].digest())
                    for index in retry_queue
                )
                if delay > 0:
                    with span("retry_backoff"):
                        sleep(delay)
    finally:
        if guard_context is not None:
            guard_context.__exit__(None, None, None)
        if manifest is not None:
            leaked = manifest.sweep_own()
            if leaked:
                logger.warning(
                    "reclaimed %d shared-memory block(s) at grid end: %s",
                    len(leaked),
                    ", ".join(leaked),
                )

    return [outcome for outcome in final if outcome is not None]
