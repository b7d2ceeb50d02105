"""Trace generation with caching.

Every experiment analyzes the same capped traces under different Paragraph
configurations (the paper likewise captured a Pixie trace once and reran
the analyzer). The store keeps one :class:`~repro.trace.columnar.ColumnarTrace`
per trace in memory for the process lifetime and optionally persists it to
disk in the binary trace format, from which it decodes straight back into
columns; the parallel engine shares that on-disk cache with its worker
processes so a multi-hundred-thousand-record trace is never pickled per
job.

Disk-cache integrity: trace files embed a format version and content
digest (see :mod:`repro.trace.io`). A stale, truncated, or corrupted
cache file raises :class:`~repro.trace.io.TraceFormatError` on read; the
store logs a warning and regenerates it from the workload — loud recovery
instead of silently analyzing corrupt records.

Table 2's full-run lengths persist beside the traces as
``<name>.fullrun.json`` sidecars, keyed by a digest of everything the count
depends on (:func:`full_run_key`); a missing, unreadable or mismatched
sidecar is re-simulated and rewritten, with the same loud warning.

Generation has one code path, :func:`generate`, run on a
:class:`Generation` task: in-process when the store itself misses, and on
the engine's worker processes when :func:`repro.engine.pool.execute_jobs`
plans a grid's missing traces (:meth:`TraceStore.plan`) and hands the
results back (:meth:`TraceStore.land`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs
from repro.obs.spans import span
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import (
    TraceFormatError,
    read_trace_digest,
    read_trace_file,
    write_trace_file,
)
from repro.workloads.suite import load_workload

logger = logging.getLogger(__name__)

#: The paper analyzed at most 100M instructions per benchmark; our default
#: budget scales that to pure-Python analysis speeds.
DEFAULT_CAP = 250_000

#: Instruction budget of an untraced full run (Table 2's "Total instrs"
#: column). A run that reaches it is truncated, not full, and raises
#: :class:`TruncatedRunError`. Read at call time, so tests can shrink it.
FULL_RUN_LIMIT = 20_000_000


class TruncatedRunError(RuntimeError):
    """A "full" run hit :data:`FULL_RUN_LIMIT` before the program ended."""


def full_run_key(workload) -> str:
    """sha256 over everything a full run's length depends on: the MiniC
    source, the frame model, the inputs and :data:`FULL_RUN_LIMIT`."""
    payload = json.dumps(
        {
            "source": workload.source(),
            "static_frames": workload.static_frames,
            "int_inputs": list(workload.int_inputs),
            "float_inputs": list(workload.float_inputs),
            "limit": FULL_RUN_LIMIT,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class Generation:
    """One workload's generation task: its first ``cap`` records (``None``:
    no trace) and/or its full-run length, plus where each result goes
    (``None``: kept in memory only). Both halves of one task share one
    compiled program."""

    workload: str
    cap: Optional[int] = None
    optimize: bool = False
    full_run: bool = False
    trace_path: Optional[str] = None
    full_run_path: Optional[str] = None


@dataclass
class Generated:
    """What a :class:`Generation` produced and what it cost: the written
    trace's digest, the full-run length, wall seconds with their
    ``compile``/``full_run``/``simulate``/``encode`` phases, and, when it
    ran on a pool worker, that worker's id and the task's queue wait. A
    failed task carries ``error``/``detail`` instead of results, and
    ``error_type``, the name of the exception a worker raised (``None``
    when the worker was killed or crashed); ``trace`` is the simulated
    trace itself and is set only in-process."""

    task: Generation
    digest: Optional[str] = None
    length: Optional[int] = None
    seconds: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    worker: Optional[int] = None
    queue_wait: float = 0.0
    error: Optional[str] = None
    error_type: Optional[str] = None
    detail: Optional[str] = None
    trace: Optional[ColumnarTrace] = None


def generate(task: Generation) -> Generated:
    """Run one generation task: compile, simulate the full run and write
    its sidecar, then simulate the traced prefix and write its PGT2 file.
    The full run goes first: a :class:`TruncatedRunError` then costs no
    trace write."""
    phases: Dict[str, float] = {}
    start = time.perf_counter()
    workload = load_workload(task.workload)
    length = trace = digest = None
    if task.full_run:
        with span("compile", phases=phases):
            workload.program()
        obs.inc("trace_store.full_run_simulate")
        with span("full_run", phases=phases):
            result, _ = workload.run(max_instructions=FULL_RUN_LIMIT, trace=False)
        if result.reason == "limit":
            raise TruncatedRunError(
                f"full run of {workload.name} reached the "
                f"{FULL_RUN_LIMIT}-instruction limit without ending; "
                "its length is unknown"
            )
        length = result.executed
        if task.full_run_path:
            _write_full_run(task.full_run_path, full_run_key(workload), workload.name, length)
    if task.cap is not None:
        with span("compile", phases=phases):
            workload.program(optimize=task.optimize)
        obs.inc("trace_store.generate")
        with span("simulate", phases=phases):
            trace = workload.trace(max_instructions=task.cap, optimize=task.optimize)
        if task.trace_path:
            with span("encode", phases=phases):
                digest = write_trace_file(task.trace_path, trace)
    return Generated(
        task,
        digest=digest,
        length=length,
        seconds=time.perf_counter() - start,
        phases=phases,
        trace=trace,
    )


class TraceStore:
    """Caches workload traces by (name, cap, optimized).

    ``generations`` lists every :class:`Generated` landed in this store
    (without its trace), in landing order; the engine drains it into the
    run's metrics export."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._memory: Dict[Tuple[str, int, bool], ColumnarTrace] = {}
        self._lengths: Dict[str, int] = {}
        self.generations: List[Generated] = []
        if directory:
            os.makedirs(directory, exist_ok=True)

    def persist_to(self, directory: str) -> None:
        """Attach (or switch) the on-disk cache directory. The engine calls
        this with a scratch directory when a parallel run needs disk-shared
        traces but the store was created memory-only."""
        os.makedirs(directory, exist_ok=True)
        self.directory = directory

    def _path(self, name: str, cap: int, optimize: bool = False) -> Optional[str]:
        if not self.directory:
            return None
        suffix = ".opt" if optimize else ""
        return os.path.join(self.directory, f"{name}.{cap}{suffix}.pgt")

    def trace(self, workload, cap: int = DEFAULT_CAP, optimize: bool = False) -> ColumnarTrace:
        """The first ``cap`` dynamic instructions of ``workload``, decoded
        from the on-disk ``.pgt`` file when one exists, else simulated
        (and written to disk when the store is disk-backed)."""
        if isinstance(workload, str):
            workload = load_workload(workload)
        key = (workload.name, cap, optimize)
        cached = self._memory.get(key)
        if cached is not None:
            obs.inc("trace_store.memory_hit")
            return cached
        path = self._path(workload.name, cap, optimize)
        trace = None
        if path and os.path.exists(path):
            try:
                with span("trace_decode"):
                    trace = read_trace_file(path)
            except TraceFormatError as error:
                logger.warning(
                    "stale trace cache %s (%s); regenerating", path, error
                )
                trace = None
            else:
                if len(trace) > cap:
                    logger.warning(
                        "trace cache %s holds %d records for cap %d; regenerating",
                        path, len(trace), cap,
                    )
                    trace = None
        if trace is None:
            return self._generate(
                Generation(workload.name, cap, optimize, trace_path=path)
            ).trace
        obs.inc("trace_store.disk_hit")
        self._memory[key] = trace
        return trace

    def _generate(self, task: Generation) -> Generated:
        """Run ``task`` in this process and land its results."""
        done = generate(task)
        self.land(done)
        return done

    def land(self, done: Generated) -> None:
        """Record a finished (or failed) generation: its full-run length
        and, when it ran in-process, its trace join the memory caches;
        it is appended to :attr:`generations` either way."""
        task = done.task
        if done.length is not None:
            self._lengths[task.workload] = done.length
        if done.trace is not None:
            self._memory[(task.workload, task.cap, task.optimize)] = done.trace
            done = dataclasses.replace(done, trace=None)
        self.generations.append(done)

    def lookup(self, workload, cap: int, optimize: bool = False) -> Optional[Tuple[str, str]]:
        """``(path, digest)`` of a trace that is at hand without simulating:
        in memory (spilled to disk when the file is missing or differs) or
        on disk with a readable header. ``None`` when it must be generated;
        a stale file is logged on the way."""
        if not self.directory:
            raise ValueError("lookup requires a disk-backed TraceStore")
        name = workload if isinstance(workload, str) else workload.name
        path = self._path(name, cap, optimize)
        cached = self._memory.get((name, cap, optimize))
        on_disk = None
        if os.path.exists(path):
            try:
                on_disk = read_trace_digest(path)
            except TraceFormatError as error:
                if cached is None:
                    logger.warning(
                        "stale trace cache %s (%s); regenerating", path, error
                    )
        if cached is None:
            return None if on_disk is None else (path, on_disk)
        digest = cached.digest()
        if on_disk != digest:
            write_trace_file(path, cached)
        return path, digest

    def plan(self, request: Generation) -> Tuple[Optional[Tuple[str, str]], Optional[Generation]]:
        """Split a request (a :class:`Generation` without paths) into the
        part at hand and the part to generate: returns the trace's
        ``(path, digest)`` when it is ready (else ``None``) and the
        :class:`Generation` that makes the rest ready, paths filled in
        (``None`` when nothing is missing). Reads trace headers and
        full-run sidecars only; an unknown workload raises here."""
        name = request.workload
        ready = None
        cap = None
        if request.cap is not None:
            ready = self.lookup(name, request.cap, request.optimize)
            if ready is None:
                cap = request.cap
        full_run = request.full_run and self.full_run_lookup(name) is None
        if cap is None and not full_run:
            return ready, None
        load_workload(name)  # an unknown name fails its jobs before any pool
        return ready, Generation(
            name,
            cap,
            request.optimize,
            full_run,
            trace_path=self._path(name, cap, request.optimize) if cap is not None else None,
            full_run_path=self._full_run_path(name) if full_run else None,
        )

    def ensure_on_disk(
        self, workload, cap: int = DEFAULT_CAP, optimize: bool = False
    ) -> Tuple[str, str]:
        """Materialize a trace in the disk cache; returns ``(path, digest)``.

        Used by the parallel engine: workers receive the path and load the
        trace themselves, and the digest keys the result cache. When the
        file already exists and is wanted cold (not yet in memory), only
        its header is read — the digest comes for free without touching
        the record stream.
        """
        if not self.directory:
            raise ValueError("ensure_on_disk requires a disk-backed TraceStore")
        if isinstance(workload, str):
            workload = load_workload(workload)
        ready = self.lookup(workload.name, cap, optimize)
        if ready is not None:
            return ready
        trace = self.trace(workload, cap, optimize)
        return self._path(workload.name, cap, optimize), trace.digest()

    def invalidate(self, workload, cap: int = DEFAULT_CAP, optimize: bool = False) -> bool:
        """Drop every cached form of one trace — the in-memory columns and
        the on-disk ``.pgt`` file — so the next request
        regenerates it from the workload. The resilience layer calls this
        before retrying a job that failed on a truncated or corrupted
        cached trace; returns ``True`` when anything was actually
        dropped."""
        name = workload if isinstance(workload, str) else workload.name
        key = (name, cap, optimize)
        dropped = self._memory.pop(key, None) is not None
        path = self._path(name, cap, optimize)
        if path and os.path.exists(path):
            try:
                os.remove(path)
                dropped = True
                logger.warning("invalidated cached trace %s", path)
            except OSError:
                pass
        return dropped

    def full_run_length(self, workload) -> int:
        """Dynamic instruction count of the complete (untraced) run — the
        paper's "Total Instructions in Trace" column. A disk-backed store
        reads it from the workload's ``.fullrun.json`` sidecar when its
        key matches, and otherwise simulates and writes the sidecar; a
        memory-only store simulates once per process."""
        name = workload if isinstance(workload, str) else workload.name
        length = self.full_run_lookup(name)
        if length is None:
            length = self._generate(
                Generation(name, full_run=True, full_run_path=self._full_run_path(name))
            ).length
        return length

    def _full_run_path(self, name: str) -> Optional[str]:
        if not self.directory:
            return None
        return os.path.join(self.directory, f"{name}.fullrun.json")

    def full_run_lookup(self, workload) -> Optional[int]:
        """The full-run length when it is at hand without simulating — in
        memory, or in a sidecar whose key matches (read once, then kept in
        memory); ``None`` otherwise."""
        name = workload if isinstance(workload, str) else workload.name
        length = self._lengths.get(name)
        if length is not None:
            return length
        path = self._full_run_path(name)
        if path is None or not os.path.exists(path):
            return None
        length = _read_full_run(path, full_run_key(load_workload(name)))
        if length is not None:
            obs.inc("trace_store.full_run_hit")
            self._lengths[name] = length
        return length


def _read_full_run(path: str, key: str) -> Optional[int]:
    """The length a sidecar holds, or ``None`` when there is none; an
    unreadable or stale one is logged and also reads as ``None``."""
    try:
        with open(path, "r") as handle:
            entry = json.load(handle)
        if entry["key"] != key:
            raise ValueError("key mismatch")
        length = entry["executed"]
        if type(length) is not int or length < 1:
            raise ValueError(f"bad length {length!r}")
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as error:
        logger.warning("stale full-run sidecar %s (%s); re-simulating", path, error)
        return None
    return length


def _write_full_run(path: str, key: str, name: str, length: int) -> None:
    """Write a sidecar atomically (temp file, then ``os.replace``)."""
    handle = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(path), prefix=".tmp-", suffix=".json", delete=False
    )
    try:
        with handle:
            json.dump({"key": key, "workload": name, "executed": length}, handle)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.remove(handle.name)
        except OSError:
            pass
        raise


#: Shared default store (in-memory only).
DEFAULT_STORE = TraceStore()


def workload_trace(name: str, cap: int = DEFAULT_CAP) -> ColumnarTrace:
    """Convenience accessor against the default store."""
    return DEFAULT_STORE.trace(name, cap)
