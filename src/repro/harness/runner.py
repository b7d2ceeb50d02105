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
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from typing import Dict, Optional, Tuple

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


class TraceStore:
    """Caches workload traces by (name, cap, optimized)."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._memory: Dict[Tuple[str, int, bool], ColumnarTrace] = {}
        self._lengths: Dict[str, int] = {}
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
            obs.inc("trace_store.generate")
            with span("trace_generate"):
                trace = workload.trace(max_instructions=cap, optimize=optimize)
            if path:
                write_trace_file(path, trace)
        else:
            obs.inc("trace_store.disk_hit")
        self._memory[key] = trace
        return trace

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
        path = self._path(workload.name, cap, optimize)
        key = (workload.name, cap, optimize)
        cached = self._memory.get(key)
        if cached is not None:
            digest = cached.digest()
            on_disk = None
            if os.path.exists(path):
                try:
                    on_disk = read_trace_digest(path)
                except TraceFormatError:
                    on_disk = None
            if on_disk != digest:
                write_trace_file(path, cached)
            return path, digest
        if os.path.exists(path):
            try:
                return path, read_trace_digest(path)
            except TraceFormatError as error:
                logger.warning(
                    "stale trace cache %s (%s); regenerating", path, error
                )
        trace = self.trace(workload, cap, optimize)
        return path, trace.digest()

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
        if isinstance(workload, str):
            workload = load_workload(workload)
        cached = self._lengths.get(workload.name)
        if cached is not None:
            return cached
        path = key = length = None
        if self.directory:
            path = os.path.join(self.directory, f"{workload.name}.fullrun.json")
            key = full_run_key(workload)
            length = _read_full_run(path, key)
        if length is None:
            obs.inc("trace_store.full_run_simulate")
            result, _ = workload.run(max_instructions=FULL_RUN_LIMIT, trace=False)
            if result.reason == "limit":
                raise TruncatedRunError(
                    f"full run of {workload.name} reached the "
                    f"{FULL_RUN_LIMIT}-instruction limit without ending; "
                    "its length is unknown"
                )
            length = result.executed
            if path:
                _write_full_run(path, key, workload.name, length)
        else:
            obs.inc("trace_store.full_run_hit")
        self._lengths[workload.name] = length
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
