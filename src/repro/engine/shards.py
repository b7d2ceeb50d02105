"""Sharded analysis of trace files across the engine's worker pool.

This is the glue between :mod:`repro.core.stream` (frontier/summary/splice
semantics) and :mod:`repro.engine.pool` (process fan-out, caching,
journaled resume). The shape:

1. :func:`repro.trace.chunked.segment_manifest` splits the file into
   window-aligned segments, each with a byte extent and a standalone
   content digest.
2. One ``method="segment"`` :class:`AnalysisJob` per segment runs in the
   pool, loading *only its own byte extent* through a ``("slice", ...)``
   trace reference and returning a
   :class:`~repro.core.stream.SegmentSummary`. Summaries ride the same
   serialization, result-cache, and run-journal machinery as whole
   results — a crash mid-shard resumes at segment granularity for free.
3. A sequential stitch pass replays each segment's short syscall prefix
   in-process and :func:`~repro.core.stream.splice`\\ s the summary on,
   producing a result identical to whole-trace analysis.

Configurations that cannot be spliced (optimistic syscalls, branch
predictors, constrained resources, lifetimes — see
:func:`~repro.core.stream.splice_eligible`), and traces whose segments
lack syscalls, fall back to exact sequential streaming. Either way the
peak resident set is bounded by segment size, never trace size.

The :class:`ShardTraceStore` speaks the trace-store protocol the pool
expects (``trace`` / ``ensure_on_disk`` / ``trace_ref``), but every
"workload" is one segment of one file, so cache keys and journal entries
for different segments never collide: the workload name embeds the trace
digest and segment index, and the per-segment digest stands in for the
whole-trace digest.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.core.config import AnalysisConfig
from repro.core.results import AnalysisResult
from repro.core.stream import (
    align_shard_size,
    advance,
    finalize,
    new_frontier,
    splice,
    splice_eligible,
    stream_analyze_file,
)
from repro.engine.jobs import AnalysisJob
from repro.engine.pool import JobFailedError
from repro.trace.chunked import (
    DEFAULT_SHARD_RECORDS,
    TraceManifest,
    decode_prefix,
    decode_segment,
    segment_manifest,
)


def shard_workload_name(trace_digest: str, index: int) -> str:
    """The synthetic workload name identifying one segment in cache keys,
    journals, and progress lines."""
    return f"shard-{trace_digest[:16]}-{index:05d}"


class ShardTraceStore:
    """A trace store whose workloads are the segments of one trace file.

    The pool treats stores as opaque trace suppliers; this one maps the
    synthetic per-segment workload names back to manifest entries and
    serves each segment from its byte extent. ``trace_ref`` (consulted by
    :func:`~repro.engine.pool.execute_jobs`) hands workers a ``"slice"``
    reference — path, offset, length, count, digest — so a worker reads
    and digest-verifies exactly one segment, never the whole file.
    """

    def __init__(self, path, manifest: TraceManifest):
        self.path = os.path.abspath(os.fspath(path))
        self.manifest = manifest
        # The pool requires a disk-backed store for parallel runs; the
        # trace file's own directory is it (nothing is ever written there).
        self.directory = os.path.dirname(self.path)
        self._names = {
            shard_workload_name(manifest.trace_digest, entry.index): entry.index
            for entry in manifest.entries
        }

    def _entry(self, workload: str, cap: int):
        index = self._names.get(workload)
        if index is None:
            raise KeyError(f"unknown workload {workload!r}")
        entry = self.manifest.entries[index]
        if cap != entry.count:
            raise ValueError(
                f"segment {index} holds {entry.count} records, job capped {cap}"
            )
        return entry

    def trace(self, workload: str, cap: int, optimize: bool = False):
        entry = self._entry(workload, cap)
        return decode_segment(self.path, self.manifest, entry.index)

    def ensure_on_disk(self, workload: str, cap: int, optimize: bool = False):
        """``(path, digest)`` for the job's input: the shared trace file
        plus the *segment's* standalone digest (the identity that keys
        caches and journals — two segments of one file must not collide)."""
        entry = self._entry(workload, cap)
        return self.path, entry.digest

    def trace_ref(
        self, workload: str, cap: int, optimize: bool = False
    ) -> Tuple[str, str]:
        """The worker-side loading instruction: decode one byte extent."""
        entry = self._entry(workload, cap)
        spec = {
            "path": self.path,
            "offset": entry.offset,
            "length": entry.length,
            "count": entry.count,
            "digest": entry.digest,
            "segments": {
                "data_base": self.manifest.segments.data_base,
                "stack_floor": self.manifest.segments.stack_floor,
                "stack_top": self.manifest.segments.stack_top,
            },
        }
        return ("slice", json.dumps(spec, sort_keys=True))

    def invalidate(self, workload: str, cap: int, optimize: bool = False) -> bool:
        """A corrupt segment cannot be regenerated — the trace file is the
        caller's source artifact, not a cache — so decode failures are
        permanent here."""
        return False


def shard_grid(manifest: TraceManifest, config: AnalysisConfig) -> List[AnalysisJob]:
    """The pass-1 job grid: one ``method="segment"`` job per segment that
    has a syscall to cut at *and* records after it (a segment whose only
    records are its prefix has an empty suffix — nothing to summarize)."""
    return [
        AnalysisJob(
            workload=shard_workload_name(manifest.trace_digest, entry.index),
            cap=entry.count,
            config=config,
            method="segment",
        )
        for entry in manifest.entries
        if entry.first_syscall >= 0 and entry.prefix_count < entry.count
    ]


def shard_analyze_file(
    path,
    config: Optional[AnalysisConfig] = None,
    shard_size: Optional[int] = None,
    engine=None,
) -> AnalysisResult:
    """Analyze a PGT2 trace file with bounded memory, in parallel when
    possible.

    With an ``engine`` running more than one worker and a splice-eligible
    ``config``, segment suffixes are summarized across the pool and
    stitched in submission order; otherwise the file streams sequentially
    through one frontier (:func:`~repro.core.stream.stream_analyze_file`).
    Both paths produce results identical to whole-trace analysis.
    """
    if config is None:
        config = AnalysisConfig()
    size = align_shard_size(
        config, shard_size if shard_size is not None else DEFAULT_SHARD_RECORDS
    )
    if engine is None or engine.jobs <= 1 or not splice_eligible(config):
        return stream_analyze_file(path, config, chunk_records=size)

    manifest = segment_manifest(path, size)
    grid = shard_grid(manifest, config)
    if len(manifest.entries) <= 1 or not grid:
        return stream_analyze_file(path, config, chunk_records=size)

    store = ShardTraceStore(path, manifest)
    outcomes = engine.run_grid_with_store(grid, store)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise JobFailedError(failures)
    summaries = {
        outcome.job.workload: outcome.result for outcome in outcomes
    }

    fr = new_frontier(config, manifest.segments)
    for entry in manifest.entries:
        name = shard_workload_name(manifest.trace_digest, entry.index)
        summary = summaries.get(name)
        if summary is not None:
            prefix = decode_prefix(path, manifest, entry.index)
            advance(fr, prefix, 0, entry.prefix_count)
            splice(fr, summary)
        else:
            segment = decode_segment(path, manifest, entry.index)
            advance(fr, segment, 0, entry.count)
    return finalize(fr)
