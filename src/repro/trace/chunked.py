"""Bounded-memory PGT2 access: segment manifests and chunked decode.

The whole-trace readers in :mod:`repro.trace.io` gulp the entire record
stream into memory, which is fine at the default ~100k-record experiment
cap and hopeless at the paper's 100M-instruction scale. This module breaks
that assumption without touching the file format:

- :func:`build_manifest` walks a trace file once (through ``mmap``, so the
  OS pages the file in and out behind a fixed-size window) and splits it
  into segments of ``shard_size`` records. Each segment entry records its
  byte extent, its record count, the index of its first system call, and a
  *per-segment content digest* — the same seeded sha256 the PGT2 header
  would carry if that segment were written as a standalone trace file. A
  segment handed to a worker process is therefore verifiable in isolation,
  and the digest doubles as the segment's identity in result caches and
  run journals.
- :func:`decode_slice` / :func:`decode_segment` decode one segment's byte
  extent into a :class:`~repro.trace.columnar.ColumnarTrace` without
  touching the rest of the file.
- :func:`iter_chunks` streams a trace as a sequence of columnar chunks,
  holding one chunk in memory at a time and verifying the header digest
  incrementally as the bytes flow past.

Manifests are cached in a JSON sidecar next to the trace file, keyed by
the trace's header digest: a rewritten trace invalidates its sidecar
automatically, and rebuilding is always safe (the manifest is a pure
function of the file).
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.isa.opclasses import OpClass
from repro.trace import io as _io
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import (
    _HEADER,
    _digest_hasher,
    TraceFormatError,
    read_header,
    scan_columns,
    scan_columns_fast,
)
from repro.trace.segments import SegmentMap

_SYSCALL = int(OpClass.SYSCALL)
_HEAD_SIZE = 8  # struct "<BBBBi": opclass, flags, nsrcs, ndests, aux

#: Bump when the sidecar layout changes; old sidecars become rebuild misses.
MANIFEST_SCHEMA = 1

#: Default segment size in records. Large enough that per-segment overhead
#: (process dispatch, digest, frontier stitch) amortizes to nothing, small
#: enough that a decoded segment is tens of MB, not the whole trace.
DEFAULT_SHARD_RECORDS = 1 << 20


@dataclass(frozen=True)
class SegmentInfo:
    """One segment of a trace file, addressable and verifiable on its own.

    Attributes:
        index: segment position in the manifest.
        start: absolute record index of the segment's first record.
        count: records in the segment.
        offset: absolute byte offset of the segment's first record.
        length: byte length of the segment's record stream.
        digest: seeded sha256 of the segment as a standalone trace
            (segment map + ``count`` + record bytes), hex-encoded.
        first_syscall: absolute record index of the first SYSCALL in the
            segment, or ``-1`` when the segment has none.
        prefix_count: records up to and including the first syscall
            (``0`` when the segment has none).
        prefix_length: byte length of those ``prefix_count`` records.
    """

    index: int
    start: int
    count: int
    offset: int
    length: int
    digest: str
    first_syscall: int
    prefix_count: int
    prefix_length: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "count": self.count,
            "offset": self.offset,
            "length": self.length,
            "digest": self.digest,
            "first_syscall": self.first_syscall,
            "prefix_count": self.prefix_count,
            "prefix_length": self.prefix_length,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentInfo":
        return cls(
            index=int(data["index"]),
            start=int(data["start"]),
            count=int(data["count"]),
            offset=int(data["offset"]),
            length=int(data["length"]),
            digest=str(data["digest"]),
            first_syscall=int(data["first_syscall"]),
            prefix_count=int(data["prefix_count"]),
            prefix_length=int(data["prefix_length"]),
        )


@dataclass(frozen=True)
class TraceManifest:
    """A trace file's shard map: its identity plus per-segment extents."""

    trace_digest: str
    count: int
    shard_size: int
    segments: SegmentMap
    entries: Tuple[SegmentInfo, ...]

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "trace_digest": self.trace_digest,
            "count": self.count,
            "shard_size": self.shard_size,
            "segments": {
                "data_base": self.segments.data_base,
                "stack_floor": self.segments.stack_floor,
                "stack_top": self.segments.stack_top,
            },
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceManifest":
        if data.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"manifest schema {data.get('schema')!r}")
        seg = data["segments"]
        return cls(
            trace_digest=str(data["trace_digest"]),
            count=int(data["count"]),
            shard_size=int(data["shard_size"]),
            segments=SegmentMap(
                data_base=int(seg["data_base"]),
                stack_floor=int(seg["stack_floor"]),
                stack_top=int(seg["stack_top"]),
            ),
            entries=tuple(SegmentInfo.from_dict(e) for e in data["entries"]),
        )


def manifest_path(path, shard_size: int) -> str:
    """The sidecar path caching ``path``'s manifest at ``shard_size``."""
    return f"{os.fspath(path)}.shard{shard_size}.manifest.json"


def _walk_segments(
    payload, count: int, shard_size: int, segments: SegmentMap
) -> List[SegmentInfo]:
    """One pass over the packed record stream: segment extents, first
    syscalls, and per-segment digests. Raises on truncation or trailing
    bytes (same contract as :func:`repro.trace.io.scan_columns`)."""
    entries: List[SegmentInfo] = []
    size = len(payload)
    offset = 0
    start = 0
    while start < count:
        seg_count = min(shard_size, count - start)
        seg_offset = offset
        first_syscall = -1
        prefix_count = 0
        prefix_length = 0
        for position in range(seg_count):
            head = offset
            if head + _HEAD_SIZE > size:
                raise TraceFormatError("truncated record header")
            offset = head + _HEAD_SIZE + 4 * (payload[head + 2] + payload[head + 3])
            if offset > size:
                raise TraceFormatError("truncated record body")
            if first_syscall < 0 and payload[head] == _SYSCALL:
                first_syscall = start + position
                prefix_count = position + 1
                prefix_length = offset - seg_offset
        hasher = _digest_hasher(segments, seg_count)
        hasher.update(payload[seg_offset:offset])
        entries.append(
            SegmentInfo(
                index=len(entries),
                start=start,
                count=seg_count,
                offset=_HEADER.size + seg_offset,
                length=offset - seg_offset,
                digest=hasher.hexdigest(),
                first_syscall=first_syscall,
                prefix_count=prefix_count,
                prefix_length=prefix_length,
            )
        )
        start += seg_count
    if offset != size:
        raise TraceFormatError(
            f"record stream holds {size - offset} trailing bytes after {count} records"
        )
    return entries


def build_manifest(path, shard_size: int = DEFAULT_SHARD_RECORDS) -> TraceManifest:
    """Walk ``path`` once and return its manifest at ``shard_size`` records
    per segment, verifying the header content digest along the way."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    with open(path, "rb") as stream:
        segments, count, digest = read_header(stream)
        file_size = os.fstat(stream.fileno()).st_size
        if file_size == _HEADER.size:
            entries = _walk_segments(b"", count, shard_size, segments)
        else:
            with mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                view = memoryview(mapped)
                payload = view[_HEADER.size :]
                try:
                    hasher = _digest_hasher(segments, count)
                    hasher.update(payload)
                    if hasher.hexdigest() != digest:
                        raise TraceFormatError(
                            f"trace digest mismatch in {path}: file is stale or corrupted"
                        )
                    entries = _walk_segments(payload, count, shard_size, segments)
                finally:
                    payload.release()
                    view.release()
    return TraceManifest(
        trace_digest=digest,
        count=count,
        shard_size=shard_size,
        segments=segments,
        entries=tuple(entries),
    )


def load_manifest(path, shard_size: int) -> Optional[TraceManifest]:
    """The cached sidecar manifest for ``path`` at ``shard_size``, or
    ``None`` when absent, unreadable, schema-mismatched, or stale (its
    recorded digest disagrees with the trace header)."""
    sidecar = manifest_path(path, shard_size)
    try:
        with open(sidecar, "r") as handle:
            manifest = TraceManifest.from_dict(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if manifest.shard_size != shard_size:
        return None
    try:
        with open(path, "rb") as stream:
            _, _, digest = read_header(stream)
    except (OSError, TraceFormatError):
        return None
    if manifest.trace_digest != digest:
        return None
    return manifest


def segment_manifest(
    path, shard_size: int = DEFAULT_SHARD_RECORDS, cache: bool = True
) -> TraceManifest:
    """The manifest for ``path`` at ``shard_size``: from the sidecar when
    fresh, else rebuilt (and re-cached, best-effort — a read-only trace
    directory just pays the walk again next time)."""
    if cache:
        manifest = load_manifest(path, shard_size)
        if manifest is not None:
            return manifest
    manifest = build_manifest(path, shard_size)
    if cache:
        try:
            with open(manifest_path(path, shard_size), "w") as handle:
                json.dump(manifest.to_dict(), handle, separators=(",", ":"))
        except OSError:
            pass
    return manifest


def decode_slice(
    path,
    offset: int,
    length: int,
    count: int,
    segments: SegmentMap,
    digest: Optional[str] = None,
) -> ColumnarTrace:
    """Decode ``count`` records from ``length`` bytes at absolute file
    ``offset`` into a :class:`ColumnarTrace`, verifying ``digest`` (the
    segment's standalone content digest) when given. This is the worker
    side of a shard job: it reads exactly one segment's bytes."""
    with open(path, "rb") as stream:
        stream.seek(offset)
        payload = stream.read(length)
    if len(payload) != length:
        raise TraceFormatError(
            f"segment at {offset} truncated: wanted {length} bytes, got {len(payload)}"
        )
    if digest is not None:
        hasher = _digest_hasher(segments, count)
        hasher.update(payload)
        if hasher.hexdigest() != digest:
            raise TraceFormatError(
                f"segment digest mismatch at {offset} in {path}: "
                "file is stale or corrupted"
            )
    columns = scan_columns_fast(payload, count)
    return ColumnarTrace(*columns, segments, digest=digest)


def decode_segment(path, manifest: TraceManifest, index: int) -> ColumnarTrace:
    """Decode (and digest-verify) segment ``index`` of ``manifest``."""
    entry = manifest.entries[index]
    return decode_slice(
        path,
        entry.offset,
        entry.length,
        entry.count,
        manifest.segments,
        digest=entry.digest,
    )


def decode_prefix(path, manifest: TraceManifest, index: int) -> ColumnarTrace:
    """Decode segment ``index``'s records up to and including its first
    system call (the part the stitch pass replays in-process). The slice
    has no standalone digest — it is covered transitively by the segment
    digest its worker verifies — so decode errors surface as format
    errors, not digest mismatches."""
    entry = manifest.entries[index]
    if entry.prefix_count == 0:
        raise ValueError(f"segment {index} has no syscall prefix")
    return decode_slice(
        path,
        entry.offset,
        entry.prefix_length,
        entry.prefix_count,
        manifest.segments,
    )


def iter_chunks(
    path, chunk_records: int = DEFAULT_SHARD_RECORDS
) -> Iterator[ColumnarTrace]:
    """Stream ``path`` as columnar chunks of at most ``chunk_records``
    records, one resident at a time.

    The header digest is verified incrementally: every payload byte is fed
    to the seeded hasher as its chunk is read, and the final chunk's yield
    only happens once the whole stream has matched the header. (A mismatch
    raises :class:`TraceFormatError` before any trailing chunk is
    surfaced, mirroring the whole-file readers' fail-loudly contract.)
    """
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    from repro.obs import metrics as obs

    with open(path, "rb") as stream:
        segments, count, digest = read_header(stream)
        hasher = _digest_hasher(segments, count)
        file_size = os.fstat(stream.fileno()).st_size
        if file_size == _HEADER.size:
            if count != 0:
                raise TraceFormatError("truncated record stream")
            if hasher.hexdigest() != digest:
                raise TraceFormatError(
                    f"trace digest mismatch in {path}: file is stale or corrupted"
                )
            return
        with mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            view = memoryview(mapped)
            payload = view[_HEADER.size :]
            try:
                size = len(payload)
                offset = 0
                start = 0
                while start < count:
                    chunk_count = min(chunk_records, count - start)
                    chunk_offset = offset
                    # Record heads (chunk-relative) collected during the
                    # boundary walk feed the vectorized column gather below,
                    # so numpy decode costs no second walk.
                    heads = [0] * (chunk_count + 1)
                    for position in range(chunk_count):
                        head = offset
                        if head + _HEAD_SIZE > size:
                            raise TraceFormatError("truncated record header")
                        heads[position] = head - chunk_offset
                        offset = head + _HEAD_SIZE + 4 * (
                            payload[head + 2] + payload[head + 3]
                        )
                        if offset > size:
                            raise TraceFormatError("truncated record body")
                    heads[chunk_count] = offset - chunk_offset
                    chunk_view = payload[chunk_offset:offset]
                    try:
                        hasher.update(chunk_view)
                        start += chunk_count
                        if start == count:
                            if offset != size:
                                raise TraceFormatError(
                                    f"record stream holds {size - offset} trailing "
                                    f"bytes after {count} records"
                                )
                            if hasher.hexdigest() != digest:
                                raise TraceFormatError(
                                    f"trace digest mismatch in {path}: "
                                    "file is stale or corrupted"
                                )
                        obs.inc("trace_stream.chunks")
                        if _io._numpy() is not None:
                            columns = _io.gather_columns(chunk_view, heads, chunk_count)
                        else:
                            columns = scan_columns(bytes(chunk_view), chunk_count)
                    finally:
                        chunk_view.release()
                    yield ColumnarTrace(*columns, segments)
            finally:
                payload.release()
                view.release()
