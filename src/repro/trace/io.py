"""Binary trace file format (PGT2): streaming writer, columnar reader.

The paper's Pixie traces were produced once and analyzed many times under
different Paragraph configurations; this module plays the same role. Because
cached trace files feed every experiment (and, since the parallel engine,
every worker process), the format carries a content digest: a stale,
truncated, or corrupted cache file fails loudly at read time instead of
silently skewing results.

Header (little-endian)::

    magic   4 bytes  b"PGT2"
    u32     format version (currently 2)
    u32     data_base (words)
    u32     stack_floor (words)
    u32     stack_top (words)
    u64     record count
    32 B    sha256 digest of (segments, count, record stream)

Each record::

    u8   opclass
    u8   flags
    u8   nsrcs
    u8   ndests
    i32  aux
    u32  * nsrcs   source locations
    u32  * ndests  destination locations

The digest covers the packed segment fields, the record count, and every
record byte — the full logical content of the trace — so
:meth:`repro.trace.columnar.ColumnarTrace.digest` (computed in memory) and
the header digest of a written file always agree.

Reading decodes the whole packed record stream straight into the columns
of a :class:`~repro.trace.columnar.ColumnarTrace` (vectorized with NumPy,
a python scan without); no per-record tuples are built.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import BinaryIO, Iterable, Tuple

from repro.trace.record import TraceRecord
from repro.trace.segments import SegmentMap

try:  # Optional extra: decode falls back to the pure-python scan without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

MAGIC = b"PGT2"
#: Magic of the pre-digest format, recognized only to give a clear error.
LEGACY_MAGIC = b"PGT1"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIIIIQ32s")
_DIGEST_SEED = struct.Struct("<IIIQ")
_REC_HEAD = struct.Struct("<BBBBi")


class TraceFormatError(Exception):
    """Raised when a trace file is malformed, truncated, or corrupted."""


def _digest_hasher(segments: SegmentMap, count: int) -> "hashlib._Hash":
    """A sha256 hasher seeded with the segment map and record count."""
    hasher = hashlib.sha256()
    hasher.update(
        _DIGEST_SEED.pack(
            segments.data_base, segments.stack_floor, segments.stack_top, count
        )
    )
    return hasher


def _pack_record(record: TraceRecord) -> bytes:
    opclass, srcs, dests, flags, aux = record
    nsrcs = len(srcs)
    ndests = len(dests)
    head = _REC_HEAD.pack(opclass, flags, nsrcs, ndests, aux)
    if nsrcs + ndests:
        return head + struct.pack(f"<{nsrcs + ndests}I", *srcs, *dests)
    return head


def digest_records(segments: SegmentMap, count: int, records: Iterable[TraceRecord]) -> str:
    """Content digest over a record iterable: identical to the digest
    embedded in the header when the same records are written to disk."""
    hasher = _digest_hasher(segments, count)
    for record in records:
        hasher.update(_pack_record(record))
    return hasher.hexdigest()


def write_trace(
    stream: BinaryIO,
    records: Iterable[TraceRecord],
    segments: SegmentMap,
    count: int,
) -> str:
    """Write a trace to a seekable stream; returns the content digest.

    ``count`` must equal the number of records. The header is written first
    with a zero digest and patched once the record stream (and therefore the
    digest) is complete, so records are never buffered in memory.
    """
    header_pos = stream.tell()
    stream.write(
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            segments.data_base,
            segments.stack_floor,
            segments.stack_top,
            count,
            b"\x00" * 32,
        )
    )
    hasher = _digest_hasher(segments, count)
    written = 0
    for record in records:
        packed = _pack_record(record)
        hasher.update(packed)
        stream.write(packed)
        written += 1
    if written != count:
        raise TraceFormatError(f"record count mismatch: promised {count}, wrote {written}")
    digest = hasher.digest()
    end = stream.tell()
    stream.seek(header_pos)
    stream.write(
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            segments.data_base,
            segments.stack_floor,
            segments.stack_top,
            count,
            digest,
        )
    )
    stream.seek(end)
    return digest.hex()


def write_trace_file(path, trace) -> str:
    """Write an in-memory trace (a
    :class:`~repro.trace.columnar.ColumnarTrace`) to ``path``, packing
    from its records; returns its digest."""
    with open(path, "wb") as stream:
        return write_trace(stream, trace, trace.segments, len(trace))


def read_header(stream: BinaryIO) -> Tuple[SegmentMap, int, str]:
    """Read and validate the header; returns ``(segments, count, digest)``."""
    raw = stream.read(_HEADER.size)
    if len(raw) < len(MAGIC):
        raise TraceFormatError("truncated header")
    if raw[:4] == LEGACY_MAGIC:
        raise TraceFormatError(
            "legacy PGT1 trace file (no content digest); regenerate the "
            "trace cache with this version"
        )
    if len(raw) != _HEADER.size:
        raise TraceFormatError("truncated header")
    magic, version, data_base, stack_floor, stack_top, count, digest = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic: {magic!r}")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version} (expected {FORMAT_VERSION})"
        )
    segments = SegmentMap(
        data_base=data_base, stack_floor=stack_floor, stack_top=stack_top
    )
    return segments, count, digest.hex()


def read_trace_digest(path) -> str:
    """The content digest recorded in a trace file's header (header-only
    read: the engine uses this to key result caches without loading
    hundreds of thousands of records)."""
    with open(path, "rb") as stream:
        _, _, digest = read_header(stream)
    return digest


def read_trace_payload(path) -> Tuple[SegmentMap, int, str, bytes]:
    """Read a trace file's header plus its raw packed record stream in one
    gulp, verifying the content digest.

    The digest covers the concatenated record bytes, so hashing the whole
    payload at once is equivalent to the per-record updates of
    :func:`write_trace` — and much faster. :func:`read_trace_file` then
    parses the packed stream without building per-record tuples.
    """
    with open(path, "rb") as stream:
        segments, count, digest = read_header(stream)
        payload = stream.read()
    hasher = _digest_hasher(segments, count)
    hasher.update(payload)
    if hasher.hexdigest() != digest:
        raise TraceFormatError(
            f"trace digest mismatch in {path}: file is stale or corrupted"
        )
    return segments, count, digest, payload


def scan_columns(payload: bytes, count: int):
    """Parse a packed record stream into flat columns.

    Returns ``(opclass, flags, aux, src_offsets, src_values, dest_offsets,
    dest_values)``, all ``array('q')``; the offset arrays are CSR-style with
    ``count + 1`` entries. Raises :class:`TraceFormatError` on truncation or
    trailing bytes (a digest-verified payload can still disagree with a
    tampered header count).
    """
    unpack_head = _REC_HEAD.unpack_from
    head_size = _REC_HEAD.size
    unpack_from = struct.unpack_from
    opclass = array("q", bytes(8 * count))
    flags = array("q", bytes(8 * count))
    aux = array("q", bytes(8 * count))
    src_offsets = array("q", bytes(8 * (count + 1)))
    dest_offsets = array("q", bytes(8 * (count + 1)))
    src_values = array("q")
    dest_values = array("q")
    src_append = src_values.append
    dest_append = dest_values.append
    size = len(payload)
    offset = 0
    try:
        for index in range(count):
            klass, flag, nsrcs, ndests, auxval = unpack_head(payload, offset)
            offset += head_size
            opclass[index] = klass
            flags[index] = flag
            aux[index] = auxval
            if nsrcs + ndests:
                locs = unpack_from(f"<{nsrcs + ndests}I", payload, offset)
                offset += 4 * (nsrcs + ndests)
                for loc in locs[:nsrcs]:
                    src_append(loc)
                for loc in locs[nsrcs:]:
                    dest_append(loc)
            src_offsets[index + 1] = len(src_values)
            dest_offsets[index + 1] = len(dest_values)
    except struct.error:
        raise TraceFormatError("truncated record stream") from None
    if offset != size:
        raise TraceFormatError(
            f"record stream holds {size - offset} trailing bytes after "
            f"{count} records"
        )
    return opclass, flags, aux, src_offsets, src_values, dest_offsets, dest_values


def walk_record_heads(payload, count: int):
    """One sequential pass over a packed record stream: the byte offset of
    every record head, plus the end offset (``count + 1`` entries).

    This walk is the only inherently serial part of PGT2 decode (each
    record's length lives in its own header byte pair), so it is shared
    between the vectorized and chunked decoders. Raises
    :class:`TraceFormatError` when the stream ends mid-record.
    """
    heads = [0] * (count + 1)
    size = len(payload)
    offset = 0
    try:
        for index in range(count):
            heads[index] = offset
            offset += _REC_HEAD.size + 4 * (payload[offset + 2] + payload[offset + 3])
    except IndexError:
        raise TraceFormatError("truncated record header") from None
    if offset > size:
        raise TraceFormatError("truncated record body")
    heads[count] = offset
    return heads


def gather_columns(payload, heads, count: int):
    """Vectorized column extraction over a packed record stream whose
    record-head offsets are already known (see :func:`walk_record_heads`).

    ``payload`` may be any buffer (bytes, or a ``memoryview`` over an
    ``mmap`` — the gathers read the mapped pages directly, no intermediate
    copy). Requires NumPy; same return contract as :func:`scan_columns`.
    Every header field and operand word is 4-byte aligned within the
    stream (records are ``8 + 4k`` bytes), so one ``frombuffer`` u32 view
    serves all of them.
    """
    u32 = _np.frombuffer(payload, dtype="<u4", count=heads[count] >> 2)
    hw = _np.asarray(heads[:count], dtype=_np.int64) >> 2
    w0 = u32[hw] if count else u32[:0]
    opclass = (w0 & 0xFF).astype(_np.int64)
    flags = ((w0 >> 8) & 0xFF).astype(_np.int64)
    nsrcs = ((w0 >> 16) & 0xFF).astype(_np.int64)
    ndests = (w0 >> 24).astype(_np.int64)
    aux = (u32[hw + 1] if count else u32[:0]).view(_np.int32).astype(_np.int64)

    src_offsets = _np.zeros(count + 1, dtype=_np.int64)
    dest_offsets = _np.zeros(count + 1, dtype=_np.int64)
    _np.cumsum(nsrcs, out=src_offsets[1:])
    _np.cumsum(ndests, out=dest_offsets[1:])
    total_src = int(src_offsets[count])
    total_dest = int(dest_offsets[count])
    src_idx = _np.repeat(hw + 2, nsrcs) + (
        _np.arange(total_src, dtype=_np.int64)
        - _np.repeat(src_offsets[:count], nsrcs)
    )
    dest_idx = _np.repeat(hw + 2 + nsrcs, ndests) + (
        _np.arange(total_dest, dtype=_np.int64)
        - _np.repeat(dest_offsets[:count], ndests)
    )
    src_values = u32[src_idx].astype(_np.int64)
    dest_values = u32[dest_idx].astype(_np.int64)

    def _as_q(arr):
        out = array("q")
        out.frombytes(arr.tobytes())
        return out

    return (
        _as_q(opclass),
        _as_q(flags),
        _as_q(aux),
        _as_q(src_offsets),
        _as_q(src_values),
        _as_q(dest_offsets),
        _as_q(dest_values),
    )


def scan_columns_fast(payload, count: int):
    """Like :func:`scan_columns`, but vectorized when NumPy is present.

    The record-head walk stays sequential (record lengths chain); all
    field and operand extraction happens through u32 gathers on a
    zero-copy ``frombuffer`` view of ``payload``. Identical output —
    columns, error behavior (truncation, trailing bytes) — to the
    pure-python scan, which it silently falls back to without NumPy.
    """
    if _np is None or len(payload) % 4:
        # A valid stream is always a multiple of 4 bytes; a ragged tail
        # means truncation, which the reference scan reports precisely.
        return scan_columns(payload, count)
    heads = walk_record_heads(payload, count)
    if heads[count] != len(payload):
        raise TraceFormatError(
            f"record stream holds {len(payload) - heads[count]} trailing "
            f"bytes after {count} records"
        )
    return gather_columns(payload, heads, count)


def read_trace_file(path):
    """Decode a whole trace file into a
    :class:`~repro.trace.columnar.ColumnarTrace`, verifying the record
    count and content digest; any mismatch raises
    :class:`TraceFormatError` rather than returning corrupt data."""
    from repro.obs import metrics as obs
    from repro.trace.columnar import ColumnarTrace

    obs.inc("trace_io.file_reads")
    segments, count, digest, payload = read_trace_payload(path)
    return ColumnarTrace(*scan_columns_fast(payload, count), segments, digest=digest)
