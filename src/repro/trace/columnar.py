"""Columnar trace representation: flat arrays instead of tuple-per-record.

A :class:`~repro.trace.buffer.TraceBuffer` stores one 5-tuple per dynamic
instruction — hundreds of thousands of small heap objects that the analyzer
hot loop then pointer-chases. A :class:`ColumnarTrace` stores the same
logical content as seven flat ``array('q')`` columns:

========  ====================================================================
Column    Meaning
========  ====================================================================
opclass   latency/placement class per record
flags     taken/conditional bitmask per record
aux       pc (control records) / statement id per record
src_offsets, src_values    CSR-encoded source-location lists
dest_offsets, dest_values  CSR-encoded destination-location lists
========  ====================================================================

Record ``i``'s sources are ``src_values[src_offsets[i]:src_offsets[i+1]]``
(likewise destinations), so the placement loops in
:mod:`repro.core.stream` scan plain machine integers with no per-record
allocation. The columnar form is buildable from a ``TraceBuffer``, decodable
directly from PGT2 files (without materializing tuples), and packable
into POSIX shared memory so the parallel engine's workers can attach the
parent's copy zero-copy instead of re-decoding the trace file per process.

Content identity is preserved across every representation: ``digest()``
equals :meth:`TraceBuffer.digest` for the same records, the PGT2 header
digest, and the digest embedded in a shared-memory block's header.
"""

from __future__ import annotations

import struct
from array import array
from itertools import islice
from operator import itemgetter
from typing import Iterator, Optional, Tuple

from repro.isa.opclasses import OpClass
from repro.trace.buffer import TraceBuffer
from repro.trace.io import digest_records, read_trace_payload, scan_columns_fast
from repro.trace.record import FLAG_CONDITIONAL, TraceRecord
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)

#: Shared-memory block header: magic, data_base, stack_floor, stack_top,
#: record count, source count, destination count, raw sha256 digest.
#: 72 bytes — a multiple of 8, so the ``q`` columns that follow stay aligned.
_SHM_MAGIC = b"PGC1"
_SHM_HEADER = struct.Struct("<4sIIIQQQ32s")


def _split(values, counts) -> list:
    """One tuple per record from a CSR value column and its arities, with
    the zero-, one- and two-operand shapes unrolled."""
    operands = iter(values)
    tuples = []
    append = tuples.append
    for count in counts:
        if count == 1:
            append((next(operands),))
        elif count == 2:
            append((next(operands), next(operands)))
        elif count:
            append(tuple(islice(operands, count)))
        else:
            append(())
    return tuples


class SharedTraceError(Exception):
    """Raised when a shared-memory trace block is malformed."""


class ColumnarTrace:
    """A trace as flat columns (see module docstring).

    Columns are ``array('q')`` when built locally and zero-copy
    ``memoryview`` casts when attached to shared memory; both index
    identically, so the placement loops never care which they were handed.
    """

    __slots__ = (
        "opclass",
        "flags",
        "aux",
        "src_offsets",
        "src_values",
        "dest_offsets",
        "dest_values",
        "segments",
        "_digest",
        "_census",
        "_operand_counts",
        "_operand_tuples",
        "_buffer",
        "_shm",
        "_views",
        "_vk_index",
    )

    def __init__(
        self,
        opclass,
        flags,
        aux,
        src_offsets,
        src_values,
        dest_offsets,
        dest_values,
        segments: SegmentMap = DEFAULT_SEGMENTS,
        digest: Optional[str] = None,
    ):
        self.opclass = opclass
        self.flags = flags
        self.aux = aux
        self.src_offsets = src_offsets
        self.src_values = src_values
        self.dest_offsets = dest_offsets
        self.dest_values = dest_values
        self.segments = segments
        self._digest = digest
        self._census = None
        self._operand_counts = None
        self._operand_tuples = None
        self._buffer = None
        self._shm = None
        self._views = ()
        # Batch access-index cache for the vectorized backend
        # (repro.core.vkernels), keyed by (conservative, start, end).
        self._vk_index: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_buffer(cls, buffer: TraceBuffer) -> "ColumnarTrace":
        """Flatten an in-memory tuple trace into columns. The buffer's
        cached digest (if already computed) carries over; otherwise the
        digest is computed lazily on first :meth:`digest` call."""
        count = len(buffer)
        opclass = array("q", bytes(8 * count))
        flags = array("q", bytes(8 * count))
        aux = array("q", bytes(8 * count))
        src_offsets = array("q", bytes(8 * (count + 1)))
        dest_offsets = array("q", bytes(8 * (count + 1)))
        src_values = array("q")
        dest_values = array("q")
        for index, (klass, srcs, dests, flag, auxval) in enumerate(buffer.records):
            opclass[index] = klass
            flags[index] = flag
            aux[index] = auxval
            src_values.extend(srcs)
            dest_values.extend(dests)
            src_offsets[index + 1] = len(src_values)
            dest_offsets[index + 1] = len(dest_values)
        trace = cls(
            opclass,
            flags,
            aux,
            src_offsets,
            src_values,
            dest_offsets,
            dest_values,
            buffer.segments,
            digest=buffer._digest,
        )
        trace._buffer = buffer  # to_buffer() round-trips for free
        return trace

    @classmethod
    def from_file(cls, path) -> "ColumnarTrace":
        """Decode a PGT2 trace file straight into columns — no per-record
        tuples — verifying the header content digest."""
        segments, count, digest, payload = read_trace_payload(path)
        columns = scan_columns_fast(payload, count)
        return cls(*columns, segments, digest=digest)

    # -- record views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.opclass)

    def __getitem__(self, index: int) -> TraceRecord:
        if index < 0:
            index += len(self.opclass)
        srcs = tuple(self.src_values[self.src_offsets[index]:self.src_offsets[index + 1]])
        dests = tuple(self.dest_values[self.dest_offsets[index]:self.dest_offsets[index + 1]])
        return (self.opclass[index], srcs, dests, self.flags[index], self.aux[index])

    def __iter__(self) -> Iterator[TraceRecord]:
        """Reconstruct records lazily, so a ``ColumnarTrace`` is accepted
        everywhere a record iterable is (reference analyzer, DDG builder,
        trace statistics)."""
        src_values = self.src_values
        dest_values = self.dest_values
        src_offsets = self.src_offsets
        dest_offsets = self.dest_offsets
        s_lo = 0
        d_lo = 0
        for index, klass in enumerate(self.opclass):
            s_hi = src_offsets[index + 1]
            d_hi = dest_offsets[index + 1]
            yield (
                klass,
                tuple(src_values[s_lo:s_hi]),
                tuple(dest_values[d_lo:d_hi]),
                self.flags[index],
                self.aux[index],
            )
            s_lo = s_hi
            d_lo = d_hi

    def to_buffer(self) -> TraceBuffer:
        """Materialize back to a tuple-per-record buffer (for consumers that
        need ``.records``, e.g. the two-pass analyzer's reverse scan and
        the other checkers).

        Memoized: repeated calls — e.g. several checker jobs against one
        shared-memory trace — pay the tuple materialization once.
        """
        if self._buffer is None:
            buffer = TraceBuffer(list(self), self.segments)
            buffer._digest = self._digest
            self._buffer = buffer
        return self._buffer

    def digest(self) -> str:
        """Stable content digest — identical to the same trace's
        :meth:`TraceBuffer.digest` and PGT2 header digest."""
        if self._digest is None:
            self._digest = digest_records(self.segments, len(self), iter(self))
        return self._digest

    def census(self, start: int = 0, end: Optional[int] = None) -> Tuple[int, int]:
        """``(syscalls, conditional_branches)`` among records ``[start, end)``
        (by default the whole trace).

        Both are pure trace statistics — independent of any analysis
        configuration — so the whole-trace census is computed once and
        cached; the placement loops read it here instead of testing every
        record's class and flags in their hot loops. Across a config grid
        the single counting pass amortizes to nothing. A part of the trace
        costs one counting pass per call.
        """
        count = len(self.opclass)
        if end is None:
            end = count
        whole = start == 0 and end == count
        if whole and self._census is not None:
            return self._census
        opclass = self.opclass
        flags = self.flags
        if not whole:
            opclass = memoryview(opclass)[start:end]
            flags = memoryview(flags)[start:end]
        syscalls = 0
        conditional_branches = 0
        conditional = FLAG_CONDITIONAL
        syscall = _SYSCALL
        branch = _BRANCH
        for klass, flag in zip(opclass, flags):
            if klass == syscall:
                syscalls += 1
            elif klass == branch and flag & conditional:
                conditional_branches += 1
        if whole:
            self._census = (syscalls, conditional_branches)
        return syscalls, conditional_branches

    def operand_counts(self) -> Tuple:
        """``(src_counts, dest_counts)``: per-record operand arities.

        The arities are the offset columns' first differences — pure trace
        shape, independent of any analysis configuration — so they are
        computed once and cached. With them in hand the specialized loops
        drive running iterators over the value columns directly (C-speed
        ``next`` per operand) instead of slicing with boxed offsets; across
        a config grid the single differencing pass amortizes to nothing.
        """
        if self._operand_counts is None:
            count = len(self.opclass)
            src_counts = array("q", bytes(8 * count))
            dest_counts = array("q", bytes(8 * count))
            for offsets, counts in (
                (self.src_offsets, src_counts),
                (self.dest_offsets, dest_counts),
            ):
                lo = 0
                highs = iter(offsets)
                next(highs)
                for index, hi in enumerate(highs):
                    counts[index] = hi - lo
                    lo = hi
            self._operand_counts = (src_counts, dest_counts)
        return self._operand_counts

    def operand_tuples(self, start: int = 0, end: Optional[int] = None) -> Tuple[list, list]:
        """``(src_tuples, dest_tuples)``: the operands of each record in
        ``[start, end)`` (by default the whole trace) as tuples.

        The full-semantics frontier loop visits every operand two or three
        times per record, which boxed tuples serve better than offset
        slices of the value columns. The whole-trace view is memoized like
        :meth:`operand_counts`; a trace built from a buffer reuses that
        buffer's tuples instead of building its own. A part of a trace with
        neither (a shard's suffix, say) is split on its own and not kept.
        """
        count = len(self.opclass)
        if end is None:
            end = count
        whole = start == 0 and end == count
        if self._operand_tuples is None:
            buffer = self._buffer
            if buffer is not None:
                records = buffer.records
                self._operand_tuples = (
                    list(map(itemgetter(1), records)),
                    list(map(itemgetter(2), records)),
                )
            elif whole:
                src_counts, dest_counts = self.operand_counts()
                self._operand_tuples = (
                    _split(self.src_values, src_counts),
                    _split(self.dest_values, dest_counts),
                )
            else:
                src_counts, dest_counts = self.operand_counts()
                return (
                    _split(
                        memoryview(self.src_values)[self.src_offsets[start]:],
                        memoryview(src_counts)[start:end],
                    ),
                    _split(
                        memoryview(self.dest_values)[self.dest_offsets[start]:],
                        memoryview(dest_counts)[start:end],
                    ),
                )
        src_tuples, dest_tuples = self._operand_tuples
        if whole:
            return src_tuples, dest_tuples
        return src_tuples[start:end], dest_tuples[start:end]

    # -- shared memory -----------------------------------------------------

    def _columns(self) -> Tuple:
        return (
            self.opclass,
            self.flags,
            self.aux,
            self.src_offsets,
            self.src_values,
            self.dest_offsets,
            self.dest_values,
        )

    def nbytes(self) -> int:
        """Size of a shared-memory block holding this trace."""
        return _SHM_HEADER.size + 8 * sum(len(column) for column in self._columns())

    def to_shared_memory(self, name: Optional[str] = None):
        """Pack this trace into a new ``multiprocessing.shared_memory``
        block and return the ``SharedMemory`` object.

        The caller owns the block: it must keep the returned handle alive
        while attachments exist and ``close()``/``unlink()`` it afterwards
        (the engine does this around a grid run).
        """
        from multiprocessing import shared_memory

        from repro.obs import metrics as obs

        obs.inc("trace_shm.packs")
        obs.inc("trace_shm.packed_bytes", self.nbytes())
        segments = self.segments
        shm = shared_memory.SharedMemory(name=name, create=True, size=self.nbytes())
        buf = shm.buf
        _SHM_HEADER.pack_into(
            buf,
            0,
            _SHM_MAGIC,
            segments.data_base,
            segments.stack_floor,
            segments.stack_top,
            len(self),
            len(self.src_values),
            len(self.dest_values),
            bytes.fromhex(self.digest()),
        )
        offset = _SHM_HEADER.size
        for column in self._columns():
            nbytes = 8 * len(column)
            if nbytes:
                chunk = buf[offset:offset + nbytes]
                view = chunk.cast("q")
                view[:] = column
                view.release()
                chunk.release()
            offset += nbytes
        return shm

    @classmethod
    def from_shared_memory(cls, name: str) -> "ColumnarTrace":
        """Attach to a block written by :meth:`to_shared_memory`.

        The columns are zero-copy ``memoryview`` casts into the block; the
        attachment is held by the returned trace and released by
        :meth:`close` (or process exit). The block itself stays owned by
        its creator — attaching never unlinks.
        """
        from multiprocessing import shared_memory

        from repro.obs import metrics as obs

        obs.inc("trace_shm.attaches")

        try:
            # Python >= 3.13: opt out of resource tracking for attachments.
            shm = shared_memory.SharedMemory(name=name, create=False, track=False)
        except TypeError:
            # Older interpreters register the attachment with the resource
            # tracker. Attachers here are always multiprocessing children of
            # the block's creator, so they share the creator's tracker and
            # the extra register is a duplicate set-add; the creator's
            # unlink-time unregister cleans it up exactly once.
            shm = shared_memory.SharedMemory(name=name, create=False)
        try:
            header = _SHM_HEADER.unpack_from(shm.buf, 0)
        except struct.error:
            shm.close()
            raise SharedTraceError(f"shared trace block {name!r}: truncated header")
        magic, data_base, stack_floor, stack_top, count, nsrc, ndest = header[:7]
        if magic != _SHM_MAGIC:
            shm.close()
            raise SharedTraceError(f"shared trace block {name!r}: bad magic {magic!r}")
        digest = header[7].hex()
        lengths = (count, count, count, count + 1, nsrc, count + 1, ndest)
        size = len(shm.buf)
        if size < _SHM_HEADER.size + 8 * sum(lengths):
            shm.close()
            raise SharedTraceError(
                f"shared trace block {name!r}: {size} bytes is too "
                f"small for {count} records"
            )
        views = []
        columns = []
        offset = _SHM_HEADER.size
        for length in lengths:
            chunk = shm.buf[offset:offset + 8 * length]
            column = chunk.cast("q")
            views.append(chunk)
            views.append(column)
            columns.append(column)
            offset += 8 * length
        trace = cls(
            *columns,
            SegmentMap(data_base=data_base, stack_floor=stack_floor, stack_top=stack_top),
            digest=digest,
        )
        trace._shm = shm
        trace._views = tuple(views)
        return trace

    def close(self) -> None:
        """Release a shared-memory attachment (no-op for local traces)."""
        if self._shm is None:
            return
        # The vectorized backend caches zero-copy frombuffer views of the
        # columns; they pin the block and must go before the views do.
        self._vk_index.clear()
        for view in self._views:
            view.release()
        self._views = ()
        shm, self._shm = self._shm, None
        shm.close()
