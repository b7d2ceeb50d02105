"""Columnar traces: the one in-memory trace representation.

Paragraph analyzes a serial trace that was captured once and read many
times. Here every trace is a :class:`ColumnarTrace`: the same logical
records as :mod:`repro.trace.record` describes, stored as seven flat
``array('q')`` columns:

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
allocation. Every producer returns columns: the simulator's record list
is flattened once by :meth:`ColumnarTrace.from_buffer`, PGT2 files decode
straight into columns (:func:`repro.trace.io.read_trace_file`), and the
parallel engine's forked workers inherit the parent's decoded copy.

Consumers that want records — the reference analyzer, two-pass, the
oracle, the baselines — iterate the trace. Iteration zips the scalar
columns with the memoized operand-tuple view (:meth:`operand_tuples`),
whose tuples are interned: every record of one static instruction (and
any other records with equal operands) shares one tuple object, so the
view costs little more than two lists of pointers.

Three views derived from the columns are memoized on the trace and built
on first use: the whole-trace :meth:`census`, the per-record
:meth:`operand_counts` and the :meth:`operand_tuples`. Each build counts
one ``trace.views_built.<view>`` in the :mod:`repro.obs` registry, so a
metrics export shows which process built what. Before its first fork the
parallel engine builds, on every trace it hands its workers in memory,
the views its queued jobs read (:func:`repro.core.kernels.trace_views`),
and the workers inherit them with the columns.

Content identity is preserved across every form: ``digest()`` equals the
PGT2 header digest of the same records.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Tuple

from repro.isa.opclasses import OpClass
from repro.obs import metrics as obs
from repro.trace.io import digest_records, read_trace_file
from repro.trace.record import FLAG_CONDITIONAL, TraceRecord
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)


def _split(values, counts) -> list:
    """One tuple per record from a CSR value column and its arities, with
    the zero-, one- and two-operand shapes unrolled. Equal tuples are
    interned through a per-call dict, so all records of one static
    instruction share one tuple object."""
    operands = iter(values)
    intern = {}.setdefault
    tuples = []
    append = tuples.append
    for count in counts:
        if count == 1:
            operand = (next(operands),)
            append(intern(operand, operand))
        elif count == 2:
            operand = (next(operands), next(operands))
            append(intern(operand, operand))
        elif count:
            operand = tuple(islice(operands, count))
            append(intern(operand, operand))
        else:
            append(())
    return tuples


class ColumnarTrace:
    """A trace as flat ``array('q')`` columns (see module docstring)."""

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
        # Access-index cache for the vectorized backend
        # (repro.core.vkernels), keyed by syscall policy.
        self._vk_index: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_buffer(
        cls, records: Iterable, segments: Optional[SegmentMap] = None
    ) -> "ColumnarTrace":
        """The one coercion to a trace: a :class:`ColumnarTrace` comes back
        unchanged; any other record sequence (the simulator's record list,
        a list of :func:`~repro.trace.record.make_record` tuples) is
        flattened into columns. For flattened records ``segments``
        defaults to their own ``segments`` attribute, else
        :data:`DEFAULT_SEGMENTS`; the digest is computed lazily on first
        :meth:`digest` call."""
        if isinstance(records, ColumnarTrace):
            return records
        if segments is None:
            segments = getattr(records, "segments", DEFAULT_SEGMENTS)
        if not isinstance(records, (list, tuple)):
            records = list(records)
        srcs = list(map(itemgetter(1), records))
        dests = list(map(itemgetter(2), records))
        return cls(
            array("q", map(itemgetter(0), records)),
            array("q", map(itemgetter(3), records)),
            array("q", map(itemgetter(4), records)),
            array("q", accumulate(map(len, srcs), initial=0)),
            array("q", chain.from_iterable(srcs)),
            array("q", accumulate(map(len, dests), initial=0)),
            array("q", chain.from_iterable(dests)),
            segments,
        )

    @classmethod
    def from_file(cls, path) -> "ColumnarTrace":
        """Decode a PGT2 trace file straight into columns, verifying the
        header content digest (see :func:`repro.trace.io.read_trace_file`)."""
        return read_trace_file(path)

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
        """Records in trace order, built over the memoized operand-tuple
        view (so a record's ``srcs`` is the view's interned tuple)."""
        return zip(self.opclass, *self.operand_tuples(), self.flags, self.aux)

    def head(self, count: int) -> "ColumnarTrace":
        """The first ``count`` records as a trace of their own (the paper
        caps analysis at a fixed instruction budget from the start of the
        trace). A count past the end returns this trace."""
        if count >= len(self.opclass):
            return self
        return ColumnarTrace(
            self.opclass[:count],
            self.flags[:count],
            self.aux[:count],
            self.src_offsets[:count + 1],
            self.src_values[:self.src_offsets[count]],
            self.dest_offsets[:count + 1],
            self.dest_values[:self.dest_offsets[count]],
            self.segments,
        )

    def digest(self) -> str:
        """Stable content digest — identical to the PGT2 header digest of
        the same records, and the trace half of every engine result-cache
        key. Cached."""
        if self._digest is None:
            self._digest = digest_records(self.segments, len(self), self)
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
            obs.inc("trace.views_built.census")
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
            obs.inc("trace.views_built.operand_counts")
        return self._operand_counts

    def operand_tuples(self, start: int = 0, end: Optional[int] = None) -> Tuple[list, list]:
        """``(src_tuples, dest_tuples)``: the operands of each record in
        ``[start, end)`` (by default the whole trace) as tuples.

        The full-semantics frontier loop visits every operand two or three
        times per record, which boxed tuples serve better than offset
        slices of the value columns; iteration reads them too. The
        whole-trace view is memoized like :meth:`operand_counts`, and its
        tuples are interned (see the module docstring). A part of a trace
        whose view is not built yet (a shard's suffix, say) is split on its
        own and not kept.
        """
        count = len(self.opclass)
        if end is None:
            end = count
        whole = start == 0 and end == count
        if self._operand_tuples is None:
            src_counts, dest_counts = self.operand_counts()
            if not whole:
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
            self._operand_tuples = (
                _split(self.src_values, src_counts),
                _split(self.dest_values, dest_counts),
            )
            obs.inc("trace.views_built.operand_tuples")
        src_tuples, dest_tuples = self._operand_tuples
        if whole:
            return src_tuples, dest_tuples
        return src_tuples[start:end], dest_tuples[start:end]
