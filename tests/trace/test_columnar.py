"""ColumnarTrace: construction equivalence, digests, shared memory."""

import pytest

from repro.isa.opclasses import OpClass
from repro.trace.buffer import TraceBuffer
from repro.trace.columnar import ColumnarTrace, SharedTraceError
from repro.trace.io import write_trace_file
from repro.trace.record import FLAG_CONDITIONAL
from repro.trace.segments import SegmentMap
from repro.trace.synthetic import TraceBuilder, random_trace


@pytest.fixture(scope="module")
def buffer():
    return random_trace(seed=7, length=500, memory_words=32, syscall_fraction=0.02)


@pytest.fixture(scope="module")
def columnar(buffer):
    return ColumnarTrace.from_buffer(buffer)


class TestConstruction:
    def test_from_buffer_reproduces_every_record(self, buffer, columnar):
        assert len(columnar) == len(buffer)
        assert list(columnar) == list(buffer.records)

    def test_getitem_matches_records(self, buffer, columnar):
        for index in (0, 1, len(buffer) // 2, len(buffer) - 1):
            assert columnar[index] == buffer.records[index]
        assert columnar[-1] == buffer.records[-1]

    def test_from_file_matches_from_buffer(self, buffer, tmp_path):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, buffer)
        decoded = ColumnarTrace.from_file(path)
        assert list(decoded) == list(buffer.records)
        assert decoded.segments == buffer.segments

    def test_empty_trace(self):
        empty = ColumnarTrace.from_buffer(TraceBuilder().build())
        assert len(empty) == 0
        assert list(empty) == []
        assert empty.census() == (0, 0)

    def test_segments_carry_over(self):
        segments = SegmentMap(data_base=16, stack_floor=48, stack_top=64)
        builder = TraceBuilder(segments)
        builder.ialu(1)
        trace = ColumnarTrace.from_buffer(builder.build())
        assert trace.segments == segments


class TestDigest:
    def test_digest_matches_buffer(self, buffer, columnar):
        assert columnar.digest() == buffer.digest()

    def test_digest_matches_file_header(self, buffer, tmp_path):
        path = tmp_path / "trace.pgt"
        header_digest = write_trace_file(path, buffer)
        assert ColumnarTrace.from_file(path).digest() == header_digest

    def test_digest_computed_lazily_when_buffer_has_none(self, buffer):
        fresh = TraceBuffer(list(buffer.records), buffer.segments)
        trace = ColumnarTrace.from_buffer(fresh)
        assert trace.digest() == buffer.digest()


class TestToBuffer:
    def test_round_trip(self, columnar, buffer):
        assert columnar.to_buffer().records == buffer.records

    def test_memoized(self, columnar):
        assert columnar.to_buffer() is columnar.to_buffer()

    def test_from_buffer_round_trips_for_free(self, buffer):
        assert ColumnarTrace.from_buffer(buffer).to_buffer() is buffer

    def test_decoded_trace_buffer_keeps_digest(self, buffer, tmp_path):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, buffer)
        decoded = ColumnarTrace.from_file(path)
        assert decoded.to_buffer().digest() == buffer.digest()


class TestCensus:
    def test_counts_syscalls_and_conditional_branches(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.syscall()
        builder.branch(1, taken=True)
        builder.branch(1, taken=False)
        builder.jump()  # unconditional: not a conditional branch
        builder.syscall()
        trace = ColumnarTrace.from_buffer(builder.build())
        assert trace.census() == (2, 2)

    def test_matches_record_scan(self, buffer, columnar):
        syscalls = sum(1 for r in buffer.records if r[0] == int(OpClass.SYSCALL))
        branches = sum(
            1
            for r in buffer.records
            if r[0] == int(OpClass.BRANCH) and r[3] & FLAG_CONDITIONAL
        )
        assert columnar.census() == (syscalls, branches)

    @pytest.mark.parametrize("cut", [0, 1, 250, 499, 500])
    def test_ranges_add_up_to_the_whole(self, columnar, cut):
        head = columnar.census(0, cut)
        tail = columnar.census(cut, len(columnar))
        assert (head[0] + tail[0], head[1] + tail[1]) == columnar.census()


class TestOperandTuples:
    def test_match_records(self, buffer, columnar):
        srcs, dests = columnar.operand_tuples()
        assert srcs == [record[1] for record in buffer.records]
        assert dests == [record[2] for record in buffer.records]

    def test_reuse_the_buffer_tuples(self, buffer, columnar):
        srcs, _ = columnar.operand_tuples()
        assert all(mine is theirs[1] for mine, theirs in zip(srcs, buffer.records))

    def test_bufferless_trace_builds_equal_tuples(self, buffer, tmp_path):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, buffer)
        decoded = ColumnarTrace.from_file(path)
        assert decoded.operand_tuples() == ColumnarTrace.from_buffer(buffer).operand_tuples()
        assert decoded.operand_tuples()[0] is decoded.operand_tuples()[0]

    @pytest.mark.parametrize("start,end", [(0, 0), (0, 1), (3, 250), (499, 500)])
    def test_ranges_match_the_whole(self, buffer, columnar, tmp_path, start, end):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, buffer)
        decoded = ColumnarTrace.from_file(path)  # no buffer, no memo
        srcs, dests = columnar.operand_tuples()
        expected = (srcs[start:end], dests[start:end])
        assert columnar.operand_tuples(start, end) == expected
        assert decoded.operand_tuples(start, end) == expected
        assert decoded._operand_tuples is None  # a part is not memoized

    def test_wide_records_split_exactly(self):
        builder = TraceBuilder()
        builder.op(OpClass.IALU, dests=(1, 2, 3), srcs=(4, 5, 6, 7))
        builder.op(OpClass.IALU, dests=(8,), srcs=())
        built = ColumnarTrace.from_buffer(builder.build())
        bufferless = ColumnarTrace(*built._columns(), built.segments)
        assert bufferless.operand_tuples() == ([(4, 5, 6, 7), ()], [(1, 2, 3), (8,)])


class TestSharedMemory:
    def test_round_trip(self, buffer, columnar):
        shm = columnar.to_shared_memory()
        try:
            attached = ColumnarTrace.from_shared_memory(shm.name)
            try:
                assert list(attached) == list(buffer.records)
                assert attached.digest() == buffer.digest()
                assert attached.segments == buffer.segments
            finally:
                attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_close_releases_views_and_is_idempotent(self, columnar):
        shm = columnar.to_shared_memory()
        try:
            attached = ColumnarTrace.from_shared_memory(shm.name)
            attached.close()
            attached.close()  # second close is a no-op
        finally:
            shm.close()
            shm.unlink()

    def test_close_is_noop_for_local_traces(self, columnar):
        columnar.close()
        assert len(columnar)  # columns still usable

    def test_bad_magic_rejected(self, columnar):
        shm = columnar.to_shared_memory()
        try:
            shm.buf[:4] = b"XXXX"
            with pytest.raises(SharedTraceError, match="bad magic"):
                ColumnarTrace.from_shared_memory(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_truncated_block_rejected(self, columnar):
        from multiprocessing import shared_memory

        donor = columnar.to_shared_memory()
        try:
            # Copy only the header into a smaller block: the record counts
            # promise far more column data than the block holds.
            header = bytes(donor.buf[:72])
            short = shared_memory.SharedMemory(create=True, size=128)
            try:
                short.buf[:72] = header
                with pytest.raises(SharedTraceError, match="too small"):
                    ColumnarTrace.from_shared_memory(short.name)
            finally:
                short.close()
                short.unlink()
        finally:
            donor.close()
            donor.unlink()

    def test_nbytes_matches_block_size(self, columnar):
        shm = columnar.to_shared_memory()
        try:
            # The OS may round the segment up to a page; never smaller.
            assert len(shm.buf) >= columnar.nbytes()
        finally:
            shm.close()
            shm.unlink()

    def test_empty_trace_round_trips(self):
        empty = ColumnarTrace.from_buffer(TraceBuilder().build())
        shm = empty.to_shared_memory()
        try:
            attached = ColumnarTrace.from_shared_memory(shm.name)
            try:
                assert len(attached) == 0
                assert attached.digest() == empty.digest()
            finally:
                attached.close()
        finally:
            shm.close()
            shm.unlink()
