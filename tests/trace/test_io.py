"""Binary trace file format."""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.columnar import ColumnarTrace
from repro.trace.io import (
    FORMAT_VERSION,
    LEGACY_MAGIC,
    MAGIC,
    TraceFormatError,
    read_header,
    read_trace_digest,
    read_trace_file,
    write_trace,
    write_trace_file,
)
from repro.trace.record import make_record
from repro.trace.segments import SegmentMap
from repro.trace.synthetic import random_trace


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        trace = random_trace(seed=1, length=200)
        path = tmp_path / "t.pgt"
        write_trace_file(path, trace)
        loaded = read_trace_file(path)
        assert isinstance(loaded, ColumnarTrace)
        assert list(loaded) == list(trace)
        assert loaded.segments == trace.segments

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.pgt"
        write_trace_file(path, ColumnarTrace.from_buffer([]))
        assert list(read_trace_file(path)) == []

    def test_custom_segments_preserved(self, tmp_path):
        segments = SegmentMap(data_base=16, stack_floor=512, stack_top=1024)
        trace = ColumnarTrace.from_buffer([make_record(0, (1,), (2,))], segments)
        path = tmp_path / "seg.pgt"
        write_trace_file(path, trace)
        assert read_trace_file(path).segments == segments

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(0, 150))
    def test_round_trip_property(self, seed, length, tmp_path_factory):
        trace = random_trace(seed=seed, length=length)
        path = tmp_path_factory.mktemp("prop") / "t.pgt"
        write_trace_file(path, trace)
        loaded = read_trace_file(path)
        assert len(loaded) == length
        assert list(loaded) == list(trace)
        assert loaded.segments == trace.segments
        assert loaded.digest() == trace.digest()


class TestDigest:
    def test_write_returns_header_digest(self, tmp_path):
        trace = random_trace(seed=7, length=120)
        path = tmp_path / "d.pgt"
        written = write_trace_file(path, trace)
        assert written == read_trace_digest(path) == trace.digest()

    def test_digest_distinguishes_content(self):
        base = random_trace(seed=8, length=60)
        other = random_trace(seed=9, length=60)
        assert base.digest() != other.digest()

    def test_digest_covers_segments(self):
        records = list(random_trace(seed=10, length=40))
        one = ColumnarTrace.from_buffer(
            records, SegmentMap(data_base=16, stack_floor=512, stack_top=1024)
        )
        two = ColumnarTrace.from_buffer(
            records, SegmentMap(data_base=32, stack_floor=512, stack_top=1024)
        )
        assert one.digest() != two.digest()


class TestErrors:
    def test_bad_magic(self):
        stream = io.BytesIO(b"NOPE" + b"\x00" * 60)
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_header(stream)

    def test_legacy_format_rejected_loudly(self):
        stream = io.BytesIO(LEGACY_MAGIC + b"\x00" * 60)
        with pytest.raises(TraceFormatError, match="legacy PGT1"):
            read_header(stream)

    def test_future_version_rejected(self):
        raw = bytearray()
        raw += struct.pack(
            "<4sIIIIQ32s", MAGIC, FORMAT_VERSION + 1, 0, 0, 0, 0, b"\x00" * 32
        )
        with pytest.raises(TraceFormatError, match="unsupported trace format version"):
            read_header(io.BytesIO(bytes(raw)))

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError, match="truncated header"):
            read_header(io.BytesIO(b"PG"))

    def test_truncated_body(self, tmp_path):
        trace = random_trace(seed=2, length=50)
        path = tmp_path / "trunc.pgt"
        write_trace_file(path, trace)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceFormatError):
            read_trace_file(path)

    def test_corrupted_record_fails_digest(self, tmp_path):
        trace = random_trace(seed=4, length=80)
        path = tmp_path / "corrupt.pgt"
        write_trace_file(path, trace)
        data = bytearray(path.read_bytes())
        # flip a bit beyond the header, inside some record's aux field
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            read_trace_file(path)

    def test_count_mismatch_on_write(self):
        trace = random_trace(seed=3, length=5)
        with pytest.raises(TraceFormatError, match="count mismatch"):
            write_trace(io.BytesIO(), trace, trace.segments, 7)
