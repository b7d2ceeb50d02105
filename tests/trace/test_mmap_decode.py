"""Columnar PGT2 decode: a bad file is a loud error, never a partial trace.

``ColumnarTrace.from_file`` decodes through :func:`scan_columns_fast`
(vectorized u32 column gathers over the payload when NumPy is present,
the per-record python scan otherwise). A truncated or corrupted file
must raise :class:`TraceFormatError` before any partial trace escapes, on
either path.
"""

import pytest

from repro.trace import io as trace_io
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import TraceFormatError, write_trace_file
from repro.trace.synthetic import random_trace


def write_tmp(tmp_path, trace, name="t.pgt"):
    path = tmp_path / name
    write_trace_file(path, trace)
    return path


class TestLoudErrors:
    """No partial traces: a bad file raises before any columns escape."""

    @pytest.fixture
    def good_file(self, tmp_path):
        trace = random_trace(seed=5, length=200, syscall_fraction=0.05)
        return write_tmp(tmp_path, trace)

    def test_truncated_file(self, good_file):
        data = good_file.read_bytes()
        good_file.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_file(good_file)

    def test_corrupt_payload_fails_digest(self, good_file):
        data = bytearray(good_file.read_bytes())
        data[len(data) // 2] ^= 0xFF
        good_file.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="stale or corrupted"):
            ColumnarTrace.from_file(good_file)

    def test_trailing_garbage_fails_digest(self, good_file):
        good_file.write_bytes(good_file.read_bytes() + b"\x00" * 16)
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_file(good_file)

    def test_bad_magic(self, good_file):
        data = bytearray(good_file.read_bytes())
        data[:4] = b"NOPE"
        good_file.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="bad magic"):
            ColumnarTrace.from_file(good_file)

    def test_corrupt_python_fallback_also_loud(self, good_file, monkeypatch):
        data = bytearray(good_file.read_bytes())
        data[len(data) // 2] ^= 0xFF
        good_file.write_bytes(bytes(data))
        monkeypatch.setattr(trace_io, "_np", None)
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_file(good_file)


class TestScanColumnsFast:
    def test_matches_reference_scan(self):
        import io as stdio

        trace = random_trace(seed=6, length=250, syscall_fraction=0.05)
        stream = stdio.BytesIO()
        trace_io.write_trace(stream, list(trace), trace.segments, len(trace))
        payload = stream.getvalue()[trace_io._HEADER.size :]
        fast = trace_io.scan_columns_fast(payload, len(trace))
        slow = trace_io.scan_columns(payload, len(trace))
        assert fast == slow

    def test_heads_walk_then_gather(self):
        import io as stdio

        if trace_io._np is None:
            pytest.skip("NumPy is not installed")
        trace = random_trace(seed=7, length=120, syscall_fraction=0.05)
        stream = stdio.BytesIO()
        trace_io.write_trace(stream, list(trace), trace.segments, len(trace))
        payload = stream.getvalue()[trace_io._HEADER.size :]
        heads = trace_io.walk_record_heads(payload, len(trace))
        assert heads[0] == 0 and heads[-1] == len(payload)
        columns = trace_io.gather_columns(payload, heads, len(trace))
        assert columns == trace_io.scan_columns(payload, len(trace))
