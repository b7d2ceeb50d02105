"""The trace container API: a ColumnarTrace as a sequence of records."""

from repro.trace.columnar import ColumnarTrace
from repro.trace.record import make_record
from repro.trace.segments import SegmentMap


def records(n):
    return [make_record(0, (1,), (2,), aux=i) for i in range(n)]


class TestBuffer:
    def test_empty(self):
        trace = ColumnarTrace.from_buffer([])
        assert len(trace) == 0
        assert list(trace) == []

    def test_append_and_iterate(self):
        trace = ColumnarTrace.from_buffer(records(3))
        assert len(trace) == 3
        assert [r[4] for r in trace] == [0, 1, 2]
        assert list(trace) == records(3)

    def test_indexing(self):
        trace = ColumnarTrace.from_buffer(records(5))
        assert trace[2][4] == 2
        assert trace[-1] == records(5)[-1]

    def test_head_copies_prefix_and_segments(self):
        segments = SegmentMap(stack_floor=123)
        trace = ColumnarTrace.from_buffer(records(10), segments)
        head = trace.head(4)
        assert len(head) == 4
        assert head.segments == segments
        assert head[0] == trace[0]
        assert list(head) == records(4)
        assert head.digest() == ColumnarTrace.from_buffer(records(4), segments).digest()

    def test_head_larger_than_buffer(self):
        trace = ColumnarTrace.from_buffer(records(2))
        assert len(trace.head(10)) == 2
        assert list(trace.head(10)) == records(2)
