"""ColumnarTrace: construction equivalence, digests, memoized views,
pickling."""

import pickle
from array import array

import pytest

from repro.cpu.machine import Machine
from repro.isa.locations import MEM_BASE
from repro.isa.opclasses import OpClass
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import digest_records, read_trace_file, write_trace_file
from repro.trace.record import FLAG_CONDITIONAL
from repro.trace.segments import SegmentMap
from repro.trace.synthetic import TraceBuilder, random_trace
from repro.workloads.suite import load_workload


@pytest.fixture(scope="module")
def records():
    """The records of a random trace, as a plain list of tuples."""
    return list(random_trace(seed=7, length=500, memory_words=32, syscall_fraction=0.02))


@pytest.fixture(scope="module")
def columnar(records):
    return ColumnarTrace.from_buffer(records)


class TestConstruction:
    def test_from_buffer_reproduces_every_record(self, records, columnar):
        assert len(columnar) == len(records)
        assert list(columnar) == records

    def test_getitem_matches_records(self, records, columnar):
        for index in (0, 1, len(records) // 2, len(records) - 1):
            assert columnar[index] == records[index]
        assert columnar[-1] == records[-1]

    def test_from_file_matches_from_buffer(self, records, columnar, tmp_path):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, columnar)
        decoded = ColumnarTrace.from_file(path)
        assert list(decoded) == records
        assert decoded.segments == columnar.segments

    def test_from_buffer_returns_columns_unchanged(self, columnar):
        assert ColumnarTrace.from_buffer(columnar) is columnar

    def test_from_buffer_flattens_any_iterable(self, records, columnar):
        flattened = ColumnarTrace.from_buffer(iter(records))
        assert list(flattened) == records
        assert flattened.digest() == columnar.digest()

    def test_empty_trace(self):
        empty = TraceBuilder().build()
        assert len(empty) == 0
        assert list(empty) == []
        assert empty.census() == (0, 0)

    def test_segments_carry_over(self):
        segments = SegmentMap(data_base=16, stack_floor=48, stack_top=64)
        builder = TraceBuilder(segments)
        builder.ialu(1)
        trace = builder.build()
        assert trace.segments == segments


class TestDigest:
    def test_digest_matches_buffer(self, records, columnar):
        assert columnar.digest() == digest_records(columnar.segments, len(records), records)

    def test_digest_matches_file_header(self, columnar, tmp_path):
        path = tmp_path / "trace.pgt"
        header_digest = write_trace_file(path, columnar)
        assert ColumnarTrace.from_file(path).digest() == header_digest

    def test_digest_computed_lazily_when_buffer_has_none(self, records, columnar):
        trace = ColumnarTrace.from_buffer(list(records))
        assert trace._digest is None
        assert trace.digest() == columnar.digest()


class TestCensus:
    def test_counts_syscalls_and_conditional_branches(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.syscall()
        builder.branch(1, taken=True)
        builder.branch(1, taken=False)
        builder.jump()  # unconditional: not a conditional branch
        builder.syscall()
        trace = builder.build()
        assert trace.census() == (2, 2)

    def test_matches_record_scan(self, records, columnar):
        syscalls = sum(1 for r in records if r[0] == int(OpClass.SYSCALL))
        branches = sum(
            1
            for r in records
            if r[0] == int(OpClass.BRANCH) and r[3] & FLAG_CONDITIONAL
        )
        assert columnar.census() == (syscalls, branches)

    @pytest.mark.parametrize("cut", [0, 1, 250, 499, 500])
    def test_ranges_add_up_to_the_whole(self, columnar, cut):
        head = columnar.census(0, cut)
        tail = columnar.census(cut, len(columnar))
        assert (head[0] + tail[0], head[1] + tail[1]) == columnar.census()


class TestOperandTuples:
    def test_match_records(self, records, columnar):
        srcs, dests = columnar.operand_tuples()
        assert srcs == [record[1] for record in records]
        assert dests == [record[2] for record in records]

    def test_equal_tuples_are_interned(self, columnar):
        srcs, dests = columnar.operand_tuples()
        for tuples in (srcs, dests):
            first = {}
            for operands in tuples:
                assert first.setdefault(operands, operands) is operands
        assert all(record[1] is operands for record, operands in zip(columnar, srcs))

    def test_bufferless_trace_builds_equal_tuples(self, columnar, tmp_path):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, columnar)
        decoded = ColumnarTrace.from_file(path)
        assert decoded.operand_tuples() == columnar.operand_tuples()
        assert decoded.operand_tuples()[0] is decoded.operand_tuples()[0]

    @pytest.mark.parametrize("start,end", [(0, 0), (0, 1), (3, 250), (499, 500)])
    def test_ranges_match_the_whole(self, columnar, tmp_path, start, end):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, columnar)
        decoded = ColumnarTrace.from_file(path)  # nothing memoized yet
        srcs, dests = columnar.operand_tuples()
        expected = (srcs[start:end], dests[start:end])
        assert columnar.operand_tuples(start, end) == expected
        assert decoded.operand_tuples(start, end) == expected
        assert decoded._operand_tuples is None  # a part is not memoized

    def test_wide_records_split_exactly(self):
        builder = TraceBuilder()
        builder.op(OpClass.IALU, dests=(1, 2, 3), srcs=(4, 5, 6, 7))
        builder.op(OpClass.IALU, dests=(8,), srcs=())
        assert builder.build().operand_tuples() == ([(4, 5, 6, 7), ()], [(1, 2, 3), (8,)])


def views_built(action):
    """Run ``action`` and return the ``trace.views_built.*`` counters it
    increments, by view name."""
    from repro.obs import metrics as obs

    registry = obs.enable(obs.MetricsRegistry())
    try:
        action()
    finally:
        obs.disable()
    prefix = "trace.views_built."
    return {
        name[len(prefix):]: count
        for name, count in registry.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


class TestViews:
    """The memoized views are the same whichever producer made the trace,
    and whether the parallel engine builds them by name before it forks
    its workers or a reader builds them on first use."""

    @pytest.fixture
    def produce(self, records, tmp_path):
        path = tmp_path / "trace.pgt"
        write_trace_file(path, ColumnarTrace.from_buffer(records))
        return {
            "from_buffer": lambda: ColumnarTrace.from_buffer(records),
            "decode": lambda: read_trace_file(path),
            "pickle": lambda: pickle.loads(pickle.dumps(ColumnarTrace.from_buffer(records))),
        }

    @pytest.mark.parametrize("producer", ["from_buffer", "decode", "pickle"])
    def test_prebuilt_views_equal_lazy_ones(self, records, produce, producer):
        from repro.core.analyzer import analyze
        from repro.core.config import AnalysisConfig
        from repro.core.kernels import trace_views

        config = AnalysisConfig.no_renaming()
        names = trace_views(config)
        assert set(names) == {"census", "operand_counts", "operand_tuples"}
        prebuilt = produce[producer]()
        built = views_built(lambda: [getattr(prebuilt, name)() for name in names])
        assert built == {name: 1 for name in names}
        lazy = produce[producer]()
        assert views_built(lambda: analyze(lazy, config)) == built
        for name in names:
            assert getattr(prebuilt, name)() == getattr(lazy, name)()
        assert prebuilt.operand_counts() == (
            array("q", [len(record[1]) for record in records]),
            array("q", [len(record[2]) for record in records]),
        )
        assert prebuilt.operand_tuples() == (
            [record[1] for record in records],
            [record[2] for record in records],
        )

    def test_views_built_before_pickling_survive_it(self, records):
        trace = ColumnarTrace.from_buffer(records)
        trace.census()
        trace.operand_tuples()
        copy = pickle.loads(pickle.dumps(trace))
        reads = views_built(lambda: (copy.census(), copy.operand_counts(), copy.operand_tuples()))
        assert reads == {}
        assert copy.census() == trace.census()
        assert copy.operand_counts() == trace.operand_counts()
        assert copy.operand_tuples() == trace.operand_tuples()

    def test_parts_count_no_build(self, columnar):
        fresh = ColumnarTrace(
            columnar.opclass,
            columnar.flags,
            columnar.aux,
            columnar.src_offsets,
            columnar.src_values,
            columnar.dest_offsets,
            columnar.dest_values,
            columnar.segments,
        )
        # A part's census and tuples are computed and not kept; the
        # arities the split reads are the one view memoized.
        built = views_built(lambda: (fresh.census(3, 250), fresh.operand_tuples(3, 250)))
        assert built == {"operand_counts": 1}


class TestSuiteTraceMemory:
    """A decoded suite trace shares operand tuples the way the simulator's
    records did, which keeps the tuple view no larger than the record list
    the columns replaced."""

    @pytest.fixture(scope="class")
    def emitted(self):
        workload = load_workload("xlispx")
        machine = Machine(
            workload.program(),
            int_inputs=list(workload.int_inputs),
            float_inputs=list(workload.float_inputs),
        )
        machine.run(max_instructions=5000)
        return machine

    def test_static_register_instruction_shares_its_source_tuple(self, emitted, tmp_path):
        path = tmp_path / "xlispx.pgt"
        write_trace_file(path, emitted.trace)
        decoded = list(read_trace_file(path))
        assert decoded == emitted.records
        # The simulator appends one static tuple per register-register
        # instruction; find two dynamic instances of one.
        first_seen = {}
        pair = None
        for index, record in enumerate(emitted.records):
            srcs = record[1]
            if len(srcs) != 2 or any(src >= MEM_BASE for src in srcs):
                continue
            earlier = first_seen.setdefault(id(record), index)
            if earlier != index:
                pair = (earlier, index)
                break
        assert pair is not None
        first, second = pair
        assert emitted.records[first] is emitted.records[second]
        assert decoded[first][1] is decoded[second][1]


class TestPickle:
    """A trace sent to another process by pickle, rather than inherited
    through fork, must arrive as the same trace."""

    def test_round_trip(self, records, columnar):
        copy = pickle.loads(pickle.dumps(columnar))
        assert list(copy) == records
        assert copy.digest() == columnar.digest()
        assert copy.segments == columnar.segments

    def test_columns_stay_int64_arrays(self, columnar):
        copy = pickle.loads(pickle.dumps(columnar))
        for name in ("opclass", "flags", "aux", "src_offsets", "src_values",
                     "dest_offsets", "dest_values"):
            column = getattr(copy, name)
            assert isinstance(column, array) and column.typecode == "q"
            assert column == getattr(columnar, name)

    def test_memoized_tuple_view_stays_interned(self, records):
        trace = ColumnarTrace.from_buffer(records)
        sources, _ = trace.operand_tuples()
        copy = pickle.loads(pickle.dumps(trace))
        copied_sources, _ = copy.operand_tuples()
        assert copied_sources == sources
        first_seen = {}
        pair = None
        for index, srcs in enumerate(sources):
            if not srcs:
                continue
            earlier = first_seen.setdefault(srcs, index)
            if earlier != index:
                pair = (earlier, index)
                break
        assert pair is not None
        first, second = pair
        assert copied_sources[first] is copied_sources[second]

    def test_empty_trace_round_trips(self):
        empty = TraceBuilder().build()
        copy = pickle.loads(pickle.dumps(empty))
        assert len(copy) == 0
        assert copy.digest() == empty.digest()
