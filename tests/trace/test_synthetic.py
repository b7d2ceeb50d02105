"""Synthetic trace generators."""

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.isa.locations import MEM_BASE
from repro.isa.opclasses import OpClass
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN
from repro.trace.synthetic import (
    TraceBuilder,
    independent_ops,
    random_trace,
    serial_chain,
)


class TestBuilder:
    def test_load_encodes_memory_address(self):
        trace = TraceBuilder().load(1, 0x40, base=5).build()
        assert trace[0][1] == (5, MEM_BASE + 0x40)

    def test_store_destination(self):
        trace = TraceBuilder().store(1, 0x40).build()
        assert trace[0][2] == (MEM_BASE + 0x40,)

    def test_branch_flags(self):
        trace = TraceBuilder().branch(1, taken=True, pc=9).build()
        assert trace[0][3] == FLAG_CONDITIONAL | FLAG_TAKEN
        assert trace[0][4] == 9

    def test_chaining_returns_builder(self):
        trace = TraceBuilder().ialu(1).ialu(2).syscall().build()
        assert len(trace) == 3


class TestGenerators:
    def test_serial_chain_has_unit_parallelism(self):
        result = analyze(serial_chain(50), AnalysisConfig(latency=LatencyTable.unit()))
        assert result.critical_path_length == 50
        assert result.available_parallelism == 1.0

    def test_independent_ops_fully_parallel(self):
        result = analyze(
            independent_ops(64), AnalysisConfig(latency=LatencyTable.unit())
        )
        assert result.critical_path_length == 1
        assert result.available_parallelism == 64.0

    def test_random_trace_deterministic(self):
        assert list(random_trace(7, 100)) == list(random_trace(7, 100))

    def test_random_trace_different_seeds_differ(self):
        assert list(random_trace(1, 200)) != list(random_trace(2, 200))

    def test_random_trace_length(self):
        assert len(random_trace(3, 123)) == 123

    def test_random_trace_touches_both_memory_segments(self):
        trace = random_trace(4, 2000)
        segments = trace.segments
        kinds = set()
        for record in trace:
            for loc in record[1] + record[2]:
                if loc >= MEM_BASE:
                    kinds.add(segments.classify(loc))
        assert kinds == {"stack", "data"}

    def test_random_trace_contains_syscalls_and_branches(self):
        trace = random_trace(5, 3000)
        classes = {record[0] for record in trace}
        assert int(OpClass.SYSCALL) in classes
        assert int(OpClass.BRANCH) in classes
