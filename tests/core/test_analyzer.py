"""Streaming analyzer placement semantics."""

import pytest

from repro.core.analyzer import analyze
from repro.core.config import CONSERVATIVE, OPTIMISTIC, AnalysisConfig
from repro.core.latency import LatencyTable
from repro.isa.opclasses import OpClass
from repro.trace.synthetic import TraceBuilder, serial_chain

DATA = 0x1000
STACK = (1 << 20) - 16


def unit(**kwargs):
    return AnalysisConfig(latency=LatencyTable.unit(), **kwargs)


class TestBasicPlacement:
    def test_no_dependency_lands_in_top_level(self):
        trace = TraceBuilder().ialu(1).ialu(2).build()
        result = analyze(trace, unit())
        assert result.profile.counts == {0: 2}

    def test_raw_dependency_orders_levels(self):
        trace = TraceBuilder().ialu(1).ialu(2, 1).ialu(3, 2).build()
        result = analyze(trace, unit())
        assert result.critical_path_length == 3

    def test_preexisting_source_does_not_delay(self):
        # A value read before ever being written is pre-existing: consumers
        # still land in the topologically highest level (paper Figure 5).
        trace = TraceBuilder().ialu(2, 1).build()
        result = analyze(trace, unit())
        assert result.profile.counts == {0: 1}

    def test_latency_spans_levels(self):
        trace = TraceBuilder().op(OpClass.IMUL, (1,), ()).op(
            OpClass.IALU, (2,), (1,)
        ).build()
        result = analyze(trace)  # default Table 1 latencies
        # imul completes at level 5 (6 levels: 0..5), the add at 6.
        assert result.profile.counts == {5: 1, 6: 1}
        assert result.critical_path_length == 7

    def test_max_over_sources(self):
        builder = TraceBuilder()
        builder.op(OpClass.IDIV, (1,), ())   # completes at 11
        builder.ialu(2)                      # completes at 0
        builder.ialu(3, 1, 2)                # max(11, 0) + 1 = 12
        result = analyze(builder.build())
        assert result.profile.counts[12] == 1

    def test_branches_not_placed(self):
        trace = TraceBuilder().ialu(1).branch(1).jump().build()
        result = analyze(trace, unit())
        assert result.placed_operations == 1
        assert result.branches == 1
        assert result.records_processed == 3

    def test_empty_trace(self):
        result = analyze(TraceBuilder().build(), unit())
        assert result.critical_path_length == 0
        assert result.available_parallelism == 0.0


class TestSyscalls:
    def trace(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)
        builder.syscall()
        builder.ialu(3)
        return builder.build()

    def test_conservative_firewall_delays_later_work(self):
        result = analyze(self.trace(), unit(syscall_policy=CONSERVATIVE))
        # levels: op1@0, op2@1, syscall@2 (after deepest), op3@3
        assert result.profile.counts == {0: 1, 1: 1, 2: 1, 3: 1}
        assert result.firewalls == 1
        assert result.placed_operations == 4

    def test_optimistic_ignores_syscall(self):
        result = analyze(self.trace(), unit(syscall_policy=OPTIMISTIC))
        assert result.placed_operations == 3
        assert result.profile.counts == {0: 2, 1: 1}
        assert result.firewalls == 0

    def test_syscall_counted_in_both_policies(self):
        for policy in (CONSERVATIVE, OPTIMISTIC):
            assert analyze(self.trace(), unit(syscall_policy=policy)).syscalls == 1

    def test_syscall_result_value_enters_live_well(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.syscall()  # placed at 1 by firewall
        # emulate read_int writing v0 (location 2)
        builder.op(OpClass.SYSCALL, (2,), ())
        builder.ialu(3, 2)
        result = analyze(builder.build(), unit())
        # second syscall at level 2 creates v0; consumer at level 3
        assert result.profile.counts[3] == 1

    def test_firewall_respected_by_preexisting_values(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.syscall()
        builder.ialu(2, 9)  # 9 is first touched *after* the firewall
        result = analyze(builder.build(), unit())
        # syscall at 1, so the op reading a pre-existing value lands at 2.
        assert result.profile.counts[2] == 1


class TestStorageDependencies:
    def test_register_war_blocks_rewrite(self):
        builder = TraceBuilder()
        builder.ialu(1)        # v1 @ 0
        builder.ialu(2, 1)     # consumer @ 1
        builder.ialu(1)        # rewrite: WAR -> level 2 (not 0)
        result = analyze(builder.build(), unit(rename_registers=False))
        assert result.profile.counts == {0: 1, 1: 1, 2: 1}

    def test_renaming_removes_war(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)
        builder.ialu(1)
        result = analyze(builder.build(), unit())
        assert result.profile.counts == {0: 2, 1: 1}

    def test_unread_value_rewrite_unconstrained(self):
        # Paper semantics: Ddest is the deepest *consumer*; overwriting a
        # never-read value imposes no constraint.
        builder = TraceBuilder()
        builder.op(OpClass.IMUL, (1,), ())  # v1 @ 5, never read
        builder.ialu(1)                     # rewrite lands at 0
        result = analyze(builder.build(), AnalysisConfig(rename_registers=False))
        assert result.profile.counts == {5: 1, 0: 1}

    def test_memory_war_chains_stores(self):
        builder = TraceBuilder()
        for _ in range(5):
            builder.ialu(1)
            builder.store(1, DATA)
            builder.load(2, DATA)
        full = analyze(builder.build(), unit())
        kept = analyze(builder.build(), unit(rename_data=False))
        assert full.critical_path_length == 3
        assert kept.critical_path_length == 3 + 4 * 2

    def test_stack_and_data_switches_independent(self):
        builder = TraceBuilder()
        for _ in range(4):
            builder.ialu(1)
            builder.store(1, STACK)
            builder.load(2, STACK)
        trace = builder.build()
        stack_kept = analyze(trace, unit(rename_stack=False))
        data_kept = analyze(trace, unit(rename_data=False))
        assert stack_kept.critical_path_length > data_kept.critical_path_length
        assert data_kept.critical_path_length == 3

    def test_war_uses_deepest_consumer(self):
        builder = TraceBuilder()
        builder.ialu(1)                       # v @ 0
        builder.ialu(2, 1)                    # consumer @ 1
        builder.op(OpClass.IDIV, (3,), (1,))  # consumer @ 12
        builder.ialu(1)                       # rewrite at 13
        result = analyze(builder.build(), AnalysisConfig(rename_registers=False))
        assert 13 in result.profile.counts

    def test_same_location_read_and_written(self):
        # i = i + 1 chains are true dependencies, with or without renaming.
        for rename in (True, False):
            result = analyze(
                serial_chain(20), unit(rename_registers=rename)
            )
            assert result.critical_path_length == 20


class TestWindow:
    def test_window_one_serializes(self):
        from repro.trace.synthetic import independent_ops

        result = analyze(independent_ops(30), unit(window_size=1))
        assert result.critical_path_length == 30

    def test_window_bounds_level_width(self):
        from repro.trace.synthetic import independent_ops

        for window in (2, 5, 8):
            result = analyze(independent_ops(64), unit(window_size=window))
            assert result.profile.max_width <= window

    def test_window_larger_than_trace_equals_unwindowed(self):
        from repro.trace.synthetic import random_trace

        trace = random_trace(11, 300)
        windowed = analyze(trace, unit(window_size=10_000))
        unwindowed = analyze(trace, unit())
        assert windowed.critical_path_length == unwindowed.critical_path_length
        assert windowed.profile.counts == unwindowed.profile.counts

    def test_window_counts_all_trace_records(self):
        # Branches occupy window slots even though they are not placed.
        builder = TraceBuilder()
        builder.ialu(1)
        for _ in range(4):
            builder.branch(1)
        builder.ialu(2)  # the ialu at distance 5 in the trace
        monotone = analyze(builder.build(), unit(window_size=3))
        # op 0 was displaced before op 5 entered: firewall applies.
        assert monotone.profile.counts == {0: 1, 1: 1}

    def test_window_monotone_parallelism(self):
        from repro.trace.synthetic import random_trace

        trace = random_trace(13, 500)
        previous = 0.0
        for window in (1, 4, 16, 64, None):
            ap = analyze(trace, unit(window_size=window)).available_parallelism
            assert ap >= previous - 1e-9
            previous = ap


class TestBookkeeping:
    def test_peak_live_well_counts_locations(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2)
        builder.ialu(3, 1, 2)
        result = analyze(builder.build(), unit())
        assert result.peak_live_well == 3

    def test_config_echoed_in_result(self):
        config = unit(window_size=7)
        result = analyze(TraceBuilder().ialu(1).build(), config)
        assert result.config is config

    def test_profile_disabled(self):
        config = unit(collect_profile=False)
        result = analyze(serial_chain(10), config)
        assert result.profile is None
        assert result.critical_path_length == 10

    def test_rejects_bad_syscall_policy(self):
        with pytest.raises(ValueError):
            AnalysisConfig(syscall_policy="sometimes")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AnalysisConfig(window_size=0)


class TestInputs:
    """Every input representation lands on the same frontier result."""

    @staticmethod
    def stack_chain():
        builder = TraceBuilder()
        for _ in range(4):
            builder.ialu(1)
            builder.store(1, STACK)
            builder.load(2, STACK)
        return builder.build()

    def test_plain_iterable_matches_buffer(self):
        trace = self.stack_chain()
        config = unit(rename_stack=False)
        expected = analyze(trace, config)
        for records in (list(trace), iter(list(trace))):
            assert analyze(records, config).profile.counts == expected.profile.counts

    def test_segments_override_reaches_the_frontier(self):
        from repro.trace.segments import SegmentMap

        trace = self.stack_chain()
        config = unit(rename_stack=False)
        # With the stack floor above the stored address the stores fall in
        # the (renamed) data segment, so the WAR chain disappears.
        high = SegmentMap(stack_floor=STACK + 16, stack_top=STACK + 32)
        assert analyze(trace, config).critical_path_length > 3
        assert analyze(list(trace), config, segments=high).critical_path_length == 3
