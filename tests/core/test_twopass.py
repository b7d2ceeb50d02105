"""Two-pass (reverse lifetime) analysis: method 1 vs method 2."""

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.twopass import compute_kill_lists, twopass_analyze
from repro.trace.synthetic import TraceBuilder, random_trace


def unit(**kwargs):
    return AnalysisConfig(latency=LatencyTable.unit(), **kwargs)


class TestKillLists:
    def test_last_read_marked(self):
        builder = TraceBuilder()
        builder.ialu(1)       # 0: create v1
        builder.ialu(2, 1)    # 1: read v1
        builder.ialu(3, 1)    # 2: last read of v1
        kills = compute_kill_lists(list(builder.build()))
        assert kills[1] == ()
        assert kills[2] == (1,)

    def test_read_before_rewrite_is_last(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)    # 1: last read (rewritten next)
        builder.ialu(1)
        builder.ialu(3, 1)    # 3: last read of the new value
        kills = compute_kill_lists(list(builder.build()))
        assert kills[1] == (1,)
        assert kills[3] == (1,)

    def test_branch_reads_ignored_by_default(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)    # would be last read...
        builder.branch(1)     # ...branch read doesn't count
        kills = compute_kill_lists(list(builder.build()))
        assert kills[1] == (1,)

    def test_branch_reads_counted_when_requested(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)
        builder.branch(1)
        kills = compute_kill_lists(list(builder.build()), branch_reads=True)
        assert kills[1] == ()  # the branch still reads v1 later

    def test_syscall_argument_not_a_read(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)
        builder.syscall(1)
        kills = compute_kill_lists(list(builder.build()))
        assert kills[1] == (1,)

    def test_optimistic_syscall_dest_is_not_a_rebind(self):
        """Regression: under the optimistic policy the forward pass skips
        syscall records entirely, so a syscall destination must not make
        an earlier read look like the last use (found by ``verify``)."""
        from repro.isa.opclasses import OpClass

        builder = TraceBuilder()
        builder.ialu(5)                       # 0: create v5
        builder.ialu(3, 5)                    # 1: read v5
        builder.op(OpClass.SYSCALL, (5,))     # 2: syscall "writing" r5
        builder.ialu(1, 5)                    # 3: still reads the value from 0
        records = list(builder.build())
        conservative = compute_kill_lists(records)
        optimistic = compute_kill_lists(records, optimistic_syscalls=True)
        assert conservative[1] == (5,)  # the syscall really rebinds r5
        assert optimistic[1] == ()      # the record is ignored wholesale
        assert optimistic[3] == (5,)


class TestEquivalence:
    CONFIGS = [
        unit(),
        unit(syscall_policy="optimistic"),
        unit(rename_registers=False, rename_stack=False, rename_data=False),
        unit(rename_data=False),
        unit(window_size=8),
        AnalysisConfig(),  # Table 1 latencies
        AnalysisConfig(branch_predictor="bimodal"),
        unit(collect_lifetimes=True),
    ]

    def test_identical_results_on_random_traces(self):
        for seed in (1, 5, 9):
            trace = random_trace(seed, 600)
            for config in self.CONFIGS:
                forward = analyze(trace, config)
                twopass = twopass_analyze(trace, config)
                assert (
                    forward.critical_path_length == twopass.critical_path_length
                ), config.describe()
                assert forward.placed_operations == twopass.placed_operations
                if forward.profile is not None:
                    assert forward.profile.counts == twopass.profile.counts
                if forward.lifetimes is not None:
                    assert (
                        forward.lifetimes.lifetime_histogram
                        == twopass.lifetimes.lifetime_histogram
                    )
                    assert (
                        forward.lifetimes.sharing_histogram
                        == twopass.lifetimes.sharing_histogram
                    )

    def test_peak_live_well_not_larger(self):
        trace = random_trace(3, 2000)
        forward = analyze(trace, unit())
        twopass = twopass_analyze(trace, unit())
        assert twopass.peak_live_well <= forward.peak_live_well

    def test_optimistic_syscall_with_dests_matches_forward(self):
        """End-to-end shape of the same regression: legacy and twopass
        agree on a trace whose syscall carries destination registers."""
        from repro.isa.opclasses import OpClass

        builder = TraceBuilder()
        builder.op(OpClass.IALU, (5, 2))
        builder.ialu(3, 5, 4)
        builder.op(OpClass.SYSCALL, (5,), (1,))
        builder.ialu(1, 5, 1)
        trace = builder.build()
        for config in (
            unit(syscall_policy="optimistic"),
            unit(
                syscall_policy="optimistic",
                rename_registers=True,
                rename_stack=True,
                rename_data=True,
            ),
        ):
            forward = analyze(trace, config)
            twopass = twopass_analyze(trace, config)
            assert forward.critical_path_length == twopass.critical_path_length
            assert forward.profile.counts == twopass.profile.counts

    def test_reclamation_actually_shrinks_working_set(self):
        # A long loop over many distinct memory words: method 2 keeps every
        # word forever; method 1 reclaims each after its last read.
        builder = TraceBuilder()
        for i in range(500):
            builder.ialu(1)
            builder.store(1, 0x1000 + i)
            builder.load(2, 0x1000 + i)
        trace = builder.build()
        forward = analyze(trace, unit())
        twopass = twopass_analyze(trace, unit())
        assert forward.peak_live_well > 500
        assert twopass.peak_live_well < 50
