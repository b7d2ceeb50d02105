"""Frontier loops: dispatch rules and cross-validation.

The :class:`~repro.core.stream.Frontier` loops are the python
implementation of the placement semantics; every test here pins them
field-for-field against the readable reference over the same traces and
configurations — over the columns, over a fresh copy of them with no
memoized views, and through the routed entry point (``analyze`` handed a
plain record list), so how a trace reaches the loops can never change
results.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import analyze
from repro.core.config import CONSERVATIVE_DISAMBIGUATION, AnalysisConfig
from repro.core.kernels import (
    KERNEL_DATAFLOW,
    KERNEL_GENERIC,
    KERNEL_WINDOWED,
    select_kernel,
)
from repro.core.latency import LatencyTable
from repro.core.reference import reference_analyze
from repro.core.resources import ResourceModel
from repro.core.stream import advance, finalize, new_frontier
from repro.trace.columnar import ColumnarTrace
from repro.trace.synthetic import TraceBuilder, random_trace


def assert_same_result(fast, slow):
    """Field-for-field equality (profiles compare by counts)."""
    assert fast.records_processed == slow.records_processed
    assert fast.placed_operations == slow.placed_operations
    assert fast.critical_path_length == slow.critical_path_length
    assert fast.syscalls == slow.syscalls
    assert fast.firewalls == slow.firewalls
    assert fast.branches == slow.branches
    assert fast.mispredictions == slow.mispredictions
    assert fast.peak_live_well == slow.peak_live_well
    if slow.profile is None:
        assert fast.profile is None
    else:
        assert fast.profile.counts == slow.profile.counts
    if slow.lifetimes is None:
        assert fast.lifetimes is None
    else:
        assert fast.lifetimes.lifetime_histogram == slow.lifetimes.lifetime_histogram
        assert fast.lifetimes.sharing_histogram == slow.lifetimes.sharing_histogram


def frontier_analyze(columnar, config):
    frontier = new_frontier(config, columnar.segments)
    return finalize(advance(frontier, columnar, 0, len(columnar)))


def cross_validate(trace, config):
    """One trace, one config, four ways: the frontier over the columns,
    over a fresh copy with nothing memoized, ``analyze`` on the plain
    record list, and the readable reference — all identical."""
    columnar = ColumnarTrace.from_buffer(trace)
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
    frontier = frontier_analyze(columnar, config)
    reference = reference_analyze(columnar, config)
    assert_same_result(frontier, reference)
    assert_same_result(frontier_analyze(fresh, config), reference)
    assert_same_result(analyze(list(columnar), config), reference)
    return frontier


class TestSelectKernel:
    def test_dataflow_limit_config(self):
        assert select_kernel(AnalysisConfig()) == KERNEL_DATAFLOW

    def test_window_picks_windowed(self):
        assert select_kernel(AnalysisConfig(window_size=64)) == KERNEL_WINDOWED

    def test_profile_toggle_stays_specialized(self):
        assert select_kernel(AnalysisConfig(collect_profile=False)) == KERNEL_DATAFLOW

    @pytest.mark.parametrize(
        "config",
        [
            AnalysisConfig.no_renaming(),
            AnalysisConfig(rename_stack=False),
            AnalysisConfig(branch_predictor="bimodal"),
            AnalysisConfig(collect_lifetimes=True),
            AnalysisConfig(memory_disambiguation=CONSERVATIVE_DISAMBIGUATION),
            AnalysisConfig(resources=ResourceModel(universal=2)),
            AnalysisConfig(window_size=8, collect_lifetimes=True),
        ],
    )
    def test_any_unspecialized_feature_falls_back(self, config):
        assert select_kernel(config) == KERNEL_GENERIC

    def test_unconstrained_resources_stay_specialized(self):
        config = AnalysisConfig(resources=ResourceModel())
        assert select_kernel(config) == KERNEL_DATAFLOW


#: The deterministic config grid the issue prescribes: renaming lattice x
#: window x syscall policy x memory disambiguation (plus lifetimes and a
#: predictor, which exercise the generic loop's remaining features).
CONFIG_GRID = [
    AnalysisConfig(syscall_policy=policy, window_size=window, **extra)
    for policy in ("conservative", "optimistic")
    for window in (None, 7, 64)
    for extra in (
        {},
        {"rename_registers": False, "rename_stack": False, "rename_data": False},
        {"rename_stack": False},
        {"memory_disambiguation": CONSERVATIVE_DISAMBIGUATION},
        {"collect_lifetimes": True},
        {"branch_predictor": "bimodal"},
    )
]


class TestKernelCrossValidation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_config_grid_identical_results(self, seed):
        trace = random_trace(seed=seed, length=400, memory_words=24,
                              syscall_fraction=0.03)
        for config in CONFIG_GRID:
            cross_validate(trace, config)

    def test_empty_trace(self):
        trace = TraceBuilder().build()
        for config in (AnalysisConfig(), AnalysisConfig(window_size=4)):
            result = cross_validate(trace, config)
            assert result.records_processed == 0

    def test_syscall_only_trace(self):
        builder = TraceBuilder()
        builder.syscall()
        builder.syscall()
        cross_validate(builder.build(), AnalysisConfig())
        cross_validate(builder.build(), AnalysisConfig(window_size=1))

    @settings(max_examples=60, deadline=None)
    @given(
        trace=st.builds(
            random_trace,
            seed=st.integers(0, 1_000_000),
            length=st.integers(0, 300),
            memory_words=st.integers(1, 24),
        ),
        config=st.builds(
            AnalysisConfig,
            syscall_policy=st.sampled_from(["conservative", "optimistic"]),
            rename_registers=st.booleans(),
            rename_stack=st.booleans(),
            rename_data=st.booleans(),
            window_size=st.one_of(st.none(), st.integers(1, 40)),
            latency=st.sampled_from([LatencyTable.default(), LatencyTable.unit()]),
            collect_lifetimes=st.booleans(),
            collect_profile=st.booleans(),
        ),
    )
    def test_property_frontier_matches_reference(self, trace, config):
        columnar = ColumnarTrace.from_buffer(trace)
        assert_same_result(
            frontier_analyze(columnar, config), reference_analyze(trace, config)
        )


class TestWindowedMispredictionFirewall:
    """Regression: the window ring displacement and a misprediction-raised
    floor race each other — whichever constraint lands deeper must win,
    identically in the reference and the frontier loops."""

    @staticmethod
    def crafted_trace():
        """A dependence chain, then a mispredicted branch (taken, against a
        not-taken predictor) whose resolution raises the floor while a tiny
        window is simultaneously displacing deep completion levels."""
        builder = TraceBuilder()
        builder.ialu(1)  # level 0
        for _ in range(6):  # serial chain: r2 deepens one level per op
            builder.op(2, (2,), (2, 1))
        builder.branch(2, taken=True, pc=64)  # resolves off the deep chain
        for reg in (3, 4, 5):  # independent ops squeezed by floor vs ring
            builder.ialu(reg)
        builder.op(2, (6,), (2, 3))
        builder.branch(6, taken=True, pc=64)  # same pc: predictor warmed
        for reg in (7, 8):
            builder.ialu(reg)
        return builder.build()

    @pytest.mark.parametrize("window", [1, 2, 3, 8])
    @pytest.mark.parametrize("predictor", ["not-taken", "taken", "bimodal"])
    def test_crafted_trace_all_implementations_agree(self, window, predictor):
        config = AnalysisConfig(window_size=window, branch_predictor=predictor)
        result = cross_validate(self.crafted_trace(), config)
        if predictor == "not-taken":
            assert result.mispredictions == 2

    def test_misprediction_firewall_rises(self):
        """The not-taken predictor mispredicts both taken branches; with a
        tight window the firewalls must still raise the floor (the ring
        cannot mask the misprediction penalty)."""
        config = AnalysisConfig(window_size=2, branch_predictor="not-taken")
        constrained = cross_validate(self.crafted_trace(), config)
        free = cross_validate(self.crafted_trace(), AnalysisConfig())
        assert constrained.mispredictions == 2
        assert constrained.critical_path_length > free.critical_path_length

    @pytest.mark.parametrize("seed", [11, 23, 47])
    @pytest.mark.parametrize("window", [1, 3, 9])
    @pytest.mark.parametrize("predictor", ["not-taken", "bimodal", "gshare"])
    def test_random_branchy_traces_agree(self, seed, window, predictor):
        trace = random_trace(seed=seed, length=300, memory_words=16,
                              branch_fraction=0.3)
        config = AnalysisConfig(window_size=window, branch_predictor=predictor)
        cross_validate(trace, config)
