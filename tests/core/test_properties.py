"""Hypothesis property tests: cross-validation and invariants.

The strongest correctness argument in this reproduction: four independent
implementations of the placement semantics (the forward pass, the readable
reference, the two-pass variant, and the explicit DDG with its
longest-path levels, :mod:`repro.verify.oracle`) must agree on arbitrary
traces under arbitrary configurations.
"""

from hypothesis import given, settings, strategies as st

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.reference import reference_analyze
from repro.core.twopass import twopass_analyze
from repro.trace.synthetic import random_trace
from repro.verify.oracle import build_oracle_ddg

configs = st.builds(
    AnalysisConfig,
    syscall_policy=st.sampled_from(["conservative", "optimistic"]),
    rename_registers=st.booleans(),
    rename_stack=st.booleans(),
    rename_data=st.booleans(),
    window_size=st.one_of(st.none(), st.integers(1, 40)),
    latency=st.sampled_from([LatencyTable.default(), LatencyTable.unit()]),
    collect_lifetimes=st.booleans(),
)

traces = st.builds(
    random_trace,
    seed=st.integers(0, 1_000_000),
    length=st.integers(0, 300),
    memory_words=st.integers(1, 24),
)


@settings(max_examples=80, deadline=None)
@given(trace=traces, config=configs)
def test_analyzer_matches_reference(trace, config):
    fast = analyze(trace, config)
    slow = reference_analyze(trace, config)
    assert fast.critical_path_length == slow.critical_path_length
    assert fast.placed_operations == slow.placed_operations
    assert fast.profile.counts == slow.profile.counts
    assert fast.syscalls == slow.syscalls
    assert fast.firewalls == slow.firewalls
    assert fast.peak_live_well == slow.peak_live_well
    if config.collect_lifetimes:
        assert fast.lifetimes.lifetime_histogram == slow.lifetimes.lifetime_histogram
        assert fast.lifetimes.sharing_histogram == slow.lifetimes.sharing_histogram


@settings(max_examples=60, deadline=None)
@given(trace=traces, config=configs)
def test_analyzer_matches_twopass(trace, config):
    forward = analyze(trace, config)
    twopass = twopass_analyze(trace, config)
    assert forward.critical_path_length == twopass.critical_path_length
    assert forward.profile.counts == twopass.profile.counts
    assert twopass.peak_live_well <= max(forward.peak_live_well, 1)


@settings(max_examples=60, deadline=None)
@given(trace=traces, config=configs)
def test_analyzer_matches_explicit_ddg(trace, config):
    result = analyze(trace, config)
    ddg = build_oracle_ddg(trace, config)
    assert ddg.critical_path_length == result.critical_path_length
    assert ddg.placed_operations == result.placed_operations
    assert ddg.profile().counts == result.profile.counts


@settings(max_examples=50, deadline=None)
@given(trace=traces)
def test_profile_mass_equals_placed_operations(trace):
    result = analyze(trace, AnalysisConfig())
    assert result.profile.total_operations == result.placed_operations


@settings(max_examples=50, deadline=None)
@given(trace=traces)
def test_renaming_lattice_monotone(trace):
    """Removing fewer storage dependencies never shortens the critical path."""
    none = analyze(trace, AnalysisConfig.no_renaming()).critical_path_length
    regs = analyze(trace, AnalysisConfig.registers_renamed()).critical_path_length
    stack = analyze(
        trace, AnalysisConfig.registers_and_stack_renamed()
    ).critical_path_length
    full = analyze(trace, AnalysisConfig()).critical_path_length
    assert none >= regs >= stack >= full


@settings(max_examples=50, deadline=None)
@given(trace=traces, small=st.integers(1, 20), growth=st.integers(1, 30))
def test_window_growth_monotone(trace, small, growth):
    """A larger window never lengthens the critical path."""
    narrow = analyze(trace, AnalysisConfig(window_size=small))
    wide = analyze(trace, AnalysisConfig(window_size=small + growth))
    unbounded = analyze(trace, AnalysisConfig())
    assert narrow.critical_path_length >= wide.critical_path_length
    assert wide.critical_path_length >= unbounded.critical_path_length


@settings(max_examples=50, deadline=None)
@given(trace=traces, window=st.integers(1, 16))
def test_window_bounds_profile_width(trace, window):
    result = analyze(trace, AnalysisConfig(window_size=window))
    assert result.profile.max_width <= window


@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_conservative_never_faster_than_optimistic(trace):
    conservative = analyze(trace, AnalysisConfig.dataflow_limit("conservative"))
    optimistic = analyze(trace, AnalysisConfig.dataflow_limit("optimistic"))
    assert (
        conservative.critical_path_length >= optimistic.critical_path_length
    )


@settings(max_examples=40, deadline=None)
@given(trace=traces, k=st.integers(1, 8))
def test_resource_limit_never_shortens_cp(trace, k):
    from repro.core.resources import ResourceModel

    free = analyze(trace, AnalysisConfig())
    limited = analyze(trace, AnalysisConfig(resources=ResourceModel(universal=k)))
    assert limited.critical_path_length >= free.critical_path_length
    assert limited.profile.max_width <= k


@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_unit_latency_cp_bounded_by_placed_ops(trace):
    result = analyze(trace, AnalysisConfig(latency=LatencyTable.unit()))
    assert result.critical_path_length <= max(result.placed_operations, 0) + 1
