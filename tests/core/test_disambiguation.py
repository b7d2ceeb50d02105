"""Conservative memory-disambiguation model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.reference import reference_analyze
from repro.core.twopass import twopass_analyze
from repro.trace.synthetic import TraceBuilder, random_trace
from repro.verify.oracle import build_oracle_ddg

DATA = 0x1000


def unit(**kwargs):
    return AnalysisConfig(latency=LatencyTable.unit(), **kwargs)


def conservative(**kwargs):
    return unit(memory_disambiguation="conservative", **kwargs)


class TestSemantics:
    def test_validation(self):
        with pytest.raises(ValueError, match="memory_disambiguation"):
            AnalysisConfig(memory_disambiguation="oracle")

    def test_independent_loads_unaffected(self):
        builder = TraceBuilder()
        for i in range(5):
            builder.load(1 + i, DATA + i)
        result = analyze(builder.build(), conservative())
        assert result.critical_path_length == 1  # no stores -> no ordering

    def test_load_waits_for_unrelated_store(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.store(1, DATA)        # store at level 1
        builder.load(2, DATA + 50)    # different address...
        perfect = analyze(builder.build(), unit())
        pessimistic = analyze(builder.build(), conservative())
        assert perfect.critical_path_length == 2
        assert pessimistic.critical_path_length == 3  # ...still waits

    def test_store_waits_for_prior_loads(self):
        builder = TraceBuilder()
        builder.load(1, DATA)          # level 0
        builder.load(2, DATA + 1)      # level 0
        builder.store(9, DATA + 99)    # pre-existing value, unrelated address
        perfect = analyze(builder.build(), unit())
        pessimistic = analyze(builder.build(), conservative())
        assert perfect.critical_path_length == 1
        assert pessimistic.critical_path_length == 2

    def test_stores_serialize(self):
        builder = TraceBuilder()
        for i in range(6):
            builder.ialu(1)
            builder.store(1, DATA + i)  # six different addresses
        perfect = analyze(builder.build(), unit())
        pessimistic = analyze(builder.build(), conservative())
        assert perfect.critical_path_length == 2
        assert pessimistic.critical_path_length == 7

    def test_load_latency_applied_to_alias_edge(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.store(1, DATA)
        builder.load(2, DATA + 7)
        result = analyze(builder.build(), AnalysisConfig(
            latency=LatencyTable.default().with_overrides(LOAD=5),
            memory_disambiguation="conservative",
        ))
        # store completes at 1; the aliased load needs 5 more levels
        assert result.critical_path_length == 7

    def test_never_faster_than_perfect(self):
        trace = random_trace(17, 800)
        perfect = analyze(trace, AnalysisConfig())
        pessimistic = analyze(
            trace, AnalysisConfig(memory_disambiguation="conservative")
        )
        assert (
            pessimistic.critical_path_length >= perfect.critical_path_length
        )


class TestCrossValidation:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), length=st.integers(0, 250))
    def test_matches_reference(self, seed, length):
        trace = random_trace(seed, length)
        config = AnalysisConfig(memory_disambiguation="conservative")
        fast = analyze(trace, config)
        slow = reference_analyze(trace, config)
        assert fast.critical_path_length == slow.critical_path_length
        assert fast.profile.counts == slow.profile.counts

    def test_matches_twopass(self):
        trace = random_trace(23, 700)
        config = AnalysisConfig(memory_disambiguation="conservative")
        assert (
            analyze(trace, config).critical_path_length
            == twopass_analyze(trace, config).critical_path_length
        )

    def test_explicit_ddg_agrees(self):
        trace = random_trace(1, 400)
        for config in (conservative(), AnalysisConfig(memory_disambiguation="conservative")):
            ddg = build_oracle_ddg(trace, config)
            result = analyze(trace, config)
            assert ddg.critical_path_length == result.critical_path_length
            assert ddg.profile().counts == result.profile.counts
            assert "mem" in {kind for _, _, kind in ddg.edges()}
