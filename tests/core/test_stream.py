"""Frontier streaming and shard splicing reproduce whole-trace analysis.

The load-bearing property of :mod:`repro.core.stream` is *exactness*:
chunked streaming and sharded stitch must equal the monolithic analyzer
field-for-field on every configuration, including the splice-ineligible
ones (which must fall back, not approximate). Equality is checked on
:func:`~repro.engine.serialize.result_to_dict` encodings — the engine's
canonical byte-identity form — never on object ``==``.
"""

import random

import pytest

from repro.core.analyzer import analyze
from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.core.resources import ResourceModel
from repro.core.stream import (
    advance,
    align_shard_size,
    finalize,
    new_frontier,
    shard_analyze_trace,
    splice,
    splice_eligible,
    stream_analyze_trace,
    summarize_segment,
)
from repro.engine.serialize import result_to_dict
from repro.trace.columnar import ColumnarTrace
from repro.trace.synthetic import TraceBuilder, random_trace
from repro.verify.generate import generate_trace, sample_config

#: One configuration per kernel/feature axis the frontier must carry.
CONFIGS = [
    AnalysisConfig(),                                   # dataflow kernel
    AnalysisConfig(window_size=4),                      # windowed kernel
    AnalysisConfig(window_size=1),
    AnalysisConfig.no_renaming(),                       # generic: WAR terms
    AnalysisConfig(rename_stack=False, window_size=8),  # generic + ring
    AnalysisConfig(syscall_policy=OPTIMISTIC),
    AnalysisConfig(memory_disambiguation="conservative"),
    AnalysisConfig(branch_predictor="bimodal"),            # sequential-only state
    AnalysisConfig(collect_lifetimes=True),
    AnalysisConfig(resources=ResourceModel(universal=2)),
]


def expected(trace, config):
    return result_to_dict(analyze(trace, config))


class TestStreamEquivalence:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunked_equals_whole(self, config, chunk):
        trace = random_trace(11, 150, syscall_fraction=0.04)
        got = result_to_dict(stream_analyze_trace(trace, config, chunk_records=chunk))
        assert got == expected(trace, config)

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("shard", [5, 16, 64])
    def test_sharded_equals_whole(self, config, shard):
        trace = random_trace(12, 150, syscall_fraction=0.04)
        got = result_to_dict(shard_analyze_trace(trace, config, shard_size=shard))
        assert got == expected(trace, config)

    def test_adversarial_cases_at_every_cut(self):
        rng = random.Random(99)
        for _ in range(50):
            config = sample_config(rng)
            trace = generate_trace(rng)
            want = expected(trace, config)
            for chunk in (1, 2, len(trace)):
                got = stream_analyze_trace(trace, config, chunk_records=chunk)
                assert result_to_dict(got) == want, config.describe()
            got = shard_analyze_trace(trace, config, shard_size=3)
            assert result_to_dict(got) == want, config.describe()

    def test_empty_trace(self):
        empty = TraceBuilder().build()
        config = AnalysisConfig()
        assert result_to_dict(stream_analyze_trace(empty, config)) == expected(
            empty, config
        )
        assert result_to_dict(shard_analyze_trace(empty, config)) == expected(
            empty, config
        )

    def test_finalize_is_repeatable(self):
        trace = ColumnarTrace.from_buffer(
            random_trace(13, 80, syscall_fraction=0.05)
        )
        config = AnalysisConfig(collect_lifetimes=True, window_size=4)
        fr = new_frontier(config, trace.segments)
        advance(fr, trace, 0, 40)
        first = result_to_dict(finalize(fr))
        assert result_to_dict(finalize(fr)) == first  # finalize did not mutate
        advance(fr, trace, 40)
        assert result_to_dict(finalize(fr)) == expected(trace, config)

    def test_advance_rejects_bad_range(self):
        trace = ColumnarTrace.from_buffer(random_trace(14, 10))
        fr = new_frontier(AnalysisConfig(), trace.segments)
        with pytest.raises(ValueError, match="bad record range"):
            advance(fr, trace, 5, 20)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_records"):
            stream_analyze_trace(random_trace(15, 10), chunk_records=0)


class TestSpliceEligibility:
    def test_eligible_configs(self):
        assert splice_eligible(AnalysisConfig())
        assert splice_eligible(AnalysisConfig.no_renaming())
        assert splice_eligible(AnalysisConfig(window_size=4))
        assert splice_eligible(AnalysisConfig(memory_disambiguation="conservative"))

    def test_ineligible_configs(self):
        assert not splice_eligible(AnalysisConfig(syscall_policy=OPTIMISTIC))
        assert not splice_eligible(AnalysisConfig(branch_predictor="bimodal"))
        assert not splice_eligible(AnalysisConfig(collect_lifetimes=True))
        assert not splice_eligible(
            AnalysisConfig(resources=ResourceModel(universal=2))
        )

    def test_align_rounds_up_to_window(self):
        assert align_shard_size(AnalysisConfig(window_size=16), 100) == 112
        assert align_shard_size(AnalysisConfig(), 100) == 100
        with pytest.raises(ValueError):
            align_shard_size(AnalysisConfig(), 0)


class TestSummaryAndSplice:
    def _segmented_trace(self):
        builder = TraceBuilder()
        builder.ialu(1, 2).ialu(2, 1).syscall().load(3, 0x1000)
        builder.ialu(4, 3).ialu(5, 4).ialu(6, 5)
        return ColumnarTrace.from_buffer(builder.build())

    def test_summary_levels_are_local(self):
        trace = self._segmented_trace()
        summary = summarize_segment(trace, AnalysisConfig())
        assert summary.count == 7
        assert summary.prefix_count == 3  # through the syscall
        # The suffix chain load->ialu->ialu->ialu from a fresh frontier:
        # levels 0(+load)..: deepest is local, independent of the prefix.
        assert summary.deepest >= 0
        assert summary.placed == 4

    def test_splice_equals_sequential_advance(self):
        trace = self._segmented_trace()
        config = AnalysisConfig()
        summary = summarize_segment(trace, config)
        stitched = new_frontier(config, trace.segments)
        advance(stitched, trace, 0, summary.prefix_count)
        splice(stitched, summary)
        sequential = new_frontier(config, trace.segments)
        advance(sequential, trace)
        assert result_to_dict(finalize(stitched)) == result_to_dict(
            finalize(sequential)
        )

    def test_rejects_ineligible_config(self):
        with pytest.raises(ValueError, match="not splice-eligible"):
            summarize_segment(
                self._segmented_trace(), AnalysisConfig(syscall_policy=OPTIMISTIC)
            )

    def test_rejects_segment_without_syscall(self):
        trace = ColumnarTrace.from_buffer(
            random_trace(16, 20, syscall_fraction=0.0)
        )
        with pytest.raises(ValueError, match="no syscall"):
            summarize_segment(trace, AnalysisConfig())
