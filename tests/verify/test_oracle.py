"""The explicit-DDG oracle agrees with the reference analyzer.

The oracle is the slow, obviously-correct end of the differential chain:
it builds the dependency graph explicitly and takes a longest path, with
no live well, no streaming state, and no shared code with the production
analyzers. These tests pin it against the reference implementation on
a hand-built mixed trace, on synthetic random traces and on generated
adversarial traces across a config grid.
"""

import pytest

from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    OPTIMISTIC,
    AnalysisConfig,
)
from repro.core.latency import LatencyTable
from repro.core.reference import reference_analyze
from repro.core.resources import ResourceModel
from repro.trace.synthetic import TraceBuilder, random_trace
from repro.verify.compare import ORACLE_FIELDS, diff_results
from repro.verify.generate import generate_trace
from repro.verify.oracle import build_oracle_ddg, oracle_analyze

import random

DATA = 0x1000


def assert_matches_reference(trace, config):
    expected = reference_analyze(trace, config)
    actual = oracle_analyze(trace, config)
    mismatches = diff_results("reference", expected, "oracle", actual)
    assert not mismatches, "\n".join(mismatches)


CONFIG_GRID = [
    pytest.param(AnalysisConfig(), id="default"),
    pytest.param(AnalysisConfig(latency=LatencyTable.unit()), id="unit-latency"),
    pytest.param(AnalysisConfig(syscall_policy=OPTIMISTIC), id="optimistic"),
    pytest.param(
        AnalysisConfig(rename_registers=True, rename_stack=True, rename_data=True),
        id="all-renamed",
    ),
    pytest.param(
        AnalysisConfig(rename_registers=False, rename_stack=False, rename_data=False),
        id="no-renaming",
    ),
    pytest.param(AnalysisConfig(window_size=2), id="window-2"),
    pytest.param(
        AnalysisConfig(window_size=4, branch_predictor="gshare"), id="predicted"
    ),
    pytest.param(
        AnalysisConfig(memory_disambiguation=CONSERVATIVE_DISAMBIGUATION),
        id="conservative-mem",
    ),
]


@pytest.fixture
def mixed_trace():
    """Loads, ALU chain, a store, a syscall, a branch — one of everything."""
    builder = TraceBuilder()
    builder.load(1, DATA + 0)
    builder.load(2, DATA + 1)
    builder.ialu(3, 1, 2)
    builder.store(3, DATA + 2)
    builder.syscall()
    builder.load(4, DATA + 2)
    builder.branch(4, taken=True, pc=7)
    builder.ialu(3, 3)  # read-then-write of r3
    return builder.build()


class TestAgainstReference:
    @pytest.mark.parametrize("config", CONFIG_GRID)
    def test_mixed_trace(self, mixed_trace, config):
        assert_matches_reference(mixed_trace, config)

    @pytest.mark.parametrize("config", CONFIG_GRID)
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_traces(self, seed, config):
        trace = generate_trace(random.Random(seed))
        assert_matches_reference(trace, config)

    @pytest.mark.parametrize("config", CONFIG_GRID)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_traces(self, seed, config):
        """The synthetic traces the inspection tests (tests/core/test_ddg.py)
        walk, as extra inputs."""
        assert_matches_reference(random_trace(seed, 500), config)

    def test_empty_trace(self):
        builder = TraceBuilder()
        builder.op(11)  # a lone NOP: zero placed operations
        assert_matches_reference(builder.build(), AnalysisConfig())


class TestOracleContract:
    def test_rejects_resource_models(self, mixed_trace):
        config = AnalysisConfig(resources=ResourceModel(universal=2))
        with pytest.raises(ValueError, match="resource"):
            oracle_analyze(mixed_trace, config)

    def test_rejects_oversized_traces(self):
        builder = TraceBuilder()
        for _ in range(10):
            builder.ialu(1, 1)
        with pytest.raises(ValueError, match="max_records"):
            build_oracle_ddg(builder.build(), AnalysisConfig(), max_records=5)

    def test_sentinel_fields(self, mixed_trace):
        result = oracle_analyze(mixed_trace, AnalysisConfig())
        assert result.firewalls == -1
        assert result.peak_live_well == -1
        assert result.lifetimes is None

    def test_defined_fields_are_complete(self, mixed_trace):
        result = oracle_analyze(mixed_trace, AnalysisConfig())
        for name in ORACLE_FIELDS:
            assert hasattr(result, name)

    def test_placed_records_in_trace_order(self, mixed_trace):
        ddg = build_oracle_ddg(mixed_trace, AnalysisConfig())
        indices = [index for index, _, _ in ddg.placed_records()]
        assert indices == sorted(indices)

    def test_syscall_firewalls_partition_levels(self, mixed_trace):
        """The structural property the harness's firewall check relies on."""
        from repro.verify.oracle import KIND_SYSCALL

        ddg = build_oracle_ddg(
            mixed_trace, AnalysisConfig(syscall_policy=CONSERVATIVE)
        )
        placed = ddg.placed_records()
        positions = [i for i, (_, kind, _) in enumerate(placed) if kind == KIND_SYSCALL]
        assert positions  # the fixture has a syscall
        for position in positions:
            level = placed[position][2]
            assert all(lvl < level for _, _, lvl in placed[:position])
            assert all(lvl > level for _, _, lvl in placed[position + 1:])
