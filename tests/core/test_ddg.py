"""Explicit DDG inspection: edge kinds, placed nodes and the critical-path
walk of :class:`repro.verify.oracle.OracleDDG`."""

import pytest

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.resources import ResourceModel
from repro.trace.synthetic import TraceBuilder, random_trace, serial_chain
from repro.verify.oracle import build_oracle_ddg

DATA = 0x1000


def unit(**kwargs):
    return AnalysisConfig(latency=LatencyTable.unit(), **kwargs)


def edge_set(ddg):
    return set(ddg.edges())


class TestStructure:
    def test_raw_edges(self):
        trace = TraceBuilder().ialu(1).ialu(2, 1).build()
        ddg = build_oracle_ddg(trace, unit())
        assert (0, 1, "raw") in edge_set(ddg)

    def test_war_edges_from_consumers(self):
        builder = TraceBuilder()
        builder.ialu(1)       # 0: creates v1
        builder.ialu(2, 1)    # 1: consumes v1
        builder.ialu(1)       # 2: rewrites location 1
        ddg = build_oracle_ddg(builder.build(), unit(rename_registers=False))
        assert (1, 2, "war") in edge_set(ddg)

    def test_no_war_edges_with_renaming(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)
        builder.ialu(1)
        ddg = build_oracle_ddg(builder.build(), unit())
        kinds = {k for _, _, k in ddg.edges()}
        assert "war" not in kinds

    def test_syscall_fence_edge(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.syscall()
        builder.ialu(2)
        ddg = build_oracle_ddg(builder.build(), unit())
        assert (0, 1, "fence") in edge_set(ddg)
        assert (1, 2, "firewall") in edge_set(ddg)

    def test_optimistic_syscall_not_a_node(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.syscall()
        ddg = build_oracle_ddg(builder.build(), unit(syscall_policy="optimistic"))
        assert ddg.placed_operations == 1

    def test_branches_not_nodes(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.branch(1)
        ddg = build_oracle_ddg(builder.build(), unit())
        assert ddg.placed_operations == 1

    def test_node_attributes(self):
        trace = TraceBuilder().ialu(1).build()
        ddg = build_oracle_ddg(trace, unit())
        assert ddg.placed_records() == [(0, "op", 0)]
        assert ddg.critical_path() == [(0, "source")]

    def test_preexisting_values_never_exposed(self):
        # Reading never-written locations materializes pre-exist pseudo
        # nodes; no edge may name them (they have no record index).
        trace = TraceBuilder().ialu(1, 2, 3).ialu(4, 1, 5).build()
        ddg = build_oracle_ddg(trace, unit())
        assert sorted(ddg.edges()) == [(0, 1, "raw")]


class TestCriticalPath:
    def test_serial_chain_path(self):
        ddg = build_oracle_ddg(serial_chain(10), unit())
        path = ddg.critical_path()
        assert [index for index, _ in path] == list(range(10))
        assert [kind for _, kind in path] == ["source"] + ["raw"] * 9

    def test_path_levels_strictly_increase(self):
        trace = random_trace(31, 400)
        ddg = build_oracle_ddg(trace, unit())
        level_of = {index: level for index, _, level in ddg.placed_records()}
        levels = [level_of[index] for index, _ in ddg.critical_path()]
        assert levels == sorted(set(levels))
        assert levels[-1] == ddg.critical_path_length - 1

    def test_empty_trace(self):
        ddg = build_oracle_ddg(TraceBuilder().build(), unit())
        assert ddg.critical_path() == []
        assert ddg.critical_path_length == 0


class TestVerification:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_verify_levels_random_traces(self, seed):
        """The graph's longest-path levels equal the forward pass, and its
        critical path is a chain of the graph's own edges."""
        trace = random_trace(seed, 500)
        for config in (
            unit(),
            unit(rename_registers=False, rename_stack=False, rename_data=False),
            unit(window_size=16),
            AnalysisConfig(),  # Table 1 latencies
        ):
            ddg = build_oracle_ddg(trace, config)
            result = analyze(trace, config)
            assert ddg.critical_path_length == result.critical_path_length
            assert ddg.profile().counts == result.profile.counts
            edges = edge_set(ddg)
            path = ddg.critical_path()
            assert path[0][1] == "source"
            for (u, _), (v, kind) in zip(path, path[1:]):
                assert (u, v, kind) in edges


class TestGuards:
    def test_resources_rejected(self):
        with pytest.raises(ValueError, match="resource"):
            build_oracle_ddg(serial_chain(3), unit(resources=ResourceModel(universal=1)))

    def test_branch_predictor_supported(self):
        trace = random_trace(7, 400)
        for predictor in ("taken", "not-taken", "gshare"):
            config = unit(branch_predictor=predictor)
            ddg = build_oracle_ddg(trace, config)
            result = analyze(trace, config)
            assert ddg.mispredictions == result.mispredictions > 0
            assert ddg.critical_path_length == result.critical_path_length
            assert ddg.profile().counts == result.profile.counts

    def test_max_records_enforced(self):
        with pytest.raises(ValueError, match="max_records"):
            build_oracle_ddg(serial_chain(100), unit(), max_records=50)

    def test_to_result_fields(self):
        result = build_oracle_ddg(serial_chain(5), unit()).to_result()
        assert result.placed_operations == 5
        assert result.critical_path_length == 5
        assert result.profile.total_operations == 5
