"""The paper's worked examples (Figures 1-4) as executable ground truth.

Register ids 1..7 stand in for the figures' r0..r6; A, B, C, D, S are data
segment words. All figure traces use unit operation latencies.
"""

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.resources import ResourceModel
from repro.trace.synthetic import TraceBuilder
from repro.verify.oracle import build_oracle_ddg

DATA = 0x1000


def unit(**kwargs):
    return AnalysisConfig(latency=LatencyTable.unit(), **kwargs)


class TestFigure1:
    """True data dependencies only: critical path 4, profile 4/2/1/1."""

    def test_critical_path(self, figure1_trace, unit_config):
        result = analyze(figure1_trace, unit_config)
        assert result.critical_path_length == 4

    def test_profile(self, figure1_trace, unit_config):
        result = analyze(figure1_trace, unit_config)
        assert [result.profile.counts[i] for i in range(4)] == [4, 2, 1, 1]

    def test_all_eight_operations_placed(self, figure1_trace, unit_config):
        assert analyze(figure1_trace, unit_config).placed_operations == 8

    def test_available_parallelism(self, figure1_trace, unit_config):
        assert analyze(figure1_trace, unit_config).available_parallelism == 2.0

    def test_explicit_ddg_agrees(self, figure1_trace, unit_config):
        ddg = build_oracle_ddg(figure1_trace, unit_config)
        assert ddg.critical_path_length == 4
        assert ddg.placed_levels() == [0, 0, 1, 0, 0, 1, 2, 3]


class TestFigure2:
    """Storage dependencies from r0/r1 reuse: critical path 6, profile
    2/1/2/1/1/1 (the paper's section 2.3 numbers)."""

    def config(self):
        return unit(rename_registers=False, rename_stack=False, rename_data=False)

    def test_critical_path(self, figure2_trace):
        assert analyze(figure2_trace, self.config()).critical_path_length == 6

    def test_profile(self, figure2_trace):
        result = analyze(figure2_trace, self.config())
        assert [result.profile.counts[i] for i in range(6)] == [2, 1, 2, 1, 1, 1]

    def test_renaming_recovers_figure1_shape(self, figure2_trace, unit_config):
        # With full renaming the same trace collapses back to CP 4.
        assert analyze(figure2_trace, unit_config).critical_path_length == 4

    def test_explicit_ddg_agrees(self, figure2_trace):
        ddg = build_oracle_ddg(figure2_trace, self.config())
        assert ddg.critical_path_length == 6
        war_edges = [(u, v) for u, v, k in ddg.edges() if k == "war"]
        assert war_edges  # the storage dependencies exist as explicit edges


class TestFigure3:
    """Control dependency: a firewall after the unpredictable branch delays
    the later loads below the branch's resolution level."""

    @staticmethod
    def trace():
        # load r0,A ; (read r1 modelled as a load) ; cmp ; mispredicted ble ;
        # r2 <- r0 - r1 ; store ; load r3,C ; load r4,D ; r5 <- r3 + r4
        builder = TraceBuilder()
        builder.load(1, DATA + 0)              # r0 := A           level 0
        builder.load(2, DATA + 1)              # r1 := input       level 0
        builder.ialu(3, 2)                     # cmp r1            level 1
        builder.branch(3, taken=True, pc=3)    # mispredicted ble
        builder.ialu(4, 1, 2)                  # r2 := r0 - r1
        builder.store(4, DATA + 8)             # store r2, S
        builder.load(5, DATA + 2)              # load r3, C
        builder.load(6, DATA + 3)              # load r4, D
        builder.ialu(7, 5, 6)                  # r5 := r3 + r4
        return builder.build()

    def test_branch_misprediction_firewall(self):
        trace = self.trace()
        # Perfect prediction: C+D loads sit at level 0, CP set by the
        # dependent chain (cmp at 1, r2 at 2, store at 3 -> CP 4).
        perfect = analyze(trace, unit())
        assert perfect.profile.counts[0] == 4  # A, input, C, D loads together
        # "not-taken" static prediction mispredicts the taken branch: the
        # firewall delays everything after it below the branch resolution.
        mispredicted = analyze(trace, unit(branch_predictor="not-taken"))
        assert mispredicted.mispredictions == 1
        assert mispredicted.firewalls == 1
        assert mispredicted.profile.counts[0] == 2  # only A and input loads
        # The delayed C/D loads land below the branch resolution (level 2,
        # after the compare at level 1), as in the figure.
        assert mispredicted.profile.counts[2] >= 2
        assert (
            mispredicted.critical_path_length >= perfect.critical_path_length
        )

    def test_explicit_ddg_steps_through_mispredicted_branch(self):
        trace = self.trace()
        config = unit(branch_predictor="not-taken")
        ddg = build_oracle_ddg(trace, config)
        assert ddg.critical_path_length == analyze(trace, config).critical_path_length
        path = ddg.critical_path()
        records = [index for index, _ in path]
        assert 3 in records  # the mispredicted ble is on the longest chain
        # ... and the chain leaves it through the firewall it raises
        assert path[records.index(3) + 1][1] == "firewall"


class TestFigure4:
    """Resource dependencies: two universal FUs allow at most two
    operations per level, stretching Figure 1's CP from 4 to 5."""

    def test_two_functional_units(self, figure1_trace):
        config = unit(resources=ResourceModel(universal=2))
        result = analyze(figure1_trace, config)
        assert result.profile.max_width <= 2
        # The figure's hand schedule reaches CP 5; greedy first-fit in trace
        # order (load A, load B, r4, load C, ...) places r4 before load C
        # and ends at 6. Both respect the 2-ops-per-level constraint.
        assert result.critical_path_length == 6

    def test_single_functional_unit_serializes(self, figure1_trace):
        config = unit(resources=ResourceModel(universal=1))
        result = analyze(figure1_trace, config)
        assert result.critical_path_length == 8
        assert result.profile.max_width == 1

    def test_unlimited_recovers_figure1(self, figure1_trace):
        config = unit(resources=ResourceModel())
        assert analyze(figure1_trace, config).critical_path_length == 4
