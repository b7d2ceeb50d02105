"""Critical-path composition summaries."""

from repro.core.config import AnalysisConfig
from repro.core.cpath import summarize_critical_path
from repro.core.latency import LatencyTable
from repro.isa.opclasses import OpClass
from repro.trace.synthetic import TraceBuilder, serial_chain
from repro.verify.oracle import build_oracle_ddg


def unit(**kwargs):
    return AnalysisConfig(latency=LatencyTable.unit(), **kwargs)


class TestSummary:
    def test_serial_chain_fully_on_path(self):
        trace = serial_chain(12)
        ddg = build_oracle_ddg(trace, unit())
        summary = summarize_critical_path(ddg, trace)
        assert summary.length_nodes == 12
        assert summary.length_levels == 12
        assert summary.by_class == {"IALU": 12}
        assert summary.by_edge_kind == {"source": 1, "raw": 11}

    def test_war_edges_reported(self):
        builder = TraceBuilder()
        builder.ialu(1)
        builder.ialu(2, 1)
        builder.ialu(1)
        builder.ialu(3, 1)
        trace = builder.build()
        ddg = build_oracle_ddg(trace, unit(rename_registers=False))
        summary = summarize_critical_path(ddg, trace)
        assert summary.by_edge_kind.get("war", 0) >= 1

    def test_class_mix_on_path(self):
        builder = TraceBuilder()
        builder.op(OpClass.IMUL, (1,), ())
        builder.op(OpClass.FADD, (33,), ())
        builder.op(OpClass.IDIV, (2,), (1,))
        trace = builder.build()
        ddg = build_oracle_ddg(trace, AnalysisConfig())
        summary = summarize_critical_path(ddg, trace)
        # longest chain: imul(6) -> idiv(12) = 18 levels
        assert summary.length_levels == 18
        assert summary.by_class == {"IMUL": 1, "IDIV": 1}

    def test_hot_statements_ranked(self):
        builder = TraceBuilder()
        for _ in range(5):
            builder.op(OpClass.IALU, (1,), (1,), aux=7)
        builder.op(OpClass.IALU, (2,), (1,), aux=9)
        trace = builder.build()
        ddg = build_oracle_ddg(trace, unit())
        summary = summarize_critical_path(ddg, trace, top=2)
        assert summary.hot_statements[0] == (7, "IALU", 5)
        assert summary.hot_statements[1] == (9, "IALU", 1)

    def test_render_mentions_everything(self):
        trace = serial_chain(4)
        summary = summarize_critical_path(build_oracle_ddg(trace, unit()), trace)
        text = summary.render()
        assert "critical path: 4 operations" in text
        assert "IALU=4" in text
        assert "raw=3" in text

    def test_empty_trace(self):
        trace = TraceBuilder().build()
        summary = summarize_critical_path(build_oracle_ddg(trace, unit()), trace)
        assert summary.length_nodes == 0
        assert summary.by_class == {}
