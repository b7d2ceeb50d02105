"""End-to-end pipelines: MiniC -> asm -> simulator -> Paragraph.

These tests assert analytically derivable parallelism numbers for small
kernels through the *whole* stack, plus the paper's qualitative findings on
the real workload suite.
"""

import pytest

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.reference import reference_analyze
from repro.core.twopass import twopass_analyze
from repro.cpu.machine import Machine
from repro.lang.compiler import compile_source
from repro.verify.oracle import build_oracle_ddg
from repro.workloads.suite import load_workload


def trace_of(source, static_frames=False, cap=200_000, **kwargs):
    machine = Machine(compile_source(source, static_frames=static_frames), **kwargs)
    machine.run(max_instructions=cap)
    return machine.trace


class TestAnalyticKernels:
    def test_serial_recurrence_has_no_parallelism(self):
        # x = x*3+1 iterated: the loop body is one serial chain; available
        # parallelism must stay close to 1 even fully renamed.
        trace = trace_of(
            """
            void main() {
                int x = 1; int i;
                for (i = 0; i < 200; i = i + 1) { x = x * 3 + 1; }
                print_int(x & 65535);
            }
            """
        )
        result = analyze(trace, AnalysisConfig(latency=LatencyTable.unit()))
        # the x-chain advances 2 levels per ~8-instruction iteration
        assert result.available_parallelism < 6.0

    def test_independent_iterations_parallelize(self):
        # out[i] = i*i+i: iterations independent; only the induction chain
        # serializes, so parallelism is much higher than the serial case.
        trace = trace_of(
            """
            int out[256];
            void main() {
                int i;
                for (i = 0; i < 256; i = i + 1) { out[i] = i * i + i; }
                print_int(out[255]);
            }
            """
        )
        result = analyze(trace, AnalysisConfig(latency=LatencyTable.unit()))
        assert result.available_parallelism > 3.5

    def test_reduction_bound_by_fadd_latency(self):
        # s += a[i]: the fadd chain of length N*6 bounds the critical path
        # from below.
        trace = trace_of(
            """
            float a[128];
            void main() {
                float s = 0.0; int i;
                for (i = 0; i < 128; i = i + 1) { a[i] = float(i); }
                for (i = 0; i < 128; i = i + 1) { s = s + a[i]; }
                print_float(s);
            }
            """
        )
        result = analyze(trace, AnalysisConfig())
        assert result.critical_path_length >= 128 * 6

    def test_window_one_equals_serial_execution(self):
        trace = trace_of(
            "void main() { int i; int s = 0;"
            " for (i = 0; i < 50; i = i + 1) { s = s + i; } print_int(s); }"
        )
        unit = AnalysisConfig(latency=LatencyTable.unit(), window_size=1)
        result = analyze(trace, unit)
        # with unit latencies and W=1, every placed op gets its own level
        assert result.critical_path_length == result.placed_operations

    def test_three_implementations_agree_on_compiled_code(self):
        trace = trace_of(load_workload("xlispx").source(), cap=8000)
        # The explicit DDG is quadratic in window-displaced firewall
        # sources (window 32 at 8,000 records is ~22M edges), so the
        # windowed config checks it on a 2,000-record prefix.
        prefix = trace.head(2000)
        for config, explicit in (
            (AnalysisConfig(), trace),
            (AnalysisConfig.no_renaming(), trace),
            (AnalysisConfig(window_size=32), prefix),
        ):
            fast = analyze(trace, config)
            slow = reference_analyze(trace, config)
            twopass = twopass_analyze(trace, config)
            assert fast.critical_path_length == slow.critical_path_length
            assert fast.critical_path_length == twopass.critical_path_length
            assert fast.profile.counts == twopass.profile.counts
            ddg = build_oracle_ddg(explicit, config, max_records=8000)
            expected = fast if explicit is trace else analyze(explicit, config)
            assert expected.critical_path_length == ddg.critical_path_length
            assert expected.profile.counts == ddg.profile().counts


class TestPaperFindings:
    """The paper's headline qualitative results on our suite."""

    @pytest.fixture(scope="class")
    def traces(self):
        cap = 100_000
        names = ("xlispx", "matrix300x", "tomcatvx", "naskerx", "espressox", "eqntottx")
        return {name: load_workload(name).trace(max_instructions=cap) for name in names}

    def test_xlisp_least_parallel(self, traces):
        """The interpreter's serial abstract machine yields the least
        parallelism (paper section 4)."""
        xlisp = analyze(traces["xlispx"], AnalysisConfig()).available_parallelism
        for name in ("matrix300x", "tomcatvx", "naskerx", "eqntottx"):
            other = analyze(traces[name], AnalysisConfig()).available_parallelism
            assert xlisp < other

    def test_no_renaming_crushes_parallelism(self, traces):
        """Without renaming, every workload drops to single digits."""
        for name, trace in traces.items():
            result = analyze(trace, AnalysisConfig.no_renaming())
            assert result.available_parallelism < 10.0

    def test_stack_renaming_unlocks_fortran_kernels(self, traces):
        """matrix300/tomcatv need stack renaming on top of registers."""
        for name in ("matrix300x", "tomcatvx"):
            regs = analyze(traces[name], AnalysisConfig.registers_renamed())
            stack = analyze(traces[name], AnalysisConfig.registers_and_stack_renamed())
            assert stack.available_parallelism > 1.5 * regs.available_parallelism

    def test_memory_renaming_unlocks_espresso(self, traces):
        regs_stack = analyze(
            traces["espressox"], AnalysisConfig.registers_and_stack_renamed()
        )
        full = analyze(traces["espressox"], AnalysisConfig())
        assert full.available_parallelism > 2.0 * regs_stack.available_parallelism

    def test_nasker_insensitive_beyond_registers(self, traces):
        regs = analyze(traces["naskerx"], AnalysisConfig.registers_renamed())
        full = analyze(traces["naskerx"], AnalysisConfig())
        assert full.available_parallelism < 1.1 * regs.available_parallelism

    def test_modest_window_gives_modest_parallelism(self, traces):
        """W~100 suffices for single-digit-to-tens parallelism (paper's
        superscalar takeaway)."""
        for name, trace in traces.items():
            result = analyze(trace, AnalysisConfig(window_size=128))
            assert 1.5 < result.available_parallelism < 64.0

    def test_large_windows_required_for_full_parallelism(self, traces):
        """High-ILP workloads expose only a small fraction of their
        parallelism at W=1024 (paper Figure 8)."""
        trace = traces["matrix300x"]
        windowed = analyze(trace, AnalysisConfig(window_size=1024))
        unbounded = analyze(trace, AnalysisConfig())
        assert (
            windowed.available_parallelism < 0.5 * unbounded.available_parallelism
        )

    def test_parallelism_is_bursty(self, traces):
        """Figure 7: profiles alternate bursts and droughts."""
        result = analyze(traces["matrix300x"], AnalysisConfig())
        assert result.profile.burstiness() > 1.0
