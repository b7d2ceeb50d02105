"""Workload suite integrity."""

import pytest

from repro.trace.stats import compute_stats
from repro.workloads.suite import SUITE_NAMES, all_workloads, load_workload

ANALOGS = {
    "cc1",
    "doduc",
    "eqntott",
    "espresso",
    "fpppp",
    "matrix300",
    "nasker",
    "spice2g6",
    "tomcatv",
    "xlisp",
}


class TestRegistry:
    def test_ten_workloads(self):
        assert len(SUITE_NAMES) == 10

    def test_covers_every_spec_benchmark(self):
        assert {w.analog_of for w in all_workloads()} == ANALOGS

    def test_lookup_by_name(self):
        assert load_workload("xlispx").analog_of == "xlisp"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            load_workload("gcc")

    def test_fortran_analogs_use_static_frames(self):
        static = {w.name for w in all_workloads() if w.static_frames}
        assert static == {
            "doducx", "fppppx", "matrix300x", "naskerx", "spice2g6x", "tomcatvx",
        }

    def test_categories_match_paper_types(self):
        categories = {w.name: w.category for w in all_workloads()}
        assert categories["cc1x"] == "int"
        assert categories["matrix300x"] == "fp"
        assert categories["spice2g6x"] == "int+fp"


class TestCompilation:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_compiles(self, name):
        program = load_workload(name).program()
        assert len(program.instructions) > 50

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_program_cached(self, name):
        workload = load_workload(name)
        assert workload.program() is workload.program()


class TestExecution:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_runs_and_traces(self, name, workload_traces):
        trace = workload_traces[name]
        assert len(trace) == 60_000

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_trace_mix_sane(self, name, workload_traces):
        stats = compute_stats(workload_traces[name])
        assert stats.placed > 0.5 * stats.total
        assert 0 < stats.branches < 0.4 * stats.total
        assert stats.loads > 0
        assert stats.stores > 0

    def test_fp_workloads_do_fp(self, workload_traces):
        for name in ("doducx", "fppppx", "matrix300x", "naskerx", "tomcatvx"):
            assert compute_stats(workload_traces[name]).fp_operations > 0

    def test_int_workloads_do_no_fp(self, workload_traces):
        for name in ("cc1x", "eqntottx", "xlispx"):
            assert compute_stats(workload_traces[name]).fp_operations == 0

    def test_deterministic(self):
        workload = load_workload("cc1x")
        first = workload.trace(max_instructions=5000)
        second = workload.trace(max_instructions=5000)
        assert list(first) == list(second)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_workloads_make_syscalls(self, name):
        # every workload must give the System Calls Stall switch something
        # to firewall within the default analysis window
        trace = load_workload(name).trace(max_instructions=250_000)
        assert compute_stats(trace).syscalls > 0

    def test_source_accessible(self):
        source = load_workload("matrix300x").source()
        assert "dot" in source

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_pinned_outputs(self, name):
        """Functional correctness of the whole compile-and-simulate stack:
        the first outputs of every workload are pinned."""
        workload = load_workload(name)
        assert workload.expected_output_head, name
        result, _ = workload.run(max_instructions=250_000, trace=False)
        head = tuple(result.output[: len(workload.expected_output_head)])
        for got, want in zip(head, workload.expected_output_head):
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-12), name
            else:
                assert got == want, name
