"""Round-trip properties across the toolchain."""

import pytest

from repro.asm.assembler import assemble
from repro.cpu.machine import Machine
from repro.lang.compiler import compile_source, compile_to_assembly
from repro.trace.io import read_trace_file, write_trace_file
from repro.workloads.suite import SUITE_NAMES, load_workload


class TestCompilerDeterminism:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_assembly_deterministic(self, name):
        source = load_workload(name).source()
        static = load_workload(name).static_frames
        first = compile_to_assembly(source, static_frames=static)
        second = compile_to_assembly(source, static_frames=static)
        assert first == second


class TestDisassemblyRoundTrip:
    @pytest.mark.parametrize("name", ["cc1x", "naskerx", "xlispx"])
    def test_workload_disassembles_and_reassembles(self, name):
        workload = load_workload(name)
        program = workload.program()
        again = assemble(program.disassemble())
        assert len(again.instructions) == len(program.instructions)
        # note: data segments are not carried by disassemble(); compare text
        for ours, theirs in zip(program.instructions, again.instructions):
            assert str(ours) == str(theirs)


class TestTraceFileRoundTrip:
    def test_workload_trace_survives_disk(self, tmp_path):
        trace = load_workload("espressox").trace(max_instructions=20_000)
        path = tmp_path / "espressox.pgt"
        write_trace_file(path, trace)
        loaded = read_trace_file(path)
        assert list(loaded) == list(trace)

    def test_analysis_identical_after_round_trip(self, tmp_path):
        from repro.core import AnalysisConfig, analyze

        trace = load_workload("fppppx").trace(max_instructions=20_000)
        path = tmp_path / "f.pgt"
        write_trace_file(path, trace)
        loaded = read_trace_file(path)
        direct = analyze(trace, AnalysisConfig())
        reloaded = analyze(loaded, AnalysisConfig())
        assert direct.critical_path_length == reloaded.critical_path_length
        assert direct.profile.counts == reloaded.profile.counts


class TestMachineReplayDeterminism:
    def test_two_runs_identical_traces(self):
        program = compile_source(load_workload("eqntottx").source())
        first = Machine(program)
        first.run(max_instructions=30_000)
        second = Machine(program)
        second.run(max_instructions=30_000)
        assert list(first.trace) == list(second.trace)
