"""Workload definition and loading."""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.asm.program import Program
from repro.cpu.machine import Machine, RunResult
from repro.lang.compiler import compile_source
from repro.trace.columnar import ColumnarTrace


@dataclass
class Workload:
    """One benchmark program of the suite.

    Attributes:
        name: suite key (e.g. ``"matrix300x"``).
        analog_of: the SPEC89 benchmark this mirrors.
        category: ``"int"`` / ``"fp"`` / ``"int+fp"`` (paper Table 2 column).
        description: one-line dependency-character summary.
        source_file: MiniC file under ``repro/workloads/programs``.
        int_inputs / float_inputs: values for the read syscalls.
        expected_output_head: first few output values, used by tests to pin
            functional correctness of the simulator+compiler stack.
    """

    name: str
    analog_of: str
    category: str
    description: str
    source_file: str
    #: FORTRAN-analog workloads compile with fixed (static) frames, C
    #: analogs with dynamic sp frames — matching the source language of the
    #: SPEC original (see repro.lang.codegen).
    static_frames: bool = False
    int_inputs: Tuple[int, ...] = ()
    float_inputs: Tuple[float, ...] = ()
    expected_output_head: Tuple = ()
    _programs: dict = field(default_factory=dict, repr=False, compare=False)
    _source: Optional[str] = field(default=None, repr=False, compare=False)

    def source(self) -> str:
        """The MiniC source text."""
        if self._source is None:
            package = importlib.resources.files("repro.workloads") / "programs"
            self._source = (package / self.source_file).read_text()
        return self._source

    def program(self, optimize: bool = False) -> Program:
        """The compiled program (cached per optimization flag)."""
        if optimize not in self._programs:
            self._programs[optimize] = compile_source(
                self.source(), static_frames=self.static_frames, optimize=optimize
            )
        return self._programs[optimize]

    def run(
        self,
        max_instructions: Optional[int] = None,
        trace: bool = True,
        optimize: bool = False,
    ) -> Tuple[RunResult, Optional[ColumnarTrace]]:
        """Execute, returning ``(run_result, trace_or_None)``. The
        simulator's record list is flattened into columns once and
        dropped with the machine."""
        machine = Machine(
            self.program(optimize=optimize),
            int_inputs=list(self.int_inputs),
            float_inputs=list(self.float_inputs),
            trace=trace,
        )
        result = machine.run(max_instructions=max_instructions)
        return result, machine.trace

    def trace(
        self, max_instructions: Optional[int] = None, optimize: bool = False
    ) -> ColumnarTrace:
        """Execute and return just the trace (the paper analyzes the first
        N instructions of each benchmark)."""
        _, trace = self.run(max_instructions=max_instructions, optimize=optimize)
        return trace
