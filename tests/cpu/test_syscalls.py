"""Syscall layer behaviour."""

import pytest

from repro.asm.assembler import assemble
from repro.cpu.errors import MachineError
from repro.cpu.machine import Machine


def run(source, **kwargs):
    machine = Machine(assemble(source), **kwargs)
    result = machine.run(max_instructions=10_000)
    return machine, result


class TestOutput:
    def test_print_int(self):
        machine, result = run("li a0, 42\n li v0, 1\n syscall\n")
        assert result.output == [42]

    def test_print_float(self):
        machine, result = run("lfi f12, 2.5\n li v0, 2\n syscall\n")
        assert result.output == [2.5]

    def test_print_char(self):
        machine, result = run("li a0, 65\n li v0, 11\n syscall\n")
        assert result.output == ["A"]

    def test_output_order_preserved(self):
        machine, result = run(
            "li a0, 1\n li v0, 1\n syscall\n"
            "li a0, 2\n li v0, 1\n syscall\n"
        )
        assert result.output == [1, 2]


class TestInput:
    def test_read_int(self):
        machine, _ = run("li v0, 5\n syscall\n move t0, v0\n", int_inputs=[17])
        assert machine.regs[8] == 17

    def test_read_int_sequence(self):
        machine, result = run(
            "li v0, 5\n syscall\n move a0, v0\n li v0, 1\n syscall\n"
            "li v0, 5\n syscall\n move a0, v0\n li v0, 1\n syscall\n",
            int_inputs=[3, 4],
        )
        assert result.output == [3, 4]

    def test_read_float(self):
        machine, _ = run("li v0, 6\n syscall\n fmov f1, f0\n", float_inputs=[1.25])
        assert machine.regs[33] == 1.25

    def test_exhausted_input_raises(self):
        with pytest.raises(MachineError, match="input exhausted"):
            run("li v0, 5\n syscall\n")


class TestHeap:
    def test_sbrk_returns_consecutive_blocks(self):
        machine, _ = run(
            "li a0, 4\n li v0, 9\n syscall\n move t0, v0\n"
            "li a0, 8\n li v0, 9\n syscall\n move t1, v0\n"
        )
        first, second = machine.regs[8], machine.regs[9]
        assert second == first + 4

    def test_sbrk_starts_at_data_end(self):
        machine, _ = run(
            ".data\nv: .word 1, 2, 3\n.text\nmain: li a0, 1\n li v0, 9\n syscall\n move t0, v0\n"
        )
        assert machine.regs[8] == machine.program.data_end


class TestErrors:
    def test_unknown_syscall(self):
        with pytest.raises(MachineError, match="unknown syscall"):
            run("li v0, 77\n syscall\n")

    def test_trace_records_syscall_dest_for_read(self):
        machine, _ = run("li v0, 5\n syscall\n", int_inputs=[1])
        record = list(machine.trace)[-1]
        assert record[2] == (2,)  # writes v0

    def test_trace_records_no_dest_for_print(self):
        machine, _ = run("li a0, 1\n li v0, 1\n syscall\n")
        record = list(machine.trace)[-1]
        assert record[2] == ()
