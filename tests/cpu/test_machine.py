"""Interpreter semantics, opcode by opcode, plus tracing behaviour."""

import gc
import math

import pytest

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.cpu.errors import MachineError
from repro.cpu.machine import Machine, run_and_trace
from repro.isa.instruction import Instruction
from repro.isa.layout import STACK_TOP_WORDS
from repro.isa.locations import MEM_BASE
from repro.isa.opclasses import OpClass
from repro.isa.registers import fp_reg, parse_register
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN


def run_asm(source, **kwargs):
    """Assemble, run, return the machine."""
    machine = Machine(assemble(source), **kwargs)
    machine.run(max_instructions=kwargs.pop("max_instructions", 100_000))
    return machine


def reg(machine, name):
    return machine.regs[parse_register(name)]


class TestIntegerArithmetic:
    def test_add_sub(self):
        m = run_asm("li t0, 7\n li t1, 3\n add t2, t0, t1\n sub t3, t0, t1\n")
        assert reg(m, "t2") == 10
        assert reg(m, "t3") == 4

    def test_mul(self):
        m = run_asm("li t0, -6\n li t1, 7\n mul t2, t0, t1\n")
        assert reg(m, "t2") == -42

    def test_div_truncates_toward_zero(self):
        m = run_asm(
            "li t0, -7\n li t1, 2\n div t2, t0, t1\n"
            "li t3, 7\n li t4, -2\n div t5, t3, t4\n"
        )
        assert reg(m, "t2") == -3  # C semantics, not Python floor
        assert reg(m, "t5") == -3

    def test_rem_sign_follows_dividend(self):
        m = run_asm("li t0, -7\n li t1, 2\n rem t2, t0, t1\n")
        assert reg(m, "t2") == -1

    def test_div_by_zero_raises(self):
        with pytest.raises(MachineError, match="division by zero"):
            run_asm("li t0, 1\n li t1, 0\n div t2, t0, t1\n")

    def test_bitwise(self):
        m = run_asm(
            "li t0, 12\n li t1, 10\n and t2, t0, t1\n or t3, t0, t1\n"
            "xor t4, t0, t1\n nor t5, t0, t1\n"
        )
        assert reg(m, "t2") == 8
        assert reg(m, "t3") == 14
        assert reg(m, "t4") == 6
        assert reg(m, "t5") == ~14

    def test_shifts(self):
        m = run_asm(
            "li t0, 5\n li t1, 2\n sll t2, t0, t1\n"
            "li t3, -8\n sra t4, t3, t1\n"
        )
        assert reg(m, "t2") == 20
        assert reg(m, "t4") == -2

    def test_srl_is_logical_on_32_bits(self):
        m = run_asm("li t0, -1\n li t1, 28\n srl t2, t0, t1\n")
        assert reg(m, "t2") == 0xF

    def test_comparisons(self):
        m = run_asm(
            "li t0, 3\n li t1, 5\n"
            "slt t2, t0, t1\n sle t3, t1, t1\n sgt t4, t0, t1\n"
            "sge t5, t1, t0\n seq t6, t0, t0\n sne t7, t0, t1\n"
        )
        assert (reg(m, "t2"), reg(m, "t3"), reg(m, "t4")) == (1, 1, 0)
        assert (reg(m, "t5"), reg(m, "t6"), reg(m, "t7")) == (1, 1, 1)

    def test_immediates(self):
        m = run_asm("li t0, 10\n addi t1, t0, -3\n muli t2, t0, 4\n slti t3, t0, 11\n")
        assert reg(m, "t1") == 7
        assert reg(m, "t2") == 40
        assert reg(m, "t3") == 1


class TestFloatingPoint:
    def test_arithmetic(self):
        m = run_asm(
            "lfi f0, 1.5\n lfi f1, 2.0\n fadd f2, f0, f1\n fsub f3, f0, f1\n"
            "fmul f4, f0, f1\n fdiv f5, f0, f1\n"
        )
        assert reg(m, "f2") == 3.5
        assert reg(m, "f3") == -0.5
        assert reg(m, "f4") == 3.0
        assert reg(m, "f5") == 0.75

    def test_sqrt(self):
        m = run_asm("lfi f0, 9.0\n fsqrt f1, f0\n")
        assert reg(m, "f1") == 3.0

    def test_sqrt_negative_raises(self):
        with pytest.raises(MachineError, match="sqrt of negative"):
            run_asm("lfi f0, -1.0\n fsqrt f1, f0\n")

    def test_fdiv_by_zero_raises(self):
        with pytest.raises(MachineError, match="division by zero"):
            run_asm("lfi f0, 1.0\n lfi f1, 0.0\n fdiv f2, f0, f1\n")

    def test_unary_ops(self):
        m = run_asm("lfi f0, -2.5\n fneg f1, f0\n fabs f2, f0\n fmov f3, f0\n")
        assert reg(m, "f1") == 2.5
        assert reg(m, "f2") == 2.5
        assert reg(m, "f3") == -2.5

    def test_compares_write_int_register(self):
        m = run_asm(
            "lfi f0, 1.0\n lfi f1, 2.0\n flt t0, f0, f1\n"
            "fle t1, f1, f1\n feq t2, f0, f1\n"
        )
        assert (reg(m, "t0"), reg(m, "t1"), reg(m, "t2")) == (1, 1, 0)

    def test_conversions(self):
        m = run_asm("li t0, 3\n cvtif f0, t0\n lfi f1, -2.7\n cvtfi t1, f1\n")
        assert reg(m, "f0") == 3.0
        assert reg(m, "t1") == -2  # truncation toward zero


class TestMemory:
    def test_store_load_round_trip(self):
        m = run_asm("li t0, 99\n li t1, 0x2000\n sw t0, 0(t1)\n lw t2, 0(t1)\n")
        assert reg(m, "t2") == 99

    def test_load_untouched_word_is_zero(self):
        m = run_asm("li t1, 0x3000\n lw t0, 4(t1)\n")
        assert reg(m, "t0") == 0

    def test_absolute_addressing_via_label(self):
        m = run_asm(".data\nv: .word 123\n.text\nmain: lw t0, v\n")
        assert reg(m, "t0") == 123

    def test_fp_memory(self):
        m = run_asm("lfi f0, 2.25\n li t0, 0x2000\n sf f0, 1(t0)\n lf f1, 1(t0)\n")
        assert reg(m, "f1") == 2.25

    def test_negative_address_raises(self):
        with pytest.raises(MachineError, match="negative address"):
            run_asm("li t0, -5\n lw t1, 0(t0)\n")

    def test_sp_initialized_to_stack_top(self):
        machine = Machine(assemble("nop\n"))
        assert reg(machine, "sp") == STACK_TOP_WORDS


class TestControlFlow:
    def test_conditional_branch_taken(self):
        m = run_asm("li t0, 1\n bnez t0, skip\n li t1, 99\nskip: li t2, 5\n")
        assert reg(m, "t1") == 0
        assert reg(m, "t2") == 5

    def test_conditional_branch_not_taken(self):
        m = run_asm("li t0, 0\n bnez t0, skip\n li t1, 99\nskip: li t2, 5\n")
        assert reg(m, "t1") == 99

    def test_two_source_branch(self):
        m = run_asm("li t0, 4\n li t1, 4\n beq t0, t1, eq\n li t2, 1\neq: nop\n")
        assert reg(m, "t2") == 0

    def test_loop_executes_expected_count(self):
        m = run_asm(
            "li t0, 0\n li t1, 10\nloop: addi t0, t0, 1\n bne t0, t1, loop\n"
        )
        assert reg(m, "t0") == 10

    def test_jal_links_and_jr_returns(self):
        m = run_asm(
            "main: jal func\n li t1, 7\n j end\nfunc: li t0, 3\n jr ra\nend: nop\n"
        )
        assert reg(m, "t0") == 3
        assert reg(m, "t1") == 7

    def test_jr_invalid_target_raises(self):
        with pytest.raises(MachineError, match="jr to invalid target"):
            run_asm("li r1, -3\n jr r1\n")

    def test_fall_off_end_reported(self):
        machine = Machine(assemble("nop\nnop\n"))
        result = machine.run()
        assert result.reason == "end"
        assert result.executed == 2


class TestLimitsAndExit:
    def test_instruction_limit(self):
        machine = Machine(assemble("loop: addi t0, t0, 1\n j loop\n"))
        result = machine.run(max_instructions=500)
        assert result.reason == "limit"
        assert result.executed == 500

    def test_exit_syscall(self):
        machine = Machine(assemble("li v0, 10\n li a0, 3\n syscall\n"))
        result = machine.run()
        assert result.reason == "exit"
        # exit code register was set before the syscall number overwrote v0?
        # order in source: v0 then a0 -> a0 carries the code.
        assert result.exit_code == 3

    def test_exit_counts_final_instruction(self):
        machine = Machine(assemble("li a0, 0\n li v0, 10\n syscall\n"))
        result = machine.run()
        assert result.executed == 3


class TestTracing:
    def test_register_op_record(self):
        m = run_asm("li t0, 1\n li t1, 2\n add t2, t0, t1\n")
        record = list(m.trace)[2]
        assert record[0] == int(OpClass.IALU)
        assert record[1] == (parse_register("t0"), parse_register("t1"))
        assert record[2] == (parse_register("t2"),)

    def test_load_record_includes_memory_source(self):
        m = run_asm("li t1, 0x2000\n lw t0, 3(t1)\n")
        record = list(m.trace)[1]
        assert record[0] == int(OpClass.LOAD)
        assert record[1] == (parse_register("t1"), MEM_BASE + 0x2003)

    def test_store_record_destination_is_memory(self):
        m = run_asm("li t0, 5\n li t1, 0x2000\n sw t0, 0(t1)\n")
        record = list(m.trace)[2]
        assert record[0] == int(OpClass.STORE)
        assert record[2] == (MEM_BASE + 0x2000,)

    def test_branch_records_flags_and_pc(self):
        m = run_asm("li t0, 1\n bnez t0, tgt\n nop\ntgt: li t1, 0\n bnez t1, tgt\n nop\n")
        taken = list(m.trace)[1]
        assert taken[3] == FLAG_CONDITIONAL | FLAG_TAKEN
        assert taken[4] == 1  # pc
        fall = list(m.trace)[3]
        assert fall[3] == FLAG_CONDITIONAL

    def test_nop_not_traced(self):
        m = run_asm("nop\n li t0, 1\n")
        assert len(list(m.trace)) == 1

    def test_untraced_machine_runs_without_records(self):
        machine = Machine(assemble("li t0, 1\n li t1, 2\n"), trace=False)
        machine.run()
        assert machine.trace is None

    def test_run_and_trace_helper(self):
        result, trace = run_and_trace(assemble("li t0, 1\n"))
        assert result.executed == 1
        assert len(trace) == 1

    def test_write_to_zero_register_rejected_at_compile(self):
        with pytest.raises(MachineError, match="writes r0"):
            Machine(assemble("li zero, 1\n"))


class TestBlockEdges:
    """The simulator compiles straight-line blocks of instructions; block
    boundaries must never show in counts, traces, faults or registers."""

    LOOP = (
        "li t0, 0\n li t1, 5\n"
        "loop: addi t0, t0, 1\n add t2, t0, t0\n sw t2, 0x2000(t0)\n"
        " lw t3, 0x2000(t0)\n bne t0, t1, loop\n"
        " li a0, 0\n li v0, 10\n syscall\n"
    )

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_cap_inside_a_block_is_exact(self, trace):
        program = assemble(self.LOOP)
        full = Machine(program, trace=trace)
        assert (full.run().executed, full.regs[parse_register("t3")]) == (30, 10)
        for cap in range(1, 30):
            machine = Machine(program, trace=trace)
            result = machine.run(max_instructions=cap)
            assert (result.executed, result.reason) == (cap, "limit")
            if trace:  # no nop here, so one record per instruction
                assert machine.records == full.records[:cap]

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_divide_by_zero_inside_a_block(self, trace):
        # the fault is the loop block's third instruction, on its third entry
        machine = Machine(
            assemble(
                "li t0, 3\nloop: addi t0, t0, -1\n li t1, 12\n"
                " div t2, t1, t0\n bnez t0, loop\n"
            ),
            trace=trace,
        )
        with pytest.raises(MachineError) as caught:
            machine.run()
        assert str(caught.value) == "pc=3: integer division by zero (after 11 instructions)"
        assert caught.value.pc == 3
        if trace:
            assert len(machine.records) == 11

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_negative_address_store_inside_a_block(self, trace):
        machine = Machine(
            assemble(
                "li t0, 2\nloop: addi t0, t0, -1\n li t1, 7\n"
                " sw t1, 0(t0)\n bgez t0, loop\n"
            ),
            trace=trace,
        )
        with pytest.raises(MachineError) as caught:
            machine.run()
        assert str(caught.value) == (
            "pc=3: pc=3: store to negative address -1 (after 11 instructions)"
        )
        assert caught.value.pc == 3
        if trace:
            assert len(machine.records) == 11

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_jr_into_the_middle_of_a_compiled_block(self, trace):
        machine = Machine(
            assemble(
                "addi t1, t1, 1\n"  # pc 0: the first block runs 0..4
                "addi t2, t2, 1\n"  # pc 1: the jr target, inside that block
                "li t0, 1\n slti t3, t2, 3\n beqz t3, done\n"
                "jr t0\n"
                "done: nop\n"
            ),
            trace=trace,
        )
        result = machine.run()
        assert (result.executed, result.reason) == (16, "end")
        assert (reg(machine, "t1"), reg(machine, "t2")) == (1, 3)
        if trace:
            assert len(machine.records) == 15  # the nop is not traced
            jumps = [rec for rec in machine.records if rec[0] == int(OpClass.JUMP)]
            assert jumps == [(int(OpClass.JUMP), (parse_register("t0"),), (), 0, 5)] * 2

    def test_lfi_of_inf_and_nan(self):
        f0, f1, f2 = fp_reg(0), fp_reg(1), fp_reg(2)
        program = Program(
            instructions=[
                Instruction("lfi", dst=f0, imm=float("inf")),
                Instruction("lfi", dst=f1, imm=float("nan")),
                Instruction("fneg", dst=f2, src1=f0),
            ]
        )
        for trace in (True, False):
            machine = Machine(program, trace=trace)
            assert machine.run().executed == 3
            assert machine.regs[f0] == math.inf
            assert math.isnan(machine.regs[f1])
            assert machine.regs[f2] == -math.inf

    def test_finished_machine_is_freed_without_the_cycle_collector(self):
        # A compiled block must not form a reference cycle: one would keep
        # the whole record list alive until the next full collection.
        program = assemble(self.LOOP)
        gc.collect()
        gc.disable()
        try:
            machine = Machine(program, trace=True)
            machine.run()
            del machine
            assert gc.collect() == 0
        finally:
            gc.enable()
