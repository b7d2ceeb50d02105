"""The tracing interpreter.

The machine *compiles* each static instruction into a Python closure at load
time; executing one dynamic instruction is one closure call returning the
next pc. Trace records for register-register operations are built once at
compile time (they are fully static) and appended by reference to a plain
list, which keeps tracing overhead low on hot loops; :attr:`Machine.trace`
flattens that list into a :class:`~repro.trace.columnar.ColumnarTrace`.

The simulator plays the role of the paper's DECstation + Pixie combination:
it runs the program and emits the serial trace that Paragraph analyzes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.asm.program import Program
from repro.cpu.errors import MachineError, ProgramExit
from repro.cpu.memory import Memory
from repro.cpu.syscalls import (
    SYS_READ_FLOAT,
    SYS_READ_INT,
    SYS_SBRK,
    SyscallHandler,
)
from repro.isa.layout import STACK_TOP_WORDS
from repro.isa.locations import MEM_BASE
from repro.isa.opclasses import OpClass
from repro.isa.registers import FP_REG_BASE, REG_SP, REG_V0, fp_reg
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN, TraceRecord
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

_IALU = int(OpClass.IALU)
_IMUL = int(OpClass.IMUL)
_IDIV = int(OpClass.IDIV)
_FADD = int(OpClass.FADD)
_FMUL = int(OpClass.FMUL)
_FDIV = int(OpClass.FDIV)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)
_JUMP = int(OpClass.JUMP)

_FP_V0 = fp_reg(0)


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise MachineError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _trunc_rem(a: int, b: int) -> int:
    return a - _trunc_div(a, b) * b


_INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _trunc_div,
    "rem": _trunc_rem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: ~(a | b),
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    "sra": lambda a, b: a >> (b & 31),
    "slt": lambda a, b: 1 if a < b else 0,
    "sle": lambda a, b: 1 if a <= b else 0,
    "sgt": lambda a, b: 1 if a > b else 0,
    "sge": lambda a, b: 1 if a >= b else 0,
    "seq": lambda a, b: 1 if a == b else 0,
    "sne": lambda a, b: 1 if a != b else 0,
}

_INT_IMMOPS = {
    "addi": lambda a, b: a + b,
    "move": lambda a, b: a,
    "muli": lambda a, b: a * b,
    "andi": lambda a, b: a & b,
    "ori": lambda a, b: a | b,
    "xori": lambda a, b: a ^ b,
    "slti": lambda a, b: 1 if a < b else 0,
    "slli": lambda a, b: a << (b & 31),
    "srli": lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    "srai": lambda a, b: a >> (b & 31),
}


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise MachineError("floating-point division by zero")
    return a / b


def _fsqrt(a: float) -> float:
    if a < 0.0:
        raise MachineError(f"sqrt of negative value: {a}")
    return math.sqrt(a)


_FP_BINOPS = {
    "fadd": (_FADD, lambda a, b: a + b),
    "fsub": (_FADD, lambda a, b: a - b),
    "fmul": (_FMUL, lambda a, b: a * b),
    "fdiv": (_FDIV, _fdiv),
}

_FP_UNOPS = {
    "fsqrt": (_FDIV, _fsqrt),
    "fneg": (_IALU, lambda a: -a),
    "fabs": (_IALU, lambda a: abs(a)),
    "fmov": (_IALU, lambda a: a),
}

_FP_COMPARES = {
    "flt": lambda a, b: 1 if a < b else 0,
    "fle": lambda a, b: 1 if a <= b else 0,
    "feq": lambda a, b: 1 if a == b else 0,
}

_BRANCH_TESTS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blez": lambda a, b: a <= 0,
    "bgtz": lambda a, b: a > 0,
    "bltz": lambda a, b: a < 0,
    "bgez": lambda a, b: a >= 0,
    "beqz": lambda a, b: a == 0,
    "bnez": lambda a, b: a != 0,
}


@dataclass
class RunResult:
    """Outcome of one simulation."""

    executed: int
    reason: str  # "exit" | "limit" | "end"
    exit_code: Optional[int]
    output: List[object] = field(default_factory=list)


class Machine:
    """Executes a :class:`~repro.asm.program.Program`, emitting a trace.

    Args:
        program: the assembled program.
        int_inputs / float_inputs: values consumed by the read syscalls.
        trace: when False, no records are collected (fast functional run).
        segments: address-space description recorded with the trace.
    """

    def __init__(
        self,
        program: Program,
        int_inputs: Optional[Sequence[int]] = None,
        float_inputs: Optional[Sequence[float]] = None,
        trace: bool = True,
        segments: SegmentMap = DEFAULT_SEGMENTS,
    ):
        self.program = program
        self.segments = segments
        self.regs: List = [0] * FP_REG_BASE + [0.0] * 32
        self.regs[REG_SP] = STACK_TOP_WORDS
        self.memory = Memory(program.data, program.data_end, segments)
        self.syscalls = SyscallHandler(int_inputs, float_inputs)
        #: The emitted records, in order (``None`` when not tracing).
        self.records: Optional[List[TraceRecord]] = [] if trace else None
        self._tracing = trace
        self._code = [self._compile(i, instr) for i, instr in enumerate(program.instructions)]

    @property
    def trace(self) -> Optional[ColumnarTrace]:
        """The records emitted so far as a trace (flattened on every
        access; ``None`` when not tracing)."""
        if self.records is None:
            return None
        return ColumnarTrace.from_buffer(self.records, self.segments)

    # -- execution ------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        """Run from the program entry until exit, falling off the end, or
        hitting ``max_instructions``."""
        code = self._code
        size = len(code)
        pc = self.program.entry
        executed = 0
        limit = max_instructions if max_instructions is not None else float("inf")
        try:
            while 0 <= pc < size and executed < limit:
                pc = code[pc]()
                executed += 1
        except ProgramExit as exit_info:
            return RunResult(executed + 1, "exit", exit_info.code, self.syscalls.output)
        except MachineError as err:
            raise MachineError(f"{err} (after {executed} instructions)", pc) from err
        reason = "limit" if executed >= limit else "end"
        return RunResult(executed, reason, None, self.syscalls.output)

    # -- compilation ----------------------------------------------------

    def _compile(self, index, instr):
        """Build the closure implementing instruction ``index``."""
        regs = self.regs
        mem = self.memory.words
        records = self.records
        append = records.append if records is not None else None
        tracing = self._tracing
        op = instr.op
        d, s1, s2 = instr.dst, instr.src1, instr.src2
        imm, tgt, stmt = instr.imm, instr.target, instr.stmt_id
        nxt = index + 1

        if d is not None and d == 0 and op not in ("sw", "sf"):
            raise MachineError(f"instruction writes r0: {instr}", index)

        if op in _INT_BINOPS or op in _FP_BINOPS or op in _FP_COMPARES:
            if op in _INT_BINOPS:
                klass, fn = (
                    _IMUL if op == "mul" else _IDIV if op in ("div", "rem") else _IALU,
                    _INT_BINOPS[op],
                )
            elif op in _FP_BINOPS:
                klass, fn = _FP_BINOPS[op]
            else:
                klass, fn = _IALU, _FP_COMPARES[op]
            rec = (klass, (s1, s2), (d,), 0, stmt)
            if tracing:
                def step():
                    regs[d] = fn(regs[s1], regs[s2])
                    append(rec)
                    return nxt
            else:
                def step():
                    regs[d] = fn(regs[s1], regs[s2])
                    return nxt
            return step

        if op in _INT_IMMOPS:
            fn = _INT_IMMOPS[op]
            klass = _IMUL if op == "muli" else _IALU
            rec = (klass, (s1,), (d,), 0, stmt)
            if tracing:
                def step():
                    regs[d] = fn(regs[s1], imm)
                    append(rec)
                    return nxt
            else:
                def step():
                    regs[d] = fn(regs[s1], imm)
                    return nxt
            return step

        if op in _FP_UNOPS or op in ("cvtif", "cvtfi"):
            if op in _FP_UNOPS:
                klass, fn = _FP_UNOPS[op]
            elif op == "cvtif":
                klass, fn = _FADD, float
            else:
                klass, fn = _FADD, lambda a: math.trunc(a)
            rec = (klass, (s1,), (d,), 0, stmt)
            if tracing:
                def step():
                    regs[d] = fn(regs[s1])
                    append(rec)
                    return nxt
            else:
                def step():
                    regs[d] = fn(regs[s1])
                    return nxt
            return step

        if op in ("li", "lfi", "la"):
            value = float(imm) if op == "lfi" else imm
            rec = (_IALU, (), (d,), 0, stmt)
            if tracing:
                def step():
                    regs[d] = value
                    append(rec)
                    return nxt
            else:
                def step():
                    regs[d] = value
                    return nxt
            return step

        if op in ("lw", "lf"):
            default = 0.0 if op == "lf" else 0
            if s1 == 0:  # absolute address, zero register base
                addr = imm
                rec = (_LOAD, (MEM_BASE + addr,), (d,), 0, stmt)
                if tracing:
                    def step():
                        regs[d] = mem.get(addr, default)
                        append(rec)
                        return nxt
                else:
                    def step():
                        regs[d] = mem.get(addr, default)
                        return nxt
            else:
                if tracing:
                    def step():
                        addr = regs[s1] + imm
                        if addr < 0:
                            raise MachineError(f"load from negative address {addr}", index)
                        regs[d] = mem.get(addr, default)
                        append((_LOAD, (s1, MEM_BASE + addr), (d,), 0, stmt))
                        return nxt
                else:
                    def step():
                        addr = regs[s1] + imm
                        if addr < 0:
                            raise MachineError(f"load from negative address {addr}", index)
                        regs[d] = mem.get(addr, default)
                        return nxt
            return step

        if op in ("sw", "sf"):
            if s1 == 0:
                addr = imm
                rec = (_STORE, (d,), (MEM_BASE + addr,), 0, stmt)
                if tracing:
                    def step():
                        mem[addr] = regs[d]
                        append(rec)
                        return nxt
                else:
                    def step():
                        mem[addr] = regs[d]
                        return nxt
            else:
                if tracing:
                    def step():
                        addr = regs[s1] + imm
                        if addr < 0:
                            raise MachineError(f"store to negative address {addr}", index)
                        mem[addr] = regs[d]
                        append((_STORE, (d, s1), (MEM_BASE + addr,), 0, stmt))
                        return nxt
                else:
                    def step():
                        addr = regs[s1] + imm
                        if addr < 0:
                            raise MachineError(f"store to negative address {addr}", index)
                        mem[addr] = regs[d]
                        return nxt
            return step

        if op in _BRANCH_TESTS:
            test = _BRANCH_TESTS[op]
            srcs = (s1, s2) if s2 is not None else (s1,)
            rec_taken = (_BRANCH, srcs, (), FLAG_CONDITIONAL | FLAG_TAKEN, index)
            rec_fall = (_BRANCH, srcs, (), FLAG_CONDITIONAL, index)
            if tracing:
                def step():
                    if test(regs[s1], regs[s2] if s2 is not None else 0):
                        append(rec_taken)
                        return tgt
                    append(rec_fall)
                    return nxt
            else:
                def step():
                    if test(regs[s1], regs[s2] if s2 is not None else 0):
                        return tgt
                    return nxt
            return step

        if op == "j":
            rec = (_JUMP, (), (), 0, index)
            if tracing:
                def step():
                    append(rec)
                    return tgt
            else:
                def step():
                    return tgt
            return step

        if op == "jal":
            rec = (_JUMP, (), (), 0, index)
            if tracing:
                def step():
                    regs[31] = nxt
                    append(rec)
                    return tgt
            else:
                def step():
                    regs[31] = nxt
                    return tgt
            return step

        if op == "jr":
            rec = (_JUMP, (s1,), (), 0, index)
            size = len(self.program.instructions)
            if tracing:
                def step():
                    target = regs[s1]
                    if not isinstance(target, int) or not 0 <= target <= size:
                        raise MachineError(f"jr to invalid target {target!r}", index)
                    append(rec)
                    return target
            else:
                def step():
                    target = regs[s1]
                    if not isinstance(target, int) or not 0 <= target <= size:
                        raise MachineError(f"jr to invalid target {target!r}", index)
                    return target
            return step

        if op == "syscall":
            dispatch = self.syscalls.dispatch
            memory = self.memory
            if tracing:
                def step():
                    number = regs[REG_V0]
                    if number == SYS_READ_INT or number == SYS_SBRK:
                        dests = (REG_V0,)
                    elif number == SYS_READ_FLOAT:
                        dests = (_FP_V0,)
                    else:
                        dests = ()
                    append((_SYSCALL, (REG_V0,), dests, 0, stmt))
                    dispatch(regs, memory)
                    return nxt
            else:
                def step():
                    dispatch(regs, memory)
                    return nxt
            return step

        if op == "nop":
            def step():
                return nxt
            return step

        raise MachineError(f"cannot compile opcode {op!r}", index)


def run_and_trace(
    program: Program,
    int_inputs: Optional[Sequence[int]] = None,
    float_inputs: Optional[Sequence[float]] = None,
    max_instructions: Optional[int] = None,
) -> tuple:
    """Convenience: run ``program`` with tracing; returns ``(result, trace)``."""
    machine = Machine(program, int_inputs=int_inputs, float_inputs=float_inputs, trace=True)
    result = machine.run(max_instructions=max_instructions)
    return result, machine.trace
