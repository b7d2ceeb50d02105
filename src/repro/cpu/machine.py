"""The tracing interpreter.

The machine is *block-compiled*. A block is the straight-line run of
instructions from an entry pc up to and including the first branch, jump,
``jr`` or ``syscall`` (or up to the end of the text segment). The first time
execution reaches a pc, the block that starts there is generated as Python
source with every operation inlined (``r[5] = r[3] + k0``) and compiled
once; :meth:`Machine.run` then makes one call per dynamic block and adds the
block's length to the instruction count. Blocks are keyed by entry pc, so a
``jr`` into the middle of a compiled block just compiles another one.

Traced and untraced machines share one generator, so each opcode's
semantics is written once: a traced block also appends each instruction's
trace record, right after the instruction's own line. Records of register
operations (and of loads and stores at an absolute address) are fully
static: built once at compile time and appended by reference. Other loads
and stores, and syscalls, build theirs at run time.
:attr:`Machine.trace` flattens the record list into a
:class:`~repro.trace.columnar.ColumnarTrace`.

Blocks change nothing observable against one-instruction-at-a-time
execution. When fewer instructions remain under ``max_instructions`` than a
block holds, a truncated copy of the block is compiled, so the cap stops at
exactly that count and a capped trace is a prefix of a longer one. A fault
inside a block reports the faulting instruction's own pc and the number of
instructions completed before it, and leaves exactly their records.

The simulator plays the role of the paper's DECstation + Pixie combination
(Pixie, too, instruments whole basic blocks): it runs the program and emits
the serial trace that Paragraph analyzes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.isa.registers import FP_REG_BASE, REG_RA, REG_SP, REG_V0, fp_reg
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

# Expression templates over the operands ``{a}`` and ``{b}``, with the
# trace opclass of each opcode. Operands are register reads (``r[3]``) or
# names bound to immediates, never literal immediate text.

#: Three-register operations that cannot fault.
_BINOPS = {
    "add": (_IALU, "{a} + {b}"),
    "sub": (_IALU, "{a} - {b}"),
    "mul": (_IMUL, "{a} * {b}"),
    "and": (_IALU, "{a} & {b}"),
    "or": (_IALU, "{a} | {b}"),
    "xor": (_IALU, "{a} ^ {b}"),
    "nor": (_IALU, "~({a} | {b})"),
    "sll": (_IALU, "{a} << ({b} & 31)"),
    "srl": (_IALU, "({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    "sra": (_IALU, "{a} >> ({b} & 31)"),
    "slt": (_IALU, "1 if {a} < {b} else 0"),
    "sle": (_IALU, "1 if {a} <= {b} else 0"),
    "sgt": (_IALU, "1 if {a} > {b} else 0"),
    "sge": (_IALU, "1 if {a} >= {b} else 0"),
    "seq": (_IALU, "1 if {a} == {b} else 0"),
    "sne": (_IALU, "1 if {a} != {b} else 0"),
    "fadd": (_FADD, "{a} + {b}"),
    "fsub": (_FADD, "{a} - {b}"),
    "fmul": (_FMUL, "{a} * {b}"),
    "flt": (_IALU, "1 if {a} < {b} else 0"),
    "fle": (_IALU, "1 if {a} <= {b} else 0"),
    "feq": (_IALU, "1 if {a} == {b} else 0"),
}

#: Register-immediate operations; ``{b}`` is the immediate.
_IMMOPS = {
    "addi": (_IALU, "{a} + {b}"),
    "move": (_IALU, "{a}"),
    "muli": (_IMUL, "{a} * {b}"),
    "andi": (_IALU, "{a} & {b}"),
    "ori": (_IALU, "{a} | {b}"),
    "xori": (_IALU, "{a} ^ {b}"),
    "slti": (_IALU, "1 if {a} < {b} else 0"),
    "slli": (_IALU, "{a} << ({b} & 31)"),
    "srli": (_IALU, "({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    "srai": (_IALU, "{a} >> ({b} & 31)"),
}

#: One-register operations that cannot fault.
_UNOPS = {
    "fneg": (_IALU, "-{a}"),
    "fabs": (_IALU, "abs({a})"),
    "fmov": (_IALU, "{a}"),
    "cvtif": (_FADD, "float({a})"),
    "cvtfi": (_FADD, "trunc({a})"),
}

#: Branch conditions; one-register branches compare against zero.
_BRANCH_TESTS = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blez": "{a} <= 0",
    "bgtz": "{a} > 0",
    "bltz": "{a} < 0",
    "bgez": "{a} >= 0",
    "beqz": "{a} == 0",
    "bnez": "{a} != 0",
}

#: Opcodes that end a block: control transfers, and ``syscall``, which may
#: exit the program (only a block's last instruction may).
_BLOCK_ENDS = frozenset(_BRANCH_TESTS) | {"j", "jal", "jr", "syscall"}

#: Every opcode :func:`_emit` compiles; checked when a machine is built.
_OPCODES = (
    frozenset(_BINOPS) | frozenset(_IMMOPS) | frozenset(_UNOPS) | _BLOCK_ENDS
    | {"div", "rem", "fdiv", "fsqrt", "li", "la", "lfi", "lw", "lf", "sw", "sf", "nop"}
)

#: Syscall number -> the registers it writes (a syscall's trace dests).
_SYSCALL_DESTS = {
    SYS_READ_INT: (REG_V0,),
    SYS_SBRK: (REG_V0,),
    SYS_READ_FLOAT: (fp_reg(0),),
}


def _fault(message: str, pc: int) -> MachineError:
    """An arithmetic fault at ``pc``. Its message carries no ``pc=`` prefix
    (:meth:`Machine.run` adds the one such faults have always had), but
    ``.pc`` still locates it."""
    error = MachineError(message)
    error.pc = pc
    return error


class _BlockWriter:
    """Python source for one block, plus the names it binds."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.lines: List[str] = []
        self.names: Dict[str, object] = {}

    def bind(self, value) -> str:
        """A fresh name for ``value`` in the block's namespace."""
        name = f"k{len(self.names)}"
        self.names[name] = value
        return name

    def line(self, text: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + text)

    def record(self, rec: TraceRecord, depth: int = 1) -> None:
        """Append the static record of the instruction just emitted."""
        if self.tracing:
            self.line(f"app({self.bind(rec)})", depth)

    def dynamic(self, expr: str) -> None:
        """Append the record ``expr`` builds at run time."""
        if self.tracing:
            self.line(f"app({expr})")

    def fail(self, condition: str, error: str) -> None:
        """``if condition: raise error``. Each record is appended after its
        instruction, so a fault leaves exactly the records before it."""
        self.line(f"if {condition}:")
        self.line(f"raise {error}", 2)

    def leave(self, next_pc: str, rec: Optional[TraceRecord] = None, depth: int = 1) -> None:
        """Append ``rec``, then return ``next_pc``."""
        if rec is not None:
            self.record(rec, depth)
        self.line(f"return {next_pc}", depth)

    def source(self) -> str:
        return "def block():\n" + "\n".join(self.lines) + "\n"


def _emit(w: _BlockWriter, pc: int, instr, size: int) -> None:
    """Write instruction ``pc``'s semantics (and record) into ``w``."""
    op = instr.op
    d, s1, s2 = instr.dst, instr.src1, instr.src2
    stmt = instr.stmt_id
    rs = f"r[{s1}]"  # the first source operand

    if op in _BINOPS:
        klass, expr = _BINOPS[op]
        w.line(f"r[{d}] = " + expr.format(a=rs, b=f"r[{s2}]"))
        w.record((klass, (s1, s2), (d,), 0, stmt))
    elif op in _IMMOPS:
        klass, expr = _IMMOPS[op]
        w.line(f"r[{d}] = " + expr.format(a=rs, b=w.bind(instr.imm)))
        w.record((klass, (s1,), (d,), 0, stmt))
    elif op in _UNOPS:
        klass, expr = _UNOPS[op]
        w.line(f"r[{d}] = " + expr.format(a=rs))
        w.record((klass, (s1,), (d,), 0, stmt))
    elif op in ("div", "rem"):
        w.line(f"a = r[{s1}]")
        w.line(f"b = r[{s2}]")
        w.fail("b == 0", f'fault("integer division by zero", {pc})')
        w.line("q = abs(a) // abs(b)")
        w.line("q = q if (a < 0) == (b < 0) else -q")  # truncate toward zero
        w.line(f"r[{d}] = q" if op == "div" else f"r[{d}] = a - q * b")
        w.record((_IDIV, (s1, s2), (d,), 0, stmt))
    elif op == "fdiv":
        w.line(f"b = r[{s2}]")
        w.fail("b == 0.0", f'fault("floating-point division by zero", {pc})')
        w.line(f"r[{d}] = r[{s1}] / b")
        w.record((_FDIV, (s1, s2), (d,), 0, stmt))
    elif op == "fsqrt":
        w.line(f"a = r[{s1}]")
        w.fail("a < 0.0", f'fault(f"sqrt of negative value: {{a}}", {pc})')
        w.line(f"r[{d}] = sqrt(a)")
        w.record((_FDIV, (s1,), (d,), 0, stmt))
    elif op in ("li", "la", "lfi"):
        value = float(instr.imm) if op == "lfi" else instr.imm
        w.line(f"r[{d}] = {w.bind(value)}")
        w.record((_IALU, (), (d,), 0, stmt))
    elif op in ("lw", "lf", "sw", "sf"):  # a store's ``dst`` is its data register
        load = op in ("lw", "lf")
        default = "0.0" if op == "lf" else "0"
        if s1 == 0:  # absolute address, zero register base: never checked
            k = w.bind(instr.imm)
            w.line(f"r[{d}] = g({k}, {default})" if load else f"m[{k}] = r[{d}]")
            loc = MEM_BASE + instr.imm
            if load:
                w.record((_LOAD, (loc,), (d,), 0, stmt))
            else:
                w.record((_STORE, (d,), (loc,), 0, stmt))
        else:
            w.line(f"a = r[{s1}] + {w.bind(instr.imm)}")
            what = "load from" if load else "store to"
            w.fail("a < 0", f'E(f"{what} negative address {{a}}", {pc})')
            w.line(f"r[{d}] = g(a, {default})" if load else f"m[a] = r[{d}]")
            k = w.bind(stmt)
            if load:
                w.dynamic(f"(LOAD, ({s1}, MB + a), ({d},), 0, {k})")
            else:
                w.dynamic(f"(STORE, ({d}, {s1}), (MB + a,), 0, {k})")
    elif op in _BRANCH_TESTS:
        srcs = (s1, s2) if s2 is not None else (s1,)
        b = f"r[{s2}]" if s2 is not None else "0"
        w.line(f"if {_BRANCH_TESTS[op].format(a=rs, b=b)}:")
        w.leave(f"{instr.target}", (_BRANCH, srcs, (), FLAG_CONDITIONAL | FLAG_TAKEN, pc), 2)
        w.leave(f"{pc + 1}", (_BRANCH, srcs, (), FLAG_CONDITIONAL, pc))
    elif op in ("j", "jal"):
        if op == "jal":
            w.line(f"r[{REG_RA}] = {pc + 1}")
        w.leave(f"{instr.target}", (_JUMP, (), (), 0, pc))
    elif op == "jr":
        w.line(f"t = r[{s1}]")
        w.fail(
            f"not isinstance(t, int) or not 0 <= t <= {size}",
            f'E(f"jr to invalid target {{t!r}}", {pc})',
        )
        w.leave("t", (_JUMP, (s1,), (), 0, pc))
    elif op == "syscall":
        w.dynamic(f"(SYSCALL, ({REG_V0},), DESTS.get(r[{REG_V0}], ()), 0, {w.bind(stmt)})")
        w.line("dispatch(r, memory)")
        w.leave(f"{pc + 1}")
    # ``nop`` does nothing and is not traced.


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
        for index, instr in enumerate(program.instructions):
            if instr.dst == 0 and instr.op not in ("sw", "sf"):
                raise MachineError(f"instruction writes r0: {instr}", index)
            if instr.op not in _OPCODES:
                raise MachineError(f"cannot compile opcode {instr.op!r}", index)
        #: Compiled blocks by entry pc, as ``(function, length)``.
        self._blocks: List[Optional[Tuple]] = [None] * len(program.instructions)
        words = self.memory.words
        self._namespace = {
            "r": self.regs,
            "m": words,
            "g": words.get,
            "app": self.records.append if trace else None,
            "dispatch": self.syscalls.dispatch,
            "memory": self.memory,
            "E": MachineError,
            "fault": _fault,
            "sqrt": math.sqrt,
            "trunc": math.trunc,
            "LOAD": _LOAD,
            "STORE": _STORE,
            "SYSCALL": _SYSCALL,
            "MB": MEM_BASE,
            "DESTS": _SYSCALL_DESTS,
        }

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
        blocks = self._blocks
        size = len(blocks)
        pc = self.program.entry
        executed = 0
        limit = max_instructions if max_instructions is not None else math.inf
        length = 0
        try:
            while 0 <= pc < size:
                block = blocks[pc]
                if block is None or executed + block[1] > limit:
                    block = self._block(pc, limit - executed)
                    if block is None:
                        break
                run_block, length = block
                pc = run_block()
                executed += length
        except ProgramExit as exit_info:
            # Only a block's last instruction exits, and it counts.
            return RunResult(executed + length, "exit", exit_info.code, self.syscalls.output)
        except MachineError as err:
            # ``pc`` is still the block's entry; a syscall's fault carries
            # no pc, and a syscall always ends its block.
            at = err.pc if err.pc >= 0 else pc + length - 1
            raise MachineError(
                f"{err} (after {executed + at - pc} instructions)", at
            ) from err
        reason = "limit" if executed >= limit else "end"
        return RunResult(executed, reason, None, self.syscalls.output)

    # -- compilation ----------------------------------------------------

    def _block(self, entry: int, budget) -> Optional[Tuple]:
        """The block at ``entry`` as ``(function, length)``, compiled and
        cached on first use. When the cap falls inside it, a copy cut to
        its first ``budget`` instructions is compiled instead (a run ends
        there, so it is not cached); ``None`` once the budget is spent."""
        if budget <= 0:
            return None
        instructions = self.program.instructions
        end = entry
        while end < len(instructions) - 1 and instructions[end].op not in _BLOCK_ENDS:
            end += 1
        length = end + 1 - entry
        if length <= budget:
            block = self._blocks[entry] = (self._build(entry, length), length)
            return block
        return self._build(entry, budget), budget

    def _build(self, entry: int, length: int):
        """Generate, compile and bind one block's function."""
        instructions = self.program.instructions
        w = _BlockWriter(self.records is not None)
        for pc in range(entry, entry + length):
            _emit(w, pc, instructions[pc], len(instructions))
        last = entry + length - 1
        if instructions[last].op not in _BLOCK_ENDS:  # falls through
            w.leave(f"{last + 1}")
        namespace = dict(self._namespace, **w.names)
        exec(compile(w.source(), f"<block {entry}+{length}>", "exec"), namespace)
        # Popped, so the namespace does not hold the function that holds it:
        # that cycle would keep the record list alive until a full collection.
        return namespace.pop("block")


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
