"""Synthetic trace construction: an ergonomic builder plus random generators.

These serve three audiences:

- unit tests encoding the paper's worked examples (Figures 1-5),
- hypothesis property tests (random but valid traces),
- micro-benchmarks that need traces with known dependency structure.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.isa.locations import memory_location
from repro.isa.opclasses import OpClass
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap


class TraceBuilder:
    """Builds a :class:`~repro.trace.columnar.ColumnarTrace` record by record.

    Register operands are storage-location ids (0..63); memory operands are
    word addresses (converted internally).
    """

    def __init__(self, segments: SegmentMap = DEFAULT_SEGMENTS):
        self.segments = segments
        self.records = []

    def op(
        self,
        opclass: OpClass,
        dests: Sequence[int] = (),
        srcs: Sequence[int] = (),
        flags: int = 0,
        aux: int = -1,
    ) -> "TraceBuilder":
        """Append a raw record (operands are already location ids)."""
        self.records.append((int(opclass), tuple(srcs), tuple(dests), flags, aux))
        return self

    def ialu(self, dst: int, *srcs: int) -> "TraceBuilder":
        """Integer ALU op writing register ``dst`` from register sources."""
        return self.op(OpClass.IALU, (dst,), srcs)

    def fop(self, opclass: OpClass, dst: int, *srcs: int) -> "TraceBuilder":
        """Floating-point op of the given class."""
        return self.op(opclass, (dst,), srcs)

    def load(self, reg: int, addr: int, base: Optional[int] = None) -> "TraceBuilder":
        """Load ``mem[addr]`` into register ``reg`` (optional base register)."""
        srcs = (memory_location(addr),) if base is None else (base, memory_location(addr))
        return self.op(OpClass.LOAD, (reg,), srcs)

    def store(self, reg: int, addr: int, base: Optional[int] = None) -> "TraceBuilder":
        """Store register ``reg`` to ``mem[addr]``."""
        srcs = (reg,) if base is None else (reg, base)
        return self.op(OpClass.STORE, (memory_location(addr),), srcs)

    def syscall(self, *srcs: int) -> "TraceBuilder":
        """System call record."""
        return self.op(OpClass.SYSCALL, (), srcs)

    def branch(self, *srcs: int, taken: bool = True, pc: int = 0) -> "TraceBuilder":
        """Conditional branch record."""
        flags = FLAG_CONDITIONAL | (FLAG_TAKEN if taken else 0)
        return self.op(OpClass.BRANCH, (), srcs, flags=flags, aux=pc)

    def jump(self, pc: int = 0) -> "TraceBuilder":
        """Unconditional jump record."""
        return self.op(OpClass.JUMP, aux=pc)

    def build(self) -> ColumnarTrace:
        """Finish and return the trace."""
        return ColumnarTrace.from_buffer(self.records, self.segments)


def serial_chain(length: int, opclass: OpClass = OpClass.IALU) -> ColumnarTrace:
    """A fully serial trace: each op reads the previous op's result.

    Critical path (unit latency) == ``length``; available parallelism == 1.
    """
    builder = TraceBuilder()
    for _ in range(length):
        builder.op(opclass, (1,), (1,))
    return builder.build()


def independent_ops(length: int, registers: int = 32) -> ColumnarTrace:
    """A trace of operations with no true dependencies (distinct dests,
    pre-existing sources). Fully parallel when renamed."""
    builder = TraceBuilder()
    for index in range(length):
        builder.ialu(index % registers + 1)
    return builder.build()


def random_trace(
    seed: int,
    length: int,
    memory_words: int = 64,
    fp_fraction: float = 0.2,
    store_fraction: float = 0.15,
    branch_fraction: float = 0.1,
    syscall_fraction: float = 0.01,
    segments: SegmentMap = DEFAULT_SEGMENTS,
) -> ColumnarTrace:
    """A random, structurally valid trace for property tests.

    Memory references split evenly between the data segment (from
    ``segments.data_base``) and the stack segment (below
    ``segments.stack_top``).
    """
    rng = random.Random(seed)
    builder = TraceBuilder(segments)
    int_regs = list(range(1, 32))
    fp_regs = list(range(32, 64))
    data_addrs = [segments.data_base + i for i in range(memory_words)]
    stack_addrs = [segments.stack_top - 1 - i for i in range(memory_words)]

    for _ in range(length):
        roll = rng.random()
        if roll < syscall_fraction:
            builder.syscall()
        elif roll < syscall_fraction + branch_fraction:
            builder.branch(rng.choice(int_regs), taken=rng.random() < 0.6, pc=rng.randrange(1000))
        elif roll < syscall_fraction + branch_fraction + store_fraction:
            addr = rng.choice(data_addrs if rng.random() < 0.5 else stack_addrs)
            builder.store(rng.choice(int_regs), addr, base=rng.choice(int_regs))
        elif roll < syscall_fraction + branch_fraction + 2 * store_fraction:
            addr = rng.choice(data_addrs if rng.random() < 0.5 else stack_addrs)
            builder.load(rng.choice(int_regs), addr, base=rng.choice(int_regs))
        elif roll < syscall_fraction + branch_fraction + 2 * store_fraction + fp_fraction:
            opclass = rng.choice([OpClass.FADD, OpClass.FMUL, OpClass.FDIV])
            builder.fop(opclass, rng.choice(fp_regs), rng.choice(fp_regs), rng.choice(fp_regs))
        else:
            opclass = rng.choice([OpClass.IALU, OpClass.IALU, OpClass.IALU, OpClass.IMUL, OpClass.IDIV])
            nsrc = rng.randrange(3)
            srcs = tuple(rng.choice(int_regs) for _ in range(nsrc))
            builder.op(opclass, (rng.choice(int_regs),), srcs)
    return builder.build()
