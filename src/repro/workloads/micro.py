"""Hand-written assembly micro-kernels with analytically known parallelism.

Unlike the SPEC analogs (compiled MiniC), these are written directly in
assembly, so their dynamic dependence structure is exact and their
critical paths can be derived by hand — which makes them both teaching
examples and sharp analyzer tests:

==============  ====================================================
Kernel          Dependence structure
==============  ====================================================
``saxpy``       y[i] = a*x[i] + y[i]: iterations independent, bound
                by the loop counter recurrence
``reduction``   s += x[i]: one serial fadd chain of length N
``chase``       p = next[p]: serial load chain of length N (pure
                pointer chasing, the worst case for any machine)
``parallel8``   eight independent accumulator chains, interleaved
``fib``         naive recursive Fibonacci (dynamic sp frames by hand)
==============  ====================================================
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.cpu.machine import Machine
from repro.trace.columnar import ColumnarTrace

#: Default element/iteration count baked into the sources below.
N = 256

_SAXPY = f"""
.data
x:  .space {N}
y:  .space {N}

.text
main:
    # initialize x[i] = i, y[i] = 2i (independent stores)
    li   t0, 0
init:
    la   t1, x
    add  t1, t1, t0
    sw   t0, 0(t1)
    add  t2, t0, t0
    la   t3, y
    add  t3, t3, t0
    sw   t2, 0(t3)
    addi t0, t0, 1
    slti t4, t0, {N}
    bnez t4, init
    # saxpy: y[i] = 3*x[i] + y[i]
    li   t0, 0
loop:
    la   t1, x
    add  t1, t1, t0
    lw   t2, 0(t1)
    muli t2, t2, 3
    la   t3, y
    add  t3, t3, t0
    lw   t4, 0(t3)
    add  t4, t4, t2
    sw   t4, 0(t3)
    addi t0, t0, 1
    slti t5, t0, {N}
    bnez t5, loop
    li   v0, 10
    li   a0, 0
    syscall
"""

_REDUCTION = f"""
.data
x:  .space {N}

.text
main:
    li   t0, 0
init:
    la   t1, x
    add  t1, t1, t0
    sw   t0, 0(t1)
    addi t0, t0, 1
    slti t2, t0, {N}
    bnez t2, init
    # serial reduction through f0
    lfi  f0, 0.0
    li   t0, 0
loop:
    la   t1, x
    add  t1, t1, t0
    lw   t2, 0(t1)
    cvtif f1, t2
    fadd f0, f0, f1
    addi t0, t0, 1
    slti t3, t0, {N}
    bnez t3, loop
    fmov f12, f0
    li   v0, 2
    syscall
    li   v0, 10
    li   a0, 0
    syscall
"""

_CHASE = f"""
.data
next: .space {N}

.text
main:
    # build a cycle: next[i] = (i + 1) mod N (independent stores)
    li   t0, 0
init:
    addi t1, t0, 1
    slti t2, t1, {N}
    bnez t2, store
    li   t1, 0
store:
    la   t3, next
    add  t3, t3, t0
    sw   t1, 0(t3)
    addi t0, t0, 1
    slti t4, t0, {N}
    bnez t4, init
    # chase the chain for N steps: each load depends on the last
    li   t0, 0
    li   t5, 0
loop:
    la   t1, next
    add  t1, t1, t0
    lw   t0, 0(t1)
    addi t5, t5, 1
    slti t6, t5, {N}
    bnez t6, loop
    li   v0, 10
    move a0, t0
    syscall
"""

_PARALLEL8 = f"""
.text
main:
    li   t0, 0
    li   s0, 0
    li   s1, 0
    li   s2, 0
    li   s3, 0
    li   s4, 0
    li   s5, 0
    li   s6, 0
    li   s7, 0
loop:
    addi s0, s0, 1
    addi s1, s1, 2
    addi s2, s2, 3
    addi s3, s3, 4
    addi s4, s4, 5
    addi s5, s5, 6
    addi s6, s6, 7
    addi s7, s7, 8
    addi t0, t0, 1
    slti t1, t0, {N}
    bnez t1, loop
    add  a0, s0, s7
    li   v0, 1
    syscall
    li   v0, 10
    li   a0, 0
    syscall
"""

_FIB = """
.text
main:
    li   a0, 12
    jal  fib
    move a0, v0
    li   v0, 1
    syscall
    li   v0, 10
    li   a0, 0
    syscall

# int fib(n): naive recursion, hand-managed sp frame
fib:
    slti t0, a0, 2
    beqz t0, recurse
    move v0, a0
    jr   ra
recurse:
    addi sp, sp, -3
    sw   ra, 0(sp)
    sw   s0, 1(sp)
    sw   s1, 2(sp)
    move s0, a0
    addi a0, s0, -1
    jal  fib
    move s1, v0
    addi a0, s0, -2
    jal  fib
    add  v0, v0, s1
    lw   ra, 0(sp)
    lw   s0, 1(sp)
    lw   s1, 2(sp)
    addi sp, sp, 3
    jr   ra
"""

#: name -> (source, one-line description)
MICRO_KERNELS: Dict[str, Tuple[str, str]] = {
    "saxpy": (_SAXPY, "independent vector update; counter-recurrence bound"),
    "reduction": (_REDUCTION, "one serial FADD chain of length N"),
    "chase": (_CHASE, "serial pointer-chasing load chain"),
    "parallel8": (_PARALLEL8, "eight independent accumulator chains"),
    "fib": (_FIB, "naive recursion with hand-managed stack frames"),
}


def micro_program(name: str) -> Program:
    """Assemble one micro-kernel."""
    try:
        source, _ = MICRO_KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown micro kernel {name!r}; choose from {sorted(MICRO_KERNELS)}"
        ) from None
    return assemble(source)


def micro_trace(name: str, max_instructions: Optional[int] = None) -> ColumnarTrace:
    """Run one micro-kernel and return its trace."""
    machine = Machine(micro_program(name))
    machine.run(max_instructions=max_instructions)
    return machine.trace
