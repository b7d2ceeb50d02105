"""Deterministic random case generation and counterexample shrinking.

A *case* is one (trace, config) pair. Both halves are derived from a single
64-bit case seed mixed from ``sha256(root_seed : index)``, so ``verify
--seed 0 --cases 500`` enumerates the same 500 cases on every machine and
Python version, and any failure report can name the exact case by
``(seed, index)``.

The trace generator is adversarial rather than realistic: operand pools
are kept tiny (a handful of registers, four data words, four stack words,
four branch pcs) so that register reuse, write-after-read hazards, memory
aliasing across the stack/data boundary, and predictor index collisions —
precisely the conditions that distinguish the four analyzer
implementations — occur every few records instead of once per thousand.
The menu covers every record shape the analyzers accept: int/float ALU ops
with 0-3 sources, multi-destination ops, loads and stores in both
segments (with and without base registers), same-location read-then-write
in one instruction, system calls with and without operands, conditional
branches (taken and not), jumps, and nops.

Shrinking is greedy delta-debugging over the record list: repeatedly try
deleting chunks (halving the chunk size down to single records) and keep
any deletion after which the case still fails. Quadratic in the worst
case, but cases are <= ``MAX_CASE_RECORDS`` records and the predicate is a
few milliseconds, so a shrink completes in well under a second.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    OPTIMISTIC,
    PERFECT_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.branch import PREDICTOR_NAMES
from repro.core.latency import LatencyTable
from repro.core.resources import ResourceModel
from repro.isa.opclasses import OpClass
from repro.trace.columnar import ColumnarTrace
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap
from repro.trace.synthetic import TraceBuilder

#: Upper bound on generated trace length. Kept small deliberately: the
#: verification oracle is O(n^2), and short traces shrink to crisper
#: counterexamples.
MAX_CASE_RECORDS = 40

#: Tiny operand pools (see module docstring).
_INT_REGS = (1, 2, 3, 4, 5)
_FP_REGS = (32, 33, 34)
_PCS = (0, 1, 2, 3)
_WINDOW_SIZES = (1, 2, 3, 4, 8, 16)
_INT_CLASSES = (OpClass.IALU, OpClass.IALU, OpClass.IALU, OpClass.IMUL, OpClass.IDIV)
_FP_CLASSES = (OpClass.FADD, OpClass.FMUL, OpClass.FDIV)


@dataclass(frozen=True)
class VerifyCase:
    """One generated verification case.

    Attributes:
        index: position in the ``--seed/--cases`` enumeration.
        seed: the mixed 64-bit case seed (replays this case alone).
        trace: the generated trace.
        config: the sampled analysis configuration.
    """

    index: int
    seed: int
    trace: ColumnarTrace
    config: AnalysisConfig

    @property
    def name(self) -> str:
        return f"case{self.index:05d}"


def case_seed(root_seed: int, index: int) -> int:
    """The 64-bit seed of case ``index`` under ``root_seed`` (sha256-mixed
    so nearby root seeds/indices give unrelated streams)."""
    payload = f"{root_seed}:{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def generate_trace(rng: random.Random, segments: SegmentMap = DEFAULT_SEGMENTS) -> ColumnarTrace:
    """One adversarial random trace (1..MAX_CASE_RECORDS records)."""
    builder = TraceBuilder(segments)
    data_addrs = [segments.data_base + i for i in range(4)]
    stack_addrs = [segments.stack_top - 1 - i for i in range(4)]

    def addr() -> int:
        return rng.choice(data_addrs if rng.random() < 0.5 else stack_addrs)

    def base() -> Optional[int]:
        return rng.choice(_INT_REGS) if rng.random() < 0.5 else None

    for _ in range(rng.randint(1, MAX_CASE_RECORDS)):
        roll = rng.random()
        if roll < 0.30:  # integer op, 0-3 sources (reuse-heavy pool)
            srcs = tuple(rng.choice(_INT_REGS) for _ in range(rng.randint(0, 3)))
            builder.op(rng.choice(_INT_CLASSES), (rng.choice(_INT_REGS),), srcs)
        elif roll < 0.38:  # same-register read-then-write in one instruction
            reg = rng.choice(_INT_REGS)
            builder.op(rng.choice(_INT_CLASSES), (reg,), (reg,))
        elif roll < 0.43:  # multi-destination op (divmod-style)
            dests = tuple(rng.sample(_INT_REGS, 2))
            srcs = tuple(rng.choice(_INT_REGS) for _ in range(rng.randint(0, 2)))
            builder.op(rng.choice(_INT_CLASSES), dests, srcs)
        elif roll < 0.53:  # floating point
            srcs = tuple(rng.choice(_FP_REGS) for _ in range(rng.randint(0, 2)))
            builder.op(rng.choice(_FP_CLASSES), (rng.choice(_FP_REGS),), srcs)
        elif roll < 0.66:  # load (both segments, optional base register)
            builder.load(rng.choice(_INT_REGS), addr(), base=base())
        elif roll < 0.78:  # store
            builder.store(rng.choice(_INT_REGS), addr(), base=base())
        elif roll < 0.83:  # system call, sometimes with operands
            if rng.random() < 0.4:
                builder.op(
                    OpClass.SYSCALL,
                    (rng.choice(_INT_REGS),) if rng.random() < 0.5 else (),
                    (rng.choice(_INT_REGS),) if rng.random() < 0.5 else (),
                )
            else:
                builder.syscall()
        elif roll < 0.93:  # conditional branch (tiny pc pool aliases predictors)
            builder.branch(
                rng.choice(_INT_REGS),
                taken=rng.random() < 0.6,
                pc=rng.choice(_PCS),
            )
        elif roll < 0.97:
            builder.jump(pc=rng.choice(_PCS))
        else:
            builder.op(OpClass.NOP)
    return builder.build()


def sample_config(rng: random.Random, allow_resources: bool = True) -> AnalysisConfig:
    """One random :class:`AnalysisConfig`, biased toward the corners the
    paper's experiments use but covering every switch."""
    latency_roll = rng.random()
    if latency_roll < 0.45:
        latency = LatencyTable.default()
    elif latency_roll < 0.75:
        latency = LatencyTable.unit()
    else:
        overrides = {
            opclass.name: rng.randint(1, 4)
            for opclass in rng.sample(list(OpClass), rng.randint(1, 3))
        }
        latency = LatencyTable.default().with_overrides(**overrides)

    resources = None
    if allow_resources and rng.random() < 0.15:
        if rng.random() < 0.5:
            resources = ResourceModel(universal=rng.randint(1, 3))
        else:
            resources = ResourceModel(per_class={rng.choice(list(OpClass)): rng.randint(1, 2)})

    return AnalysisConfig(
        syscall_policy=CONSERVATIVE if rng.random() < 0.6 else OPTIMISTIC,
        rename_registers=rng.random() < 0.6,
        rename_stack=rng.random() < 0.6,
        rename_data=rng.random() < 0.6,
        window_size=rng.choice(_WINDOW_SIZES) if rng.random() < 0.5 else None,
        latency=latency,
        resources=resources,
        branch_predictor=rng.choice(PREDICTOR_NAMES) if rng.random() < 0.5 else None,
        memory_disambiguation=(
            CONSERVATIVE_DISAMBIGUATION if rng.random() < 0.3 else PERFECT_DISAMBIGUATION
        ),
        collect_lifetimes=rng.random() < 0.15,
        collect_profile=rng.random() < 0.9,
    )


def generate_case(root_seed: int, index: int) -> VerifyCase:
    """Case ``index`` of the deterministic enumeration under ``root_seed``."""
    seed = case_seed(root_seed, index)
    rng = random.Random(seed)
    trace = generate_trace(rng)
    config = sample_config(rng)
    return VerifyCase(index=index, seed=seed, trace=trace, config=config)


def shrink_trace(
    trace: ColumnarTrace,
    still_failing: Callable[[ColumnarTrace], bool],
    min_records: int = 1,
) -> ColumnarTrace:
    """Greedy delta-debugging: the smallest sub-trace (by record deletion,
    order preserved) on which ``still_failing`` still returns True.

    ``still_failing(trace)`` must be True for the input trace; the result
    is guaranteed to satisfy it too (worst case: the input comes back
    unchanged).
    """
    records: List = list(trace)
    segments = trace.segments
    chunk = max(1, len(records) // 2)
    while chunk >= 1:
        index = 0
        while index < len(records) and len(records) > min_records:
            candidate = records[:index] + records[index + chunk:]
            if len(candidate) >= min_records and still_failing(
                ColumnarTrace.from_buffer(candidate, segments)
            ):
                records = candidate  # keep the deletion, retry same position
            else:
                index += chunk
        chunk //= 2
    return ColumnarTrace.from_buffer(records, segments)
