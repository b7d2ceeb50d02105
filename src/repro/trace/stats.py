"""Instruction-mix statistics over a trace (the paper's Table 2 columns)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.isa.opclasses import PLACED_CLASSES, OpClass
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN


@dataclass
class TraceStats:
    """Aggregate counts over one trace."""

    total: int = 0
    placed: int = 0
    branches: int = 0
    conditional_branches: int = 0
    taken_branches: int = 0
    syscalls: int = 0
    loads: int = 0
    stores: int = 0
    fp_operations: int = 0
    by_class: Dict[str, int] = field(default_factory=dict)

    @property
    def syscall_interval(self) -> float:
        """Mean instructions between system calls (paper quotes cc1 at one
        per ~14,861 instructions)."""
        if not self.syscalls:
            return float("inf")
        return self.total / self.syscalls


_FP_CLASSES = {OpClass.FADD, OpClass.FMUL, OpClass.FDIV}


def compute_stats(trace) -> TraceStats:
    """:class:`TraceStats` of a trace (anything
    :meth:`ColumnarTrace.from_buffer` accepts), read from its ``opclass``
    and ``flags`` columns: one C-level count of ``(opclass, flags)``
    pairs, then a handful of python steps per distinct pair."""
    trace = ColumnarTrace.from_buffer(trace)
    stats = TraceStats(total=len(trace))
    by_class: Dict[int, int] = {}
    for (opclass, flags), count in Counter(zip(trace.opclass, trace.flags)).items():
        by_class[opclass] = by_class.get(opclass, 0) + count
        if opclass in PLACED_CLASSES:
            stats.placed += count
        if opclass == OpClass.BRANCH or opclass == OpClass.JUMP:
            stats.branches += count
            if flags & FLAG_CONDITIONAL:
                stats.conditional_branches += count
                if flags & FLAG_TAKEN:
                    stats.taken_branches += count
        elif opclass == OpClass.SYSCALL:
            stats.syscalls += count
        elif opclass == OpClass.LOAD:
            stats.loads += count
        elif opclass == OpClass.STORE:
            stats.stores += count
        if opclass in _FP_CLASSES:
            stats.fp_operations += count
    stats.by_class = {OpClass(key).name: value for key, value in sorted(by_class.items())}
    return stats
