"""Kumar-style statement-granularity parallelism analysis.

Kumar (IEEE ToC 1988) instrumented FORTRAN programs so that each *source
statement* is one unit-time node of the dependency graph. The paper
contrasts Paragraph with this: placing machine instructions instead of
statements gives precise control over operation latencies and exposes
parallelism *within* statements.

This module reconstructs Kumar's granularity from our traces: the MiniC
compiler tags every instruction with its source-statement id (``.stmt``
directives -> the record ``aux`` field), and here a maximal run of
consecutive records with one statement id becomes a single unit-latency
node. Locations read before being written within the run are the node's
inputs; every location the run writes is an output. Benchmarks compare the
statement-level available parallelism against Paragraph's instruction-level
numbers on identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.config import AnalysisConfig, CONSERVATIVE
from repro.core.profile import ParallelismProfile
from repro.isa.opclasses import OpClass, PLACED_CLASSES
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap


@dataclass
class StatementLevelResult:
    """Statement-granularity analysis summary."""

    statements_placed: int
    instructions_placed: int
    critical_path_length: int
    profile: Optional[ParallelismProfile]  # None unless collect_profile

    @property
    def average_parallelism(self) -> float:
        """Statement instances per DDG level."""
        if self.critical_path_length == 0:
            return 0.0
        return self.statements_placed / self.critical_path_length

    @property
    def mean_statement_size(self) -> float:
        """Instructions per statement instance."""
        if self.statements_placed == 0:
            return 0.0
        return self.instructions_placed / self.statements_placed


def statement_parallelism(
    trace: Iterable,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
) -> StatementLevelResult:
    """Analyze at statement granularity (unit latency per statement).

    Only the syscall policy and ``collect_profile`` of ``config`` are
    honoured (Kumar's model has no storage-dependency or window switches;
    renaming is implicitly full, matching his dataflow formulation).
    Without ``collect_profile`` the result's ``profile`` is ``None``.
    """
    if config is None:
        config = AnalysisConfig()
    if segments is None:
        segments = getattr(trace, "segments", DEFAULT_SEGMENTS)
    conservative = config.syscall_policy == CONSERVATIVE
    syscall = int(OpClass.SYSCALL)

    level = {}
    profile = ParallelismProfile() if config.collect_profile else None
    floor = 0
    deepest = -1
    statements = 0
    instructions = 0

    group_id = None
    group_reads = []
    group_writes = set()
    group_size = 0

    def flush_group():
        nonlocal statements, deepest, group_size
        if group_size == 0:
            return
        available = floor - 1
        for src in group_reads:
            src_level = level.get(src)
            if src_level is None:
                level[src] = floor - 1
            elif src_level > available:
                available = src_level
        node_level = available + 1
        statements += 1
        if profile is not None:
            profile.add(node_level)
        if node_level > deepest:
            deepest = node_level
        for dest in group_writes:
            level[dest] = node_level
        group_reads.clear()
        group_writes.clear()
        group_size = 0

    for record in trace:
        opclass = record[0]
        if opclass not in PLACED_CLASSES:
            continue
        if opclass == syscall:
            flush_group()
            group_id = None
            if not conservative:
                continue
            node_level = max(deepest + 1, floor)
            statements += 1
            if profile is not None:
                profile.add(node_level)
            if node_level > deepest:
                deepest = node_level
            floor = node_level + 1
            for dest in record[2]:
                level[dest] = node_level
            continue
        stmt = record[4]
        if stmt != group_id:
            flush_group()
            group_id = stmt
        instructions += 1
        group_size += 1
        for src in record[1]:
            if src not in group_writes:
                group_reads.append(src)
        for dest in record[2]:
            group_writes.add(dest)
    flush_group()
    return StatementLevelResult(statements, instructions, deepest + 1, profile)
