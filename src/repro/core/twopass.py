"""Two-pass trace processing (paper section 3.2, method 1).

The paper describes two ways to keep the live well from growing without
bound. Method 2 (the default analyzer) reuses an entry when its storage
location is overwritten. Method 1 processes the trace *in reverse* first,
annotating each value's last use, so the forward pass can evict values the
moment they die — at the cost of having to store the whole trace.

Eviction at last use is only sound for location classes whose storage
dependencies are renamed away: a non-renamed location must keep its entry
until overwrite because the next writer needs the dead value's deepest-use
level for its WAR constraint. This implementation therefore evicts eagerly
exactly for renamed classes (and falls back to overwrite-reuse for the
rest), which preserves bit-identical analysis results; tests assert this.

The payoff is :attr:`AnalysisResult.peak_live_well`: with full renaming the
working set drops from "every location ever touched" to the live-value
working set (the paper needed 32 MB for method 2 on SPEC).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.core.reference import ReferenceAnalyzer
from repro.core.results import AnalysisResult
from repro.isa.opclasses import OpClass, PLACED_CLASSES
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap


def compute_kill_lists(
    records: Sequence, branch_reads: bool = False, optimistic_syscalls: bool = False
) -> List[Tuple[int, ...]]:
    """Reverse pass: for each record index, the source locations whose
    current value is read for the last time by that record.

    ``branch_reads`` marks conditional-branch source registers as reads;
    needed when a branch predictor is configured (misprediction firewalls
    peek at branch source levels). ``optimistic_syscalls`` skips syscall
    records entirely, mirroring the forward pass under the optimistic
    policy: their destinations never rebind a location, so treating them
    as kills would evict values that are still read afterwards.
    """
    read_later = {}
    kills: List[Tuple[int, ...]] = [()] * len(records)
    syscall = int(OpClass.SYSCALL)
    branch = int(OpClass.BRANCH)
    for index in range(len(records) - 1, -1, -1):
        record = records[index]
        opclass = record[0]
        if opclass not in PLACED_CLASSES:
            if branch_reads and opclass == branch:
                for src in record[1]:
                    read_later[src] = True
            continue
        if opclass == syscall and optimistic_syscalls:
            continue  # the forward pass ignores the whole record
        for dest in record[2]:
            read_later[dest] = False
        if opclass == syscall:
            continue  # syscall argument registers are not DDG reads
        dying = []
        for src in record[1]:
            if not read_later.get(src, False):
                dying.append(src)
            read_later[src] = True
        if dying:
            kills[index] = tuple(dying)
    return kills


def twopass_analyze(
    trace: Iterable,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """Analyze with reverse-pass dead-value annotation (method 1).

    Produces results identical to :func:`repro.core.analyzer.analyze`
    except for :attr:`AnalysisResult.peak_live_well`, which reflects the
    smaller working set.
    """
    if config is None:
        config = AnalysisConfig()
    if segments is None:
        segments = getattr(trace, "segments", DEFAULT_SEGMENTS)
    records = list(trace)
    kills = compute_kill_lists(
        records,
        branch_reads=config.branch_predictor is not None,
        optimistic_syscalls=config.syscall_policy == OPTIMISTIC,
    )

    analyzer = ReferenceAnalyzer(config, segments)
    for index, record in enumerate(records):
        analyzer.step(record)
        dying = kills[index]
        if not dying:
            continue
        dests = record[2]
        for location in dying:
            if location in dests:
                continue  # the location was rebound this record
            if not analyzer._renamed(location):
                continue  # WAR bookkeeping still needs the dead value
            value = analyzer.well.remove(location)
            if (
                value is not None
                and analyzer.lifetimes is not None
                and not value.preexisting
            ):
                lifetime = value.deepest_use - value.level if value.uses else 0
                analyzer.lifetimes.record(lifetime, value.uses)
    return analyzer.finish()
