"""Resumable Paragraph analysis: frontiers, segment summaries, stitching.

This module holds the python implementation of the placement rule. Its
state lives in an explicit :class:`Frontier` that can be carried across
chunk boundaries, and :func:`advance` runs one of three loops, picked by
:func:`~repro.core.kernels.select_kernel`, over any record range. A
whole-trace :func:`~repro.core.analyzer.analyze` is one ``advance`` over
every record; a trace too large for memory streams through a bounded
window:

    frontier = new_frontier(config, segments)
    for chunk in chunks:            # each chunk decoded, used, discarded
        advance(frontier, chunk)
    result = finalize(frontier)     # identical to whole-trace analysis

``advance`` is an exact continuation, so chunked streaming reproduces the
monolithic result for *every* configuration: all rename settings, window
sizes, branch predictors, resource limits, syscall policies, memory
disambiguation, lifetimes, profiles. These loops are the only streaming
and sharding implementation: the vectorized backend
(:mod:`repro.core.vkernels`) analyzes whole traces only and never
continues a frontier.

Sharded (parallel) analysis additionally needs segments analyzable *out of
order*, which is where the paper's conservative syscall firewall earns its
name twice over. After a conservative syscall placed at level ``L`` the
floor rises to ``L + 1``, and from that point the pre-firewall past is
closed off:

- every live-well entry created before the firewall has level ``<= L``,
  so it contributes exactly ``floor - 1`` to any later placement — the
  same contribution a first-touch (unknown) location gets;
- every window-ring entry before the firewall is ``<= L < floor``, so it
  can never raise the floor again;
- deepest-use (WAR) and conservative-memory levels from before the
  firewall are ``<= L``, dominated by the ``floor - 1 + latency`` term of
  any post-firewall placement.

A segment's records *after its first conservative syscall* can therefore
be analyzed from a fresh frontier (floor 0, empty well and ring), and the
resulting :class:`SegmentSummary` later :func:`splice`\\ d onto the true
frontier by adding a single level offset — the true floor at the cut — to
every level it exported. The stitch replays only each segment's short
*prefix* (records up to and including its first syscall) in-process; the
suffixes, which are the bulk of the trace, run in parallel workers.

Splicing is *exact* but not universal: :func:`splice_eligible` gates it to
configurations whose state actually closes at a firewall. Optimistic
syscalls never firewall; branch predictors carry pattern state across any
cut; constrained resources schedule against absolute level occupancy; and
lifetime accounting must distinguish values live across the cut from
preexisting ones. Ineligible configurations stream sequentially through
``advance`` instead — still bounded-memory, still identical results —
so sharded analysis is total over the configuration space and never
silently approximates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq
from typing import Dict, List, Optional

from repro.core.branch import make_predictor
from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.kernels import (
    KERNEL_GENERIC,
    KERNEL_WINDOWED,
    select_kernel,
)
from repro.core.lifetimes import LifetimeStats
from repro.core.livewell import NEVER_USED
from repro.core.profile import ParallelismProfile
from repro.core.resources import ResourceState
from repro.core.results import AnalysisResult
from repro.isa.locations import MEM_BASE
from repro.isa.opclasses import OpClass
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

#: Default records per streaming chunk / shard segment (mirrors
#: :data:`repro.trace.chunked.DEFAULT_SHARD_RECORDS`).
DEFAULT_CHUNK_RECORDS = 1 << 20


def splice_eligible(config: AnalysisConfig) -> bool:
    """True when segment summaries for ``config`` can be spliced exactly.

    Requires conservative syscalls (the firewall is the cut), and excludes
    the features whose state crosses any cut: branch predictors (pattern
    tables), constrained resources (absolute-level occupancy), and
    lifetime collection (pass-1 cannot tell a value live across the cut
    from a preexisting one). Partial renaming, windows, conservative
    memory disambiguation, and profiles all close at a firewall and stay
    eligible.
    """
    return (
        config.syscall_policy == CONSERVATIVE
        and config.branch_predictor is None
        and (config.resources is None or config.resources.unconstrained)
        and not config.collect_lifetimes
    )


def align_shard_size(config: AnalysisConfig, shard_size: int) -> int:
    """Round ``shard_size`` up to a multiple of the configured window so
    shard cuts land on window-aligned record counts. Not required for
    correctness (the frontier carries the ring across any cut) but keeps
    segment boundaries meaningful against Figure 8's window sweeps."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    window = config.window_size
    if window:
        shard_size = ((shard_size + window - 1) // window) * window
    return shard_size


class Frontier:
    """The complete mutable state of one in-progress analysis.

    Everything the loops keep in locals lives here between ``advance``
    calls: the live well, the level floor, the deepest
    placement, the instruction-window ring, counters, the parallelism
    profile, conservative-memory levels, and the (sequential-only)
    predictor and resource objects.
    """

    __slots__ = (
        "config",
        "segments",
        "kernel",
        "latency",
        "conservative",
        "conservative_mem",
        "well",
        "floor",
        "deepest",
        "ring",
        "ring_pos",
        "profile",
        "records",
        "placed",
        "syscalls",
        "firewalls",
        "branches",
        "mispredictions",
        "mem_store_level",
        "mem_deepest_access",
        "predictor",
        "resources",
        "life_hist",
        "share_hist",
    )

    def __init__(self, config: AnalysisConfig, segments: SegmentMap):
        self.config = config
        self.segments = segments
        self.kernel = select_kernel(config)
        self.latency = config.latency.as_list()
        self.conservative = config.syscall_policy == CONSERVATIVE
        self.conservative_mem = (
            config.memory_disambiguation == CONSERVATIVE_DISAMBIGUATION
        )
        self.well: dict = {}
        self.floor = 0
        self.deepest = -1
        window = config.window_size
        self.ring: Optional[List[Optional[int]]] = [None] * window if window else None
        self.ring_pos = 0
        self.profile: Optional[Dict[int, int]] = {} if config.collect_profile else None
        self.records = 0
        self.placed = 0
        self.syscalls = 0
        self.firewalls = 0
        self.branches = 0
        self.mispredictions = 0
        self.mem_store_level = NEVER_USED
        self.mem_deepest_access = NEVER_USED
        self.predictor = (
            make_predictor(config.branch_predictor) if config.branch_predictor else None
        )
        self.resources = None
        if config.resources is not None and not config.resources.unconstrained:
            self.resources = ResourceState(config.resources)
        self.life_hist: Dict[int, int] = {}
        self.share_hist: Dict[int, int] = {}


def new_frontier(
    config: Optional[AnalysisConfig] = None,
    segments: SegmentMap = DEFAULT_SEGMENTS,
) -> Frontier:
    """A fresh frontier: the state of an analysis that has seen nothing."""
    return Frontier(config if config is not None else AnalysisConfig(), segments)


def advance(frontier: Frontier, trace, start: int = 0, end: Optional[int] = None) -> Frontier:
    """Run records ``[start, end)`` of a columnar ``trace`` through
    ``frontier``, mutating it in place (and returning it for chaining).
    Exact continuation: any split of a trace into ranges gives the same
    final frontier as one call over all of it."""
    n = len(trace.opclass)
    if end is None:
        end = n
    if not 0 <= start <= end <= n:
        raise ValueError(f"bad record range [{start}, {end}) for {n}-record trace")
    if start == end:
        return frontier
    if frontier.kernel == KERNEL_GENERIC:
        _advance_generic(frontier, trace, start, end)
    elif frontier.kernel == KERNEL_WINDOWED:
        _advance_windowed(frontier, trace, start, end)
    else:
        _advance_dataflow(frontier, trace, start, end)
    return frontier


def finalize(frontier: Frontier) -> AnalysisResult:
    """The :class:`AnalysisResult` of everything ``frontier`` has seen —
    identical to one ``advance`` over the concatenated records. The
    frontier itself is left untouched (lifetime flushing works on copies),
    so a caller may finalize, keep advancing, and finalize again."""
    config = frontier.config
    lifetimes = None
    if config.collect_lifetimes:
        life_hist = dict(frontier.life_hist)
        share_hist = dict(frontier.share_hist)
        life_get = life_hist.get
        share_get = share_hist.get
        for entry in frontier.well.values():
            if not entry[3]:
                uses = entry[2]
                life = entry[1] - entry[0] if uses else 0
                life_hist[life] = life_get(life, 0) + 1
                share_hist[uses] = share_get(uses, 0) + 1
        lifetimes = LifetimeStats(
            lifetime_histogram=life_hist,
            sharing_histogram=share_hist,
            values_created=sum(share_hist.values()),
            total_uses=sum(uses * count for uses, count in share_hist.items()),
        )
    profile = None
    if config.collect_profile:
        profile = ParallelismProfile(dict(frontier.profile))
    return AnalysisResult(
        records_processed=frontier.records,
        placed_operations=frontier.placed,
        critical_path_length=frontier.deepest + 1,
        profile=profile,
        syscalls=frontier.syscalls,
        firewalls=frontier.firewalls,
        branches=frontier.branches,
        mispredictions=frontier.mispredictions,
        peak_live_well=len(frontier.well),
        lifetimes=lifetimes,
        config=config,
    )


# -- the three placement loops -------------------------------------------------
#
# Shared idioms: the loops scan the columns themselves for a whole trace
# and ``memoryview`` slices of them (O(1) to cut at any record) for a part,
# hoist every configuration test out of the loop, and read syscall and
# conditional-branch tallies off the trace's census instead of zipping the
# flags column per record. The specialized loops drive running iterators
# over the value columns, paced by the memoized per-record arities, with
# the one- and two-operand shapes unrolled; each placement appends its
# level to a flat list that folds into the profile through one C-speed
# ``Counter`` pass. The full-semantics loop reads the memoized per-record
# operand tuples, since it visits every operand two or three times.


def _cut(column, start: int, end: int):
    """Records ``[start, end)`` of ``column``: the column itself when the
    range covers it (iterating an array beats iterating a view of it)."""
    if start == 0 and end == len(column):
        return column
    return memoryview(column)[start:end]


def _tally(fr: Frontier, trace, start: int, end: int, levels: List[int]) -> None:
    """Count records ``[start, end)`` and the levels of their placements
    into a specialized loop's frontier, where every conservative syscall
    is a firewall and nothing else is."""
    syscalls, branches = trace.census(start, end)
    fr.records += end - start
    fr.placed += len(levels)
    fr.syscalls += syscalls
    if fr.conservative:
        fr.firewalls += syscalls
    fr.branches += branches
    profile = fr.profile
    if profile is not None and levels:
        counts = Counter(levels)
        if not profile:  # the first (or only) call: one C-speed update
            profile.update(counts)
            return
        profile_get = profile.get
        for level, count in counts.items():
            profile[level] = profile_get(level, 0) + count


def _advance_dataflow(fr: Frontier, trace, start: int, end: int) -> None:
    """Dataflow-limit loop: full renaming, no window. With no storage
    dependencies left the well maps location -> level (plain ints) —
    sources only read it, destinations only overwrite it, and a first-touch
    source enters at ``floor - 1`` through ``setdefault``, which can never
    raise the base. Per-chunk placements collect in a flat list and fold
    into the frontier's profile and deepest at the chunk's edge, so
    transient memory is O(chunk), never O(trace)."""
    latency = fr.latency
    conservative = fr.conservative
    syscall_top = latency[_SYSCALL]
    src_counts, dest_counts = trace.operand_counts()

    src_values = trace.src_values
    dest_values = trace.dest_values
    src_it = iter(_cut(src_values, trace.src_offsets[start], len(src_values)))
    dest_it = iter(_cut(dest_values, trace.dest_offsets[start], len(dest_values)))

    well = fr.well
    well_set = well.setdefault
    levels: List[int] = []
    append = levels.append
    floor_m1 = fr.floor - 1  # floor - 1, the only form this loop needs
    deepest = fr.deepest  # only maintained up through the last syscall...
    mark = 0  # ...levels[mark:] hold the placements made since then

    for klass, ns, nd in zip(
        _cut(trace.opclass, start, end),
        _cut(src_counts, start, end),
        _cut(dest_counts, start, end),
    ):
        if klass < _SYSCALL:
            base = floor_m1
            if ns == 1:
                level = well_set(next(src_it), floor_m1)
                if level > base:
                    base = level
            elif ns == 2:
                level = well_set(next(src_it), floor_m1)
                if level > base:
                    base = level
                level = well_set(next(src_it), floor_m1)
                if level > base:
                    base = level
            elif ns:
                for _ in range(ns):
                    level = well_set(next(src_it), floor_m1)
                    if level > base:
                        base = level
            level = base + latency[klass]
            append(level)
            if nd == 1:
                well[next(dest_it)] = level
            elif nd:
                for _ in range(nd):
                    well[next(dest_it)] = level
        else:
            # Control record or syscall: sources are never levels here,
            # but the iterators must stay aligned with the class column.
            if ns == 1:
                next(src_it)
            elif ns:
                for _ in range(ns):
                    next(src_it)
            if klass == _SYSCALL and conservative:
                if len(levels) > mark:
                    since = max(levels[mark:])
                    if since > deepest:
                        deepest = since
                level = deepest + 1
                low = floor_m1 + syscall_top
                if low > level:
                    level = low
                append(level)
                deepest = level
                floor_m1 = level
                mark = len(levels)
                for _ in range(nd):
                    well[next(dest_it)] = level
            elif nd:
                for _ in range(nd):
                    next(dest_it)

    if len(levels) > mark:
        since = max(levels[mark:])
        if since > deepest:
            deepest = since
    fr.floor = floor_m1 + 1
    fr.deepest = deepest
    _tally(fr, trace, start, end, levels)


def _advance_windowed(fr: Frontier, trace, start: int, end: int) -> None:
    """The dataflow loop plus the contiguous instruction window: a ring of
    completion levels whose displaced entry raises the floor. The ring and
    its cursor persist on the frontier across chunk cuts."""
    latency = fr.latency
    conservative = fr.conservative
    syscall_top = latency[_SYSCALL]
    src_counts, dest_counts = trace.operand_counts()

    src_values = trace.src_values
    dest_values = trace.dest_values
    src_it = iter(_cut(src_values, trace.src_offsets[start], len(src_values)))
    dest_it = iter(_cut(dest_values, trace.dest_offsets[start], len(dest_values)))

    window = fr.config.window_size
    ring = fr.ring
    ring_pos = fr.ring_pos

    well = fr.well
    well_set = well.setdefault
    levels: List[int] = []
    append = levels.append
    floor = fr.floor
    deepest = fr.deepest
    mark = 0

    for klass, ns, nd in zip(
        _cut(trace.opclass, start, end),
        _cut(src_counts, start, end),
        _cut(dest_counts, start, end),
    ):
        old = ring[ring_pos]
        if old is not None and old >= floor:
            floor = old + 1
        if klass < _SYSCALL:
            base = floor - 1
            first_touch = base
            if ns == 1:
                level = well_set(next(src_it), first_touch)
                if level > base:
                    base = level
            elif ns == 2:
                level = well_set(next(src_it), first_touch)
                if level > base:
                    base = level
                level = well_set(next(src_it), first_touch)
                if level > base:
                    base = level
            elif ns:
                for _ in range(ns):
                    level = well_set(next(src_it), first_touch)
                    if level > base:
                        base = level
            level = base + latency[klass]
            append(level)
            if nd == 1:
                well[next(dest_it)] = level
            elif nd:
                for _ in range(nd):
                    well[next(dest_it)] = level
            ring[ring_pos] = level
        else:
            if ns == 1:
                next(src_it)
            elif ns:
                for _ in range(ns):
                    next(src_it)
            if klass == _SYSCALL and conservative:
                if len(levels) > mark:
                    since = max(levels[mark:])
                    if since > deepest:
                        deepest = since
                level = deepest + 1
                low = floor - 1 + syscall_top
                if low > level:
                    level = low
                append(level)
                deepest = level
                floor = level + 1
                mark = len(levels)
                for _ in range(nd):
                    well[next(dest_it)] = level
                ring[ring_pos] = level
            else:
                if nd:
                    for _ in range(nd):
                        next(dest_it)
                ring[ring_pos] = None
        ring_pos += 1
        if ring_pos == window:
            ring_pos = 0

    if len(levels) > mark:
        since = max(levels[mark:])
        if since > deepest:
            deepest = since
    fr.floor = floor
    fr.deepest = deepest
    fr.ring_pos = ring_pos
    _tally(fr, trace, start, end, levels)


def _advance_generic(fr: Frontier, trace, start: int, end: int) -> None:
    """Full-semantics loop: every analyzer feature. Live-well entries are
    ``[level, deepest_use, uses, preexisting]`` lists; WAR terms, predictor
    firewalls, resource placement, conservative memory, and inline
    lifetime accumulation (flushed by :func:`finalize`). The profile is a
    sparse dict (levels can reach critical-path length, and a streaming
    pass must not allocate a dense O(depth) list per chunk)."""
    config = fr.config
    segments = fr.segments
    latency = fr.latency
    rename_regs = config.rename_registers
    rename_stack = config.rename_stack
    rename_data = config.rename_data
    all_renamed = rename_regs and rename_stack and rename_data
    stack_bound = MEM_BASE + segments.stack_floor
    conservative = fr.conservative
    syscall_top = latency[_SYSCALL]
    branch_top = latency[_BRANCH]
    collect_lifetimes = config.collect_lifetimes
    life_hist = fr.life_hist
    share_hist = fr.share_hist
    life_get = life_hist.get
    share_get = share_hist.get
    resources = fr.resources
    # A universal-only model places by first fit on one slot table, which
    # the loop runs inline; per-class models go through ``place``.
    slots = resources.universal_only() if resources is not None else None
    if slots is not None:
        slot_capacity = slots.capacity
        slot_used = slots.used
        slot_used_get = slot_used.get
        slot_parents = slots.parents
    predictor = fr.predictor
    conservative_mem = fr.conservative_mem
    mem_store_level = fr.mem_store_level
    mem_deepest_access = fr.mem_deepest_access
    conditional = FLAG_CONDITIONAL
    taken = FLAG_TAKEN

    ops = _cut(trace.opclass, start, end)
    src_tuples, dest_tuples = trace.operand_tuples(start, end)
    if predictor is not None:
        # (flags, pc) of each branch record, consumed as branches come up.
        branch_info = compress(
            zip(_cut(trace.flags, start, end), _cut(trace.aux, start, end)),
            map(eq, ops, repeat(_BRANCH)),
        )

    window = config.window_size
    ring = fr.ring
    ring_pos = fr.ring_pos

    well = fr.well
    well_get = well.get
    profile = fr.profile
    profile_get = profile.get if profile is not None else None

    never = NEVER_USED
    floor = fr.floor
    deepest = fr.deepest
    placed = 0
    firewalls = 0
    mispredictions = 0

    for klass, srcs, dests in zip(ops, src_tuples, dest_tuples):
        if ring is not None:
            old = ring[ring_pos]
            if old is not None and old >= floor:
                floor = old + 1
        if klass >= _BRANCH:  # BRANCH / JUMP / NOP: not placed in the DDG
            if predictor is not None and klass == _BRANCH:
                flags, pc = next(branch_info)
                if flags & conditional:
                    actual = bool(flags & taken)
                    predicted = predictor.predict(pc)
                    predictor.update(pc, actual)
                    if predicted != actual:
                        mispredictions += 1
                        base = floor - 1
                        for src in srcs:
                            entry = well_get(src)
                            if entry is not None and entry[0] > base:
                                base = entry[0]
                        resolve = base + branch_top
                        if resolve > floor:
                            floor = resolve
                            firewalls += 1
            if ring is not None:
                ring[ring_pos] = None
                ring_pos += 1
                if ring_pos == window:
                    ring_pos = 0
            continue

        if klass == _SYSCALL:
            if not conservative:
                if ring is not None:
                    ring[ring_pos] = None
                    ring_pos += 1
                    if ring_pos == window:
                        ring_pos = 0
                continue
            # Conservative: firewall immediately after the deepest
            # computation; the call itself is placed there.
            level = deepest + 1
            low = floor - 1 + syscall_top
            if low > level:
                level = low
            firewalls += 1
            placed += 1
            if profile is not None:
                profile[level] = profile_get(level, 0) + 1
            if level > deepest:
                deepest = level
            floor = level + 1
            for dest in dests:
                old_entry = well_get(dest)
                if collect_lifetimes and old_entry is not None and not old_entry[3]:
                    uses = old_entry[2]
                    life = old_entry[1] - old_entry[0] if uses else 0
                    life_hist[life] = life_get(life, 0) + 1
                    share_hist[uses] = share_get(uses, 0) + 1
                well[dest] = [level, never, 0, False]
            if ring is not None:
                ring[ring_pos] = level
                ring_pos += 1
                if ring_pos == window:
                    ring_pos = 0
            continue

        # Ordinary value-creating operation.
        top = latency[klass]
        base = floor - 1
        for src in srcs:
            entry = well_get(src)
            if entry is None:
                # First touch: a pre-existing value, created the level
                # before the topologically highest available level.
                well[src] = [floor - 1, never, 0, True]
            elif entry[0] > base:
                base = entry[0]
        level = base + top

        if not all_renamed:
            for dest in dests:
                if dest < MEM_BASE:
                    renamed = rename_regs
                elif dest >= stack_bound:
                    renamed = rename_stack
                else:
                    renamed = rename_data
                if not renamed:
                    entry = well_get(dest)
                    if entry is not None:
                        war = entry[1] + 1
                        if war > level:
                            level = war

        if conservative_mem:
            # No alias analysis: a load depends on the last store as if it
            # read the value it wrote; a store waits behind every earlier
            # memory access it might conflict with.
            if klass == _LOAD:
                if mem_store_level + top > level:
                    level = mem_store_level + top
            elif klass == _STORE:
                if mem_deepest_access + 1 > level:
                    level = mem_deepest_access + 1

        if resources is not None:
            if slots is None:
                level = resources.place(klass, level)
            else:
                if level in slot_parents:
                    # Skip the full levels, compressing the path walked.
                    path = []
                    while level in slot_parents:
                        path.append(level)
                        level = slot_parents[level]
                    for node in path:
                        slot_parents[node] = level
                used = slot_used_get(level, 0) + 1
                slot_used[level] = used
                if used >= slot_capacity:
                    slot_parents[level] = level + 1

        placed += 1
        if profile is not None:
            profile[level] = profile_get(level, 0) + 1
        if level > deepest:
            deepest = level
        if conservative_mem and (klass == _LOAD or klass == _STORE):
            if level > mem_deepest_access:
                mem_deepest_access = level
            if klass == _STORE and level > mem_store_level:
                mem_store_level = level

        for src in srcs:
            entry = well[src]
            if level > entry[1]:
                entry[1] = level
            entry[2] += 1

        for dest in dests:
            old_entry = well_get(dest)
            if collect_lifetimes and old_entry is not None and not old_entry[3]:
                uses = old_entry[2]
                life = old_entry[1] - old_entry[0] if uses else 0
                life_hist[life] = life_get(life, 0) + 1
                share_hist[uses] = share_get(uses, 0) + 1
            well[dest] = [level, never, 0, False]

        if ring is not None:
            ring[ring_pos] = level
            ring_pos += 1
            if ring_pos == window:
                ring_pos = 0

    fr.floor = floor
    fr.deepest = deepest
    fr.ring_pos = ring_pos
    fr.mem_store_level = mem_store_level
    fr.mem_deepest_access = mem_deepest_access
    syscalls, branches = trace.census(start, end)
    fr.records += end - start
    fr.placed += placed
    fr.syscalls += syscalls
    fr.firewalls += firewalls
    fr.branches += branches
    fr.mispredictions += mispredictions


# -- segment summaries and splicing -------------------------------------------


@dataclass
class SegmentSummary:
    """The portable outcome of analyzing one segment's post-firewall suffix
    from a fresh frontier (local level 0 = the level just past the cut's
    firewall). All levels inside are *local*; :func:`splice` shifts them by
    the true floor at the cut.

    Attributes:
        count: records in the whole segment (prefix + suffix).
        prefix_count: records up to and including the first conservative
            syscall — the part the stitch pass replays in-process.
        generic: True when well entries are the generic loop's
            ``[level, deepest_use, uses, preexisting]`` lists (vs plain
            level ints from the specialized loops).
        floor: local floor after the suffix.
        deepest: local deepest placement (-1 when the suffix placed none).
        well: local live well (every location the suffix touched).
        ring: trailing window levels in recency order (oldest first),
            at most ``window_size`` entries; ``None`` without a window.
        mem_store_level / mem_deepest_access: local conservative-memory
            levels (``NEVER_USED`` when untouched).
        profile: local level -> placement count (``None`` when off).
    """

    count: int
    prefix_count: int
    generic: bool
    floor: int
    deepest: int
    placed: int
    syscalls: int
    firewalls: int
    branches: int
    well: dict
    ring: Optional[List[Optional[int]]]
    mem_store_level: int
    mem_deepest_access: int
    profile: Optional[Dict[int, int]]


def _export_ring(fr: Frontier, suffix_records: int) -> Optional[List[Optional[int]]]:
    """The frontier's ring in recency order (oldest first), trimmed to the
    entries the suffix actually wrote — never-written init slots would be
    indistinguishable from a control record's ``None``."""
    if fr.ring is None:
        return None
    ordered = fr.ring[fr.ring_pos :] + fr.ring[: fr.ring_pos]
    keep = min(suffix_records, len(ordered))
    return ordered[len(ordered) - keep :] if keep else []


def summarize_segment(
    trace,
    config: AnalysisConfig,
    segments: Optional[SegmentMap] = None,
) -> SegmentSummary:
    """Pass 1 of sharded analysis: run ``trace`` (one standalone segment)
    past its first conservative syscall from a fresh frontier and export
    the summary. Raises ``ValueError`` for configurations that cannot be
    spliced or segments with no syscall — callers gate on
    :func:`splice_eligible` and the manifest's ``first_syscall``."""
    if not splice_eligible(config):
        raise ValueError("configuration is not splice-eligible")
    if segments is None:
        segments = getattr(trace, "segments", DEFAULT_SEGMENTS)
    ops = trace.opclass
    count = len(ops)
    cut = -1
    for index in range(count):
        if ops[index] == _SYSCALL:
            cut = index
            break
    if cut < 0:
        raise ValueError("segment has no syscall to cut at")
    return _summarize_range(trace, config, segments, cut + 1, count, count)


def _summarize_range(
    trace,
    config: AnalysisConfig,
    segments: SegmentMap,
    suffix_start: int,
    suffix_end: int,
    segment_count: int,
) -> SegmentSummary:
    """Fresh-frontier analysis of ``trace[suffix_start:suffix_end]``
    exported as a summary for a ``segment_count``-record segment whose
    first syscall is record ``suffix_start - 1`` of the range."""
    fr = new_frontier(config, segments)
    advance(fr, trace, suffix_start, suffix_end)
    return SegmentSummary(
        count=segment_count,
        prefix_count=segment_count - (suffix_end - suffix_start),
        generic=fr.kernel == KERNEL_GENERIC,
        floor=fr.floor,
        deepest=fr.deepest,
        placed=fr.placed,
        syscalls=fr.syscalls,
        firewalls=fr.firewalls,
        branches=fr.branches,
        well=fr.well,
        ring=_export_ring(fr, suffix_end - suffix_start),
        mem_store_level=fr.mem_store_level,
        mem_deepest_access=fr.mem_deepest_access,
        profile=fr.profile,
    )


def splice(fr: Frontier, summary: SegmentSummary) -> Frontier:
    """Graft a segment suffix's summary onto ``fr``.

    ``fr`` must stand exactly at the cut: its last record was the
    segment's first conservative syscall, so ``fr.floor`` is the true
    level offset of every local level in the summary. The overlay is
    exact (see the module docstring's closure argument), and a location
    present on both sides takes the summary's entry — its pre-cut level
    is ``< floor`` and would contribute ``floor - 1`` anyway.
    """
    offset = fr.floor
    never = NEVER_USED
    well = fr.well
    if summary.generic:
        for loc, entry in summary.well.items():
            deepest_use = entry[1]
            well[loc] = [
                entry[0] + offset,
                deepest_use if deepest_use == never else deepest_use + offset,
                entry[2],
                entry[3],
            ]
    else:
        for loc, level in summary.well.items():
            well[loc] = level + offset
    if summary.deepest >= 0 and summary.deepest + offset > fr.deepest:
        fr.deepest = summary.deepest + offset
    fr.floor = summary.floor + offset
    if fr.ring is not None and summary.ring is not None:
        window = len(fr.ring)
        ordered = fr.ring[fr.ring_pos :] + fr.ring[: fr.ring_pos]
        shifted = [
            level + offset if level is not None else None for level in summary.ring
        ]
        fr.ring = (ordered + shifted)[-window:]
        fr.ring_pos = 0
    if summary.mem_store_level != never:
        level = summary.mem_store_level + offset
        if level > fr.mem_store_level:
            fr.mem_store_level = level
    if summary.mem_deepest_access != never:
        level = summary.mem_deepest_access + offset
        if level > fr.mem_deepest_access:
            fr.mem_deepest_access = level
    if fr.profile is not None and summary.profile:
        profile = fr.profile
        profile_get = profile.get
        for level, count in summary.profile.items():
            profile[level + offset] = profile_get(level + offset, 0) + count
    fr.records += summary.count - summary.prefix_count
    fr.placed += summary.placed
    fr.syscalls += summary.syscalls
    fr.firewalls += summary.firewalls
    fr.branches += summary.branches
    return fr


# -- whole-trace entry points -------------------------------------------------


def stream_analyze_trace(
    trace,
    config: Optional[AnalysisConfig] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """Analyze ``trace`` by advancing one frontier over fixed-size record
    chunks. Exact for every configuration; exists so the chunk-cut
    machinery is exercisable (and verifiable) without a file."""
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    columnar = ColumnarTrace.from_buffer(trace)
    if config is None:
        config = AnalysisConfig()
    if segments is None:
        segments = columnar.segments
    fr = new_frontier(config, segments)
    count = len(columnar.opclass)
    for start in range(0, count, chunk_records):
        advance(fr, columnar, start, min(start + chunk_records, count))
    return finalize(fr)


def shard_analyze_trace(
    trace,
    config: Optional[AnalysisConfig] = None,
    shard_size: int = DEFAULT_CHUNK_RECORDS,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """Analyze ``trace`` through the full shard machinery in-process:
    window-aligned segments, fresh-frontier suffix summaries for
    splice-eligible configurations, prefix replay + :func:`splice`
    stitching. Segments without a syscall (and every segment of an
    ineligible configuration) advance the frontier directly, so the
    result is identical to whole-trace analysis for *every*
    configuration."""
    columnar = ColumnarTrace.from_buffer(trace)
    if config is None:
        config = AnalysisConfig()
    if segments is None:
        segments = columnar.segments
    shard_size = align_shard_size(config, shard_size)
    eligible = splice_eligible(config)
    fr = new_frontier(config, segments)
    ops = columnar.opclass
    count = len(ops)
    start = 0
    while start < count:
        end = min(start + shard_size, count)
        cut = -1
        if eligible:
            for index in range(start, end):
                if ops[index] == _SYSCALL:
                    cut = index
                    break
        if cut >= 0:
            summary = _summarize_range(
                columnar, config, segments, cut + 1, end, end - start
            )
            advance(fr, columnar, start, cut + 1)
            splice(fr, summary)
        else:
            advance(fr, columnar, start, end)
        start = end
    return finalize(fr)


def stream_analyze_file(
    path,
    config: Optional[AnalysisConfig] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    cap: Optional[int] = None,
) -> AnalysisResult:
    """Analyze a PGT2 trace file with bounded memory: chunks decode off an
    ``mmap`` one at a time (see :func:`repro.trace.chunked.iter_chunks`)
    and fold into a single frontier. ``cap`` stops after that many records
    (whole-file streams also verify the header digest en route)."""
    from repro.obs.spans import span as _span
    from repro.trace.chunked import iter_chunks
    from repro.trace.io import read_header

    if config is None:
        config = AnalysisConfig()
    with open(path, "rb") as stream:
        segments, _, _ = read_header(stream)
    fr = new_frontier(config, segments)
    remaining = cap
    with _span("stream.analyze_file"):
        for chunk in iter_chunks(path, chunk_records):
            take = len(chunk.opclass)
            if remaining is not None:
                take = min(take, remaining)
            advance(fr, chunk, 0, take)
            if remaining is not None:
                remaining -= take
                if remaining == 0:
                    break
    return finalize(fr)
