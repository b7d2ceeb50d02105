"""Readable reference implementation of the Paragraph pass.

This mirrors the paper's prose as directly as possible using the
:class:`~repro.core.livewell.LiveWell` data structure, with no hot-loop
tricks. Tests cross-validate the optimized streaming analyzer
(:mod:`repro.core.analyzer`) against this on randomized traces, and this
against the explicit DDG (:mod:`repro.verify.oracle`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.branch import make_predictor
from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.lifetimes import LifetimeStats
from repro.core.livewell import LiveWell
from repro.core.profile import ParallelismProfile
from repro.core.resources import ResourceState
from repro.core.results import AnalysisResult
from repro.isa.locations import is_register_location, memory_address
from repro.isa.opclasses import OpClass, PLACED_CLASSES
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap


class _Firewalls:
    """Tracks ``highestLevel`` (here: ``floor``) and firewall insertion."""

    def __init__(self):
        self.floor = 0
        self.count = 0

    def raise_to(self, level: int) -> None:
        if level > self.floor:
            self.floor = level
            self.count += 1


class ReferenceAnalyzer:
    """Step-by-step Paragraph pass; one instance per trace analysis."""

    def __init__(self, config: AnalysisConfig, segments: SegmentMap):
        self.config = config
        self.segments = segments
        self.well = LiveWell()
        self.firewalls = _Firewalls()
        self.profile = ParallelismProfile() if config.collect_profile else None
        self.lifetimes = LifetimeStats() if config.collect_lifetimes else None
        self.resources = (
            ResourceState(config.resources)
            if config.resources is not None and not config.resources.unconstrained
            else None
        )
        self.predictor = (
            make_predictor(config.branch_predictor) if config.branch_predictor else None
        )
        self.window = list(
            [None] * config.window_size if config.window_size else []
        )
        self.window_pos = 0
        self.conservative_mem = (
            config.memory_disambiguation == CONSERVATIVE_DISAMBIGUATION
        )
        self.mem_store_level: Optional[int] = None
        self.mem_deepest_access: Optional[int] = None
        self.deepest = -1
        self.placed = 0
        self.records = 0
        self.syscalls = 0
        self.branches = 0
        self.mispredictions = 0

    # -- helpers ----------------------------------------------------------

    def _renamed(self, location: int) -> bool:
        """Is the storage class of ``location`` renamed under this config?"""
        if is_register_location(location):
            return self.config.rename_registers
        if memory_address(location) >= self.segments.stack_floor:
            return self.config.rename_stack
        return self.config.rename_data

    def _source_level(self, location: int) -> int:
        """Level at which the value in ``location`` is available; first
        touches materialize a pre-existing value one level above the floor."""
        value = self.well.lookup(location, preexisting_level=self.firewalls.floor - 1)
        return value.level

    def _account_eviction(self, location: int) -> None:
        """Lifetime bookkeeping for the value about to be overwritten."""
        if self.lifetimes is None:
            return
        old = self.well.peek(location)
        if old is not None and not old.preexisting:
            lifetime = old.deepest_use - old.level if old.uses else 0
            self.lifetimes.record(lifetime, old.uses)

    def _place(self, level: int) -> None:
        self.placed += 1
        if self.profile is not None:
            self.profile.add(level)
        if level > self.deepest:
            self.deepest = level

    def _advance_window(self, level: Optional[int]) -> None:
        if not self.window:
            return
        self.window[self.window_pos] = level
        self.window_pos = (self.window_pos + 1) % len(self.window)

    def _displace_window(self) -> None:
        if not self.window:
            return
        displaced = self.window[self.window_pos]
        if displaced is not None and displaced + 1 > self.firewalls.floor:
            # Window-displacement firewalls raise the floor but are not
            # counted in the result's firewall tally (only syscalls and
            # mispredictions are; a window inserts one per record).
            self.firewalls.floor = displaced + 1

    # -- per-record processing ---------------------------------------------

    def step(self, record) -> None:
        """Process one trace record."""
        self.records += 1
        self._displace_window()
        opclass = OpClass(record[0])
        if opclass not in PLACED_CLASSES:
            self._step_control(opclass, record)
            self._advance_window(None)
            return
        if opclass is OpClass.SYSCALL:
            self._step_syscall(record)
            return
        self._step_operation(opclass, record)

    def _step_control(self, opclass: OpClass, record) -> None:
        if opclass is not OpClass.BRANCH or not record[3] & FLAG_CONDITIONAL:
            return
        self.branches += 1
        if self.predictor is None:
            return
        pc, actual = record[4], bool(record[3] & FLAG_TAKEN)
        predicted = self.predictor.predict(pc)
        self.predictor.update(pc, actual)
        if predicted != actual:
            self.mispredictions += 1
            # peek, don't materialize: branch reads do not extend lifetimes
            # or enter values into the live well (paper excludes branches
            # from the DDG).
            levels = [self.firewalls.floor - 1]
            for src in record[1]:
                value = self.well.peek(src)
                if value is not None:
                    levels.append(value.level)
            resolve = max(levels) + self.config.latency.steps[OpClass.BRANCH]
            self.firewalls.raise_to(resolve)

    def _step_syscall(self, record) -> None:
        self.syscalls += 1
        if self.config.syscall_policy != CONSERVATIVE:
            self._advance_window(None)
            return
        top = self.config.latency.steps[OpClass.SYSCALL]
        level = max(self.deepest + 1, self.firewalls.floor - 1 + top)
        self.firewalls.count += 1
        self._place(level)
        self.firewalls.floor = level + 1
        for dest in record[2]:
            self._account_eviction(dest)
            self.well.create(dest, level)
        self._advance_window(level)

    def _step_operation(self, opclass: OpClass, record) -> None:
        top = self.config.latency.steps[opclass]
        srcs, dests = record[1], record[2]
        available = max(
            [self._source_level(src) for src in srcs],
            default=self.firewalls.floor - 1,
        )
        level = max(available, self.firewalls.floor - 1) + top
        for dest in dests:
            if not self._renamed(dest):
                old = self.well.peek(dest)
                if old is not None:
                    level = max(level, old.deepest_use + 1)
        if self.conservative_mem:
            if opclass is OpClass.LOAD and self.mem_store_level is not None:
                level = max(level, self.mem_store_level + top)
            elif opclass is OpClass.STORE and self.mem_deepest_access is not None:
                level = max(level, self.mem_deepest_access + 1)
        if self.resources is not None:
            level = self.resources.place(int(opclass), level)
        self._place(level)
        if self.conservative_mem and opclass in (OpClass.LOAD, OpClass.STORE):
            if self.mem_deepest_access is None or level > self.mem_deepest_access:
                self.mem_deepest_access = level
            if opclass is OpClass.STORE and (
                self.mem_store_level is None or level > self.mem_store_level
            ):
                self.mem_store_level = level
        for src in srcs:
            self.well.use(src, level)
        for dest in dests:
            self._account_eviction(dest)
            self.well.create(dest, level)
        self._advance_window(level)

    # -- results ------------------------------------------------------------

    def finish(self) -> AnalysisResult:
        """Flush end-of-trace lifetimes and build the result."""
        if self.lifetimes is not None:
            for _, value in self.well.items():
                if not value.preexisting:
                    lifetime = value.deepest_use - value.level if value.uses else 0
                    self.lifetimes.record(lifetime, value.uses)
        return AnalysisResult(
            records_processed=self.records,
            placed_operations=self.placed,
            critical_path_length=self.deepest + 1,
            profile=self.profile,
            syscalls=self.syscalls,
            firewalls=self.firewalls.count,
            branches=self.branches,
            mispredictions=self.mispredictions,
            peak_live_well=self.well.peak_size,
            lifetimes=self.lifetimes,
            config=self.config,
        )


def reference_analyze(
    trace: Iterable,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """Analyze ``trace`` with the reference implementation."""
    if config is None:
        config = AnalysisConfig()
    if segments is None:
        segments = getattr(trace, "segments", DEFAULT_SEGMENTS)
    analyzer = ReferenceAnalyzer(config, segments)
    for record in trace:
        analyzer.step(record)
    return analyzer.finish()
