"""Lightweight phase spans: wall + CPU time per named pipeline phase.

A span brackets one phase of one job — queue wait, trace lookup or
decode, kernel scan, serialization, retry backoff — and records its wall
and CPU time into the active registry as ``span.<name>.wall`` /
``span.<name>.cpu`` histograms plus a ``span.<name>.count`` counter.
Optionally it also accumulates the wall time into a plain ``phases`` dict,
which is how workers assemble the per-job phase breakdown that rides the
result queue back to the parent.

Disabled-mode contract: with metrics off and no ``phases`` sink,
:func:`span` returns a shared no-op singleton — no allocation, no clock
reads — so instrumented code paths cost one function call when
observability is off.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs import metrics as _metrics


class Span:
    """Context manager timing one phase. Reentrant-by-instance only (use
    one :func:`span` call per ``with`` statement)."""

    __slots__ = ("name", "registry", "phases", "wall", "cpu", "_wall0", "_cpu0")

    def __init__(self, name: str, registry, phases: Optional[Dict[str, float]]):
        self.name = name
        self.registry = registry
        self.phases = phases
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "Span":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall = time.perf_counter() - self._wall0
        self.cpu = time.process_time() - self._cpu0
        registry = self.registry
        if registry.enabled:
            name = self.name
            registry.histogram(f"span.{name}.wall").observe(self.wall)
            registry.histogram(f"span.{name}.cpu").observe(self.cpu)
            registry.counter(f"span.{name}.count").inc()
        if self.phases is not None:
            self.phases[self.name] = self.phases.get(self.name, 0.0) + self.wall
        return False


class _NullSpan:
    """Shared disabled-mode span: enters and exits without touching a
    clock."""

    __slots__ = ()

    wall = 0.0
    cpu = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(
    name: str,
    registry=None,
    phases: Optional[Dict[str, float]] = None,
):
    """A span for phase ``name`` against ``registry`` (the active global
    registry when not given). Returns the shared no-op span when there is
    nowhere to record to."""
    if registry is None:
        registry = _metrics.registry()
    if phases is None and not registry.enabled:
        return NULL_SPAN
    return Span(name, registry, phases)
