"""Functional-unit resource constraints (paper Figure 4).

The published experiments run without resource restrictions, but Paragraph
supports throttling the DDG to a machine with finitely many functional
units: no more than ``k`` operations (of a class, or in total) may occupy
any single DDG level.

Placement is greedy first-fit: after dependence and firewall constraints
give an earliest completion level, the op takes the first level at or below
it with a free slot. Slots are accounted at the completion level (exact for
unit-latency operations, a pipelined-FU approximation otherwise).

First-fit over a densely packed schedule is quadratic if implemented as a
linear scan (an op whose dependences land mid-history would re-walk the
filled region every time), so saturated levels are skipped with a
union-find "next possibly-free level" structure with path compression —
amortized near-constant per placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.opclasses import OpClass


@dataclass(frozen=True)
class ResourceModel:
    """Static description of functional-unit limits.

    Attributes:
        universal: cap on total operations per level (``None`` = unlimited).
        per_class: optional per-class caps, e.g. ``{OpClass.FMUL: 2}``.
    """

    universal: Optional[int] = None
    per_class: Dict[OpClass, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.universal is not None and self.universal < 1:
            raise ValueError("universal FU count must be >= 1")
        for opclass, count in self.per_class.items():
            if count < 1:
                raise ValueError(f"FU count for {opclass.name} must be >= 1")

    @property
    def unconstrained(self) -> bool:
        """True when the model imposes no limits at all."""
        return self.universal is None and not self.per_class

    def canonical(self) -> dict:
        """JSON-safe canonical form (class names, sorted by the dict
        encoder), for config digests and the on-disk result cache."""
        return {
            "universal": self.universal,
            "per_class": {
                opclass.name: count for opclass, count in self.per_class.items()
            },
        }

    @classmethod
    def from_canonical(cls, data: dict) -> "ResourceModel":
        """Inverse of :meth:`canonical`."""
        return cls(
            universal=data.get("universal"),
            per_class={
                OpClass[name]: int(count)
                for name, count in data.get("per_class", {}).items()
            },
        )


class _SlotTable:
    """Per-level slot counts with union-find skip over full levels."""

    __slots__ = ("capacity", "used", "parents")

    def __init__(self, capacity: int):
        self.capacity = capacity
        #: level -> slots taken at it.
        self.used: Dict[int, int] = {}
        #: full level -> the next level that *might* have room (union-find
        #: parent pointers, compressed on lookup).
        self.parents: Dict[int, int] = {}

    def first_free(self, level: int) -> int:
        """The first level >= ``level`` not known to be full."""
        parents = self.parents
        root = level
        path = []
        while root in parents:
            path.append(root)
            root = parents[root]
        for node in path:
            parents[node] = root
        return root

    def consume(self, level: int) -> None:
        """Take one slot at a (non-full) ``level``."""
        used = self.used.get(level, 0) + 1
        self.used[level] = used
        if used >= self.capacity:
            self.parents[level] = level + 1


class ResourceState:
    """Mutable per-analysis slot accounting for a :class:`ResourceModel`."""

    def __init__(self, model: ResourceModel):
        self.model = model
        self._universal = (
            _SlotTable(model.universal) if model.universal is not None else None
        )
        self._by_class: Dict[int, _SlotTable] = {
            int(opclass): _SlotTable(count)
            for opclass, count in model.per_class.items()
        }

    def universal_only(self) -> Optional[_SlotTable]:
        """The universal slot table when the model caps no class of its
        own, so that :meth:`place` is one ``first_free`` and ``consume`` on
        it (the generic placement loop inlines those); else ``None``."""
        return None if self._by_class else self._universal

    def place(self, opclass: int, earliest: int) -> int:
        """Return the first level >= ``earliest`` with a free slot for this
        operation class (and in total), and consume that slot."""
        universal = self._universal
        class_table = self._by_class.get(opclass)
        level = earliest
        while True:
            candidate = level
            if universal is not None:
                candidate = universal.first_free(candidate)
            if class_table is not None:
                candidate = class_table.first_free(candidate)
            if candidate == level:
                break
            level = candidate
        if universal is not None:
            universal.consume(level)
        if class_table is not None:
            class_table.consume(level)
        return level
