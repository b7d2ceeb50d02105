"""Analysis configuration: Paragraph's switches (paper section 3.2).

Every published experiment is a point in this configuration space:

- Table 3 / Figure 7: all renaming on, no window, policy conservative (and
  optimistic for the comparison columns);
- Table 4: four renaming settings, conservative syscalls, no window;
- Figure 8: all renaming on, conservative syscalls, window swept.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.latency import LatencyTable
from repro.core.resources import ResourceModel

CONSERVATIVE = "conservative"
OPTIMISTIC = "optimistic"

_SYSCALL_POLICIES = (CONSERVATIVE, OPTIMISTIC)

#: Memory disambiguation models: ``"perfect"`` (the paper's setting — exact
#: dynamic addresses order memory operations) or ``"conservative"`` (no
#: alias information: every load depends on the last store, every store
#: waits for all earlier memory accesses — the pessimistic end of the
#: disambiguation-strategy axis the paper's section 3.1 cites from the
#: prior limit studies).
PERFECT_DISAMBIGUATION = "perfect"
CONSERVATIVE_DISAMBIGUATION = "conservative"

_DISAMBIGUATION_MODELS = (PERFECT_DISAMBIGUATION, CONSERVATIVE_DISAMBIGUATION)


@dataclass(frozen=True)
class AnalysisConfig:
    """One Paragraph run configuration.

    Attributes:
        syscall_policy: ``"conservative"`` places a firewall at each system
            call (it is assumed to touch every live value); ``"optimistic"``
            ignores system calls entirely.
        rename_registers: drop storage dependencies on registers.
        rename_stack: drop storage dependencies on stack-segment words.
        rename_data: drop storage dependencies on non-stack (data/heap) words.
        window_size: contiguous-trace instruction window (``None`` = the
            whole trace, i.e. no control constraint).
        latency: operation latency table (defaults to the paper's Table 1).
        resources: optional functional-unit limits (``None`` = unlimited).
        branch_predictor: optional predictor name (``None`` = perfect
            control flow, the paper's setting). When set, each mispredicted
            conditional branch inserts a firewall at its resolution level.
        memory_disambiguation: ``"perfect"`` (paper setting) or
            ``"conservative"`` (no alias analysis: loads serialize behind
            every store, stores behind every memory access).
        collect_lifetimes: also gather value lifetime / degree-of-sharing
            distributions (slower).
        collect_profile: gather the full parallelism profile (on by default;
            switch off for average-only baseline comparisons). The
            experiment grids switch it off for every job but Figure 7's,
            the only one that reads a profile.
    """

    syscall_policy: str = CONSERVATIVE
    rename_registers: bool = True
    rename_stack: bool = True
    rename_data: bool = True
    window_size: Optional[int] = None
    latency: LatencyTable = field(default_factory=LatencyTable.default)
    resources: Optional[ResourceModel] = None
    branch_predictor: Optional[str] = None
    memory_disambiguation: str = PERFECT_DISAMBIGUATION
    collect_lifetimes: bool = False
    collect_profile: bool = True

    def __post_init__(self):
        if self.syscall_policy not in _SYSCALL_POLICIES:
            raise ValueError(
                f"syscall_policy must be one of {_SYSCALL_POLICIES}, "
                f"got {self.syscall_policy!r}"
            )
        if self.window_size is not None and self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if self.memory_disambiguation not in _DISAMBIGUATION_MODELS:
            raise ValueError(
                f"memory_disambiguation must be one of {_DISAMBIGUATION_MODELS}, "
                f"got {self.memory_disambiguation!r}"
            )

    # -- named experiment presets ----------------------------------------

    @classmethod
    def dataflow_limit(cls, syscall_policy: str = CONSERVATIVE) -> "AnalysisConfig":
        """Only true data dependencies (Table 3): full renaming, no window,
        no resource limits."""
        return cls(syscall_policy=syscall_policy)

    @classmethod
    def no_renaming(cls) -> "AnalysisConfig":
        """All storage dependencies kept (Table 4 column 1)."""
        return cls(rename_registers=False, rename_stack=False, rename_data=False)

    @classmethod
    def registers_renamed(cls) -> "AnalysisConfig":
        """Only registers renamed (Table 4 column 2)."""
        return cls(rename_registers=True, rename_stack=False, rename_data=False)

    @classmethod
    def registers_and_stack_renamed(cls) -> "AnalysisConfig":
        """Registers and stack renamed (Table 4 column 3)."""
        return cls(rename_registers=True, rename_stack=True, rename_data=False)

    @classmethod
    def windowed(cls, window_size: int) -> "AnalysisConfig":
        """Figure 8 point: all renaming, conservative syscalls, finite window."""
        return cls(window_size=window_size)

    def derive(self, **changes) -> "AnalysisConfig":
        """A modified copy (thin wrapper over ``dataclasses.replace``)."""
        return replace(self, **changes)

    # -- stable identity ---------------------------------------------------

    def canonical(self) -> dict:
        """JSON-safe canonical form covering every switch that can change an
        analysis result. Cache keys and cross-process job specs are built
        from this, so two configs with equal canonical forms are
        interchangeable and the encoding must stay deterministic."""
        return {
            "syscall_policy": self.syscall_policy,
            "rename_registers": self.rename_registers,
            "rename_stack": self.rename_stack,
            "rename_data": self.rename_data,
            "window_size": self.window_size,
            "latency": self.latency.canonical(),
            "resources": None if self.resources is None else self.resources.canonical(),
            "branch_predictor": self.branch_predictor,
            "memory_disambiguation": self.memory_disambiguation,
            "collect_lifetimes": self.collect_lifetimes,
            "collect_profile": self.collect_profile,
        }

    @classmethod
    def from_canonical(cls, data: dict) -> "AnalysisConfig":
        """Inverse of :meth:`canonical` (result-cache and worker-side
        reconstruction)."""
        from repro.core.latency import LatencyTable
        from repro.core.resources import ResourceModel

        resources = data.get("resources")
        return cls(
            syscall_policy=data["syscall_policy"],
            rename_registers=data["rename_registers"],
            rename_stack=data["rename_stack"],
            rename_data=data["rename_data"],
            window_size=data["window_size"],
            latency=LatencyTable.from_canonical(data["latency"]),
            resources=None if resources is None else ResourceModel.from_canonical(resources),
            branch_predictor=data["branch_predictor"],
            memory_disambiguation=data["memory_disambiguation"],
            collect_lifetimes=data["collect_lifetimes"],
            collect_profile=data["collect_profile"],
        )

    def digest(self) -> str:
        """Stable hex digest of the configuration, identical across
        processes and interpreter runs (cache-key component)."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def describe(self) -> str:
        """Short human-readable tag, e.g. for table headers."""
        renames = []
        if self.rename_registers:
            renames.append("regs")
        if self.rename_stack:
            renames.append("stack")
        if self.rename_data:
            renames.append("data")
        window = "inf" if self.window_size is None else str(self.window_size)
        return (
            f"syscalls={self.syscall_policy} rename={'+'.join(renames) or 'none'} "
            f"window={window}"
        )
