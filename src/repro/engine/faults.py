"""Deterministic fault injection for the engine (test and CI harness).

Production dynamic-analysis runs die in ways unit tests never exercise:
workers are OOM-killed mid-job, hang past their deadline, or ship back a
payload mangled by a bad DIMM. This module makes every one of those failures
*injectable on demand and reproducible bit-for-bit*, so the recovery paths
in :mod:`repro.engine.resilience` are pinned by tests instead of trusted.

Activation is environment-driven so the faults reach worker processes under
both ``fork`` and ``spawn`` with zero plumbing:

- ``REPRO_FAULTS`` — comma-separated fault specs, e.g.
  ``"crash@2,hang@5"`` or ``"crash@*x99"``:

  ========== =========================================================
  spec       worker-side effect when executing grid index *k*
  ========== =========================================================
  crash@k    hard process death (``os._exit``) — models OOM kill/segv
  hang@k     sleep far past any per-job timeout — models a stuck job
  corrupt@k  mangle the result payload after its checksum is taken
  ========== =========================================================

  The target is a grid index or ``*`` (every job). An ``xN`` suffix fires
  the fault N times (default once).

- ``REPRO_FAULTS_DIR`` — state directory holding fire tickets. Each spec
  claims one ticket file per firing with ``O_CREAT | O_EXCL`` (atomic
  across worker processes and respawns), which is what makes "the k-th
  job fails once, its retry succeeds" deterministic. Without a state
  directory a spec fires every time it matches.

Hooks live only in the worker path (:func:`repro.engine.pool._worker_main`),
never in serial in-process execution — which is exactly what lets the
degraded serial fallback complete a grid whose pool is being crash-looped.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

#: Environment variable naming the active fault specs.
ENV_SPEC = "REPRO_FAULTS"
#: Environment variable naming the fire-ticket state directory.
ENV_DIR = "REPRO_FAULTS_DIR"

#: Recognized fault kinds, in the order the worker checks them.
KINDS = ("crash", "hang", "corrupt")

#: Seconds a ``hang`` fault sleeps — far past any sane per-job timeout.
HANG_SECONDS = 3600.0

#: Exit code of a ``crash`` fault (distinguishable from normal deaths).
CRASH_EXIT_CODE = 17


class FaultSpecError(ValueError):
    """Raised for an unparseable ``REPRO_FAULTS`` value."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: ``kind`` fired at ``target`` up to ``times``."""

    kind: str
    target: Union[int, str]  # a grid index, or "*" for every job
    times: int = 1

    def matches(self, kind: str, index: int) -> bool:
        return self.kind == kind and (self.target == "*" or self.target == index)

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.target}"


def parse_faults(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value into specs; raises
    :class:`FaultSpecError` on malformed input (a typo'd spec silently
    doing nothing would be worse than failing loudly)."""
    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise FaultSpecError(f"fault spec {chunk!r} is missing '@target'")
        kind, _, target = chunk.partition("@")
        times = 1
        if "x" in target:
            target, _, count = target.partition("x")
            try:
                times = int(count)
            except ValueError:
                raise FaultSpecError(f"bad fire count in fault spec {chunk!r}") from None
        if kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; choose from {', '.join(KINDS)}"
            )
        if target != "*":
            try:
                target = int(target)
            except ValueError:
                raise FaultSpecError(f"bad target in fault spec {chunk!r}") from None
        if times < 1:
            raise FaultSpecError(f"fire count must be >= 1 in {chunk!r}")
        specs.append(FaultSpec(kind, target, times))
    return tuple(specs)


class FaultPlan:
    """A set of fault specs plus the shared fire-ticket state."""

    def __init__(self, specs: Tuple[FaultSpec, ...], state_dir: Optional[str] = None):
        self.specs = specs
        self.state_dir = state_dir

    def _claim_ticket(self, spec: FaultSpec) -> bool:
        """Atomically claim one remaining firing of ``spec``; ``False`` once
        its budget is spent. With no state directory, always fires."""
        if self.state_dir is None:
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        for firing in range(spec.times):
            path = os.path.join(
                self.state_dir, f"{spec.kind}@{spec.target}.{firing}.fired"
            )
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.write(handle, f"pid={os.getpid()}\n".encode("ascii"))
            os.close(handle)
            return True
        return False

    def should_fire(self, kind: str, index: int) -> bool:
        for spec in self.specs:
            if spec.matches(kind, index) and self._claim_ticket(spec):
                return True
        return False


def active_plan() -> Optional[FaultPlan]:
    """The plan described by the current environment, or ``None``. Read per
    call (not cached) so tests can flip the environment between grids and
    spawned workers always see the parent's settings."""
    text = os.environ.get(ENV_SPEC)
    if not text:
        return None
    return FaultPlan(parse_faults(text), os.environ.get(ENV_DIR))


def fire(kind: str, index: int) -> bool:
    """True when a configured fault should trigger for ``kind`` at grid
    ``index`` — and consumes one firing of its budget."""
    plan = active_plan()
    return plan is not None and plan.should_fire(kind, index)


def crash_now() -> None:
    """Die the way an OOM-killed worker dies: no cleanup, no unwinding."""
    os._exit(CRASH_EXIT_CODE)


def hang_now() -> None:
    """Sleep far past any per-job timeout (interruptible by SIGTERM, like a
    genuinely stuck job being reaped)."""
    time.sleep(HANG_SECONDS)


def corrupt_payload(result_dict: dict) -> dict:
    """Return a subtly-mangled copy of a result payload (the kind of damage
    a bad DIMM or truncated pipe read produces: plausible but wrong)."""
    mangled = dict(result_dict)
    mangled["critical_path_length"] = int(mangled.get("critical_path_length", 0)) + 1
    return mangled
