"""Paragraph: dynamic dependency graph extraction and analysis.

This package is the paper's primary contribution. Entry points:

- :func:`analyze` — the forward pass (method 2): one resumable frontier
  advanced over the whole trace, or the vectorized backend.
- :func:`twopass_analyze` — reverse-then-forward pass (method 1).
- :func:`reference_analyze` — readable reference implementation.
- :func:`summarize_critical_path` — what one longest chain of an explicit
  DDG is made of (the graph itself is built by
  :func:`repro.verify.oracle.build_oracle_ddg`, kept out of this package
  so the analyzers never load the verification harness).
- :class:`AnalysisConfig` — the switch set (renaming, syscalls, window...).
"""

from repro.core.analyzer import analyze
from repro.core.kernels import select_kernel
from repro.core.branch import PREDICTOR_NAMES, make_predictor
from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    OPTIMISTIC,
    PERFECT_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.cpath import CriticalPathSummary, summarize_critical_path
from repro.core.latency import LatencyTable
from repro.core.lifetimes import LifetimeStats
from repro.core.machines import MACHINE_MODELS, MachineModel, machine_model
from repro.core.livewell import NEVER_USED, LiveValue, LiveWell
from repro.core.profile import ParallelismProfile, ProfileBin
from repro.core.reference import ReferenceAnalyzer, reference_analyze
from repro.core.resources import ResourceModel, ResourceState
from repro.core.results import AnalysisResult, measurement_error
from repro.core.twopass import compute_kill_lists, twopass_analyze

__all__ = [
    "analyze",
    "select_kernel",
    "PREDICTOR_NAMES",
    "make_predictor",
    "CONSERVATIVE",
    "CONSERVATIVE_DISAMBIGUATION",
    "OPTIMISTIC",
    "PERFECT_DISAMBIGUATION",
    "AnalysisConfig",
    "CriticalPathSummary",
    "summarize_critical_path",
    "LatencyTable",
    "LifetimeStats",
    "MACHINE_MODELS",
    "MachineModel",
    "machine_model",
    "NEVER_USED",
    "LiveValue",
    "LiveWell",
    "ParallelismProfile",
    "ProfileBin",
    "ReferenceAnalyzer",
    "reference_analyze",
    "ResourceModel",
    "ResourceState",
    "AnalysisResult",
    "measurement_error",
    "compute_kill_lists",
    "twopass_analyze",
]
