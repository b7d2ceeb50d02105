"""Reproduction of Austin & Sohi, "Dynamic Dependency Analysis of Ordinary
Programs" (ISCA 1992).

The package rebuilds the paper's whole stack:

- :mod:`repro.core` — **Paragraph**, the dynamic-dependency-graph analyzer
  (the paper's contribution);
- :mod:`repro.isa`, :mod:`repro.asm`, :mod:`repro.cpu` — a MIPS-like ISA,
  assembler, and tracing simulator standing in for the DECstation + Pixie;
- :mod:`repro.lang` — a MiniC compiler so workloads are "ordinary programs
  written in an imperative language" with real register-reuse pressure;
- :mod:`repro.workloads` — ten SPEC-analog benchmark programs;
- :mod:`repro.baselines` — prior-work analyzers the paper positions against;
- :mod:`repro.harness` — experiment definitions regenerating every table
  and figure.

Quickstart::

    from repro import analyze, AnalysisConfig
    from repro.workloads import load_workload

    trace = load_workload("matrix300x").trace(max_instructions=100_000)
    result = analyze(trace, AnalysisConfig.dataflow_limit())
    print(result.available_parallelism)
"""

from repro.core import (
    AnalysisConfig,
    AnalysisResult,
    LatencyTable,
    ParallelismProfile,
    ResourceModel,
    analyze,
    measurement_error,
    reference_analyze,
    twopass_analyze,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "LatencyTable",
    "ParallelismProfile",
    "ResourceModel",
    "analyze",
    "measurement_error",
    "reference_analyze",
    "twopass_analyze",
    "__version__",
]
