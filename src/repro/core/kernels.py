"""Which placement loop a configuration runs.

The python implementation of the placement rule is the resumable
:class:`~repro.core.stream.Frontier`, and it runs one of three loops,
specialized by configuration instead of testing every switch per record:

- **dataflow** — full renaming, no window, no resource limits, no branch
  predictor, perfect disambiguation, no lifetime collection. This is the
  configuration every Table 2/3 experiment runs, and the specialization
  is deep: with all storage dependencies renamed away and no lifetime
  accounting, a live-well entry is just the level at which its value
  became available, so the well is a plain ``dict[int, int]`` — no
  per-record list allocation, no WAR bookkeeping, no deepest-use updates.
- **windowed** — the dataflow loop plus the contiguous instruction-window
  ring (Figure 8 sweeps).
- **generic** — everything else (partial renaming, resource limits,
  branch predictors, conservative disambiguation, lifetime collection).

The vectorized backend (:mod:`repro.core.vkernels`) serves only
whole-trace ``analyze(..., backend="numpy")`` calls on windowless
dataflow and generic configs (no predictor, no constrained resources);
windowed configs, and every streamed, sharded or segment analysis, run
these python loops. Every
loop is cross-validated field-for-field against
:mod:`repro.core.reference` over the full configuration grid
(``tests/core/test_kernels.py``).

:func:`trace_views` names the memoized trace views each loop, and each
job method, reads.
"""

from __future__ import annotations

from repro.core.config import CONSERVATIVE_DISAMBIGUATION, AnalysisConfig

KERNEL_DATAFLOW = "dataflow"
KERNEL_WINDOWED = "windowed"
KERNEL_GENERIC = "generic"


def select_kernel(config: AnalysisConfig) -> str:
    """Which loop an analysis under ``config`` runs.

    The specialized loops require every feature they omit to be off:
    full renaming, no resource limits, no branch predictor, perfect
    memory disambiguation, and no lifetime collection. Syscall policy and
    profile collection are handled by both specialized loops.
    """
    plain = (
        config.rename_registers
        and config.rename_stack
        and config.rename_data
        and (config.resources is None or config.resources.unconstrained)
        and config.branch_predictor is None
        and config.memory_disambiguation != CONSERVATIVE_DISAMBIGUATION
        and not config.collect_lifetimes
    )
    if not plain:
        return KERNEL_GENERIC
    return KERNEL_DATAFLOW if config.window_size is None else KERNEL_WINDOWED


#: Job methods (:data:`repro.engine.jobs.METHODS`) that iterate a trace's
#: records rather than advance a frontier over its columns.
_RECORD_METHODS = frozenset({"twopass", "reference", "oracle", "average_only", "statement"})


def trace_views(config: AnalysisConfig, method: str = "forward", backend: str = "python") -> tuple:
    """The memoized :class:`~repro.trace.columnar.ColumnarTrace` views, by
    method name, that a job of ``method`` under ``config`` reads.

    Record iteration reads the operand tuples, which are split by the
    operand counts. The frontier loops read the census, and the
    specialized loops pace their operand iterators by the counts, where
    the generic loop reads the tuples. The vectorized backend reads none
    of them, when it runs. The parallel engine builds these views on the
    traces it hands its workers before it forks them
    (:mod:`repro.engine.pool`).
    """
    if method in _RECORD_METHODS:
        return ("operand_counts", "operand_tuples")
    if method == "vkernel" or (method == "forward" and backend == "numpy"):
        from repro.core import vkernels

        if vkernels.available() and vkernels.eligible(config):
            return ()
    if select_kernel(config) == KERNEL_GENERIC:
        return ("census", "operand_counts", "operand_tuples")
    return ("census", "operand_counts")
