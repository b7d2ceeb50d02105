"""The Paragraph analyzer (paper section 3.2, method 2).

One forward pass over the serial trace builds the parallelism profile and
critical path without materializing the DDG. Per value-creating record the
placement rule is::

    avail  = max(level(src) for src in sources, default floor-1)
    Ldest  = max(avail, floor - 1) + top(class)
    Ldest  = max(Ldest, Ddest + 1)        # only for non-renamed destinations
    Ldest  = first free level >= Ldest    # only under resource constraints

where ``floor`` is the first level available after the most recent firewall
(``highestLevel`` in the paper) and ``Ddest`` is the deepest consumer of the
value previously bound to the destination location.

Note on the placement formula: the paper's text writes
``MAX(Lsrc1, Lsrc2, highestLevel, Ddest+1) + top``, but its own worked
examples (Figures 1, 2 and 5) require the WAR term *not* to be scaled by
``top`` and pre-existing/firewall terms to land a unit-latency dependent at
``highestLevel`` itself; the rule above matches every figure exactly. See
DESIGN.md section 4.

:func:`analyze` is a router. The rule has one python implementation, the
resumable :class:`~repro.core.stream.Frontier` loops, and one vectorized
one, :mod:`repro.core.vkernels`; a whole-trace analysis is one frontier
advanced over every record, or one vectorized pass when ``backend`` is
``"numpy"`` and the configuration is eligible. Streaming and sharding
always advance python frontiers: the vectorized pass has no
continuation. :mod:`repro.core.reference`, :mod:`repro.core.twopass` and
the verification oracle are independent checkers that tests
cross-validate against.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.config import AnalysisConfig
from repro.core.kernels import select_kernel
from repro.core.results import AnalysisResult
from repro.core.stream import advance, finalize, new_frontier
from repro.obs import metrics as _obs
from repro.obs.spans import span as _span
from repro.trace.columnar import ColumnarTrace
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

#: Backend knob values accepted across analyze()/CLI/jobs. They live here,
#: not in :mod:`repro.core.vkernels`, so checking a backend name never
#: imports NumPy.
BACKEND_PYTHON = "python"
BACKEND_NUMPY = "numpy"
BACKENDS = (BACKEND_PYTHON, BACKEND_NUMPY)


def analyze(
    trace: Iterable,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
    backend: str = "python",
) -> AnalysisResult:
    """Run one Paragraph analysis over ``trace``.

    Args:
        trace: a :class:`~repro.trace.columnar.ColumnarTrace`, or any
            iterable of trace records (flattened into columns once).
        config: the analysis configuration (defaults to the dataflow limit:
            conservative syscalls, full renaming, unlimited window).
        segments: segment map override (defaults to the trace's own).
        backend: ``"python"`` (default) or ``"numpy"``. The numpy backend
            evaluates the same placement rule over level-frontier batches
            of the whole trace (:mod:`repro.core.vkernels`) and is
            bit-identical; it applies when NumPy is importable and the
            configuration is eligible (no window, no branch predictor, no
            constrained resources) — anything else falls back to the
            python frontier silently. Results never depend on the
            backend.

    Returns:
        An :class:`~repro.core.results.AnalysisResult`.
    """
    if config is None:
        config = AnalysisConfig()
    if segments is None:
        segments = getattr(trace, "segments", DEFAULT_SEGMENTS)
    trace = ColumnarTrace.from_buffer(trace, segments)
    if backend not in BACKENDS:
        raise ValueError(f"unknown analysis backend {backend!r}")
    if backend == BACKEND_NUMPY:
        from repro.core import vkernels

        if vkernels.available() and vkernels.eligible(config):
            return vkernels.analyze_vectorized(trace, config, segments)
    # The span is per analysis, not per record: with metrics off this is a
    # single predicate on the null registry; with metrics on it prices each
    # loop family separately (``span.kernel.scan.<kernel>.wall``).
    frontier = new_frontier(config, segments)
    if not _obs.enabled():
        return finalize(advance(frontier, trace, 0, len(trace.opclass)))
    with _span(f"kernel.scan.{select_kernel(config)}"):
        return finalize(advance(frontier, trace, 0, len(trace.opclass)))
