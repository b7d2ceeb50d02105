"""Analysis job specifications and their stable identities.

A *job* is the engine's unit of parallelism: one Paragraph analysis of one
capped workload trace under one configuration. Jobs — not trace shards —
are the unit because a single analysis is an inherently serial scan (each
record's placement depends on the live-well state left by every earlier
record), while the experiment grids of the paper (Tables 2-4, Figures 7-8,
every ablation) are embarrassingly parallel across (trace x config) points.

Identity is content-based: a job digest covers the workload name, cap,
optimization flag, analysis method, and the full canonical configuration;
combined with the trace content digest it keys the on-disk result cache,
so identical work is never recomputed — across processes or across runs.

Every method takes the same input, a
:class:`~repro.trace.columnar.ColumnarTrace`: the frontier methods advance
over its columns, and the checkers (``twopass``, ``reference``,
``oracle``) iterate its records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.core.analyzer import BACKEND_PYTHON, BACKENDS, analyze
from repro.core.config import AnalysisConfig
from repro.core.reference import reference_analyze
from repro.core.results import AnalysisResult
from repro.core.twopass import twopass_analyze
from repro.trace.columnar import ColumnarTrace


def _analyze_vkernel(trace, config: AnalysisConfig) -> AnalysisResult:
    """The vectorized NumPy backend (:mod:`repro.core.vkernels`), pinned
    for the differential harness. Routes through ``analyze``'s backend
    knob, so ineligible configurations (or a missing NumPy) fall back to
    the python frontier — the results are identical either way."""
    return analyze(trace, config, backend="numpy")


def _analyze_oracle(trace, config: AnalysisConfig) -> AnalysisResult:
    # Imported lazily: repro.verify imports this module for METHODS.
    from repro.verify.oracle import oracle_analyze

    return oracle_analyze(trace, config)


def _analyze_stream(trace, config: AnalysisConfig) -> AnalysisResult:
    """Chunked streaming re-analysis: one frontier advanced over ~3 cuts
    (exercising resume-at-a-cut for every configuration). Late-binds
    through the module attribute so the harness can mutate it."""
    from repro.core import stream

    chunk = max(1, (len(trace) + 2) // 3)
    return stream.stream_analyze_trace(trace, config, chunk_records=chunk)


def _analyze_sharded(trace, config: AnalysisConfig) -> AnalysisResult:
    """Full shard machinery in-process over ~4 segments: fresh-frontier
    suffix summaries where the configuration allows splicing, prefix
    replay + stitch otherwise (see :mod:`repro.core.stream`)."""
    from repro.core import stream

    shard = max(1, (len(trace) + 3) // 4)
    return stream.shard_analyze_trace(trace, config, shard_size=shard)


def _analyze_segment(trace, config: AnalysisConfig):
    """Shard pass 1: treat the (segment) trace as standalone and summarize
    everything past its first conservative syscall from a fresh frontier.
    Returns a :class:`~repro.core.stream.SegmentSummary`, not an
    :class:`AnalysisResult` — the stitch pass splices it."""
    from repro.core import stream

    return stream.summarize_segment(trace, config)


#: Analysis methods a job may request. Values take ``(trace, config)`` and
#: return an :class:`AnalysisResult`. ``forward`` and ``twopass`` are the
#: production pair (identical results except ``peak_live_well``, see
#: :mod:`repro.core.twopass`); the rest pin one implementation each for
#: the differential verification harness (:mod:`repro.verify`) —
#: ``reference`` (readable live-well pass) and ``oracle`` (explicit DDG +
#: longest path; sentinel ``firewalls``/``peak_live_well``). ``stream``
#: and ``sharded`` run the bounded-memory chunk/shard machinery of
#: :mod:`repro.core.stream` (results identical to ``forward``); ``segment``
#: is the shard pass-1 worker method and returns a
#: :class:`~repro.core.stream.SegmentSummary` instead of a result;
#: ``vkernel`` pins the vectorized NumPy backend for the same harness.
METHODS: Dict[str, Callable[[ColumnarTrace, AnalysisConfig], AnalysisResult]] = {
    "forward": analyze,
    "twopass": twopass_analyze,
    "vkernel": _analyze_vkernel,
    "reference": reference_analyze,
    "oracle": _analyze_oracle,
    "stream": _analyze_stream,
    "sharded": _analyze_sharded,
    "segment": _analyze_segment,
}


@dataclass(frozen=True)
class AnalysisJob:
    """One (workload, cap, config) analysis request.

    Attributes:
        workload: suite workload name (resolved in the worker process).
        cap: instruction cap — the first ``cap`` dynamic instructions.
        config: the Paragraph configuration to analyze under.
        method: ``"forward"`` (streaming, method 2), ``"twopass"``
            (reverse-annotated, method 1), or one of the pinned
            verification methods in :data:`METHODS`.
        optimize: analyze the compiler-optimized trace of the workload
            (the abl-compiler grid axis).
        backend: ``"python"`` (default) or ``"numpy"`` — the execution
            strategy preference. Only ``forward`` (a whole-trace
            ``analyze``) forwards it; every other method pins its own
            implementation and ignores it. Never part of the job's
            :meth:`digest`: the backends are bit-identical, so both
            spellings of a job share one cache entry.
    """

    workload: str
    cap: int
    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    method: str = "forward"
    optimize: bool = False
    backend: str = BACKEND_PYTHON

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown analysis method {self.method!r}; "
                f"choose from {', '.join(METHODS)}"
            )
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown analysis backend {self.backend!r}; "
                f"choose from {', '.join(BACKENDS)}"
            )

    # -- identity ----------------------------------------------------------

    def canonical(self) -> dict:
        """JSON-safe canonical form (wire format across processes and the
        job half of cache keys). The ``backend`` key appears only when it
        is not the default, so canonical forms written before the backend
        knob existed stay byte-identical."""
        data = {
            "workload": self.workload,
            "cap": self.cap,
            "config": self.config.canonical(),
            "method": self.method,
            "optimize": self.optimize,
        }
        if self.backend != "python":
            data["backend"] = self.backend
        return data

    @classmethod
    def from_canonical(cls, data: dict) -> "AnalysisJob":
        """Inverse of :meth:`canonical` (worker-side reconstruction)."""
        return cls(
            workload=data["workload"],
            cap=data["cap"],
            config=AnalysisConfig.from_canonical(data["config"]),
            method=data["method"],
            optimize=data["optimize"],
            backend=data.get("backend", "python"),
        )

    def digest(self) -> str:
        """Stable hex digest of the job spec, identical across processes.

        The backend is stripped first: it is an execution strategy, not
        semantics, so a numpy-backed job hits (and fills) the same result
        cache entry as its python twin.
        """
        canonical = self.canonical()
        canonical.pop("backend", None)
        payload = json.dumps(
            canonical, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    @property
    def short_digest(self) -> str:
        """First 12 hex chars of :meth:`digest` — the compact tag run
        journals and retry log lines use to reference a job."""
        return self.digest()[:12]

    def describe(self) -> str:
        """Short human-readable tag for progress lines."""
        extras = []
        if self.method != "forward":
            extras.append(self.method)
        if self.backend != "python":
            extras.append(self.backend)
        if self.optimize:
            extras.append("optimized")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"{self.workload}@{self.cap} {self.config.describe()}{suffix}"

    # -- trace identity ----------------------------------------------------

    @property
    def trace_key(self) -> tuple:
        """The (workload, cap, optimize) triple identifying the input trace;
        jobs sharing a trace key share one cached trace load per worker."""
        return (self.workload, self.cap, self.optimize)

    def run(self, trace: ColumnarTrace) -> AnalysisResult:
        """Execute this job against an already-loaded trace."""
        if self.backend != BACKEND_PYTHON and self.method == "forward":
            return METHODS["forward"](trace, self.config, backend=self.backend)
        return METHODS[self.method](trace, self.config)
