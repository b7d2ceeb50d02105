"""Spans, layer-boundary wrappers and self-time accounting for the
end-to-end benchmark.

Everything here measures the program from outside. The benchmark times its
own calls into each layer's public functions, wraps a few public functions
and methods while a traced operation runs (:class:`Patches`), and hands the
engine instrumented :class:`TraceStore`, :class:`ResultCache` and
:class:`ExperimentEngine` subclasses through their public constructor
arguments. Nothing under ``src/`` knows it is being measured.

A span's *layer* is the first dotted component of its name, which is the
``repro`` package the call lands in (``lang``, ``cpu``, ``trace``, ``core``,
``engine``, ``harness``, ``baselines``); ``bench.op`` is the root span of one
benchmark operation. A span's self time is its duration minus the part of
that interval its child spans cover.

Pool workers run in forked processes. They inherit the wrappers, which pass
straight through outside the recording process; their per-job phases come
back through the engine's own ``metrics=True`` outcome phases and are laid
out as child spans of the grid that ran them, on the worker's track.
"""

from __future__ import annotations

import collections
import json
import os
import resource
import time
from typing import Dict, List, Optional

from repro.core import vkernels
from repro.core.kernels import KERNEL_GENERIC, select_kernel
from repro.engine import ExperimentEngine
from repro.engine.cache import ResultCache
from repro.engine.progress import JOB_DONE, JOB_FAILED, JOB_RETRY, JOB_STARTED
from repro.harness.runner import TraceStore

#: Layers in pipeline order; ``bench`` is time no layer span covers.
LAYERS = ("lang", "cpu", "trace", "core", "engine", "harness", "baselines", "bench")

#: Span names reported one by one as per-layer metrics, each in seconds of
#: self time per second of traced wall time.
SPAN_METRICS = (
    "lang.compile",
    "cpu.simulate",
    "cpu.full_run",
    "trace.encode",
    "trace.decode",
    "trace.manifest",
    "trace.columnarize",
    "trace.stats",
    "core.kernel.dataflow",
    "core.kernel.windowed",
    "core.kernel.generic",
    "core.kernel.sequential",
    "core.kernel.twopass",
    "core.vkernels",
    "core.stream.advance",
    "core.stream.stitch",
    "core.stream.summarize",
    "engine.grid",
    "engine.job",
    "engine.worker.setup",
    "engine.worker.trace_load",
    "engine.worker.serialize",
    "engine.cache.load",
    "engine.cache.store",
    "harness.experiment",
    "harness.store",
    "harness.render",
)

#: Per-operation counts reported as per-layer metrics: name -> unit.
COUNT_METRICS = {
    "cpu.simulate.records": "count",
    "trace.encode.bytes": "bytes",
    "trace.decode.records": "count",
    "core.records": "count",
    "engine.jobs.run": "count",
    "engine.cache.loads": "count",
    "engine.cache.bytes": "bytes",
}

#: Every per-layer metric the traced run reports: name -> unit. Time shares
#: are seconds per traced wall second; parallel workers can push a layer's
#: share past 1.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.busy": "ratio" for layer in LAYERS},
    **{name: "ratio" for name in SPAN_METRICS},
    "engine.queue_wait": "ratio",
    **{f"{name}_per_op": unit for name, unit in COUNT_METRICS.items()},
    "engine.cache.hit_ratio": "ratio",
    "engine.pool.busy_ratio": "ratio",
    "engine.jobs.retried": "count",
    "engine.jobs.failed": "count",
    "engine.worker.peak_rss_mb": "MB",
    "core.vkernels.eligible_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.span_coverage": "ratio",
}


def route(config, backend: str = "python") -> str:
    """The span name of the kernel ``analyze(trace, config, backend)``
    runs, classified from outside: the vectorized backend when it is
    available and eligible, else the python kernel :func:`select_kernel`
    picks, with generic configurations that carry a branch predictor or
    constrained resources split out as the sequential route."""
    if backend == "numpy" and vkernels.available() and vkernels.eligible(config):
        return "core.vkernels"
    kernel = select_kernel(config)
    if kernel == KERNEL_GENERIC and (
        config.branch_predictor is not None
        or (config.resources is not None and not config.resources.unconstrained)
    ):
        return "core.kernel.sequential"
    return f"core.kernel.{kernel}"


def job_route(job) -> str:
    """The span name of one engine job's kernel phase."""
    if job.method == "twopass":
        return "core.kernel.twopass"
    if job.method == "segment":
        return "core.stream.summarize"
    return route(job.config, job.backend)


class Span:
    """One timed call; ``track`` is the pool worker a job span ran on."""

    __slots__ = ("id", "parent", "name", "start", "end", "op", "detail", "track")

    def __init__(self, id, parent, name, start, end, op, detail, track):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.op = op
        self.detail = detail
        self.track = track


class _Open:
    """Context manager for one live span."""

    __slots__ = ("recorder", "span")

    def __init__(self, recorder: "Recorder", span: Span):
        self.recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        self.recorder._stack.append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.perf_counter()
        self.recorder._stack.pop()
        return False


class Recorder:
    """Spans and counts of one traced run, kept in memory until the run
    ends. Only the process that created the recorder records."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.op: Optional[int] = None
        self._stack: List[int] = []

    @property
    def active(self) -> bool:
        return os.getpid() == self.pid

    def span(self, name: str, detail=None) -> _Open:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, 0.0, 0.0, self.op, detail, None)
        self.spans.append(span)
        return _Open(self, span)

    def count(self, counted) -> None:
        """Add a ``(counter name, amount)`` pair."""
        self.counts[counted[0]] += counted[1]

    def add(self, name, start, end, parent, detail=None, track=None) -> int:
        """Record a span measured elsewhere (a worker's job phases)."""
        span = Span(len(self.spans), parent, name, start, end, self.op, detail, track)
        self.spans.append(span)
        return span.id

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "parent": span.parent,
                            "name": span.name,
                            "layer": span.name.split(".", 1)[0],
                            "start": span.start - self.origin,
                            "end": span.end - self.origin,
                            "op": span.op,
                            "workload": self.workload,
                            "detail": span.detail,
                            "track": span.track,
                        }
                    )
                    + "\n"
                )


# -- wrappers installed for traced operations ----------------------------------


class Patches:
    """Replace public functions and methods with span-recording wrappers
    for the duration of a ``with`` block, restoring the originals after."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved = []

    def _set(self, owner, attribute, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def function(self, module, attribute, name, count=None) -> None:
        """Wrap ``module.attribute``; ``count(result, args)`` returns the
        ``(counter name, amount)`` to add per call."""
        recorder = self.recorder
        original = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            with recorder.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                recorder.count(count(result, args))
            return result

        self._set(module, attribute, wrapper)

    def method(self, cls, attribute, name, count=None) -> None:
        """Wrap a method or classmethod defined on ``cls``; ``name`` may be
        a callable ``(owner, args, kwargs) -> span name``."""
        raw = cls.__dict__[attribute]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        recorder = self.recorder
        namer = name if callable(name) else (lambda owner, args, kwargs: name)

        def wrapper(owner, *args, **kwargs):
            if not recorder.active:
                return original(owner, *args, **kwargs)
            with recorder.span(namer(owner, args, kwargs)):
                result = original(owner, *args, **kwargs)
            if count is not None:
                recorder.count(count(result, args))
            return result

        self._set(cls, attribute, classmethod(wrapper) if is_classmethod else wrapper)

    def generator(self, module, attribute, name, count) -> None:
        """Wrap a generator function so that producing each item is one
        span (the decode work happens between yields)."""
        recorder = self.recorder
        original = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            if not recorder.active:
                yield from iterator
                return
            while True:
                with recorder.span(name):
                    item = next(iterator, _DONE)
                if item is _DONE:
                    return
                recorder.count(count(item, args))
                yield item

        self._set(module, attribute, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        return False


_DONE = object()


def install_wrappers(recorder: Recorder) -> Patches:
    """The layer-boundary wrappers for one traced operation: compile,
    simulate, trace encode/decode/columnarize, in-process kernels, the
    streaming frontier, and the sharded stitch pass."""
    from repro.core import stream
    from repro.engine import shards
    from repro.engine.jobs import AnalysisJob
    from repro.harness import experiments, runner
    from repro.trace import chunked
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads import base

    def simulated(result, args):
        _, buffer = result
        return ("cpu.simulate.records", len(buffer) if buffer is not None else 0)

    def encoded(result, args):
        return ("trace.encode.bytes", os.path.getsize(args[0]))

    def decoded(trace, args):
        return ("trace.decode.records", len(trace))

    def analyzed(result, args):
        return ("core.records", len(args[0]))

    def advanced(result, args):
        # Every call site passes (frontier, trace, start, end) positionally.
        return ("core.records", args[3] - args[2])

    patches = Patches(recorder)
    patches.function(base, "compile_source", "lang.compile")
    def simulation(workload, args, kwargs):
        return "cpu.simulate" if kwargs.get("trace", True) else "cpu.full_run"

    patches.method(base.Workload, "run", simulation, count=simulated)
    patches.function(runner, "write_trace_file", "trace.encode", count=encoded)
    patches.function(runner, "read_trace_file", "trace.decode", count=decoded)
    patches.function(runner, "read_trace_digest", "trace.decode")
    patches.method(ColumnarTrace, "from_file", "trace.decode", count=decoded)
    patches.method(ColumnarTrace, "from_buffer", "trace.columnarize")
    patches.function(experiments, "compute_stats", "trace.stats")
    patches.function(experiments, "average_parallelism", "baselines.average")
    patches.function(experiments, "statement_parallelism", "baselines.statement")
    patches.method(
        AnalysisJob, "run", lambda job, args, kwargs: job_route(job), count=analyzed
    )
    patches.generator(chunked, "iter_chunks", "trace.decode", count=decoded)
    patches.function(stream, "advance", "core.stream.advance", count=advanced)
    patches.function(shards, "advance", "core.stream.advance", count=advanced)
    patches.function(shards, "splice", "core.stream.stitch")
    patches.function(shards, "decode_prefix", "trace.decode")
    patches.function(shards, "decode_segment", "trace.decode")
    patches.function(shards, "segment_manifest", "trace.manifest")
    return patches


# -- instrumented subclasses ----------------------------------------------------


class RecordCountingEngine(ExperimentEngine):
    """An engine that sums the trace records its grids return (cache hits
    count their ``records_processed``). Reads no clock, so untraced runs
    use it too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = 0

    def run_grid_with_store(self, grid, store):
        outcomes = super().run_grid_with_store(grid, store)
        for outcome in outcomes:
            self.records += getattr(outcome.result, "records_processed", 0)
        return outcomes


class TracedEngine(RecordCountingEngine):
    """Times each grid and lays every pool job's phases out as child spans
    of it. Job start/end times come from the engine's progress events,
    phase durations from its ``metrics=True`` outcome phases."""

    def __init__(self, recorder: Recorder, metrics_path: str, **kwargs):
        self._recorder = recorder
        self._events: Dict[int, List[Optional[float]]] = {}
        super().__init__(
            progress=self._on_event, metrics=True, metrics_path=metrics_path, **kwargs
        )

    def _on_event(self, event) -> None:
        now = time.perf_counter()
        if event.kind == JOB_STARTED:
            self._events[event.index] = [now, None]
        elif event.kind in (JOB_DONE, JOB_FAILED, JOB_RETRY):
            times = self._events.get(event.index)
            if times is not None:
                times[1] = now

    def run_grid_with_store(self, grid, store):
        recorder = self._recorder
        counts = recorder.counts
        self._events = {}
        with recorder.span("engine.grid", len(grid)) as grid_span:
            outcomes = super().run_grid_with_store(grid, store)
        pool_seconds = 0.0
        for outcome in outcomes:
            if outcome.cached or outcome.replayed:
                continue
            counts["engine.jobs.run"] += 1
            counts["engine.jobs.retried"] += outcome.attempts - 1
            counts["engine.jobs.failed"] += 0 if outcome.ok else 1
            if outcome.worker is None:
                continue  # ran in-process under the AnalysisJob.run wrapper
            counts["engine.queue_wait_s"] += outcome.queue_wait
            if outcome.ok:
                # Segment summaries carry no record count; a segment job's
                # cap is its record count.
                counts["core.records"] += getattr(
                    outcome.result, "records_processed", outcome.job.cap
                )
            pool_seconds += outcome.seconds
            times = self._events.get(outcome.index)
            if not times or times[1] is None:
                continue
            start, end = times
            job = recorder.add(
                "engine.job", start, end, grid_span.id, outcome.job.workload, outcome.worker
            )
            at = start
            for phase, seconds in (outcome.phases or {}).items():
                name = job_route(outcome.job) if phase == "kernel" else f"engine.worker.{phase}"
                recorder.add(name, at, min(at + seconds, end), job, None, outcome.worker)
                at = min(at + seconds, end)
        if pool_seconds:
            counts["engine.pool.job_s"] += pool_seconds
            counts["engine.pool.capacity_s"] += (grid_span.end - grid_span.start) * self.jobs
        return outcomes


class TracedStore(TraceStore):
    """A trace store whose public methods are ``harness.store`` spans."""

    def __init__(self, recorder: Recorder, directory=None):
        super().__init__(directory)
        self._recorder = recorder

    def trace(self, workload, cap, optimize=False):
        with self._recorder.span("harness.store", "trace"):
            return super().trace(workload, cap, optimize)

    def columnar(self, workload, cap, optimize=False):
        with self._recorder.span("harness.store", "columnar"):
            return super().columnar(workload, cap, optimize)

    def ensure_on_disk(self, workload, cap, optimize=False):
        with self._recorder.span("harness.store", "ensure_on_disk"):
            return super().ensure_on_disk(workload, cap, optimize)

    def full_run_length(self, workload):
        with self._recorder.span("harness.store", "full_run_length"):
            return super().full_run_length(workload)


class TracedCache(ResultCache):
    """A result cache whose loads and stores are spans, with hit and byte
    counts (entry files are ``<directory>/<key>.json``)."""

    def __init__(self, recorder: Recorder, directory: str):
        super().__init__(directory)
        self._recorder = recorder

    def load(self, key):
        counts = self._recorder.counts
        with self._recorder.span("engine.cache.load"):
            result = super().load(key)
        counts["engine.cache.loads"] += 1
        if result is not None:
            counts["engine.cache.hits"] += 1
        return result

    def store(self, key, trace_digest, job, result):
        with self._recorder.span("engine.cache.store"):
            super().store(key, trace_digest, job, result)
        path = os.path.join(self.directory, f"{key}.json")
        self._recorder.counts["engine.cache.bytes"] += os.path.getsize(path)


# -- self time ------------------------------------------------------------------


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: max(
            0.0,
            (span.end - span.start) - _covered(children[span.id], span.start, span.end),
        )
        for span in spans
    }


def layer_metrics(recorder: Recorder, overhead: float, ops: int) -> dict:
    """The per-layer metrics of a traced run: every name in
    :data:`PER_LAYER_UNITS`, from the spans and counts of ``ops`` traced
    operations and the measured tracing ``overhead`` ratio."""
    spans = recorder.spans
    counts = recorder.counts
    own = self_times(spans)
    wall = sum(span.end - span.start for span in spans if span.name == "bench.op")
    by_name = collections.Counter()
    by_layer = collections.Counter()
    for span in spans:
        by_name[span.name] += own[span.id]
        by_layer[span.name.split(".", 1)[0]] += own[span.id]
    share = (lambda seconds: seconds / wall) if wall > 0 else (lambda seconds: 0.0)
    metrics = {f"{layer}.busy": share(by_layer[layer]) for layer in LAYERS}
    metrics.update({name: share(by_name[name]) for name in SPAN_METRICS})
    metrics["engine.queue_wait"] = share(counts["engine.queue_wait_s"])
    for name in COUNT_METRICS:
        metrics[f"{name}_per_op"] = counts[name] / ops if ops else 0.0
    loads = counts["engine.cache.loads"]
    metrics["engine.cache.hit_ratio"] = counts["engine.cache.hits"] / loads if loads else 0.0
    capacity = counts["engine.pool.capacity_s"]
    metrics["engine.pool.busy_ratio"] = counts["engine.pool.job_s"] / capacity if capacity else 0.0
    metrics["engine.jobs.retried"] = counts["engine.jobs.retried"]
    metrics["engine.jobs.failed"] = counts["engine.jobs.failed"]
    metrics["engine.worker.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    asked = counts["core.vkernels.requests"]
    metrics["core.vkernels.eligible_ratio"] = counts["core.vkernels.eligible"] / asked if asked else 0.0
    metrics["obs.trace_overhead_ratio"] = overhead
    metrics["obs.span_coverage"] = 1.0 - share(by_name["bench.op"])
    return metrics


def self_time_table(recorder: Recorder) -> str:
    """Self time per layer and per span name, plus inclusive time per
    experiment and seconds per record for each kernel route."""
    spans = recorder.spans
    own = self_times(spans)
    wall = sum(span.end - span.start for span in spans if span.name == "bench.op")
    by_name = collections.Counter()
    calls = collections.Counter()
    for span in spans:
        by_name[span.name] += own[span.id]
        calls[span.name] += 1
    lines = [
        f"self time of {len(spans)} spans over {wall:.3f} s of traced wall time "
        f"({recorder.workload})",
        f"{'layer / span':34s} {'self s':>10s} {'per wall s':>11s} {'calls':>8s}",
    ]
    for layer in LAYERS:
        names = sorted(n for n in by_name if n.split(".", 1)[0] == layer)
        total = sum(by_name[n] for n in names)
        lines.append(f"{layer:34s} {total:10.3f} {total / wall if wall else 0:11.3f}")
        for name in sorted(names, key=lambda n: -by_name[n]):
            seconds = by_name[name]
            lines.append(
                f"  {name:32s} {seconds:10.3f} {seconds / wall if wall else 0:11.3f} "
                f"{calls[name]:8d}"
            )
    experiments = collections.Counter()
    for span in spans:
        if span.name == "harness.experiment":
            experiments[span.detail] += span.end - span.start
    if experiments:
        lines.append("")
        lines.append(f"{'experiment (inclusive)':34s} {'s':>10s}")
        for name, seconds in experiments.items():
            lines.append(f"  harness.experiment.{name:13s} {seconds:10.3f}")
    return "\n".join(lines)
