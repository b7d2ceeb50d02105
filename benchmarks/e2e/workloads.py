"""The four workloads of the end-to-end benchmark.

Each workload is a closed loop with one client: the benchmark starts the
next operation when the previous one returns. An operation is one
``paragraph run all`` (the reproduce workloads), one ``analyze`` request
(``analyze-mix``) or one streaming or sharded pass over a trace file
(``stream-large``). Every operation's output is checked after its timing
ends.

A workload has up to three stages, each run by a separate process:

- ``build_inputs`` makes input files the workload reads but does not time
  (the warm reproduction's trace and result caches, the synthetic trace);
- ``setup`` is what a user pays before the first operation (imports, and
  for ``analyze-mix`` trace generation and a warm-up pass); it is timed as
  ``setup_s``;
- ``run`` performs one operation and returns an :class:`Outcome` whose
  ``verify`` the loop calls untimed.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.analyzer import analyze
from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.core.stream import stream_analyze_file
from repro.engine import ExperimentEngine
from repro.engine.cache import ResultCache
from repro.engine.serialize import result_to_bytes
from repro.engine.shards import shard_analyze_file
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import TraceStore
from repro.isa.opclasses import OpClass
from repro.trace.chunked import manifest_path, segment_manifest
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import write_trace
from repro.trace.segments import DEFAULT_SEGMENTS
from repro.trace.synthetic import random_trace
from repro.workloads.suite import all_workloads

from tracing import (
    RecordCountingEngine,
    Recorder,
    TracedCache,
    TracedEngine,
    TracedStore,
    route,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Worker processes for every engine pool (the 2-core machine the baseline
#: was measured on).
JOBS = 2


@dataclass(frozen=True)
class Size:
    """Input sizes. ``bench`` is what the benchmark runs; ``smoke`` keeps
    the self-test fast; ``paper`` is the README's full-scale
    reproduction (cap 250000 checked against ``results/``), far slower
    than one benchmark run may take."""

    reproduce_cap: int
    golden: str
    analyze_cap: int
    stream_records: int
    shard_records: int
    syscall_every: int


SIZES = {
    "smoke": Size(300, "benchmarks/e2e/golden/cap300", 2000, 40_000, 8192, 5000),
    "bench": Size(5000, "benchmarks/e2e/golden/cap5000", 20_000, 500_000, 65_536, 50_000),
    "paper": Size(250_000, "results", 100_000, 8_000_000, 262_144, 50_000),
}

#: CSV columns holding wall-clock timings, masked before comparison.
MASKED_COLUMNS = {"abl-twopass.csv": ("Fwd sec", "2-pass sec")}


@dataclass
class Outcome:
    """One operation: the trace records it returned, how many outputs it
    produced to check, the untimed check (mismatch descriptions), the kind
    of operation, and the seconds of its named parts, if it has any."""

    records: int
    checks: int
    verify: Callable[[], List[str]]
    kind: str
    parts: Dict[str, float] = field(default_factory=dict)


def span(recorder: Optional[Recorder], name: str, detail=None):
    return recorder.span(name, detail) if recorder is not None else contextlib.nullcontext()


# -- reproduce-cold / reproduce-warm ------------------------------------------------


def forget_compiled_programs() -> None:
    """A fresh ``paragraph`` process compiles every workload program; an
    in-process rerun drops the per-process compile cache to pay it again."""
    for workload in all_workloads():
        workload._programs.clear()


def write_outputs(out_dir: str, name: str, output) -> None:
    """What ``paragraph run --out`` writes for one experiment."""
    text = output.render()
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    for index, table in enumerate(output.tables):
        suffix = "" if len(output.tables) == 1 else f".{index}"
        with open(os.path.join(out_dir, f"{name}{suffix}.csv"), "w") as handle:
            handle.write(table.to_csv() + "\n")


def read_csv(path: str) -> List[List[str]]:
    """A CSV's rows, with the columns in :data:`MASKED_COLUMNS` blanked."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    masked = MASKED_COLUMNS.get(os.path.basename(path), ())
    positions = [rows[0].index(column) for column in masked]
    for row in rows[1:]:
        for position in positions:
            row[position] = ""
    return rows


def compare_csvs(out_dir: str, golden_dir: str) -> List[str]:
    """Mismatch descriptions between the reproduced CSVs and the golden
    ones: byte-for-byte, except that masked columns are blanked."""
    want = sorted(name for name in os.listdir(golden_dir) if name.endswith(".csv"))
    have = sorted(name for name in os.listdir(out_dir) if name.endswith(".csv"))
    failures = [f"missing {name}" for name in sorted(set(want) - set(have))]
    for name in want:
        if name not in have:
            continue
        produced = os.path.join(out_dir, name)
        expected = os.path.join(golden_dir, name)
        if name in MASKED_COLUMNS:
            same = read_csv(produced) == read_csv(expected)
        else:
            with open(produced, "rb") as mine, open(expected, "rb") as theirs:
                same = mine.read() == theirs.read()
        if not same:
            failures.append(f"{name} differs from {expected}")
    return failures


def reproduce_all(
    cap: int, trace_dir: str, cache_dir: str, out_dir: str, recorder=None, metrics_path=None
):
    """The work of ``paragraph run all --cap CAP --jobs 2 --trace-dir
    TRACE_DIR --result-cache CACHE_DIR --out OUT_DIR``, in-process.
    Returns ``(records returned by the engine, {experiment: error},
    {experiment: seconds})``."""
    forget_compiled_programs()
    if recorder is None:
        engine = RecordCountingEngine(
            store=TraceStore(trace_dir),
            jobs=JOBS,
            result_cache=ResultCache(cache_dir),
            metrics=False,
        )
    else:
        engine = TracedEngine(
            recorder,
            metrics_path,
            store=TracedStore(recorder, trace_dir),
            jobs=JOBS,
            result_cache=TracedCache(recorder, cache_dir),
        )
    errors: Dict[str, str] = {}
    seconds: Dict[str, float] = {}
    os.makedirs(out_dir, exist_ok=True)
    try:
        for name in EXPERIMENTS:
            started = time.perf_counter()
            with span(recorder, "harness.experiment", name):
                try:
                    output = run_experiment(name, engine, cap)
                except Exception as error:  # noqa: BLE001 - counted as a failed output
                    errors[name] = f"{type(error).__name__}: {error}"
                else:
                    with span(recorder, "harness.render", name):
                        write_outputs(out_dir, name, output)
            seconds[name] = time.perf_counter() - started
    finally:
        engine.close()
    return engine.records, errors, seconds


class Reproduce:
    """``reproduce-cold``: every operation starts from empty trace and
    result caches. ``reproduce-warm``: every operation reruns against the
    caches one cold run left behind (built untimed, as input)."""

    round_size = 1

    def __init__(self, warm: bool, size: Size, seed: int, work: str):
        self.name = "reproduce-warm" if warm else "reproduce-cold"
        self.warm = warm
        self.cap = size.reproduce_cap
        self.golden = os.path.join(ROOT, size.golden)
        self.work = work
        self.inputs = os.path.join(work, "inputs")

    def build_inputs(self) -> None:
        if not self.warm:
            return
        out_dir = os.path.join(self.work, "inputs-out")
        _, errors, _ = reproduce_all(
            self.cap,
            os.path.join(self.inputs, "traces"),
            os.path.join(self.inputs, "results"),
            out_dir,
        )
        failures = list(errors.values()) + compare_csvs(out_dir, self.golden)
        shutil.rmtree(out_dir)
        if failures:
            raise RuntimeError("cold run building the warm inputs failed: " + "; ".join(failures))

    def setup(self) -> None:
        if not os.path.isdir(self.golden):
            raise RuntimeError(f"no golden outputs at {self.golden}")

    def run(self, index: int, recorder: Optional[Recorder]) -> Outcome:
        if self.warm:
            base = self.inputs
        else:
            base = os.path.join(self.work, f"op-{index}")
        out_dir = os.path.join(self.work, f"out-{index}")
        records, errors, seconds = reproduce_all(
            self.cap,
            os.path.join(base, "traces"),
            os.path.join(base, "results"),
            out_dir,
            recorder,
            os.path.join(self.work, "metrics.jsonl"),
        )

        def verify() -> List[str]:
            failures = [f"{name}: {error}" for name, error in errors.items()]
            failures += compare_csvs(out_dir, self.golden)
            shutil.rmtree(out_dir)
            if not self.warm:
                shutil.rmtree(base)
            return failures

        return Outcome(records, len(EXPERIMENTS), verify, "run-all", seconds)


# -- analyze-mix --------------------------------------------------------------------

#: The ad-hoc ``paragraph analyze`` configurations drawn from.
ANALYZE_CONFIGS = {
    "dataflow": AnalysisConfig(),
    "optimistic": AnalysisConfig.dataflow_limit(OPTIMISTIC),
    "no-renaming": AnalysisConfig.no_renaming(),
    "regs": AnalysisConfig.registers_renamed(),
    "regs+stack": AnalysisConfig.registers_and_stack_renamed(),
    "window-64": AnalysisConfig(window_size=64),
    "window-1024": AnalysisConfig(window_size=1024),
    "lifetimes": AnalysisConfig(collect_lifetimes=True),
    "gshare": AnalysisConfig(branch_predictor="gshare"),
}
BACKENDS = ("python", "numpy")


class AnalyzeMix:
    """In-process ``analyze(trace, config, backend)`` requests on loaded
    columnar traces, each drawn uniformly (by the seed) from 10 workloads
    x 9 configurations x 2 backends."""

    name = "analyze-mix"
    round_size = 1

    def __init__(self, size: Size, seed: int, work: str):
        self.cap = size.analyze_cap
        self.rng = random.Random(seed)

    def build_inputs(self) -> None:
        pass

    def setup(self) -> None:
        self.traces = {
            workload.name: ColumnarTrace.from_buffer(workload.trace(max_instructions=self.cap))
            for workload in all_workloads()
        }
        self.cells = [
            (workload, config, backend)
            for workload in self.traces
            for config in ANALYZE_CONFIGS
            for backend in BACKENDS
        ]
        self.expected = {}
        for cell in self.cells:
            workload, config, backend = cell
            result = analyze(self.traces[workload], ANALYZE_CONFIGS[config], backend=backend)
            self.expected[cell] = result_to_bytes(result)
        for workload, config, backend in self.cells:
            if self.expected[(workload, config, backend)] != self.expected[(workload, config, "python")]:
                raise RuntimeError(f"{backend} and python disagree on {workload} {config}")

    def run(self, index: int, recorder: Optional[Recorder]) -> Outcome:
        cell = self.rng.choice(self.cells)
        workload, config_name, backend = cell
        trace = self.traces[workload]
        config = ANALYZE_CONFIGS[config_name]
        if recorder is None:
            result = analyze(trace, config, backend=backend)
        else:
            name = route(config, backend)
            with recorder.span(name, f"{workload} {config_name} {backend}"):
                result = analyze(trace, config, backend=backend)
            counts = recorder.counts
            counts["core.records"] += len(trace)
            if backend == "numpy":
                counts["core.vkernels.requests"] += 1
                counts["core.vkernels.eligible"] += name == "core.vkernels"

        def verify() -> List[str]:
            if result_to_bytes(result) == self.expected[cell]:
                return []
            return [f"{workload} {config_name} {backend} differs from its warm-up result"]

        return Outcome(result.records_processed, 1, verify, " ".join(cell))


# -- stream-large -------------------------------------------------------------------

#: Configurations streamed and sharded: the dataflow kernel and the
#: generic kernel (no renaming); both splice at syscall firewalls.
STREAM_CONFIGS = {
    "dataflow": AnalysisConfig(),
    "no-renaming": AnalysisConfig.no_renaming(),
}

#: Records in the random dependency pattern cycled to trace length. Prime,
#: so the cycle never phase-locks with chunk or shard boundaries.
PATTERN_RECORDS = 4099


def synthetic_records(seed: int, count: int, syscall_every: int):
    """``count`` records without materializing the trace: a seeded random
    dependency pattern cycled end to end, with a conservative syscall
    every ``syscall_every`` records."""
    pattern = list(random_trace(seed, PATTERN_RECORDS, syscall_fraction=0.0))
    syscall = (int(OpClass.SYSCALL), (), (), 0, -1)
    cycle = itertools.cycle(pattern)
    for index in range(count):
        yield syscall if index and index % syscall_every == 0 else next(cycle)


class StreamLarge:
    """Bounded-memory analysis of one large PGT2 file: streamed through one
    frontier, and sharded across the pool with a stitch pass, for each of
    :data:`STREAM_CONFIGS`. A round is those four passes."""

    name = "stream-large"
    round_size = 4

    def __init__(self, size: Size, seed: int, work: str):
        self.size = size
        self.seed = seed
        self.path = os.path.join(work, "inputs", "stream.pgt2")
        self.expected_path = os.path.join(work, "inputs", "expected.json")
        self.metrics_path = os.path.join(work, "metrics.jsonl")

    def build_inputs(self) -> None:
        """Write the seeded trace and its in-memory analyses (through the
        vectorized backend where NumPy is present, an implementation the
        streaming passes share no loop with)."""
        size = self.size
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "wb") as stream:
            records = synthetic_records(self.seed, size.stream_records, size.syscall_every)
            write_trace(stream, records, DEFAULT_SEGMENTS, size.stream_records)
        trace = ColumnarTrace.from_file(self.path)
        expected = {
            name: result_to_bytes(analyze(trace, config, backend="numpy")).decode()
            for name, config in STREAM_CONFIGS.items()
        }
        with open(self.expected_path, "w") as handle:
            json.dump(expected, handle)

    def setup(self) -> None:
        sidecar = manifest_path(self.path, self.size.shard_records)
        if os.path.exists(sidecar):
            os.remove(sidecar)
        segment_manifest(self.path, self.size.shard_records)
        self.engine = ExperimentEngine(jobs=JOBS, metrics=False)
        with open(self.expected_path) as handle:
            self.expected = json.load(handle)

    def run(self, index: int, recorder: Optional[Recorder]) -> Outcome:
        sharded = index % 2 == 1
        config_name = list(STREAM_CONFIGS)[(index // 2) % len(STREAM_CONFIGS)]
        config = STREAM_CONFIGS[config_name]
        shard = self.size.shard_records
        if not sharded:
            result = stream_analyze_file(self.path, config, chunk_records=shard)
        elif recorder is None:
            result = shard_analyze_file(self.path, config, shard_size=shard, engine=self.engine)
        else:
            engine = TracedEngine(recorder, self.metrics_path, jobs=JOBS)
            try:
                result = shard_analyze_file(self.path, config, shard_size=shard, engine=engine)
            finally:
                engine.close()

        kind = f"{'shard' if sharded else 'stream'} {config_name}"

        def verify() -> List[str]:
            if result_to_bytes(result).decode() == self.expected[config_name]:
                return []
            return [f"{kind} differs from the in-memory analysis"]

        return Outcome(result.records_processed, 1, verify, kind)


def make_workload(name: str, size: Size, seed: int, work: str):
    if name == "reproduce-cold":
        return Reproduce(False, size, seed, work)
    if name == "reproduce-warm":
        return Reproduce(True, size, seed, work)
    if name == "analyze-mix":
        return AnalyzeMix(size, seed, work)
    if name == "stream-large":
        return StreamLarge(size, seed, work)
    raise ValueError(f"unknown workload {name!r}")
