"""Tool throughput microbenchmarks (the paper quotes ~10 hours per 100M-
instruction analysis on a DECstation 3100; these measure our stack).

The ``test_columnar_*`` rows time ``analyze`` — the python frontier
loops — per configuration family on one 100k-record espressox trace, and
the ``test_vkernel_*`` rows the numpy backend on the same trace; the
committed baseline numbers live in ``benchmarks/BENCH_throughput.json``.
To refresh it after kernel work::

    PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py \\
        --benchmark-json=benchmarks/BENCH_throughput.json -q
"""

import pytest

from repro.core import vkernels
from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.stream import stream_analyze_file
from repro.cpu.machine import Machine
from repro.engine import ExperimentEngine
from repro.engine.shards import shard_analyze_file
from repro.trace.columnar import ColumnarTrace
from repro.workloads.suite import load_workload

requires_numpy = pytest.mark.skipif(
    not vkernels.available(), reason="NumPy is not installed"
)


def _tag_backend(benchmark, backend, kernel, gate=None):
    """Stable metadata keys check_regression.py selects rows by."""
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["kernel"] = kernel
    if gate:
        benchmark.extra_info["gate"] = gate


@pytest.fixture(scope="module")
def bench_columnar(store):
    trace = store.trace("espressox", 100_000)
    # Trace statistics and the operand-tuple view are cached per trace,
    # not part of a kernel run.
    trace.census()
    trace.operand_counts()
    trace.operand_tuples()
    return trace


def test_columnar_throughput_dataflow_kernel(benchmark, bench_columnar):
    result = benchmark(analyze, bench_columnar, AnalysisConfig())
    _tag_backend(benchmark, "python", "dataflow")
    assert result.records_processed == 100_000


def test_columnar_throughput_windowed_kernel(benchmark, bench_columnar):
    result = benchmark(
        analyze, bench_columnar, AnalysisConfig(window_size=1024)
    )
    _tag_backend(benchmark, "python", "windowed")
    assert result.records_processed == 100_000


def test_columnar_throughput_generic_kernel(benchmark, bench_columnar):
    result = benchmark(
        analyze, bench_columnar, AnalysisConfig.no_renaming()
    )
    _tag_backend(benchmark, "python", "generic")
    assert result.records_processed == 100_000


@requires_numpy
def test_vkernel_throughput_dataflow(benchmark, bench_columnar):
    """Informational numpy twin of the dataflow row (espressox's deep
    dependence chains bound the frontier, so the speedup here is modest)."""
    vkernels.analyze_vectorized(bench_columnar, AnalysisConfig())  # warm index
    result = benchmark(
        analyze, bench_columnar, AnalysisConfig(), backend="numpy"
    )
    _tag_backend(benchmark, "numpy", "dataflow")
    assert result.records_processed == 100_000


@requires_numpy
def test_vkernel_throughput_generic(benchmark, bench_columnar):
    result = benchmark(
        analyze, bench_columnar, AnalysisConfig.no_renaming(), backend="numpy"
    )
    _tag_backend(benchmark, "numpy", "generic")
    assert result.records_processed == 100_000


def test_columnar_decode_from_file(benchmark, store):
    path, _ = store.ensure_on_disk("espressox", 100_000)
    trace = benchmark(ColumnarTrace.from_file, path)
    benchmark.extra_info["decode"] = "buffered"
    assert len(trace) == 100_000


# --- backend gate -------------------------------------------------------------
# The same generic-kernel analysis (matrix300x@100k, registers and stack
# renamed — a wide-frontier numeric workload) on both backends in the same
# run. check_regression.py --backend-gate finds these two rows by their
# extra_info keys and fails CI if the numpy backend has lost its >= 5x
# throughput edge; machine speed cancels out of the same-run ratio.


@pytest.fixture(scope="module")
def gate_columnar(store):
    trace = store.trace("matrix300x", 100_000)
    trace.census()
    trace.operand_counts()
    trace.operand_tuples()
    return trace


GATE_CONFIG = AnalysisConfig.registers_and_stack_renamed()


def test_backend_gate_python(benchmark, gate_columnar):
    result = benchmark(analyze, gate_columnar, GATE_CONFIG)
    _tag_backend(benchmark, "python", "generic", gate="backend")
    assert result.records_processed == 100_000


@requires_numpy
def test_backend_gate_numpy(benchmark, gate_columnar):
    # Warm the access-stream index: it is cached per trace (like census
    # above), so steady-state runs never pay it per analysis.
    vkernels.analyze_vectorized(gate_columnar, GATE_CONFIG)
    result = benchmark(
        analyze, gate_columnar, GATE_CONFIG, backend="numpy"
    )
    _tag_backend(benchmark, "numpy", "generic", gate="backend")
    assert result.records_processed == 100_000


# --- streaming vs in-memory -------------------------------------------------
# Same trace (cc1x@100k carries real conservative-syscall firewalls, so the
# sharded path genuinely splices), same dataflow config, three pipelines:
# whole-file decode + kernel, chunked frontier streaming, and pool-sharded
# stitch. check_regression.py --stream-gate turns the same-run ratios into a
# gating bound on streaming/sharding overhead (machine speed cancels out).
# No peak RSS is recorded here: every row runs in one process, so
# ru_maxrss cannot tell the pipelines apart. The e2e benchmark's
# stream-large workload measures it in a fresh process.


@pytest.fixture(scope="module")
def stream_file(store):
    path, _ = store.ensure_on_disk("cc1x", 100_000)
    return path


@pytest.fixture(scope="module")
def shard_engine():
    engine = ExperimentEngine(jobs=2)
    yield engine
    engine.close()


def test_inmemory_throughput_from_file(benchmark, stream_file):
    def run():
        return analyze(ColumnarTrace.from_file(stream_file), AnalysisConfig())

    result = benchmark(run)
    assert result.records_processed == 100_000


def test_stream_throughput_from_file(benchmark, stream_file):
    result = benchmark(
        stream_analyze_file, stream_file, AnalysisConfig(), chunk_records=16_384
    )
    assert result.records_processed == 100_000


def test_sharded_throughput_pool(benchmark, stream_file, shard_engine):
    result = benchmark(
        shard_analyze_file,
        stream_file,
        AnalysisConfig(),
        shard_size=16_384,
        engine=shard_engine,
    )
    assert result.records_processed == 100_000


def test_simulator_throughput(benchmark):
    program = load_workload("espressox").program()

    def run():
        machine = Machine(program, trace=True)
        return machine.run(max_instructions=100_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.executed == 100_000


def test_compiler_throughput(benchmark):
    from repro.lang.compiler import compile_source

    source = load_workload("spice2g6x").source()
    program = benchmark(compile_source, source, static_frames=True)
    assert len(program.instructions) > 100
