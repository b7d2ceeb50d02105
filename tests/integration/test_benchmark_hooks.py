"""The end-to-end benchmark's layer-boundary wrappers still fit.

``benchmarks/e2e/tracing.py`` wraps named functions and methods of the
package (decode, encode, simulate, statistics, ...) while a traced
benchmark operation runs. A refactor that renames or reshapes one of those
boundaries breaks the traced benchmark; this test makes it break tier-1
too, instead of only the e2e smoke job.
"""

import importlib
from pathlib import Path

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def test_install_wrappers_enters_counts_and_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(E2E))
    tracing = importlib.import_module("tracing")
    from repro.harness import experiments, runner
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads import base
    from repro.workloads.suite import load_workload

    originals = (
        runner.read_trace_file,
        runner.write_trace_file,
        runner.read_trace_digest,
        experiments.compute_stats,
        base.Workload.__dict__["run"],
        ColumnarTrace.__dict__["from_buffer"],
        ColumnarTrace.__dict__["from_file"],
    )
    recorder = tracing.Recorder("hooks")
    with tracing.install_wrappers(recorder):
        trace = load_workload("xlispx").trace(max_instructions=300)
        path = tmp_path / "xlispx.pgt"
        runner.write_trace_file(path, trace)
        decoded = runner.read_trace_file(path)
        runner.read_trace_digest(path)
        experiments.compute_stats(ColumnarTrace.from_buffer(decoded))
    counts = recorder.counts
    assert counts["cpu.simulate.records"] == 300
    assert counts["trace.decode.records"] == 300
    assert counts["trace.encode.bytes"] == path.stat().st_size
    names = {span.name for span in recorder.spans}
    assert {"cpu.simulate", "trace.encode", "trace.decode", "trace.stats"} <= names
    assert originals == (
        runner.read_trace_file,
        runner.write_trace_file,
        runner.read_trace_digest,
        experiments.compute_stats,
        base.Workload.__dict__["run"],
        ColumnarTrace.__dict__["from_buffer"],
        ColumnarTrace.__dict__["from_file"],
    )
