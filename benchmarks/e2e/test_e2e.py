"""Smoke test of the end-to-end benchmark at its smallest size.

Runs every workload once untraced and once traced (``--size smoke``, one
second of operations) and checks the result shape, that every metric
``BENCHMARK.json`` names is emitted with its unit, that every output check
passed, and that the traced run's spans nest. The golden CSVs at the
smoke cap stand in for the cap-250000 comparison with ``results/``.

Run with ``python3 -m pytest benchmarks/e2e/test_e2e.py``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(trace: int):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--size", "smoke", "--seconds", "1"]
    command += ["--seed", "7", "--trace", str(trace)]
    for workload in WORKLOADS:
        command += ["--workload", workload]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert len(lines) == len(WORKLOADS)
    return [json.loads(line) for line in lines]


def check_shape(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in metrics}
    for metric in metrics:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.fixture(scope="module")
def traced():
    return run_benchmark(trace=1)


def test_untraced_results_carry_every_end_to_end_metric():
    for result in run_benchmark(trace=0):
        check_shape(result, BENCHMARK["end_to_end"])
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_results_carry_every_per_layer_metric(traced):
    for result in traced:
        check_shape(result, BENCHMARK["per_layer"])
        assert result["metrics"]["obs.span_coverage"]["value"] >= 0.9
        assert result["metrics"]["obs.trace_overhead_ratio"]["value"] > 0


def test_traced_spans_nest(traced):
    for workload in WORKLOADS:
        path = os.path.join(ROOT, ".bench_e2e", "traces", f"{workload}-seed7.spans.jsonl")
        with open(path) as handle:
            spans = {span["id"]: span for span in map(json.loads, handle)}
        assert any(span["name"] == "bench.op" for span in spans.values())
        for span in spans.values():
            assert span["end"] >= span["start"]
            assert span["workload"] == workload
            if span["parent"] is None:
                assert span["name"] == "bench.op"
                continue
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"]
            assert parent["start"] - 1e-6 <= span["start"]
            assert span["end"] <= parent["end"] + 1e-6


def test_compare_judges_regressions_gains_and_noise():
    parent = [(seed, 100.0 + seed % 3) for seed in range(10)]
    assert compare.judge(parent, [(s, v * 1.2) for s, v in parent], "lower", 0.1) == "REGRESSED"
    assert compare.judge(parent, [(s, v * 0.8) for s, v in parent], "lower", 0.1).startswith("gain")
    assert compare.judge(parent, list(parent), "lower", 0.1) == "unchanged"
    noisy = [(seed, 100.0 * (1 + seed % 2)) for seed in range(10)]
    assert compare.judge(noisy, list(noisy), "lower", 0.1) == "unresolved"
