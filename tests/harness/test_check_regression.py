"""benchmarks/check_regression.py: comparison output and input validation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "check_regression.py"


def bench_json(path: Path, benches):
    path.write_text(json.dumps({"benchmarks": benches}))
    return str(path)


def entry(name, mean):
    return {"name": name, "stats": {"mean": mean}}


def run(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )


@pytest.fixture
def baseline(tmp_path):
    return bench_json(tmp_path / "baseline.json", [entry("bench_a", 0.100)])


class TestComparison:
    def test_clean_run_exits_zero(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_a", 0.101)])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 0
        assert "no regressions" in proc.stdout

    def test_regression_warns_but_does_not_gate(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_a", 0.200)])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 0  # informational by design
        assert "::warning" in proc.stdout
        assert "REGRESSION" in proc.stdout

    def test_disjoint_benchmarks(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_b", 0.1)])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 0
        assert "nothing compared" in proc.stdout


def gate_entry(name, mean, backend, kernel="generic", gate="backend", minimum=None):
    row = entry(name, mean)
    row["stats"]["min"] = mean if minimum is None else minimum
    row["extra_info"] = {"backend": backend, "kernel": kernel, "gate": gate}
    return row


class TestBackendGate:
    """--backend-gate finds its row pair by stable extra_info metadata and
    gates on the same-run python/numpy speedup ratio of minimum times."""

    def test_ratio_of_minimums_not_means(self, tmp_path):
        """One slow numpy round inflates its mean (2.4x by means) while the
        minimums keep the real 6x edge: the gate passes on minimums."""
        fresh = bench_json(
            tmp_path / "fresh.json",
            [
                gate_entry("test_backend_gate_python", 0.120, "python", minimum=0.114),
                gate_entry("test_backend_gate_numpy", 0.050, "numpy", minimum=0.019),
            ],
        )
        proc = run(fresh, "--backend-gate")
        assert proc.returncode == 0, proc.stdout
        assert "6.00x" in proc.stdout

    def test_minimums_gate_even_when_means_pass(self, tmp_path):
        fresh = bench_json(
            tmp_path / "fresh.json",
            [
                gate_entry("test_backend_gate_python", 0.300, "python", minimum=0.100),
                gate_entry("test_backend_gate_numpy", 0.020, "numpy", minimum=0.025),
            ],
        )
        proc = run(fresh, "--backend-gate")
        assert proc.returncode == 1
        assert "4.00x" in proc.stdout

    def test_gate_row_without_min_exits_two(self, tmp_path):
        rows = [
            gate_entry("test_backend_gate_python", 0.120, "python"),
            gate_entry("test_backend_gate_numpy", 0.017, "numpy"),
        ]
        del rows[1]["stats"]["min"]
        proc = run(bench_json(tmp_path / "fresh.json", rows), "--backend-gate")
        assert proc.returncode == 2
        assert "min" in proc.stderr

    def test_healthy_speedup_exits_zero(self, tmp_path):
        fresh = bench_json(
            tmp_path / "fresh.json",
            [
                gate_entry("test_backend_gate_python", 0.120, "python"),
                gate_entry("test_backend_gate_numpy", 0.017, "numpy"),
            ],
        )
        proc = run(fresh, "--backend-gate")
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_lost_speedup_gates(self, tmp_path):
        fresh = bench_json(
            tmp_path / "fresh.json",
            [
                gate_entry("test_backend_gate_python", 0.120, "python"),
                gate_entry("test_backend_gate_numpy", 0.060, "numpy"),
            ],
        )
        proc = run(fresh, "--backend-gate")
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert "::error" in proc.stdout

    def test_missing_numpy_row_exits_two(self, tmp_path):
        """A run without NumPy skips the numpy gate row; gating such a run
        must be a clear configuration error, not a silent pass."""
        fresh = bench_json(
            tmp_path / "fresh.json",
            [gate_entry("test_backend_gate_python", 0.120, "python")],
        )
        proc = run(fresh, "--backend-gate")
        assert proc.returncode == 2
        assert "numpy" in proc.stderr
        assert "backend_gate" in proc.stderr  # points at the producing command

    def test_missing_both_rows_exits_two(self, tmp_path):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_a", 0.1)])
        proc = run(fresh, "--backend-gate")
        assert proc.returncode == 2

    def test_untagged_rows_are_not_gate_rows(self, tmp_path):
        """Ordinary backend-tagged rows (no gate key) must not satisfy the
        gate: only the designated same-workload pair may be compared."""
        fresh = bench_json(
            tmp_path / "fresh.json",
            [
                gate_entry("test_vkernel_throughput_generic", 0.1, "numpy", gate=None),
                gate_entry("test_backend_gate_python", 0.120, "python"),
            ],
        )
        proc = run(fresh, "--backend-gate")
        assert proc.returncode == 2

    def test_default_path_ignores_extra_info(self, tmp_path, baseline):
        fresh = bench_json(
            tmp_path / "fresh.json",
            [gate_entry("bench_a", 0.101, "python")],
        )
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 0


class TestMalformedInput:
    """A missing metric key must be a clear error, not a KeyError trace."""

    def test_missing_stats_key(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [{"name": "bench_a"}])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 2
        assert "KeyError" not in proc.stderr
        assert "bench_a" in proc.stderr
        assert "'stats'/'mean'" in proc.stderr

    def test_missing_mean_key(self, tmp_path, baseline):
        fresh = bench_json(
            tmp_path / "fresh.json", [{"name": "bench_a", "stats": {"median": 1}}]
        )
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 2
        assert "pytest-benchmark" in proc.stderr

    def test_nameless_entry_reported_by_position(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [{"stats": {}}])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 2
        assert "entry 0" in proc.stderr

    def test_malformed_baseline_also_caught(self, tmp_path):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_a", 0.1)])
        bad = bench_json(tmp_path / "bad.json", [{"name": "bench_a"}])
        proc = run(fresh, "--baseline", bad)
        assert proc.returncode == 2
        assert "bad.json" in proc.stderr
