"""Command-line interface."""

import os

import pytest

from repro.harness.cli import main


class TestList:
    def test_lists_experiments_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "xlispx" in out


class TestRun:
    def test_run_prints_table(self, capsys):
        assert main(["run", "table1", "--cap", "1000"]) == 0
        out = capsys.readouterr().out
        assert "Instruction Class Operation Times" in out

    def test_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["run", "table1", "--cap", "1000", "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "table1.txt"))
        assert os.path.exists(os.path.join(out_dir, "table1.csv"))

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "tableX", "--cap", "1000"])


class TestReport:
    def test_report_generated(self, tmp_path, capsys):
        out = str(tmp_path / "EXPERIMENTS.md")
        assert main(["report", "--cap", "2500", "--out", out]) == 0
        text = open(out).read()
        assert "# EXPERIMENTS" in text
        assert "Table 4" in text
        assert "Figure 8" in text
        assert "stack-renaming gain" in text
        # every registered experiment appears
        assert text.count("## ") >= 13


class TestAnalyze:
    def test_analyze_workload(self, capsys):
        assert main(["analyze", "xlispx", "--cap", "3000"]) == 0
        out = capsys.readouterr().out
        assert "available ILP" in out
        assert "critical path" in out

    def test_analyze_with_switches(self, capsys):
        code = main(
            [
                "analyze", "cc1x", "--cap", "2000", "--window", "64",
                "--no-rename-data", "--syscalls", "optimistic", "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "level in DDG" in out  # profile plot printed

    def test_analyze_lifetimes(self, capsys):
        assert main(["analyze", "xlispx", "--cap", "2000", "--lifetimes"]) == 0
        assert "lifetimes:" in capsys.readouterr().out

    def test_bad_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            main(["analyze", "nonesuch"])

    def test_analyze_trace_file(self, tmp_path, capsys):
        from repro.trace.io import write_trace_file
        from repro.trace.synthetic import random_trace

        path = str(tmp_path / "t.pgt")
        write_trace_file(path, random_trace(3, 500))
        assert main(["analyze", path, "--cap", "300"]) == 0
        out = capsys.readouterr().out
        assert "records=300" in out

    def test_stream_rejects_numpy_backend(self, capsys):
        """The numpy backend runs whole-trace analyses only; asking it to
        stream is a usage error, not a silent python run."""
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "xlispx", "--cap", "300", "--stream", "--backend", "numpy"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "whole-trace analyses only" in err

    def test_stream_with_python_backend_runs(self, capsys):
        code = main(["analyze", "xlispx", "--cap", "300", "--stream", "--backend", "python"])
        assert code == 0
        assert "records=300" in capsys.readouterr().out


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "--cases", "15", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_progress_lines(self, capsys):
        assert main(["verify", "--cases", "5", "--seed", "0", "--progress"]) == 0
        assert "5/5 cases" in capsys.readouterr().err

    def test_mutation_caught(self, tmp_path, capsys):
        code = main(
            [
                "verify", "--cases", "40", "--seed", "0",
                "--mutate", "kernel-load-skew",
                "--artifact-dir", str(tmp_path),
            ]
        )
        assert code == 0  # caught, as expected
        out = capsys.readouterr().out
        assert "caught" in out
        assert any(name.endswith(".pgt2") for name in os.listdir(str(tmp_path)))

    def test_frontier_war_loss_caught(self, tmp_path, capsys):
        code = main(
            [
                "verify", "--cases", "40", "--seed", "0",
                "--mutate", "frontier-war-loss",
                "--artifact-dir", str(tmp_path),
            ]
        )
        assert code == 0  # caught, as expected
        assert "caught" in capsys.readouterr().out

    def test_unknown_mutation_rejected(self, capsys):
        code = main(["verify", "--cases", "1", "--mutate", "nope"])
        assert code == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_replay_artifact(self, tmp_path, capsys):
        from repro.verify.artifacts import persist_failure
        from repro.verify.generate import generate_case

        case = generate_case(0, 3)
        _, meta_path = persist_failure(str(tmp_path), case, case.trace, ["x"])
        assert main(["verify", "--replay", meta_path]) == 0
        assert "no longer fails" in capsys.readouterr().out

    def test_analyze_reads_pgt2_artifacts(self, tmp_path, capsys):
        from repro.trace.io import write_trace_file
        from repro.trace.synthetic import random_trace

        path = str(tmp_path / "case.pgt2")
        write_trace_file(path, random_trace(5, 400))
        assert main(["analyze", path, "--cap", "400"]) == 0
        assert "records=400" in capsys.readouterr().out
