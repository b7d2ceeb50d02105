"""Trace generation on the worker pool.

A parallel grid's missing traces, and Table 2's traces with their full
runs, are generated by the pool's workers through the one
:func:`repro.harness.runner.generate` path; the parent only plans, lands
results and reads what they wrote. These tests pin that the outputs equal
the in-process ones, that nothing new happens on a warm run, that
failures stay contained to their own trace's jobs, and that each
generation is counted and reported exactly once.
"""

import multiprocessing
import os

import pytest

from repro.core.config import AnalysisConfig
from repro.engine import AnalysisJob, ExperimentEngine
from repro.engine.serialize import result_to_bytes
from repro.harness import runner
from repro.harness.cli import main
from repro.harness.experiments import run_experiment
from repro.harness.runner import TraceStore, TruncatedRunError
from repro.obs import metrics as obs
from repro.obs.export import load_run
from repro.obs.report import render_run_report
from repro.workloads.base import Workload

CAP = 400

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patches reach workers only when they are forked",
)


@pytest.fixture(autouse=True)
def _metrics_off():
    yield
    obs.disable()


def simulation_log(monkeypatch, tmp_path):
    """Log the pid of every ``Workload.run`` call (appends survive fork,
    so worker-side simulations show up too); returns the log reader."""
    log = tmp_path / "simulations.log"
    real_run = Workload.run

    def logged_run(self, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {self.name}\n")
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Workload, "run", logged_run)

    def read():
        if not log.exists():
            return []
        return [line.split() for line in log.read_text().splitlines()]

    return read


def grid_counters(run):
    totals = {}
    for grid in run["grids"]:
        for name, value in grid["registry"]["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("experiment", ["table2", "abl-compiler"])
    def test_csvs_identical_from_empty_caches(self, tmp_path, capsys, experiment):
        written = {}
        for jobs in (1, 2):
            base = tmp_path / f"jobs{jobs}"
            argv = [
                "run", experiment, "--cap", str(CAP), "--jobs", str(jobs),
                "--trace-dir", str(base / "traces"),
                "--result-cache", str(base / "results"),
                "--out", str(base / "out"),
            ]
            assert main(argv) == 0
            written[jobs] = {
                name: (base / "out" / name).read_bytes()
                for name in os.listdir(base / "out")
                if name.endswith(".csv")
            }
        assert written[1]
        assert written[1] == written[2]


class TestPrepare:
    @needs_fork
    def test_cold_table2_simulates_only_in_workers(self, tmp_path, monkeypatch):
        simulations = simulation_log(monkeypatch, tmp_path)
        engine = ExperimentEngine(store=TraceStore(str(tmp_path / "traces")), jobs=2)
        run_experiment("table2", engine, CAP)
        pids = {pid for pid, _ in simulations()}
        # One traced run and one full run per workload, none in the parent.
        assert len(simulations()) == 20
        assert str(os.getpid()) not in pids

    def test_warm_table2_spawns_no_worker_and_reads_each_sidecar_once(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "traces")
        run_experiment("table2", ExperimentEngine(store=TraceStore(directory), jobs=2), CAP)
        reads = []
        real_read = runner._read_full_run

        def counted_read(path, key):
            reads.append(os.path.basename(path))
            return real_read(path, key)

        monkeypatch.setattr(runner, "_read_full_run", counted_read)
        engine = ExperimentEngine(store=TraceStore(directory), jobs=2, metrics=True)
        run_experiment("table2", engine, CAP)
        counters = obs.registry().snapshot()["counters"]
        assert counters.get("pool.spawns", 0) == 0
        assert counters.get("trace_store.generate", 0) == 0
        assert counters.get("trace_store.full_run_simulate", 0) == 0
        assert counters["trace_store.full_run_hit"] == 10
        assert len(reads) == len(set(reads)) == 10

    @needs_fork
    def test_truncated_full_run_raised_from_a_worker(self, tmp_path, monkeypatch):
        simulations = simulation_log(monkeypatch, tmp_path)
        monkeypatch.setattr(runner, "FULL_RUN_LIMIT", 1000)
        engine = ExperimentEngine(store=TraceStore(str(tmp_path / "traces")), jobs=2)
        with pytest.raises(
            TruncatedRunError,
            match=r"^full run of \w+ reached the 1000-instruction limit without "
            "ending; its length is unknown$",
        ):
            run_experiment("table2", engine, CAP)
        assert simulations()
        assert str(os.getpid()) not in {pid for pid, _ in simulations()}
        assert not any(name.endswith(".fullrun.json") for name in os.listdir(tmp_path / "traces"))


    @needs_fork
    def test_other_worker_failure_is_logged_then_read_in_process(
        self, tmp_path, monkeypatch, caplog
    ):
        simulations = simulation_log(monkeypatch, tmp_path)
        real_trace = Workload.trace

        def exploding_trace(self, *args, **kwargs):
            if self.name == "eqntottx":
                raise RuntimeError("simulator exploded")
            return real_trace(self, *args, **kwargs)

        monkeypatch.setattr(Workload, "trace", exploding_trace)
        engine = ExperimentEngine(store=TraceStore(str(tmp_path / "traces")), jobs=2)
        with pytest.raises(RuntimeError, match="^simulator exploded$"):
            run_experiment("table2", engine, CAP)
        warnings = [
            record.getMessage()
            for record in caplog.records
            if record.levelname == "WARNING" and record.name == "repro.engine.api"
        ]
        assert warnings == [
            "generating eqntottx failed on the pool (RuntimeError: simulator exploded); "
            "its read retries in-process"
        ]
        # The worker's full run went first and kept its sidecar; nothing
        # of eqntottx was simulated in the parent.
        assert (tmp_path / "traces" / "eqntottx.fullrun.json").exists()
        assert str(os.getpid()) not in {pid for pid, _ in simulations()}


class TestGridGeneration:
    def test_unknown_workload_fails_only_its_jobs(self, tmp_path):
        engine = ExperimentEngine(store=TraceStore(str(tmp_path / "traces")), jobs=2)
        grid = [
            AnalysisJob("nonesuch", CAP),
            AnalysisJob("xlispx", CAP),
            AnalysisJob("nonesuch", CAP, AnalysisConfig(window_size=8)),
            AnalysisJob("eqntottx", CAP),
        ]
        outcomes = engine.run_grid(grid)
        assert [outcome.ok for outcome in outcomes] == [False, True, False, True]
        for outcome in outcomes[0::2]:
            assert outcome.error.startswith("KeyError: \"unknown workload 'nonesuch'")

    @needs_fork
    def test_generation_failure_fails_only_its_trace_jobs(self, tmp_path, monkeypatch):
        real_trace = Workload.trace

        def exploding_trace(self, *args, **kwargs):
            if self.name == "eqntottx":
                raise RuntimeError("simulator exploded")
            return real_trace(self, *args, **kwargs)

        monkeypatch.setattr(Workload, "trace", exploding_trace)
        engine = ExperimentEngine(store=TraceStore(str(tmp_path / "traces")), jobs=2)
        configs = (AnalysisConfig(), AnalysisConfig(window_size=16))
        grid = [
            AnalysisJob(workload, CAP, config)
            for workload in ("xlispx", "eqntottx")
            for config in configs
        ]
        outcomes = engine.run_grid(grid)
        assert [outcome.ok for outcome in outcomes] == [True, True, False, False]
        for outcome in outcomes[2:]:
            assert outcome.error == "RuntimeError: simulator exploded"
            assert "exploding_trace" in outcome.detail
        expected = ExperimentEngine(jobs=1).analyze_grid(grid[:2])
        assert [result_to_bytes(outcome.result) for outcome in outcomes[:2]] == [
            result_to_bytes(result) for result in expected
        ]

    def test_each_generation_counted_and_exported_once(self, tmp_path):
        path = str(tmp_path / "run.metrics.jsonl")
        engine = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=2, metrics=True, metrics_path=path
        )
        grid = [
            AnalysisJob(workload, CAP, optimize=optimize)
            for workload in ("xlispx", "eqntottx")
            for optimize in (False, True)
        ]
        grid += [AnalysisJob("xlispx", CAP, AnalysisConfig(window_size=16))]
        assert all(outcome.ok for outcome in engine.run_grid(grid))
        engine.close()
        run = load_run(path)
        assert grid_counters(run)["trace_store.generate"] == 4
        assert len(run["jobs"]) == len(grid)
        rows = run["generations"]
        assert sorted((row["workload"], row["optimize"]) for row in rows) == [
            ("eqntottx", False), ("eqntottx", True), ("xlispx", False), ("xlispx", True)
        ]
        for row in rows:
            assert row["ok"] and row["worker"] is not None and row["cap"] == CAP
            assert {"compile", "simulate", "encode"} <= set(row["phases"])
            assert row["seconds"] >= sum(row["phases"].values()) * 0.99
        assert "trace generation: 4 task(s)" in render_run_report(run)

    def test_in_process_generation_is_reported_too(self, tmp_path):
        path = str(tmp_path / "run.metrics.jsonl")
        engine = ExperimentEngine(jobs=1, metrics=True, metrics_path=path)
        engine.run_grid([AnalysisJob("xlispx", CAP), AnalysisJob("xlispx", CAP, optimize=True)])
        engine.close()
        rows = load_run(path)["generations"]
        assert [(row["optimize"], row["worker"]) for row in rows] == [(False, None), (True, None)]
        assert all({"compile", "simulate"} <= set(row["phases"]) for row in rows)
