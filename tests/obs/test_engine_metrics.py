"""Observability wired through the engine: cross-process merge, per-job
export rows (including retried and quarantined jobs), and the phase-sum
invariant the metrics file promises."""

import json
import os

import pytest

from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.engine import AnalysisJob, ExperimentEngine
from repro.engine.faults import ENV_DIR, ENV_SPEC
from repro.engine.resilience import ENV_MANIFEST_DIR
from repro.harness.runner import TraceStore
from repro.obs import metrics as obs
from repro.obs.export import load_run
from repro.obs.report import merged_registry, render_run_report, report_run

CAP = 1500

WORKLOADS = ("xlispx", "eqntottx")
CONFIGS = (AnalysisConfig(), AnalysisConfig(syscall_policy=OPTIMISTIC))


def grid():
    return [
        AnalysisJob(workload, CAP, config)
        for workload in WORKLOADS
        for config in CONFIGS
    ]


def engine_for(tmp_path, jobs=2, **kwargs):
    kwargs.setdefault("store", TraceStore(str(tmp_path / "traces")))
    kwargs.setdefault("journal_dir", str(tmp_path / "journal"))
    return ExperimentEngine(jobs=jobs, metrics=True, **kwargs)


@pytest.fixture
def fault_env(monkeypatch, tmp_path):
    def arm(spec):
        monkeypatch.setenv(ENV_SPEC, spec)
        monkeypatch.setenv(ENV_DIR, str(tmp_path / "fault-state"))

    monkeypatch.setenv(ENV_MANIFEST_DIR, str(tmp_path / "shm-manifests"))
    return arm


def grid_counters(engine, grid_index=-1):
    """The merged registry counters exported for one grid of a run."""
    run = load_run(engine.metrics_file)
    return run["grids"][grid_index]["registry"]["counters"]


class TestCrossProcessMerge:
    def test_parallel_merge_equals_serial_totals(self, tmp_path):
        """The parent's merged registry (parent counters + every worker's
        drained delta) must count exactly what a serial run counts: one
        kernel span per job, regardless of which worker ran it."""
        serial = engine_for(tmp_path / "serial", jobs=1)
        serial.run_grid(grid())
        serial_counts = grid_counters(serial)
        obs.disable()

        parallel = engine_for(tmp_path / "parallel", jobs=2)
        parallel.run_grid(grid())
        parallel_counts = grid_counters(parallel)

        n = len(grid())
        assert serial_counts["span.kernel.count"] == n
        assert parallel_counts["span.kernel.count"] == n
        assert parallel_counts["jobs.done"] == serial_counts["jobs.done"] == n
        queue_waits = load_run(parallel.metrics_file)["grids"][-1]["registry"][
            "histograms"
        ]["job.queue_wait"]
        assert queue_waits["count"] == n

    def test_worker_drain_does_not_double_count_across_grids(self, tmp_path):
        engine = engine_for(tmp_path, jobs=2)
        engine.run_grid(grid())
        # The export drains the parent registry per grid, so the live
        # registry starts the next grid from zero...
        assert obs.registry().snapshot()["counters"].get("span.kernel.count", 0) == 0
        engine.run_grid(grid())
        run = load_run(engine.metrics_file)
        # ...and each exported grid snapshot counts its own jobs exactly.
        totals = [
            grid_row["registry"]["counters"]["span.kernel.count"]
            for grid_row in run["grids"]
        ]
        assert totals == [len(grid()), len(grid())]


class TestMetricsFile:
    def test_every_journaled_job_has_a_metrics_row(self, tmp_path):
        engine = engine_for(tmp_path, jobs=2)
        outcomes = engine.run_grid(grid())
        assert all(outcome.ok for outcome in outcomes)
        run = load_run(engine.metrics_file)
        journal_rows = [
            json.loads(line)
            for line in open(os.path.join(str(tmp_path / "journal"), f"{engine.run_id}.jsonl"))
        ]
        journaled = {row["index"] for row in journal_rows if "index" in row}
        exported = {row["index"] for row in run["jobs"]}
        assert exported == journaled == set(range(len(grid())))

    def test_phase_times_sum_to_job_wall_time(self, tmp_path):
        """Acceptance invariant: per-job phase times sum (within 5%) to
        the journaled wall seconds."""
        engine = engine_for(tmp_path, jobs=2)
        engine.run_grid(grid())
        run = load_run(engine.metrics_file)
        executed = [row for row in run["jobs"] if row["status"] == "ok"]
        assert executed
        for row in executed:
            phase_sum = sum(row["phases"].values())
            assert phase_sum == pytest.approx(row["seconds"], rel=0.05)

    def test_serial_grid_exports_kernel_phase(self, tmp_path):
        engine = engine_for(tmp_path, jobs=1)
        engine.run_grid(grid())
        run = load_run(engine.metrics_file)
        for row in run["jobs"]:
            assert row["status"] == "ok"
            assert "kernel" in row["phases"]
            assert row["phases"]["kernel"] == pytest.approx(row["seconds"], rel=0.05)

    def test_cached_jobs_get_rows_too(self, tmp_path):
        engine = engine_for(
            tmp_path, jobs=1, result_cache=str(tmp_path / "results")
        )
        engine.run_grid(grid())
        engine.run_grid(grid())
        run = load_run(engine.metrics_file)
        statuses = [row["status"] for row in run["jobs"]]
        assert statuses.count("ok") == len(grid())
        assert statuses.count("cached") == len(grid())

    def test_close_exports_counters_recorded_after_the_last_grid(self, tmp_path):
        """Work outside any grid (Table 2's full runs) still reaches the
        file: close() writes the leftover counters as a job-less row."""
        engine = engine_for(tmp_path, jobs=1)
        engine.run_grid(grid())
        obs.inc("trace_store.full_run_simulate", 3)
        engine.close()
        run = load_run(engine.metrics_file)
        assert run["grids"][-1]["jobs"] == 0
        totals = merged_registry(run).snapshot()["counters"]
        assert totals["trace_store.full_run_simulate"] == 3
        engine.close()  # idempotent: nothing pending, no second row
        assert len(load_run(engine.metrics_file)["grids"]) == len(run["grids"])

    def test_close_writes_a_run_with_no_grid(self, tmp_path):
        path = str(tmp_path / "t2.jsonl")
        engine = ExperimentEngine(metrics=True, metrics_path=path)
        obs.inc("trace_store.full_run_simulate")
        engine.close()
        run = load_run(path)
        assert run["grids"][0]["registry"]["counters"] == {
            "trace_store.full_run_simulate": 1
        }

    def test_metrics_off_writes_nothing(self, tmp_path):
        engine = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")),
            jobs=1,
            journal_dir=str(tmp_path / "journal"),
            metrics=False,
        )
        outcomes = engine.run_grid(grid())
        assert all(outcome.ok for outcome in outcomes)
        assert engine.metrics_file is None
        assert outcomes[0].phases is None
        leftovers = [
            name
            for name in os.listdir(str(tmp_path / "journal"))
            if name.endswith(".metrics.jsonl")
        ]
        assert leftovers == []


class TestFaultPaths:
    def test_retried_job_row_counts_attempts(self, tmp_path, fault_env):
        fault_env("crash@2")
        engine = engine_for(tmp_path, jobs=2, retries=2)
        outcomes = engine.run_grid(grid())
        assert all(outcome.ok for outcome in outcomes)
        run = load_run(engine.metrics_file)
        # The injected crash retries job 2; a job in flight on the same
        # worker can be retried as collateral, so assert membership.
        retried = {row["index"] for row in run["jobs"] if row["attempts"] > 1}
        assert 2 in retried
        registry_counts = run["grids"][-1]["registry"]["counters"]
        assert registry_counts.get("retry.scheduled", 0) >= 1
        assert registry_counts.get("pool.worker_crashes", 0) >= 1

    def test_quarantined_job_rows_exported(self, tmp_path, fault_env):
        # Two always-crashing jobs, so retry rounds stay multi-job pool
        # batches (a single-job batch runs in-process, where faults never
        # fire) and both jobs exhaust their retries into quarantine.
        fault_env("crash@0x99,crash@1x99")
        engine = engine_for(tmp_path, jobs=2, retries=1)
        outcomes = engine.run_grid(grid())
        failed = [outcome for outcome in outcomes if not outcome.ok]
        assert [outcome.index for outcome in failed] == [0, 1]
        run = load_run(engine.metrics_file)
        rows = {row["index"]: row for row in run["jobs"]}
        assert len(rows) == len(grid())
        for outcome in failed:
            bad = rows[outcome.index]
            assert bad["status"] == "failed"
            assert "quarantined" in bad["error"]
        registry_counts = run["grids"][-1]["registry"]["counters"]
        assert registry_counts.get("jobs.quarantined", 0) == 2
        text = render_run_report(run)
        assert "2 failed (2 quarantined)" in text

    def test_report_run_renders_for_real_run(self, tmp_path):
        engine = engine_for(tmp_path, jobs=2)
        engine.run_grid(grid())
        text = report_run(engine.run_id, journal_dir=str(tmp_path / "journal"))
        assert f"run {engine.run_id}" in text
        assert "phase time shares" in text
        assert "kernel" in text
        assert "pool health" in text
