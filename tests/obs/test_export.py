"""Metrics JSONL export: writer layout, loader tolerance, report text."""

import json

import pytest

from repro.obs.export import (
    METRICS_SCHEMA,
    MetricsExportError,
    MetricsWriter,
    load_run,
    metrics_path,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    merged_registry,
    render_run_report,
    report_run,
    resolve_metrics_file,
)


def job_row(index, status="ok", seconds=0.5, **extra):
    row = {
        "index": index,
        "job": "abc123",
        "describe": f"job-{index}",
        "ok": status in ("ok", "cached", "replayed"),
        "status": status,
        "seconds": seconds,
        "attempts": 1,
        "worker": 0,
        "queue_wait": 0.01,
        "phases": {"kernel": seconds},
        "error": None,
    }
    row.update(extra)
    return row


def write_sample_run(path, run_id="r1", jobs=3):
    writer = MetricsWriter(str(path), run_id)
    for index in range(jobs):
        writer.write_job(job_row(index))
    registry = MetricsRegistry()
    registry.counter("result_cache.hit").inc(2)
    registry.counter("result_cache.miss").inc(1)
    writer.write_grid(registry.snapshot(), jobs=jobs)
    writer.close()


class TestWriter:
    def test_layout_run_then_jobs_then_grid(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        write_sample_run(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["event"] for row in rows] == ["run", "job", "job", "job", "grid"]
        assert all(row["schema"] == METRICS_SCHEMA for row in rows)
        assert rows[0]["run_id"] == "r1"
        assert rows[-1]["jobs"] == 3

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        MetricsWriter(str(path), "r1").close()
        writer = MetricsWriter(str(path), "r1")
        writer.write_job(job_row(0))
        writer.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["event"] for row in rows] == ["run", "job"]

    def test_metrics_path_layout(self):
        assert metrics_path("/j", "r1") == "/j/r1.metrics.jsonl"


class TestLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        write_sample_run(path)
        run = load_run(str(path))
        assert run["run_id"] == "r1"
        assert len(run["jobs"]) == 3
        assert len(run["grids"]) == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(MetricsExportError, match="no metrics file"):
            load_run(str(tmp_path / "nope.jsonl"))

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        write_sample_run(path)
        with open(path, "a") as handle:
            handle.write('{"event": "job", "trunc')
        run = load_run(str(path))
        assert len(run["jobs"]) == 3

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        write_sample_run(path)
        lines = path.read_text().splitlines()
        lines[1] = '{"event": "job", "broken'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetricsExportError, match="corrupt metrics line 2"):
            load_run(str(path))

    def test_unknown_schema_raises(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        path.write_text('{"schema": 999, "event": "run", "run_id": "r1"}\n')
        with pytest.raises(MetricsExportError, match="schema"):
            load_run(str(path))


class TestReport:
    def test_report_covers_every_section(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        write_sample_run(path)
        text = render_run_report(load_run(str(path)))
        assert "run r1" in text
        assert "phase time shares" in text
        assert "kernel" in text and "queue wait" in text
        assert "top 3 slowest jobs" in text
        assert "2 hit / 3 lookups (66.7%)" in text

    def test_queue_wait_is_not_a_phase_share(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        writer = MetricsWriter(str(path), "r1")
        writer.write_job(job_row(0, seconds=1.0, queue_wait=9.0))
        writer.write_grid(MetricsRegistry().snapshot(), jobs=1)
        writer.close()
        text = render_run_report(load_run(str(path)))
        assert "  kernel           1.000s  100.0%" in text
        assert "queue wait 9.000s over 1 queued job(s), 9.000s mean per job" in text

    def test_retry_histogram_rendered_when_attempts_vary(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        writer = MetricsWriter(str(path), "r1")
        writer.write_job(job_row(0, attempts=1))
        writer.write_job(job_row(1, attempts=3))
        writer.write_grid(MetricsRegistry().snapshot(), jobs=2)
        writer.close()
        text = render_run_report(load_run(str(path)))
        assert "retry histogram" in text
        assert "3 attempt(s): 1 job(s)" in text

    def test_merged_registry_sums_grids(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        writer = MetricsWriter(str(path), "r1")
        for _ in range(2):
            registry = MetricsRegistry()
            registry.counter("result_cache.hit").inc(1)
            writer.write_grid(registry.snapshot(), jobs=0)
        writer.close()
        merged = merged_registry(load_run(str(path)))
        assert merged.counter("result_cache.hit").value == 2

    def test_resolve_by_run_id_and_direct_path(self, tmp_path):
        path = tmp_path / "r1.metrics.jsonl"
        write_sample_run(path)
        assert resolve_metrics_file("r1", str(tmp_path)) == str(path)
        assert resolve_metrics_file(str(path)) == str(path)
        with pytest.raises(MetricsExportError, match="no metrics file"):
            resolve_metrics_file("r2", str(tmp_path))

    def test_report_run_entrypoint(self, tmp_path):
        write_sample_run(tmp_path / "r1.metrics.jsonl")
        assert "run r1" in report_run("r1", journal_dir=str(tmp_path))
