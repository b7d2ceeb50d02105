"""Sharded file analysis through the engine pool: parallelism, slice
refs, crash recovery, and shard-granularity journaled resume."""

import json
import os

import pytest

from repro.core.analyzer import analyze
from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.core.stream import summarize_segment
from repro.engine import ExperimentEngine
from repro.engine.faults import ENV_DIR, ENV_SPEC
from repro.engine.pool import JobFailedError, _load_trace
from repro.engine.progress import JOB_DONE, JOB_REPLAYED, JOB_RETRY
from repro.engine.serialize import (
    result_from_dict,
    result_to_bytes,
    result_to_dict,
    segment_summary_from_dict,
    segment_summary_to_dict,
)
from repro.engine.shards import ShardTraceStore, shard_analyze_file, shard_grid
from repro.trace.chunked import segment_manifest
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import write_trace_file
from repro.trace.synthetic import random_trace

RECORDS = 400
SHARD = 64


@pytest.fixture
def trace():
    return random_trace(21, RECORDS, syscall_fraction=0.03)


@pytest.fixture
def trace_path(tmp_path, trace):
    path = str(tmp_path / "big.pgt2")
    write_trace_file(path, trace)
    return path


class TestParallelEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            AnalysisConfig(),
            AnalysisConfig(window_size=16),
            AnalysisConfig.no_renaming(),
            AnalysisConfig(memory_disambiguation="conservative"),
        ],
    )
    def test_pool_sharded_equals_whole(self, trace_path, trace, config):
        engine = ExperimentEngine(jobs=2)
        result = shard_analyze_file(trace_path, config, shard_size=SHARD, engine=engine)
        assert result_to_dict(result) == result_to_dict(analyze(trace, config))

    def test_ineligible_config_streams_sequentially(self, trace_path, trace):
        config = AnalysisConfig(syscall_policy=OPTIMISTIC)
        engine = ExperimentEngine(jobs=2)
        result = shard_analyze_file(trace_path, config, shard_size=SHARD, engine=engine)
        assert result_to_dict(result) == result_to_dict(analyze(trace, config))
        assert not engine.telemetry.events  # no pool jobs ran

    def test_no_engine_streams_sequentially(self, trace_path, trace):
        result = shard_analyze_file(trace_path, AnalysisConfig(), shard_size=SHARD)
        assert result_to_dict(result) == result_to_dict(analyze(trace, AnalysisConfig()))


class TestShardTraceStore:
    def test_store_protocol(self, trace_path, trace):
        manifest = segment_manifest(trace_path, SHARD)
        store = ShardTraceStore(trace_path, manifest)
        grid = shard_grid(manifest, AnalysisConfig())
        assert grid, "trace should contain splice-eligible segments"
        job = grid[0]
        columnar = store.trace(job.workload, job.cap)
        entry = manifest.entries[int(job.workload.rsplit("-", 1)[1])]
        assert len(columnar.opclass) == entry.count
        path, digest = store.ensure_on_disk(job.workload, job.cap)
        assert path == store.path
        assert digest == entry.digest  # segment identity, not whole-trace

    def test_slice_ref_decodes_exactly_one_segment(self, trace_path, trace):
        manifest = segment_manifest(trace_path, SHARD)
        store = ShardTraceStore(trace_path, manifest)
        job = shard_grid(manifest, AnalysisConfig())[0]
        ref = store.trace_ref(job.workload, job.cap)
        assert ref[0] == "slice"
        spec = json.loads(ref[1])
        assert spec["count"] == job.cap
        loaded = _load_trace(ref)
        assert isinstance(loaded, ColumnarTrace)
        direct = store.trace(job.workload, job.cap)
        assert list(loaded) == list(direct)

    def test_unknown_workload_and_cap_rejected(self, trace_path):
        manifest = segment_manifest(trace_path, SHARD)
        store = ShardTraceStore(trace_path, manifest)
        with pytest.raises(KeyError):
            store.trace("nonesuch", 1)
        job = shard_grid(manifest, AnalysisConfig())[0]
        with pytest.raises(ValueError, match="records"):
            store.trace(job.workload, job.cap + 1)
        assert store.invalidate(job.workload, job.cap) is False


class TestSummarySerialization:
    @pytest.mark.parametrize(
        "config",
        [AnalysisConfig(), AnalysisConfig.no_renaming(), AnalysisConfig(window_size=8)],
    )
    def test_round_trip_is_exact(self, trace, config):
        columnar = ColumnarTrace.from_buffer(trace)
        summary = summarize_segment(columnar, config)
        encoded = json.loads(json.dumps(segment_summary_to_dict(summary)))
        clone = segment_summary_from_dict(encoded)
        assert segment_summary_to_dict(clone) == segment_summary_to_dict(summary)
        assert clone.well == summary.well
        assert clone.ring == summary.ring

    def test_result_dispatch_round_trip(self, trace):
        summary = summarize_segment(ColumnarTrace.from_buffer(trace), AnalysisConfig())
        data = result_to_dict(summary)
        assert data["__kind__"] == "segment_summary"
        clone = result_from_dict(json.loads(result_to_bytes(summary).decode()))
        assert result_to_dict(clone) == data


class TestShardFaultRecovery:
    def test_crash_mid_segment_retries_to_identical(self, trace_path, trace, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_SPEC, "crash@1")
        monkeypatch.setenv(ENV_DIR, str(tmp_path / "fault-state"))
        engine = ExperimentEngine(jobs=2, retries=2)
        result = shard_analyze_file(
            trace_path, AnalysisConfig(), shard_size=SHARD, engine=engine
        )
        assert result_to_dict(result) == result_to_dict(analyze(trace, AnalysisConfig()))
        retried = [e for e in engine.telemetry.events if e.kind == JOB_RETRY]
        assert retried, "the crashed segment job must have been retried"

    def test_exhausted_retries_surface_as_failure(self, trace_path, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_SPEC, "crash@0x99,crash@1x99")
        monkeypatch.setenv(ENV_DIR, str(tmp_path / "fault-state"))
        engine = ExperimentEngine(jobs=2, retries=1)
        with pytest.raises(JobFailedError):
            shard_analyze_file(
                trace_path, AnalysisConfig(), shard_size=SHARD, engine=engine
            )


class TestShardJournalResume:
    def test_crashed_run_resumes_at_segment_granularity(
        self, trace_path, trace, monkeypatch, tmp_path
    ):
        journal_dir = str(tmp_path / "journal")
        config = AnalysisConfig()
        expected = result_to_dict(analyze(trace, config))

        # Run 1: every attempt of segment jobs 0 and 1 crashes its worker;
        # with retries exhausted the shard run fails, but the completed
        # segment summaries are already journaled.
        monkeypatch.setenv(ENV_SPEC, "crash@0x99,crash@1x99")
        monkeypatch.setenv(ENV_DIR, str(tmp_path / "fault-state"))
        first = ExperimentEngine(jobs=2, retries=1, journal_dir=journal_dir)
        with pytest.raises(JobFailedError):
            shard_analyze_file(trace_path, config, shard_size=SHARD, engine=first)
        first.close()
        journaled = 0
        with open(os.path.join(journal_dir, f"{first.run_id}.jsonl")) as handle:
            for line in handle:
                entry = json.loads(line)
                if entry.get("event") == "outcome" and entry.get("ok"):
                    journaled += 1
                    assert entry["result"]["__kind__"] == "segment_summary"
        assert journaled > 0, "completed segment summaries must be journaled"

        # Run 2: faults disarmed, resume from the journal — the journaled
        # segments replay, only the crashed ones re-execute, and the
        # stitched result is identical to whole-trace analysis.
        monkeypatch.delenv(ENV_SPEC)
        resumed = ExperimentEngine(
            jobs=2, retries=1, journal_dir=journal_dir, resume=first.run_id
        )
        result = shard_analyze_file(trace_path, config, shard_size=SHARD, engine=resumed)
        assert result_to_dict(result) == expected
        assert resumed.telemetry.replays == journaled
        executed = [e for e in resumed.telemetry.events if e.kind == JOB_DONE]
        replayed = [e for e in resumed.telemetry.events if e.kind == JOB_REPLAYED]
        assert len(replayed) == journaled
        assert executed, "the crashed segments must re-execute on resume"
