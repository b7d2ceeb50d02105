"""Engine end-to-end: parallel determinism, caching, fault containment."""

import os

import pytest

from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.engine import AnalysisJob, EngineError, ExperimentEngine, JobFailedError
from repro.engine.pool import _load_trace
from repro.engine.progress import JOB_CACHED, JOB_DONE, JOB_FAILED, EngineTelemetry
from repro.engine.serialize import result_to_bytes
from repro.harness.runner import TraceStore
from repro.obs import metrics as obs
from repro.obs.export import load_run

CAP = 3000

#: 3 workloads x 4 configs — the determinism grid the issue prescribes.
WORKLOADS = ("xlispx", "cc1x", "eqntottx")
CONFIGS = (
    AnalysisConfig(),
    AnalysisConfig(syscall_policy=OPTIMISTIC),
    AnalysisConfig.no_renaming(),
    AnalysisConfig(window_size=64, collect_lifetimes=True),
)


def grid():
    return [
        AnalysisJob(workload, CAP, config)
        for workload in WORKLOADS
        for config in CONFIGS
    ]


@pytest.fixture(scope="module")
def serial_bytes():
    results = ExperimentEngine(jobs=1).analyze_grid(grid())
    return [result_to_bytes(result) for result in results]


class TestParallelDeterminism:
    def test_jobs4_byte_identical_to_serial(self, serial_bytes, tmp_path):
        engine = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=4
        )
        results = engine.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes

    def test_jobs2_spawn_start_method(self, serial_bytes, tmp_path):
        """The fork-safe bootstrap must also work under spawn, where workers
        rebuild everything from the wire messages."""
        engine = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")),
            jobs=2,
            start_method="spawn",
        )
        # one job per (workload, config) pair would be slow under spawn;
        # a single workload x 4 configs covers the bootstrap path
        sub = [AnalysisJob(WORKLOADS[0], CAP, config) for config in CONFIGS]
        results = engine.analyze_grid(sub)
        assert [result_to_bytes(result) for result in results] == serial_bytes[: len(CONFIGS)]

    def test_spawned_workers_receive_traces_at_hand(self, serial_bytes, tmp_path):
        """Under spawn a trace at hand goes to the workers by path, so no
        decoded trace rides a worker's launcher pipe; the results must not
        differ."""
        trace_dir = str(tmp_path / "traces")
        TraceStore(trace_dir).ensure_on_disk(WORKLOADS[0], CAP)
        engine = ExperimentEngine(
            store=TraceStore(trace_dir),
            jobs=2,
            start_method="spawn",
            metrics=True,
            journal_dir=str(tmp_path / "journal"),
        )
        sub = [AnalysisJob(WORKLOADS[0], CAP, config) for config in CONFIGS]
        try:
            results = engine.analyze_grid(sub)
        finally:
            obs.disable()
        assert [result_to_bytes(result) for result in results] == serial_bytes[: len(CONFIGS)]
        counters = load_run(engine.metrics_file)["grids"][-1]["registry"]["counters"]
        assert counters["pool.trace_ref.path"] == 1
        assert counters.get("pool.trace_ref.memory", 0) == 0

    def test_memory_only_store_gets_scratch_directory(self, serial_bytes):
        engine = ExperimentEngine(jobs=4)  # no trace dir given
        results = engine.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes
        assert engine.store.directory  # engine attached a scratch cache


class TestSharedTraceReuse:
    def test_each_workload_decoded_once_in_parent(
        self, serial_bytes, tmp_path, monkeypatch
    ):
        """A ``--jobs 4`` grid must decode each distinct workload trace at
        most once — in the parent, before the workers fork — and workers
        must use the parent's decoded copy instead of re-decoding the
        ``.pgt`` file per process. Both decode entry points are counted."""
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("decode counting via inherited patches needs fork")

        trace_dir = str(tmp_path / "traces")
        warm = TraceStore(trace_dir)
        for workload in WORKLOADS:
            warm.ensure_on_disk(workload, CAP)

        # Count decodes by appending to a file: append writes survive fork,
        # so worker-side decodes (there must be none) would show up too.
        log = tmp_path / "decodes.log"

        import repro.engine.pool as pool_module
        import repro.harness.runner as runner_module
        import repro.trace.io as io_module
        from repro.trace.columnar import ColumnarTrace

        original_from_file = ColumnarTrace.from_file.__func__

        def counted_from_file(cls, path):
            with open(log, "a") as handle:
                handle.write(f"decode {os.getpid()}\n")
            return original_from_file(cls, path)

        original_read = io_module.read_trace_file

        def counted_read(path):
            with open(log, "a") as handle:
                handle.write(f"decode {os.getpid()}\n")
            return original_read(path)

        monkeypatch.setattr(
            ColumnarTrace, "from_file", classmethod(counted_from_file)
        )
        monkeypatch.setattr(pool_module, "read_trace_file", counted_read)
        monkeypatch.setattr(runner_module, "read_trace_file", counted_read)

        # Fresh store on the warm directory: nothing in memory, so every
        # trace the grid needs has to come through a counted decode path.
        engine = ExperimentEngine(
            store=TraceStore(trace_dir), jobs=4, start_method="fork"
        )
        results = engine.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes

        decodes = log.read_text().splitlines()
        parent = str(os.getpid())
        # One decode per distinct workload, all in the parent; workers
        # inherited the decoded traces and never touched a trace file.
        assert len(decodes) == len(WORKLOADS)
        assert all(line.split()[1] == parent for line in decodes)

    def test_parallel_grid_leaves_no_shared_memory_behind(self, tmp_path, monkeypatch):
        """Workers inherit traces at hand rather than attaching shared
        memory, so a grid creates no ``/dev/shm`` block and no ledger
        directory for one."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        trace_dir = str(tmp_path / "traces")
        TraceStore(trace_dir).ensure_on_disk(WORKLOADS[0], CAP)

        def blocks():
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}

        before = blocks() if os.path.isdir("/dev/shm") else set()
        engine = ExperimentEngine(store=TraceStore(trace_dir), jobs=2)
        engine.analyze_grid([AnalysisJob(WORKLOADS[0], CAP, config) for config in CONFIGS])
        if os.path.isdir("/dev/shm"):
            assert blocks() - before == set()
        assert not (tmp_path / "paragraph-shm").exists()


class TestMemoryRefs:
    """Workers resolve ``("memory", key)`` references in the decoded
    traces the parent handed them."""

    def test_memory_ref_is_the_parent_copy(self):
        trace = TraceStore().trace(WORKLOADS[0], CAP)
        key = f"{WORKLOADS[0]}:{CAP}:False"
        assert _load_trace(("memory", key), {key: trace}) is trace

    def test_unknown_memory_key_fails_loudly(self):
        with pytest.raises(EngineError, match="no in-memory trace 'x:1:False'"):
            _load_trace(("memory", "x:1:False"), {})
        with pytest.raises(EngineError, match="was handed to this worker"):
            _load_trace(("memory", "x:1:False"))


class TestResultCache:
    def test_warm_cache_serves_all_jobs(self, serial_bytes, tmp_path):
        cache_dir = str(tmp_path / "results")
        cold = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=4, result_cache=cache_dir
        )
        cold_results = cold.analyze_grid(grid())
        assert cold.telemetry.cache_hits == 0

        warm = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=4, result_cache=cache_dir
        )
        warm_results = warm.analyze_grid(grid())
        assert warm.telemetry.cache_hits == len(grid())
        assert [result_to_bytes(r) for r in warm_results] == [
            result_to_bytes(r) for r in cold_results
        ] == serial_bytes

    def test_serial_and_parallel_share_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "results")
        serial = ExperimentEngine(jobs=1, result_cache=cache_dir)
        serial.analyze_grid(grid())
        parallel = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=4, result_cache=cache_dir
        )
        parallel.analyze_grid(grid())
        assert parallel.telemetry.cache_hits == len(grid())

    def test_config_change_misses(self, tmp_path):
        cache_dir = str(tmp_path / "results")
        engine = ExperimentEngine(jobs=1, result_cache=cache_dir)
        engine.analyze("xlispx", CAP, AnalysisConfig())
        engine.analyze("xlispx", CAP, AnalysisConfig(window_size=8))
        assert engine.telemetry.cache_hits == 0
        engine.analyze("xlispx", CAP, AnalysisConfig())
        assert engine.telemetry.cache_hits == 1


class TestFaultContainment:
    def test_bad_workload_fails_alone_parallel(self, tmp_path):
        engine = ExperimentEngine(store=TraceStore(str(tmp_path / "traces")), jobs=4)
        jobs = [
            AnalysisJob("xlispx", CAP),
            AnalysisJob("nonesuch", CAP),
            AnalysisJob("cc1x", CAP),
        ]
        outcomes = engine.run_grid(jobs)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert "nonesuch" in outcomes[1].error

    def test_bad_workload_fails_alone_serial(self):
        engine = ExperimentEngine(jobs=1)
        outcomes = engine.run_grid([AnalysisJob("nonesuch", CAP), AnalysisJob("xlispx", CAP)])
        assert [outcome.ok for outcome in outcomes] == [False, True]

    def test_strict_grid_raises_with_details(self):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(JobFailedError, match="nonesuch"):
            engine.analyze_grid([AnalysisJob("nonesuch", CAP)])

    def test_timeout_kills_job_but_not_grid(self, tmp_path):
        # The limit also bounds generation on the pool, so the fast job's
        # trace is made beforehand; the slow one times out generating.
        TraceStore(str(tmp_path / "traces")).ensure_on_disk("xlispx", CAP)
        engine = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=2, timeout=0.05
        )
        jobs = [
            # Far exceeds the limit even on the columnar fast path.
            AnalysisJob("matrix300x", 500_000),
            AnalysisJob("xlispx", CAP),
        ]
        outcomes = engine.run_grid(jobs)
        slow, fast = outcomes
        assert not slow.ok and "timeout" in slow.error
        assert fast.ok

    def test_repeated_timeouts_do_not_crash_the_pool(self, tmp_path):
        """Every job blows the limit: the pool must keep terminating and
        respawning workers (ignoring their ghost messages) and report one
        failed outcome per job instead of crashing or hanging."""
        engine = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=2, timeout=0.01
        )
        # 200k records keep each job well over the limit even on the
        # columnar fast path.
        jobs = [AnalysisJob(workload, 200_000) for workload in WORKLOADS]
        outcomes = engine.run_grid(jobs)
        # Exactly one outcome per job — no crash, no hang, no dropped job.
        # (A job can still sneak to completion while the parent is busy
        # terminating the *other* worker, so not every job must fail.)
        assert len(outcomes) == len(jobs)
        assert [outcome.index for outcome in outcomes] == list(range(len(jobs)))
        failures = [outcome for outcome in outcomes if not outcome.ok]
        assert failures
        assert all(
            "timeout" in outcome.error or "lost" in outcome.error
            for outcome in failures
        )


class TestProgress:
    def test_events_cover_every_job(self, tmp_path):
        telemetry = EngineTelemetry()
        engine = ExperimentEngine(
            store=TraceStore(str(tmp_path / "traces")), jobs=4, progress=telemetry
        )
        engine.analyze_grid(grid())
        done = [event for event in telemetry.events if event.kind == JOB_DONE]
        assert len(done) == len(grid())
        assert {event.index for event in done} == set(range(len(grid())))
        assert all(event.seconds > 0 for event in done)

    def test_telemetry_summary_counts(self, tmp_path):
        engine = ExperimentEngine(jobs=1, result_cache=str(tmp_path / "rc"))
        engine.analyze_grid(grid()[:2])
        engine.analyze_grid(grid()[:2])
        summary = engine.telemetry.summary()
        assert "4 jobs done" in summary and "2 cached" in summary

    def test_failed_events_emitted(self):
        telemetry = EngineTelemetry()
        engine = ExperimentEngine(jobs=1, progress=telemetry)
        engine.run_grid([AnalysisJob("nonesuch", CAP)])
        assert telemetry.failures == 1
        assert telemetry.events[-1].kind == JOB_FAILED

    def test_cached_events_emitted(self, tmp_path):
        telemetry = EngineTelemetry()
        cache_dir = str(tmp_path / "rc")
        ExperimentEngine(jobs=1, result_cache=cache_dir).analyze("xlispx", CAP)
        engine = ExperimentEngine(jobs=1, result_cache=cache_dir, progress=telemetry)
        engine.analyze("xlispx", CAP)
        assert telemetry.events[-1].kind == JOB_CACHED
