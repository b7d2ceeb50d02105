"""Fault-tolerant grid execution: every recovery path, pinned.

Each scenario injects a deterministic fault via :mod:`repro.engine.faults`
(worker crash, hang, corrupted payload, shm attach failure, crash-looping
pool) and asserts the grid still completes with results byte-identical to
a fault-free serial run — plus journal resume after a mid-grid SIGKILL and
the shared-memory sweep protocol.
"""

import json
import os
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory

import pytest

from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.engine import AnalysisJob, ExperimentEngine
from repro.engine.faults import ENV_DIR, ENV_SPEC, FaultPlan, FaultSpecError, parse_faults
from repro.engine.progress import JOB_DONE, JOB_REPLAYED, JOB_RETRY
from repro.engine.resilience import (
    ENV_MANIFEST_DIR,
    PERMANENT,
    TRANSIENT,
    JournalError,
    RetryPolicy,
    RunJournal,
    ShmManifest,
    classify_failure,
    sweep_stale_manifests,
)
from repro.engine.serialize import result_to_bytes
from repro.harness.runner import TraceStore

CAP = 1500

WORKLOADS = ("xlispx", "eqntottx")
CONFIGS = (AnalysisConfig(), AnalysisConfig(syscall_policy=OPTIMISTIC))


def grid():
    """2 workloads x 2 configs = 4 jobs."""
    return [
        AnalysisJob(workload, CAP, config)
        for workload in WORKLOADS
        for config in CONFIGS
    ]


def wide_grid():
    """2 workloads x 4 configs = 8 jobs (enough crash pressure to break a
    2-worker pool's respawn budget inside one round)."""
    configs = CONFIGS + (
        AnalysisConfig.no_renaming(),
        AnalysisConfig(window_size=64),
    )
    return [
        AnalysisJob(workload, CAP, config)
        for workload in WORKLOADS
        for config in configs
    ]


@pytest.fixture(scope="module")
def serial_bytes():
    results = ExperimentEngine(jobs=1).analyze_grid(grid())
    return [result_to_bytes(result) for result in results]


@pytest.fixture(scope="module")
def wide_serial_bytes():
    results = ExperimentEngine(jobs=1).analyze_grid(wide_grid())
    return [result_to_bytes(result) for result in results]


@pytest.fixture
def fault_env(monkeypatch, tmp_path):
    """Arm REPRO_FAULTS with a fresh ticket dir; isolate the shm manifest."""

    def arm(spec):
        monkeypatch.setenv(ENV_SPEC, spec)
        monkeypatch.setenv(ENV_DIR, str(tmp_path / "fault-state"))
        monkeypatch.setenv(ENV_MANIFEST_DIR, str(tmp_path / "shm-manifests"))

    monkeypatch.setenv(ENV_MANIFEST_DIR, str(tmp_path / "shm-manifests"))
    return arm


def engine_for(tmp_path, retries=2, jobs=2, **kwargs):
    kwargs.setdefault("store", TraceStore(str(tmp_path / "traces")))
    return ExperimentEngine(jobs=jobs, retries=retries, **kwargs)


def assert_no_shm_leaks(tmp_path):
    """No manifest survives a finished grid; any block name a manifest
    ever listed must be unattachable."""
    manifest_dir = tmp_path / "shm-manifests"
    if not manifest_dir.is_dir():
        return
    leftovers = [name for name in os.listdir(manifest_dir) if name.endswith(".manifest")]
    assert leftovers == []


class TestClassification:
    def test_transient_markers(self):
        for error in (
            "worker crashed (exit code 17)",
            "timeout: exceeded 0.05s per-job limit",
            "job lost after worker termination",
            "RuntimeError: injected shm attach failure for block 'psm_x'",
            "corrupted result payload from worker (checksum mismatch)",
            "TraceFormatError: truncated record body",
            "FileNotFoundError: [Errno 2] No such file or directory",
            "OSError: [Errno 5] Input/output error",
        ):
            assert classify_failure(error) == TRANSIENT, error

    def test_permanent_markers(self):
        for error in (
            "KeyError: \"unknown workload 'nonesuch'\"",
            "trace digest mismatch in x.pgt: file is stale or corrupted",
            "ValueError: cap must be >= 1, got 0",
            "ZeroDivisionError: division by zero",
            None,
        ):
            assert classify_failure(error) == PERMANENT, error

    def test_digest_mismatch_beats_io_markers(self):
        # Contains "OSError" yet names a digest mismatch: permanent wins.
        assert classify_failure("OSError-adjacent digest mismatch") == PERMANENT


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays[:3] == [0.1, 0.2, 0.4]
        assert delays[3] == delays[4] == 0.5  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.25)
        first = policy.delay(1, key="job-a")
        assert first == policy.delay(1, key="job-a")  # same seed, same delay
        assert first != policy.delay(1, key="job-b")  # different job, spread out
        assert 0.075 <= first <= 0.125  # within +/- jitter of the raw delay

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestFaultHarness:
    def test_parse_specs(self):
        specs = parse_faults("crash@2, hang@*x3")
        assert [(s.kind, s.target, s.times) for s in specs] == [
            ("crash", 2, 1),
            ("hang", "*", 3),
        ]

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            parse_faults("explode@1")

    def test_tickets_limit_firings(self, tmp_path):
        plan = FaultPlan(parse_faults("crash@1x2"), str(tmp_path))
        fired = [plan.should_fire("crash", 1) for _ in range(4)]
        assert fired == [True, True, False, False]
        assert plan.should_fire("crash", 0) is False  # wrong target

    def test_no_state_dir_always_fires(self):
        plan = FaultPlan(parse_faults("crash@*"), None)
        assert all(plan.should_fire("crash", index) for index in range(5))


class TestWorkerCrashRecovery:
    def test_crash_on_job_k_retries_to_byte_identical(
        self, serial_bytes, tmp_path, fault_env
    ):
        fault_env("crash@2")
        engine = engine_for(tmp_path, retries=2, jobs=2)
        results = engine.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes
        assert engine.telemetry.retries >= 1
        # Depending on whether the doomed worker's JOB_STARTED message won
        # the race with its own death, the failure reads "worker crashed"
        # or "job lost after worker termination" — both transient, both
        # must funnel into a retry of grid index 2.
        outcome_events = [e for e in engine.telemetry.events if e.kind == JOB_RETRY]
        assert any(e.index == 2 for e in outcome_events)
        assert_no_shm_leaks(tmp_path)


    def test_death_mid_message_costs_only_that_job(
        self, serial_bytes, tmp_path, monkeypatch
    ):
        """A worker killed halfway through writing a result must not wedge
        the others: its half message reads as its pipe's end, the job is
        retried, and the grid completes."""
        import multiprocessing
        import struct

        from repro.engine import pool

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched send reaches workers only when they fork")
        monkeypatch.setenv(ENV_MANIFEST_DIR, str(tmp_path / "shm-manifests"))
        ticket = tmp_path / "died-once"
        real_put = pool._ResultPipe.put

        def dying_put(self, message):
            kind, _, index, _ = message
            if kind == "done" and index == 2 and not ticket.exists():
                ticket.touch()
                os.write(self.connection.fileno(), struct.pack("!i", 4096) + b"half")
                os._exit(17)
            real_put(self, message)

        monkeypatch.setattr(pool._ResultPipe, "put", dying_put)
        engine = engine_for(tmp_path, retries=2, jobs=2)
        results = engine.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes
        retried = [e for e in engine.telemetry.events if e.kind == JOB_RETRY]
        assert [e.index for e in retried] == [2]
        assert "worker crashed (exit code 17)" in retried[0].error


class TestHangRecovery:
    def test_hung_worker_killed_and_retried_without_stalling(
        self, serial_bytes, tmp_path, fault_env
    ):
        fault_env("hang@1")
        engine = engine_for(tmp_path, retries=2, jobs=2, timeout=3.0)
        started = time.perf_counter()
        results = engine.analyze_grid(grid())
        elapsed = time.perf_counter() - started
        assert [result_to_bytes(result) for result in results] == serial_bytes
        assert engine.telemetry.retries >= 1
        retried = [e for e in engine.telemetry.events if e.kind == JOB_RETRY]
        assert any("timeout" in (e.error or "") for e in retried)
        # One timeout window plus the grid, not a stall: well under two windows.
        assert elapsed < 30.0
        assert_no_shm_leaks(tmp_path)


class TestCorruptResultRecovery:
    def test_corrupted_payload_detected_and_retried(
        self, serial_bytes, tmp_path, fault_env
    ):
        fault_env("corrupt@1")
        engine = engine_for(tmp_path, retries=2, jobs=2)
        results = engine.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes
        retried = [e for e in engine.telemetry.events if e.kind == JOB_RETRY]
        assert any("corrupted result payload" in (e.error or "") for e in retried)
        assert_no_shm_leaks(tmp_path)


class TestShmAttachRecovery:
    def test_attach_failure_retried(self, serial_bytes, tmp_path, fault_env):
        fault_env("shm@0")
        # Only traces at hand travel as shared-memory blocks (a trace the
        # pool generates is loaded from its file), so warm the cache first.
        warm = TraceStore(str(tmp_path / "traces"))
        for workload in WORKLOADS:
            warm.ensure_on_disk(workload, CAP)
        engine = engine_for(tmp_path, retries=2, jobs=2)
        results = engine.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes
        retried = [e for e in engine.telemetry.events if e.kind == JOB_RETRY]
        assert any("shm attach" in (e.error or "") for e in retried)
        assert_no_shm_leaks(tmp_path)


class TestPermanentFailures:
    def test_unknown_workload_not_retried(self, tmp_path, fault_env):
        engine = engine_for(tmp_path, retries=3, jobs=1)
        outcomes = engine.run_grid([AnalysisJob("nonesuch", CAP), AnalysisJob("xlispx", CAP)])
        bad, good = outcomes
        assert not bad.ok and bad.attempts == 1
        assert "quarantined" not in bad.error
        assert good.ok
        assert engine.telemetry.retries == 0

    def test_transient_exhaustion_quarantines(self, tmp_path, fault_env):
        # Jobs 0 and 1 crash their worker on every attempt. Two of them,
        # so every retry round stays a multi-job pool batch (a single-job
        # batch runs in-process, where faults never fire).
        fault_env("crash@0x99,crash@1x99")
        engine = engine_for(tmp_path, retries=2, jobs=2)
        outcomes = engine.run_grid(grid())
        for outcome in outcomes[:2]:
            assert not outcome.ok
            assert outcome.attempts == 3  # retries + 1
            assert "quarantined after 3 attempts" in outcome.error
        assert all(outcome.ok for outcome in outcomes[2:])
        assert_no_shm_leaks(tmp_path)


class TestPoolDegradation:
    def test_crash_looping_pool_degrades_to_serial(
        self, wide_serial_bytes, tmp_path, fault_env, monkeypatch, caplog
    ):
        # Every job crashes its worker and no ticket dir limits the fault,
        # so the pool burns its respawn budget mid-round; the remainder
        # must complete in-process (where the fault hooks never fire).
        monkeypatch.setenv(ENV_SPEC, "crash@*")
        monkeypatch.delenv(ENV_DIR, raising=False)
        engine = engine_for(tmp_path, retries=3, jobs=2)
        with caplog.at_level("WARNING", logger="repro.engine.resilience"):
            results = engine.analyze_grid(wide_grid())
        assert [result_to_bytes(result) for result in results] == wide_serial_bytes
        assert any("serial" in message for message in caplog.messages)
        assert_no_shm_leaks(tmp_path)


class TestFailFast:
    def test_fail_fast_skips_rest(self, tmp_path):
        engine = engine_for(tmp_path, retries=0, jobs=1, fail_fast=True)
        jobs = [
            AnalysisJob("xlispx", CAP),
            AnalysisJob("nonesuch", CAP),
            AnalysisJob("eqntottx", CAP),
        ]
        outcomes = engine.run_grid(jobs)
        assert outcomes[0].ok
        assert not outcomes[1].ok and "nonesuch" in outcomes[1].error
        assert not outcomes[2].ok and "fail-fast" in outcomes[2].error

    def test_keep_going_is_default(self, tmp_path):
        engine = engine_for(tmp_path, retries=0, jobs=1)
        jobs = [
            AnalysisJob("nonesuch", CAP),
            AnalysisJob("xlispx", CAP),
        ]
        outcomes = engine.run_grid(jobs)
        assert [outcome.ok for outcome in outcomes] == [False, True]


class TestRunJournal:
    def test_outcomes_journaled_as_they_land(self, tmp_path, fault_env):
        journal_dir = str(tmp_path / "journal")
        engine = engine_for(tmp_path, retries=0, jobs=1, journal_dir=journal_dir)
        engine.analyze_grid(grid())
        path = os.path.join(journal_dir, f"{engine.run_id}.jsonl")
        entries = [json.loads(line) for line in open(path)]
        assert entries[0]["event"] == "run"
        outcomes = [entry for entry in entries if entry["event"] == "outcome"]
        assert len(outcomes) == len(grid())
        assert all(entry["ok"] and entry["result"] for entry in outcomes)
        assert all(entry["schema"] == 1 for entry in entries)

    def test_resume_replays_completed_jobs(self, serial_bytes, tmp_path, fault_env):
        journal_dir = str(tmp_path / "journal")
        store_dir = str(tmp_path / "traces")
        first = ExperimentEngine(
            store=TraceStore(store_dir), jobs=1, journal_dir=journal_dir
        )
        first.analyze_grid(grid()[:2])  # half the grid, then "crash"
        run_id = first.run_id

        resumed = ExperimentEngine(
            store=TraceStore(store_dir),
            jobs=1,
            journal_dir=journal_dir,
            resume=run_id,
        )
        results = resumed.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes
        assert resumed.telemetry.replays == 2
        done = [e for e in resumed.telemetry.events if e.kind == JOB_DONE]
        assert len(done) == 2  # only the unfinished half re-executed

    def test_resume_reexecutes_on_config_change(self, tmp_path, fault_env):
        journal_dir = str(tmp_path / "journal")
        store_dir = str(tmp_path / "traces")
        first = ExperimentEngine(
            store=TraceStore(store_dir), jobs=1, journal_dir=journal_dir
        )
        first.analyze_grid([AnalysisJob("xlispx", CAP)])
        resumed = ExperimentEngine(
            store=TraceStore(store_dir),
            jobs=1,
            journal_dir=journal_dir,
            resume=first.run_id,
        )
        resumed.analyze_grid([AnalysisJob("xlispx", CAP, AnalysisConfig(window_size=32))])
        assert resumed.telemetry.replays == 0

    def test_torn_final_line_tolerated(self, tmp_path, fault_env):
        journal_dir = str(tmp_path / "journal")
        first = engine_for(tmp_path, retries=0, jobs=1, journal_dir=journal_dir)
        first.analyze_grid(grid()[:2])
        path = os.path.join(journal_dir, f"{first.run_id}.jsonl")
        with open(path, "a") as handle:
            handle.write('{"schema": 1, "event": "outc')  # torn mid-write
        journal = RunJournal(journal_dir, run_id=first.run_id, resume=True)
        assert journal.replay_count == 2

    def test_corrupt_interior_line_refuses_resume(self, tmp_path, fault_env):
        journal_dir = str(tmp_path / "journal")
        first = engine_for(tmp_path, retries=0, jobs=1, journal_dir=journal_dir)
        first.analyze_grid(grid()[:2])
        path = os.path.join(journal_dir, f"{first.run_id}.jsonl")
        lines = open(path).readlines()
        lines[1] = lines[1][:20] + "\n"  # damage an interior record
        open(path, "w").writelines(lines)
        with pytest.raises(JournalError, match="corrupt journal line"):
            RunJournal(journal_dir, run_id=first.run_id, resume=True)

    def test_missing_journal_refuses_resume(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            RunJournal(str(tmp_path / "journal"), run_id="nope", resume=True)


#: Driver for the SIGKILL scenario: runs the module grid with a hang fault
#: on the last job so the run journals everything else and then sticks.
_DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.engine import AnalysisJob, ExperimentEngine
from repro.harness.runner import TraceStore

trace_dir, journal_dir = sys.argv[1:3]
grid = [
    AnalysisJob(workload, {cap}, config)
    for workload in {workloads!r}
    for config in (AnalysisConfig(), AnalysisConfig(syscall_policy=OPTIMISTIC))
]
engine = ExperimentEngine(
    store=TraceStore(trace_dir), jobs=2, retries=0, journal_dir=journal_dir
)
print(engine.run_id, flush=True)
engine.run_grid(grid)
"""


class TestSigkillResume:
    def _journaled_ok(self, path):
        count = 0
        try:
            with open(path) as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if entry.get("event") == "outcome" and entry.get("ok"):
                        count += 1
        except FileNotFoundError:
            return 0
        return count

    def test_resume_after_sigkill_reexecutes_only_unfinished(
        self, serial_bytes, tmp_path, monkeypatch
    ):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        src = os.path.abspath(src)
        trace_dir = str(tmp_path / "traces")
        journal_dir = str(tmp_path / "journal")
        manifest_dir = str(tmp_path / "shm-manifests")
        monkeypatch.setenv(ENV_MANIFEST_DIR, manifest_dir)

        # Warm the trace cache so the driver starts analyzing immediately.
        warm = TraceStore(trace_dir)
        for workload in WORKLOADS:
            warm.ensure_on_disk(workload, CAP)

        env = dict(os.environ)
        env[ENV_SPEC] = "hang@3"  # the last job never finishes
        env[ENV_DIR] = str(tmp_path / "fault-state")
        env[ENV_MANIFEST_DIR] = manifest_dir

        script = _DRIVER.format(src=src, cap=CAP, workloads=WORKLOADS)
        process = subprocess.Popen(
            [sys.executable, "-c", script, trace_dir, journal_dir],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            run_id = process.stdout.readline().strip()
            assert run_id
            journal_path = os.path.join(journal_dir, f"{run_id}.jsonl")
            deadline = time.time() + 120
            while time.time() < deadline:
                if self._journaled_ok(journal_path) >= 3:
                    break
                if process.poll() is not None:
                    pytest.fail("driver exited before it could be killed")
                time.sleep(0.1)
            else:
                pytest.fail("driver never journaled 3 outcomes")
            journaled = self._journaled_ok(journal_path)
            # Mid-grid SIGKILL of the whole process group: no atexit, no
            # signal handlers, workers die too — the worst case.
            os.killpg(process.pid, signal.SIGKILL)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
            process.stdout.close()

        # The killed run leaked its shm manifest (and possibly blocks).
        manifests = [
            name for name in os.listdir(manifest_dir) if name.endswith(".manifest")
        ]
        assert manifests, "SIGKILL'd run should leave its manifest behind"
        leaked_names = []
        for name in manifests:
            with open(os.path.join(manifest_dir, name)) as handle:
                leaked_names += [line.strip() for line in handle if line.strip()]

        resumed = ExperimentEngine(
            store=TraceStore(trace_dir),
            jobs=2,
            retries=2,
            journal_dir=journal_dir,
            resume=run_id,
        )
        results = resumed.analyze_grid(grid())
        assert [result_to_bytes(result) for result in results] == serial_bytes
        # Journal replay count asserted: exactly the journaled jobs replay,
        # exactly the remainder re-executes.
        assert resumed.telemetry.replays == journaled
        executed = [e for e in resumed.telemetry.events if e.kind == JOB_DONE]
        assert len(executed) == len(grid()) - journaled
        replay_events = [e for e in resumed.telemetry.events if e.kind == JOB_REPLAYED]
        assert len(replay_events) == journaled

        # The startup sweep reclaimed the dead run's blocks: nothing left
        # to attach, no manifest left behind by the finished resume run.
        for name in leaked_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name, create=False)
        leftover = [
            name for name in os.listdir(manifest_dir) if name.endswith(".manifest")
        ]
        assert leftover == []


class TestShmManifest:
    def test_sweep_reclaims_blocks_of_dead_runs(self, tmp_path):
        manifest_dir = str(tmp_path / "manifests")
        os.makedirs(manifest_dir)
        block = shared_memory.SharedMemory(create=True, size=64)
        name = block.name.lstrip("/")
        block.close()
        # A pid that is certainly dead: a subprocess that already exited.
        probe = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True)
        dead_pid = int(probe.stdout.strip())
        with open(os.path.join(manifest_dir, f"{dead_pid}.manifest"), "w") as handle:
            handle.write(name + "\n")
        reclaimed = sweep_stale_manifests(manifest_dir)
        assert name in reclaimed
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)
        assert os.listdir(manifest_dir) == []

    def test_live_pid_manifest_untouched(self, tmp_path):
        manifest_dir = str(tmp_path / "manifests")
        os.makedirs(manifest_dir)
        path = os.path.join(manifest_dir, f"{os.getpid()}.manifest")
        with open(path, "w") as handle:
            handle.write("some_block\n")
        assert sweep_stale_manifests(manifest_dir) == []
        assert os.path.exists(path)
        os.remove(path)

    def test_register_release_roundtrip(self, tmp_path):
        manifest = ShmManifest(str(tmp_path / "manifests"))
        manifest.register("block_a")
        manifest.register("block_b")
        assert os.path.exists(manifest.path)
        manifest.release("block_a")
        manifest.release("block_b")
        assert not os.path.exists(manifest.path)

    def test_sweep_own_noop_in_forked_child(self, tmp_path):
        manifest = ShmManifest(str(tmp_path / "manifests"))
        manifest._pid = os.getpid() + 1  # simulate a fork
        manifest.register("block_a")
        assert manifest.sweep_own() == []


class TestWorkerSignalIsolation:
    """A forked worker must not write signal bytes into a wakeup fd it
    inherited from the parent.

    When the parent runs an asyncio loop (repro.serve), its signal
    handlers register a self-pipe via ``signal.set_wakeup_fd``. Workers
    fork with that registration intact, so any signal delivered to a
    worker — including the pool's own ``terminate()`` backstop at grid
    teardown — would land its signal byte in the PARENT's loop, which
    then drains as if the server itself had been SIGTERMed. The worker
    detaches the fd before installing its handlers; this pins it.
    """

    def test_sigterm_to_worker_leaves_parent_wakeup_fd_silent(self):
        import multiprocessing
        import socket
        import threading

        from repro.engine.pool import JOB_STARTED
        from repro.engine.pool import _worker_main

        if threading.current_thread() is not threading.main_thread():
            pytest.skip("set_wakeup_fd requires the main thread")

        receiver, sender = socket.socketpair()
        receiver.setblocking(False)
        sender.setblocking(False)
        previous = signal.set_wakeup_fd(sender.fileno())
        task_queue = multiprocessing.Queue()
        result_queue = multiprocessing.Queue()
        worker = multiprocessing.Process(
            target=_worker_main, args=(0, task_queue, result_queue, False)
        )
        try:
            worker.start()
            # A bogus task: the worker reports JOB_STARTED (proof it is
            # past setup, i.e. past the set_wakeup_fd(-1) detach), fails
            # the job, and blocks on the queue again.
            task_queue.put((0, {}, ("file", "/nonexistent.pgt"), None))
            deadline = time.monotonic() + 30
            started = False
            while time.monotonic() < deadline:
                try:
                    kind, _, _, _ = result_queue.get(timeout=0.2)
                except Exception:
                    continue
                if kind == JOB_STARTED:
                    started = True
                    break
            assert started, "worker never reported JOB_STARTED"
            os.kill(worker.pid, signal.SIGTERM)
            worker.join(timeout=30)
            assert worker.exitcode is not None, "worker survived SIGTERM"
            try:
                leaked = receiver.recv(16)
            except BlockingIOError:
                leaked = b""
            assert leaked == b"", (
                f"worker signal leaked into the parent's wakeup fd: {leaked!r}"
            )
        finally:
            signal.set_wakeup_fd(previous)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=10)
            task_queue.close()
            task_queue.cancel_join_thread()
            result_queue.close()
            result_queue.cancel_join_thread()
            receiver.close()
            sender.close()
