"""End-to-end server tests over a real socket.

One module-scoped server carries the read-only and submission tests
(distinct job digests keep them independent); the drain/resume test runs
the real CLI in a subprocess, because graceful SIGTERM handling *is* the
behavior under test.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.engine.api import ExperimentEngine
from repro.serve import ServeClient, ServeClientError, ServeConfig, ServerThread
from repro.trace.io import write_trace
from repro.workloads.suite import load_workload

CAP = 1500
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), ".."))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    config = ServeConfig(
        port=0,
        jobs=1,
        journal_dir=str(tmp / "journal"),
        result_cache=str(tmp / "cache"),
        metrics=True,
    )
    with ServerThread(config) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServeClient("127.0.0.1", server.port, client_id="tests") as c:
        yield c


def _spec(window=None, **overrides):
    spec = {"workload": "xlispx", "cap": CAP}
    if window is not None:
        spec["config"] = {"window_size": window}
    spec.update(overrides)
    return spec


class TestSubmitPollResult:
    def test_submit_to_result_matches_direct_engine(self, client):
        rows = client.submit(_spec())
        assert len(rows) == 1
        assert rows[0]["deduped"] is False
        record = client.wait(rows[0]["id"])
        assert record["state"] == "done"
        assert record["status"] in ("ok", "cached")
        from repro.engine.serialize import result_to_dict

        expected = result_to_dict(ExperimentEngine().analyze("xlispx", CAP))
        assert record["result"] == expected
        assert record["summary"]["available_parallelism"] == pytest.approx(
            expected["placed_operations"] / expected["critical_path_length"]
        )

    def test_config_grid_fans_out(self, client):
        rows = client.submit(
            {
                "workload": "xlispx",
                "cap": CAP,
                "configs": [{"window_size": 16}, {"window_size": 64}],
            }
        )
        assert len(rows) == 2
        assert rows[0]["id"] != rows[1]["id"]
        records = [client.wait(row["id"]) for row in rows]
        assert all(record["state"] == "done" for record in records)
        ilp = [record["summary"]["available_parallelism"] for record in records]
        assert ilp[0] <= ilp[1]  # a bigger window can only help

    def test_identical_submissions_execute_once(self, server):
        before = server.service.stats["executed"]
        spec = _spec(window=48)
        with ServeClient("127.0.0.1", server.port, client_id="alpha") as alpha:
            with ServeClient("127.0.0.1", server.port, client_id="beta") as beta:
                first = alpha.submit(spec)[0]
                second = beta.submit(spec)[0]
                assert first["id"] == second["id"]
                record = alpha.wait(first["id"])
                third = beta.submit(spec)[0]  # resubmission after completion
        assert record["state"] == "done"
        assert third["deduped"] is True
        assert server.service.stats["executed"] == before + 1
        assert sorted(record["clients"])[:2] == ["alpha", "beta"]


class TestEvents:
    def test_sse_stream_order_and_resume(self, client):
        row = client.submit(_spec(window=32))[0]
        events = list(client.events(row["id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] in ("done", "failed")
        assert [event["seq"] for event in events] == list(range(len(events)))
        # Resuming past the first event replays only the remainder.
        tail = list(client.events(row["id"], after=events[0]["seq"]))
        assert [event["seq"] for event in tail] == [e["seq"] for e in events[1:]]

    def test_events_for_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            list(client.events("no-such-job"))
        assert excinfo.value.status == 404


def _trace_bytes(trace):
    import io

    stream = io.BytesIO()
    write_trace(stream, list(trace), trace.segments, len(trace))
    return stream.getvalue()


class TestUpload:
    def test_uploaded_trace_is_analyzable(self, client):
        trace = load_workload("naskerx").trace(max_instructions=800)
        info = client.upload_trace(_trace_bytes(trace))
        assert info["trace"].startswith("upload-")
        assert info["cap"] == len(trace)
        row = client.submit({"workload": info["trace"]})[0]
        record = client.wait(row["id"])
        assert record["state"] == "done"
        assert record["result"]["records_processed"] == len(trace)

    def test_bad_payload_is_400(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.upload_trace(b"this is not a trace")
        assert excinfo.value.status == 400

    def test_cap_override_on_upload_is_400(self, client):
        trace = load_workload("naskerx").trace(max_instructions=400)
        info = client.upload_trace(_trace_bytes(trace))
        with pytest.raises(ServeClientError) as excinfo:
            client.submit({"workload": info["trace"], "cap": info["cap"] + 1})
        assert excinfo.value.status == 400
        assert "registered at cap" in excinfo.value.message

    def test_upload_over_budget_is_413(self):
        config = ServeConfig(port=0, jobs=1, metrics=False, upload_budget_bytes=64)
        with ServerThread(config) as thread:
            with ServeClient("127.0.0.1", thread.port) as small:
                trace = load_workload("naskerx").trace(max_instructions=200)
                with pytest.raises(ServeClientError) as excinfo:
                    small.upload_trace(_trace_bytes(trace))
                assert excinfo.value.status == 413


class TestErrors:
    def test_bad_spec_is_400(self, client):
        for spec in ({}, {"workload": "xlispx", "cap": "many"}, {"workload": 7}):
            with pytest.raises(ServeClientError) as excinfo:
                client.submit(spec)
            assert excinfo.value.status == 400

    def test_unknown_config_key_is_400(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(_spec(config={"window_sz": 8}))
        assert excinfo.value.status == 400
        assert "window_sz" in excinfo.value.message

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.job("f" * 64)
        assert excinfo.value.status == 404

    def test_unknown_route_is_404_and_bad_method_405(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._json("GET", "/v2/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeClientError) as excinfo:
            client._json("DELETE", "/v1/jobs")
        assert excinfo.value.status == 405


class TestHealthAndMetrics:
    def test_healthz(self, client, server):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["run_id"] == server.service.run_id
        assert health["stats"]["submitted"] >= 0
        assert health["uptime_seconds"] > 0

    def test_metrics_snapshot(self, client):
        row = client.submit(_spec(window=24))[0]
        client.wait(row["id"])
        metrics = client.metrics()
        assert metrics["stats"]["executed"] >= 1
        assert "registry" in metrics

    def test_run_report(self, client, server):
        row = client.submit(_spec(window=20))[0]
        client.wait(row["id"])
        report = client.run_report(server.service.run_id)
        assert report["run_id"] == server.service.run_id
        assert len(report["jobs"]) >= 1
        assert "slowest jobs" in report["report"] or report["report"]

    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.run_report("19700101-000000-000000")
        assert excinfo.value.status == 404

    def test_job_listing(self, client):
        row = client.submit(_spec(window=28))[0]
        client.wait(row["id"])
        assert any(item["id"] == row["id"] for item in client.jobs())


def _start_cli_server(tmp_path, extra=()):
    port_file = tmp_path / "port.json"
    if port_file.exists():
        port_file.unlink()
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--port-file", str(port_file),
            "--journal-dir", str(tmp_path / "journal"),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 60
    while not port_file.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            output = proc.stdout.read().decode()
            proc.kill()
            raise AssertionError(f"server failed to start:\n{output}")
        time.sleep(0.05)
    return proc, json.loads(port_file.read_text())


class TestKeepAliveConnections:
    def test_drain_completes_with_parked_keepalive_client(self):
        """A client holding an idle keep-alive connection open must not
        block shutdown: the drain runs before the socket reap, and parked
        handlers are cancelled (on Python >= 3.12.1 ``wait_closed()``
        waits for them, so the old ordering hung forever)."""
        config = ServeConfig(port=0, jobs=1, metrics=False)
        with ServerThread(config) as thread:
            parked = ServeClient("127.0.0.1", thread.port, client_id="parked")
            try:
                assert parked.healthz()["status"] == "ok"
                started = time.monotonic()
                thread.stop()  # connection still open; must drain promptly
                assert time.monotonic() - started < 30
            finally:
                parked.close()

    def test_idle_keepalive_connection_times_out(self):
        import socket

        config = ServeConfig(port=0, jobs=1, metrics=False, keepalive_timeout=0.2)
        with ServerThread(config) as thread:
            with socket.create_connection(("127.0.0.1", thread.port), timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                sock.settimeout(10)
                assert b"200 OK" in sock.recv(65536)
                # Parked past the idle timeout, the server closes its end.
                assert sock.recv(65536) == b""


class TestDrainAndResume:
    def test_sigterm_drains_and_journal_resumes(self, tmp_path):
        spec = {"workload": "xlispx", "cap": CAP, "config": {"window_size": 40}}

        proc, info = _start_cli_server(tmp_path)
        try:
            with ServeClient("127.0.0.1", info["port"], client_id="drain") as client:
                row = client.submit(spec)[0]
                record = client.wait(row["id"])
                assert record["state"] == "done"
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        run_id = info["run_id"]
        journal = tmp_path / "journal" / f"{run_id}.jsonl"
        assert journal.exists()  # resumable record of the drained run

        # A resumed server replays the completed job from the journal.
        proc, info = _start_cli_server(tmp_path, extra=("--resume", run_id))
        try:
            assert info["run_id"] == run_id
            with ServeClient("127.0.0.1", info["port"], client_id="resume") as client:
                row = client.submit(spec)[0]
                record = client.wait(row["id"])
                assert record["state"] == "done"
                assert record["status"] == "replayed"
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
