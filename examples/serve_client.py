"""Analysis-as-a-service: drive a ``repro serve`` endpoint from a script.

Starts an in-process server (swap :class:`ServerThread` for a
``ServeClient`` pointed at a long-running ``python -m repro serve`` for the
real deployment), then walks the whole client surface: submit a config
grid, watch one job's SSE progress stream, read results, demonstrate that
an identical resubmission never reaches the engine pool, and upload a
custom trace for remote analysis.

Run:  PYTHONPATH=src python examples/serve_client.py
"""

import io

from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.trace.io import write_trace
from repro.workloads.suite import load_workload

CAP = 5_000


def trace_bytes(trace):
    stream = io.BytesIO()
    write_trace(stream, list(trace), trace.segments, len(trace))
    return stream.getvalue()


def main():
    config = ServeConfig(port=0, jobs=1)  # port=0: pick an ephemeral port
    with ServerThread(config) as server:
        print(f"server listening on 127.0.0.1:{server.port}")
        with ServeClient("127.0.0.1", server.port, client_id="example") as client:

            # A window-size grid over one workload: one job per config.
            rows = client.submit({
                "workload": "xlispx",
                "cap": CAP,
                "configs": [{"window_size": w} for w in (16, 64, 256)],
            })
            print(f"submitted {len(rows)} jobs")

            # Stream one job's progress over SSE (ends at the terminal event).
            for event in client.events(rows[0]["id"]):
                print(f"  sse: seq={event['seq']} {event['event']}")

            print("window  ILP")
            for row, window in zip(rows, (16, 64, 256)):
                record = client.wait(row["id"])
                ilp = record["summary"]["available_parallelism"]
                print(f"  {window:4d}  {ilp:6.2f}")

            # Identical resubmission: same content-addressed ids, no new
            # execution — the engine pool never sees it.
            again = client.submit({
                "workload": "xlispx",
                "cap": CAP,
                "configs": [{"window_size": w} for w in (16, 64, 256)],
            })
            stats = client.healthz()["stats"]
            print(f"resubmission deduped: {all(r['deduped'] for r in again)} "
                  f"(executed={stats['executed']}, deduped={stats['deduped']})")

            # Upload a trace the server has never seen and analyze it.
            trace = load_workload("naskerx").trace(max_instructions=2_000)
            info = client.upload_trace(trace_bytes(trace))
            print(f"uploaded {info['cap']}-record trace as {info['trace']}")
            row = client.submit({"workload": info["trace"]})[0]
            record = client.wait(row["id"])
            print(f"uploaded-trace ILP: "
                  f"{record['summary']['available_parallelism']:.2f}")


if __name__ == "__main__":
    main()
