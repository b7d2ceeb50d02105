"""End-to-end benchmark of the Paragraph reproduction, layer by layer.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--size {smoke,bench,paper}] [--out FILE]

For each workload (default: all four) this process builds the workload's
untimed inputs in a child process, then starts the workload's set-up in
:data:`SETUP_REPEATS` fresh child processes, one after another. The last
of them goes on to run operations in a closed loop for ``--seconds`` and
checks every output. ``setup_s`` is the median of the set-up times, each
from spawning the child to its first operation.

The last line on standard output is one JSON object per workload::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}

Untraced (``--trace 0``) the metrics are the end-to-end ones: mean
operation latency and microseconds per trace record returned (both with
every kind of operation at its fastest run, see :func:`denoised_ms`), the
measuring process's peak resident set during the loop, and ``setup_s``. Traced
(``--trace 1``) the loop alternates untraced and traced rounds and the
metrics are the per-layer ones (see ``tracing.py``); the spans go to
``.bench_e2e/traces/`` as JSONL beside a table of self time per layer.
Human-readable metrics go to standard error. ``--out`` appends each
result, with its workload, seed and sample count, to a JSONL file that
``compare.py`` reads.

The command exits non-zero, printing no result, when a child fails, and
exits 1 after printing the result when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_e2e")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Default measuring time per run (BENCHMARK.json's ``run_seconds``).
DEFAULT_SECONDS = 15
#: Wall-clock budget of one workload run at the smoke and bench sizes.
TIMEOUT_S = 170

E2E_UNITS = {
    "latency_ms": "ms",
    "us_per_record": "us/record",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

WORKLOADS = ("reproduce-cold", "reproduce-warm", "analyze-mix", "stream-large")


class ChildFailed(Exception):
    pass


# -- measuring child -----------------------------------------------------------------


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark (Linux), so the peak covers
    the measuring loop, not set-up."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def denoised_ms(ops):
    """Each operation's time, with each of its parts at the fastest time
    that part took in any operation of the same kind during the run.

    The machine the baseline was measured on shares its cores with other
    tenants whose bursts slow a sample by up to 70% for seconds at a time;
    the fastest observation per kind varies a few percent between runs
    where medians and means vary up to 15%. Weighting each kind by how
    often it ran keeps the workload's mix."""
    best = {}
    for op in ops:
        for part, ms in op["parts"].items():
            key = (op["kind"], part)
            best[key] = min(ms, best.get(key, ms))
    return [sum(best[(op["kind"], part)] for part in op["parts"]) for op in ops]


def overhead_ratio(ops) -> float:
    """Traced over untraced time, each the fastest operation of every kind
    that ran both ways, summed over those kinds."""
    fastest = ({}, {})
    for op in ops:
        side = fastest[op["traced"]]
        side[op["kind"]] = min(op["ms"], side.get(op["kind"], op["ms"]))
    kinds = fastest[0].keys() & fastest[1].keys()
    untraced = sum(fastest[0][kind] for kind in kinds)
    return sum(fastest[1][kind] for kind in kinds) / untraced if untraced else 0.0


def measure(workload, seconds: float, trace: bool, spans_stem: str) -> dict:
    """Run operations until ``seconds`` have passed at a round boundary.
    Traced, odd rounds run with the wrappers installed and the program's
    metrics on, and at least one round of each kind runs."""
    from repro.obs import metrics as obs

    from tracing import (
        PER_LAYER_UNITS,
        Recorder,
        install_wrappers,
        layer_metrics,
        self_time_table,
    )

    recorder = Recorder(workload.name) if trace else None
    ops = []
    attempted = failed = 0
    failures = []
    reset_peak_rss()
    started = time.perf_counter()
    index = 0
    while True:
        at_boundary = index % workload.round_size == 0
        enough = not trace or index >= 2 * workload.round_size
        if at_boundary and enough and time.perf_counter() - started >= seconds:
            break
        traced = trace and (index // workload.round_size) % 2 == 1
        if traced:
            recorder.op = index
            obs.enable()
            try:
                with install_wrappers(recorder), recorder.span("bench.op", index) as root:
                    outcome = workload.run(index, recorder)
            finally:
                obs.disable()
            seconds_taken = root.end - root.start
        else:
            begin = time.perf_counter()
            outcome = workload.run(index, None)
            seconds_taken = time.perf_counter() - begin
        problems = outcome.verify()
        attempted += outcome.checks
        failed += len(problems)
        failures.extend(problems[: max(0, 5 - len(failures))])
        parts = {name: seconds * 1000.0 for name, seconds in outcome.parts.items()}
        parts["rest"] = seconds_taken * 1000.0 - sum(parts.values())
        ops.append(
            {
                "kind": outcome.kind,
                "ms": seconds_taken * 1000.0,
                "parts": parts,
                "records": outcome.records,
                "traced": traced,
            }
        )
        index += 1
    payload = {
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        traced = sum(op["traced"] for op in ops)
        values = layer_metrics(recorder, overhead_ratio(ops), traced)
        payload["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        }
        recorder.write_jsonl(spans_stem + ".spans.jsonl")
        table = self_time_table(recorder)
        with open(spans_stem + ".selftime.txt", "w") as handle:
            handle.write(table + "\n")
        print(table, file=sys.stderr)
        payload["spans"] = spans_stem + ".spans.jsonl"
    return payload


def child_main(args) -> int:
    from workloads import SIZES, make_workload

    workload = make_workload(args.workload[0], SIZES[args.size], args.seed, args.work)
    if args.child == "inputs":
        workload.build_inputs()
        return 0
    workload.setup()
    setup_s = time.time() - args.spawned_at
    payload = {"setup_s": setup_s}
    if args.child == "measure":
        stem = os.path.join(WORK_ROOT, "traces", f"{workload.name}-seed{args.seed}")
        payload.update(measure(workload, args.seconds, bool(args.trace), stem))
    print(json.dumps(payload), flush=True)
    return 0


# -- orchestrating process -------------------------------------------------------------


def run_child(args, workload: str, phase: str, work: str, deadline) -> dict:
    """Run one child to completion and return its JSON payload. The child
    leads its own process group, so a timeout or interrupt can stop its
    pool workers too."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child", phase,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--work", work,
        "--spawned-at", repr(time.time()),
    ]
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["TMPDIR"] = os.path.join(work, "tmp")
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    try:
        timeout = None if deadline is None else max(1.0, deadline - time.time())
        stdout, _ = child.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        raise
    if child.returncode != 0:
        raise ChildFailed(f"{workload} {phase} child exited with {child.returncode}")
    lines = stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def summarize(payload: dict, setups, trace: bool) -> dict:
    """The result object: end-to-end metrics from the untraced operations,
    or the per-layer metrics of a traced run."""
    if trace:
        metrics = payload["metrics"]
    else:
        ops = payload["ops"]
        milliseconds = denoised_ms(ops)
        records = sum(op["records"] for op in ops)
        values = {
            "latency_ms": sum(milliseconds) / len(milliseconds),
            "us_per_record": sum(milliseconds) * 1000.0 / records,
            "peak_rss_mb": payload["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }


def run_workload(args, name: str) -> dict:
    deadline = None if args.size == "paper" else time.time() + TIMEOUT_S
    work = os.path.join(WORK_ROOT, f"{name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
    os.makedirs(os.path.join(work, "tmp"))
    try:
        run_child(args, name, "inputs", work, deadline)
        setups = [
            run_child(args, name, "setup", work, deadline)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        payload = run_child(args, name, "measure", work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(payload["setup_s"])
    result = summarize(payload, setups, bool(args.trace))
    for failure in payload["failures"]:
        print(f"{name}: CHECK FAILED: {failure}", file=sys.stderr)
    print(
        f"{name}: {len(payload['ops'])} ops, {result['attempted']} outputs checked, "
        f"{result['failed']} failed",
        file=sys.stderr,
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    if args.out:
        record = {
            "workload": name,
            "seed": args.seed,
            "trace": args.trace,
            "size": args.size,
            "seconds": args.seconds,
            "ops": len(payload["ops"]),
            "setups_s": setups,
            **result,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--size", choices=("smoke", "bench", "paper"), default="bench")
    parser.add_argument("--out", help="append each result to this JSONL file")
    parser.add_argument("--child", choices=("inputs", "setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so a running child's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    status = 0
    for name in args.workload or WORKLOADS:
        try:
            result = run_workload(args, name)
        except ChildFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
