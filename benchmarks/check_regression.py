"""Diff fresh pytest-benchmark results against the committed baseline.

Usage::

    python benchmarks/check_regression.py bench-smoke.json \
        [--baseline benchmarks/BENCH_throughput.json] [--threshold 0.20]

Compares mean runtimes by benchmark name and prints one line per shared
benchmark. A slowdown at or past the threshold (default 20%) emits a
GitHub Actions ``::warning::`` annotation so it shows up on the run page.

Deliberately non-gating: shared CI runners are too noisy to fail merges
on, so the exit code is always 0 — the committed baseline
(``benchmarks/BENCH_throughput.json``) stays the reference for local,
quiet-machine comparisons.

The exceptions are the same-run ratio gates, where machine speed cancels
out and the ratios are stable enough to gate on:

- ``--stream-gate`` compares the streaming and pool-sharded pipelines
  against the in-memory pipeline within the same fresh run; a ratio past
  the overhead bounds exits non-zero and fails CI.
- ``--backend-gate`` compares the python and numpy analysis backends over
  the same generic-kernel workload within the same fresh run, selecting
  the two rows by their stable ``extra_info`` metadata keys
  (``backend``/``kernel``/``gate``). It divides the rows' *minimum*
  times: on a shared host one slow round moves a mean far more than the
  fastest round. A numpy speedup under the bound exits non-zero, and
  missing rows exit 2 with a pointer at the command that produces them.
"""

from __future__ import annotations

import argparse
import json
import sys


class MetricsFormatError(Exception):
    """A benchmark JSON file is missing a key this script needs."""


def load_benchmarks(path: str) -> list:
    """``(name, mean, extra_info, stats)`` per row, with loud format
    errors."""
    with open(path) as handle:
        data = json.load(handle)
    rows = []
    for position, bench in enumerate(data.get("benchmarks", [])):
        try:
            name = bench["name"]
            mean = bench["stats"]["mean"]
        except (KeyError, TypeError) as error:
            label = f"entry {position}"
            if isinstance(bench, dict) and "name" in bench:
                label = bench["name"]
            raise MetricsFormatError(
                f"{path}: benchmark {label!r} has no 'stats'/'mean' metric "
                "(is this pytest-benchmark JSON?)"
            ) from error
        extra = bench.get("extra_info")
        rows.append((name, mean, extra if isinstance(extra, dict) else {}, bench["stats"]))
    return rows


def load_means(path: str) -> dict:
    return {name: mean for name, mean, _, _ in load_benchmarks(path)}


#: Same-run ratio bounds for --stream-gate. Local quiet-machine ratios are
#: ~1.0x (stream) and ~1.3x (sharded, 2-worker pool incl. IPC); the bounds
#: leave headroom for runner jitter while still catching a structural
#: regression (an accidental extra decode, a chunk-boundary quadratic).
STREAM_GATE_BENCHES = {
    "stream": "test_stream_throughput_from_file",
    "sharded": "test_sharded_throughput_pool",
}
STREAM_GATE_BASELINE = "test_inmemory_throughput_from_file"
STREAM_GATE_MAX = {"stream": 1.6, "sharded": 3.0}


def stream_gate(fresh: dict) -> int:
    """Gate streaming/sharding overhead on same-run ratios; returns an
    exit code (0 ok, 1 regression, 2 missing benchmarks)."""
    missing = sorted(
        name
        for name in [STREAM_GATE_BASELINE, *STREAM_GATE_BENCHES.values()]
        if name not in fresh
    )
    if missing:
        print(
            f"check_regression: --stream-gate needs benchmarks {missing} "
            "in the fresh results (run bench_throughput.py with "
            '-k "from_file or sharded_throughput")',
            file=sys.stderr,
        )
        return 2
    baseline = fresh[STREAM_GATE_BASELINE]
    failed = False
    for label, name in sorted(STREAM_GATE_BENCHES.items()):
        ratio = fresh[name] / baseline if baseline else 0.0
        bound = STREAM_GATE_MAX[label]
        ok = ratio <= bound
        print(
            f"{label:<8} {fresh[name] * 1000:9.2f}ms / "
            f"{baseline * 1000:9.2f}ms in-memory = {ratio:5.2f}x "
            f"(bound {bound:.1f}x) {'ok' if ok else '<-- REGRESSION'}"
        )
        if not ok:
            print(
                f"::error title=streaming overhead::{name} runs {ratio:.2f}x "
                f"the in-memory pipeline (bound {bound:.1f}x, same-run ratio)"
            )
            failed = True
    return 1 if failed else 0


#: Minimum same-run python/numpy speedup for --backend-gate. The gate pair
#: (matrix300x@100k, registers and stack renamed, generic kernel) runs
#: ~7x on a quiet machine; 5x leaves jitter headroom while catching a
#: structural loss (a de-vectorized hot path, an accidental per-record
#: fallback, an index rebuilt per run).
BACKEND_GATE_BACKENDS = ("python", "numpy")
BACKEND_GATE_MIN_SPEEDUP = 5.0


def backend_gate(rows) -> int:
    """Gate the numpy backend's throughput edge on the same-run ratio of
    the two ``extra_info``-tagged gate rows' minimum times; returns an
    exit code (0 ok, 1 regression, 2 missing rows)."""
    gates = {}
    for name, _, info, stats in rows:
        if info.get("gate") == "backend" and info.get("backend"):
            if not isinstance(stats.get("min"), (int, float)):
                raise MetricsFormatError(f"gate row {name!r} has no 'stats'/'min' metric")
            gates[info["backend"]] = (name, stats["min"])
    missing = sorted(b for b in BACKEND_GATE_BACKENDS if b not in gates)
    if missing:
        print(
            "check_regression: --backend-gate found no row tagged "
            f"extra_info gate='backend' for backend(s) {missing} in the "
            "fresh results; run bench_throughput.py -k backend_gate with "
            "NumPy installed to produce both gate rows",
            file=sys.stderr,
        )
        return 2
    py_name, py_min = gates["python"]
    np_name, np_min = gates["numpy"]
    speedup = py_min / np_min if np_min else 0.0
    ok = speedup >= BACKEND_GATE_MIN_SPEEDUP
    print(
        f"backend  {py_name} min {py_min * 1000:9.2f}ms / "
        f"{np_name} min {np_min * 1000:9.2f}ms = {speedup:5.2f}x numpy speedup "
        f"(bound >= {BACKEND_GATE_MIN_SPEEDUP:.1f}x) "
        f"{'ok' if ok else '<-- REGRESSION'}"
    )
    if not ok:
        print(
            f"::error title=backend throughput::the numpy backend runs only "
            f"{speedup:.2f}x the python generic kernel (bound "
            f">= {BACKEND_GATE_MIN_SPEEDUP:.1f}x, same-run ratio of minimums)"
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="fresh pytest-benchmark JSON")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_throughput.json",
        help="committed baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative slowdown that triggers a warning (default: %(default)s)",
    )
    parser.add_argument(
        "--stream-gate",
        action="store_true",
        help="gate on same-run streaming/sharding overhead ratios "
        "(exits non-zero on regression; skips the baseline diff)",
    )
    parser.add_argument(
        "--backend-gate",
        action="store_true",
        help="gate on the same-run python/numpy backend speedup ratio "
        "(exits non-zero on regression; skips the baseline diff)",
    )
    args = parser.parse_args(argv)

    try:
        rows = load_benchmarks(args.results)
        fresh = {name: mean for name, mean, _, _ in rows}
        if args.backend_gate:
            return backend_gate(rows)
        if args.stream_gate:
            return stream_gate(fresh)
        baseline = load_means(args.baseline)
    except MetricsFormatError as error:
        print(f"check_regression: {error}", file=sys.stderr)
        return 2  # malformed input is an error even though comparisons never gate
    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        print("::warning::no benchmarks shared with the baseline; nothing compared")
        return 0

    regressions = []
    for name in shared:
        before, after = baseline[name], fresh[name]
        delta = (after - before) / before if before else 0.0
        marker = " <-- REGRESSION" if delta >= args.threshold else ""
        print(
            f"{name:<45} {before * 1000:9.2f}ms -> {after * 1000:9.2f}ms "
            f"({delta:+6.1%}){marker}"
        )
        if delta >= args.threshold:
            regressions.append((name, delta))

    only_fresh = sorted(set(fresh) - set(baseline))
    if only_fresh:
        print(f"(not in baseline: {', '.join(only_fresh)})")

    for name, delta in regressions:
        print(
            f"::warning title=benchmark regression::{name} is {delta:+.1%} "
            f"vs the committed baseline (threshold {args.threshold:.0%})"
        )
    if not regressions:
        print(f"no regressions >= {args.threshold:.0%} across {len(shared)} benchmarks")
    return 0  # informational only — never gate merges on shared-runner noise


if __name__ == "__main__":
    sys.exit(main())
