"""Compare end-to-end benchmark results.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl [CHANGE.jsonl ...]

Each file holds the lines ``run.py --out`` appends, one per untraced run.
For every workload and every end-to-end metric in ``BENCHMARK.json`` the
tool prints each file's median, quartiles and spread (interquartile range
over median), then judges each later file against the first:

- ``REGRESSED``: the median is worse by more than the metric's bound;
- ``unresolved``: the spread of either side is wider than the bound, and
  not every run of the change reads better than every run of the parent;
- ``gain``: the change wins at least nine tenths of the runs paired by
  seed (ties count for neither side), and its median is better by more than
  the parent's interquartile range;
- ``unchanged``: anything else.

It exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path: str):
    """workload -> [(seed, {metric: value})], untraced runs only."""
    runs = collections.defaultdict(list)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            values = {name: entry["value"] for name, entry in record["metrics"].items()}
            runs[record["workload"]].append((record["seed"], values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(parent, change, better: str, bound: float) -> str:
    """Verdict for one metric; ``parent``/``change`` are [(seed, value)]."""
    sign = 1.0 if better == "lower" else -1.0
    parent_values = [value for _, value in parent]
    change_values = [value for _, value in change]
    p_q1, p_median, p_q3 = quartiles(parent_values)
    c_q1, c_median, c_q3 = quartiles(change_values)
    worse = sign * (c_median - p_median) / p_median if p_median else 0.0
    if worse > bound:
        return "REGRESSED"
    spread = max(
        (p_q3 - p_q1) / p_median if p_median else 0.0,
        (c_q3 - c_q1) / c_median if c_median else 0.0,
    )
    if better == "lower":
        all_better = max(change_values) < min(parent_values)
    else:
        all_better = min(change_values) > max(parent_values)
    if spread > bound:
        return "better in every run" if all_better else "unresolved"
    by_seed = dict(parent)
    pairs = [(by_seed[seed], value) for seed, value in change if seed in by_seed]
    wins = sum(1 for old, new in pairs if sign * (new - old) < 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (p_median - c_median) > p_q3 - p_q1:
        return f"gain ({wins}/{len(pairs)} pairs)"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="run.py --out files; the first is the parent")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        metrics = json.load(handle)["end_to_end"]
    sides = [load_runs(path) for path in args.files]
    regressed = False
    workloads = sorted({name for side in sides for name in side})
    for workload in workloads:
        print(f"== {workload}")
        for metric in metrics:
            name = metric["name"]
            columns = []
            series = []
            for side in sides:
                runs = [(seed, values[name]) for seed, values in side.get(workload, [])]
                series.append(runs)
                if not runs:
                    columns.append("no runs")
                    continue
                q1, median, q3 = quartiles([value for _, value in runs])
                spread = (q3 - q1) / median if median else 0.0
                columns.append(
                    f"n={len(runs)} median {median:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.1%}"
                )
            print(f"  {name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})")
            for path, column in zip(args.files, columns):
                print(f"    {os.path.basename(path):24s} {column}")
            for path, runs in zip(args.files[1:], series[1:]):
                if not series[0] or not runs:
                    continue
                verdict = judge(series[0], runs, metric["better"], metric["bound"])
                regressed = regressed or verdict == "REGRESSED"
                print(f"    -> {os.path.basename(path)}: {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
