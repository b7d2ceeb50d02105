"""Per-run metrics reports: phase shares, slowest jobs, cache ratios.

Renders the ``repro report-run <run-id>`` breakdown from a run's metrics
JSONL (see :mod:`repro.obs.export`): where the wall time went per phase,
which jobs dominated it, how the caches performed, and how often retries
were needed. Pure formatting over the exported rows — no engine imports,
so the report can be generated long after (and far away from) the run.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.obs.export import MetricsExportError, load_run, metrics_path
from repro.obs.metrics import MetricsRegistry

#: Phase display order (anything unknown renders after these).
_PHASE_ORDER = ("queue_wait", "setup", "trace_load", "kernel", "serialize")


def merged_registry(run: dict) -> MetricsRegistry:
    """One registry holding the sum of every grid snapshot in the run."""
    registry = MetricsRegistry()
    for grid in run["grids"]:
        registry.merge(grid.get("registry"))
    return registry


def _phase_totals(rows: List[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for row in rows:
        wait = row.get("queue_wait") or 0.0
        if wait:
            totals["queue_wait"] = totals.get("queue_wait", 0.0) + wait
        for name, seconds in (row.get("phases") or {}).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def _ordered_phases(totals: Dict[str, float]) -> List[Tuple[str, float]]:
    known = [(name, totals[name]) for name in _PHASE_ORDER if name in totals]
    extra = sorted(
        (item for item in totals.items() if item[0] not in _PHASE_ORDER),
        key=lambda item: -item[1],
    )
    return known + extra


def _status(row: dict) -> str:
    if row.get("status"):
        return row["status"]
    return "ok" if row.get("ok") else "failed"


def _counter(registry: MetricsRegistry, name: str) -> float:
    return registry.counter(name).value


def _ratio_line(label: str, hits: float, misses: float) -> Optional[str]:
    lookups = hits + misses
    if not lookups:
        return None
    return (
        f"  {label:<14} {int(hits)} hit / {int(lookups)} lookups "
        f"({100.0 * hits / lookups:.1f}%)"
    )


def render_run_report(run: dict, top: int = 10) -> str:
    """The full per-run breakdown as printable text."""
    rows = run["jobs"]
    lines: List[str] = []
    executed = [r for r in rows if _status(r) in ("ok", "failed")]
    cached = sum(1 for r in rows if _status(r) == "cached")
    replayed = sum(1 for r in rows if _status(r) == "replayed")
    failed = sum(1 for r in rows if _status(r) == "failed")
    quarantined = sum(1 for r in rows if "quarantined" in (r.get("error") or ""))
    wall = sum(r.get("seconds") or 0.0 for r in rows)
    lines.append(f"run {run.get('run_id') or '<unknown>'}")
    lines.append(
        f"  {len(rows)} jobs: {len(rows) - failed} ok, {failed} failed "
        f"({quarantined} quarantined), {cached} cached, {replayed} replayed"
    )
    lines.append(f"  {wall:.2f}s total job wall time across {len(run['grids'])} grid(s)")

    totals = _phase_totals(rows)
    phase_sum = sum(totals.values())
    if totals:
        lines.append("")
        lines.append("phase time shares")
        for name, seconds in _ordered_phases(totals):
            share = 100.0 * seconds / phase_sum if phase_sum else 0.0
            lines.append(f"  {name:<12} {seconds:9.3f}s  {share:5.1f}%")

    slowest = sorted(executed, key=lambda r: -(r.get("seconds") or 0.0))[:top]
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest jobs")
        for rank, row in enumerate(slowest, start=1):
            tag = _status(row)
            attempts = row.get("attempts") or 1
            extra = f" x{attempts}" if attempts > 1 else ""
            worker = row.get("worker")
            where = f" w{worker}" if worker is not None else ""
            lines.append(
                f"  {rank:2d}. {row.get('seconds') or 0.0:8.3f}s  "
                f"{row.get('describe') or row.get('job')}  [{tag}{extra}{where}]"
            )

    generations = run.get("generations") or []
    if generations:
        gen_wall = sum(r.get("seconds") or 0.0 for r in generations)
        gen_failed = sum(1 for r in generations if not r.get("ok"))
        failed_note = f", {gen_failed} failed" if gen_failed else ""
        lines.append("")
        lines.append(f"trace generation: {len(generations)} task(s), {gen_wall:.2f}s{failed_note}")
        gen_totals: Dict[str, float] = {}
        for row in generations:
            for name, seconds in (row.get("phases") or {}).items():
                gen_totals[name] = gen_totals.get(name, 0.0) + seconds
        if gen_totals:
            shares = sorted(gen_totals.items(), key=lambda item: -item[1])
            lines.append("  phases: " + ", ".join(f"{name} {sec:.3f}s" for name, sec in shares))
        for row in sorted(generations, key=lambda r: -(r.get("seconds") or 0.0)):
            what = []
            if row.get("cap") is not None:
                what.append(f"cap {row['cap']}" + (" opt" if row.get("optimize") else ""))
            if row.get("full_run"):
                what.append("full run")
            worker = row.get("worker")
            where = f" w{worker}" if worker is not None else ""
            row_phases = (row.get("phases") or {}).items()
            phases = " ".join(f"{name}={sec:.3f}" for name, sec in row_phases)
            status = "" if row.get("ok") else "  FAILED"
            lines.append(
                f"  {row.get('seconds') or 0.0:8.3f}s  {row.get('workload')} "
                f"({', '.join(what)}){where}  {phases}{status}"
            )

    attempts_hist: Dict[int, int] = {}
    for row in rows:
        n = int(row.get("attempts") or 1)
        attempts_hist[n] = attempts_hist.get(n, 0) + 1
    if attempts_hist and (len(attempts_hist) > 1 or 1 not in attempts_hist):
        lines.append("")
        lines.append("retry histogram (attempts per job)")
        for n in sorted(attempts_hist):
            lines.append(f"  {n} attempt(s): {attempts_hist[n]} job(s)")

    registry = merged_registry(run)
    cache_lines = [
        _ratio_line(
            "result cache",
            _counter(registry, "result_cache.hit"),
            _counter(registry, "result_cache.miss"),
        ),
        _ratio_line(
            "trace store",
            _counter(registry, "trace_store.memory_hit")
            + _counter(registry, "trace_store.disk_hit"),
            _counter(registry, "trace_store.generate"),
        ),
    ]
    cache_lines = [line for line in cache_lines if line]
    if cache_lines:
        lines.append("")
        lines.append("cache ratios")
        lines.extend(cache_lines)
        quarantined_entries = _counter(registry, "result_cache.quarantined")
        if quarantined_entries:
            lines.append(f"  {int(quarantined_entries)} corrupt cache entrie(s) quarantined")

    pool_bits = []
    peak = registry.gauge("pool.workers.live").value
    if peak:
        pool_bits.append(f"peak {int(peak)} live worker(s)")
    respawns = _counter(registry, "pool.respawns")
    if respawns:
        pool_bits.append(f"{int(respawns)} respawn(s)")
    retries = _counter(registry, "retry.scheduled")
    if retries:
        pool_bits.append(f"{int(retries)} retry(ies) scheduled")
    quarantines = _counter(registry, "jobs.quarantined")
    if quarantines:
        pool_bits.append(f"{int(quarantines)} job(s) quarantined")
    if pool_bits:
        lines.append("")
        lines.append("pool health")
        lines.append("  " + ", ".join(pool_bits))

    return "\n".join(lines)


def resolve_metrics_file(run_id: str, journal_dir: Optional[str] = None) -> str:
    """Locate the metrics file for ``run_id``: a direct path wins, else
    ``<journal_dir>/<run-id>.metrics.jsonl``."""
    if os.path.isfile(run_id):
        return run_id
    candidate = metrics_path(journal_dir or ".", run_id)
    if os.path.isfile(candidate):
        return candidate
    raise MetricsExportError(
        f"no metrics file for run {run_id!r} "
        f"(looked for {candidate}; pass --journal-dir or a direct path)"
    )


def report_run(run_id: str, journal_dir: Optional[str] = None, top: int = 10) -> str:
    """Load and render the report for one run id (or metrics file path)."""
    path = resolve_metrics_file(run_id, journal_dir)
    return render_run_report(load_run(path), top=top)
