"""JSONL metrics export: one file per run, next to the run journal.

Layout (one JSON object per line, append-only):

- ``{"event": "run", "run_id": ...}`` — first line, written once;
- ``{"event": "job", ...}`` — one line per terminal job outcome (executed,
  cached, replayed, retried, quarantined — every journaled job gets a
  row), carrying status, wall seconds, attempt count, worker id, queue
  wait, and the per-phase wall-time breakdown measured in the process
  that ran the job;
- ``{"event": "generate", ...}`` — one line per trace generation
  (compile, simulate, PGT2 write and/or Table 2's full run of one
  workload), carrying workload, cap, status, wall seconds, worker id,
  queue wait and the ``compile``/``full_run``/``simulate``/``encode``
  phase breakdown;
- ``{"event": "grid", "registry": <snapshot>}`` — one line per completed
  grid, carrying the merged registry snapshot (parent + every worker)
  for that grid.

The format is deliberately journal-like: append-only, schema-versioned,
tolerant of a torn final line, and keyed by the same run id as the journal
(``<run-id>.metrics.jsonl`` beside ``<run-id>.jsonl``), so ``repro
report-run <run-id>`` needs only the journal directory.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

#: Bump when the row layout changes; the report refuses unknown schemas.
METRICS_SCHEMA = 1


class MetricsExportError(Exception):
    """Raised when a metrics file cannot be read for reporting."""


def metrics_path(directory: str, run_id: str) -> str:
    """Canonical metrics file location for a run."""
    return os.path.join(directory, f"{run_id}.metrics.jsonl")


class MetricsWriter:
    """Append-only writer for one run's metrics file."""

    def __init__(self, path: str, run_id: str):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self.run_id = run_id
        self._handle = open(path, "a")
        if self._handle.tell() == 0:
            self._append({"event": "run", "run_id": run_id})

    def _append(self, row: dict) -> None:
        row = {"schema": METRICS_SCHEMA, **row}
        self._handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
        self._handle.flush()

    def write_job(self, row: dict) -> None:
        """One terminal job outcome (the caller builds the row — this
        module stays ignorant of engine types)."""
        self._append({"event": "job", **row})

    def write_generation(self, row: dict) -> None:
        """One trace generation (the caller builds the row)."""
        self._append({"event": "generate", **row})

    def write_grid(self, snapshot: dict, jobs: int) -> None:
        """One completed grid with its merged registry snapshot."""
        self._append({"event": "grid", "jobs": jobs, "registry": snapshot})

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def load_run(path: str) -> dict:
    """Parse a metrics file into ``{"run_id", "jobs": [rows],
    "generations": [rows], "grids": [rows]}``. A torn final line
    (interrupted run) is ignored; damage anywhere else raises
    :class:`MetricsExportError`."""
    if not os.path.exists(path):
        raise MetricsExportError(f"no metrics file at {path}")
    run_id: Optional[str] = None
    jobs: List[dict] = []
    generations: List[dict] = []
    grids: List[dict] = []
    with open(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                remainder = handle.read(1)
                if remainder:
                    raise MetricsExportError(f"corrupt metrics line {lineno} in {path}") from None
                break  # torn tail: the run was interrupted mid-write
            if row.get("schema") != METRICS_SCHEMA:
                raise MetricsExportError(
                    f"metrics file {path} has schema {row.get('schema')!r}, "
                    f"expected {METRICS_SCHEMA}"
                )
            event = row.get("event")
            if event == "run":
                run_id = row.get("run_id")
            elif event == "job":
                jobs.append(row)
            elif event == "generate":
                generations.append(row)
            elif event == "grid":
                grids.append(row)
    return {"run_id": run_id, "jobs": jobs, "generations": generations, "grids": grids}
