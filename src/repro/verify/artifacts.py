"""Replayable counterexample artifacts.

A failing (shrunk) case is persisted as two files under the artifact
directory (``results/verify/`` by default):

- ``<stem>.pgt2`` — the shrunk trace in the standard binary trace format
  (the extension names the embedded PGT2 format; any trace tool in the
  repository reads it);
- ``<stem>.json`` — a sidecar with the case identity (root index and
  mixed seed), the full canonical configuration, the trace content
  digest, and the failure messages observed.

``paragraph verify --replay <artifact>`` (either file works) reloads the
pair and re-runs the full in-process verification on it, so a
counterexample found in CI reproduces locally from the uploaded artifact
alone — no seed hunting.
"""

from __future__ import annotations

import json
import os
from typing import List, Tuple

from repro.core.config import AnalysisConfig
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import read_trace_file, write_trace_file

TRACE_SUFFIX = ".pgt2"
META_SUFFIX = ".json"

#: Bumped if the sidecar layout ever changes incompatibly.
ARTIFACT_FORMAT = 1


def persist_failure(
    directory: str,
    case,
    trace: ColumnarTrace,
    failures: List[str],
) -> Tuple[str, str]:
    """Write the (trace, sidecar) pair for a failing case; returns their
    paths (trace first)."""
    os.makedirs(directory, exist_ok=True)
    stem = f"seed{case.seed:016x}-{case.name}"
    trace_path = os.path.join(directory, stem + TRACE_SUFFIX)
    meta_path = os.path.join(directory, stem + META_SUFFIX)
    write_trace_file(trace_path, trace)
    meta = {
        "format": ARTIFACT_FORMAT,
        "case": case.name,
        "index": case.index,
        "seed": case.seed,
        "records": len(trace),
        "trace_file": os.path.basename(trace_path),
        "trace_digest": trace.digest(),
        "config": case.config.canonical(),
        "failures": list(failures),
    }
    with open(meta_path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return trace_path, meta_path


def load_artifact(path: str) -> Tuple[ColumnarTrace, AnalysisConfig, dict]:
    """Load a persisted counterexample from either half of the pair."""
    if path.endswith(TRACE_SUFFIX):
        meta_path = path[: -len(TRACE_SUFFIX)] + META_SUFFIX
    elif path.endswith(META_SUFFIX):
        meta_path = path
    else:
        raise ValueError(
            f"not a verify artifact (expected {TRACE_SUFFIX} or {META_SUFFIX}): {path}"
        )
    with open(meta_path) as handle:
        meta = json.load(handle)
    trace_path = os.path.join(os.path.dirname(meta_path) or ".", meta["trace_file"])
    trace = read_trace_file(trace_path)
    digest = meta.get("trace_digest")
    if digest and trace.digest() != digest:
        raise ValueError(
            f"artifact trace {trace_path} does not match the sidecar digest "
            f"({trace.digest()} != {digest})"
        )
    return trace, AnalysisConfig.from_canonical(meta["config"]), meta


def replay_artifact(path: str) -> List[str]:
    """Re-run the full verification on a persisted counterexample; returns
    the current failure list (empty = the bug no longer reproduces)."""
    from repro.verify.harness import verify_case

    trace, config, _ = load_artifact(path)
    return verify_case(trace, config)
