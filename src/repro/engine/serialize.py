"""Exact JSON serialization of analysis results.

The engine moves :class:`~repro.core.results.AnalysisResult` values (and
the other payloads a job method may return: shard segment summaries and
the prior-work baseline results, each tagged with ``__kind__``) across
two boundaries — worker process -> parent, and result cache -> later runs —
and the determinism contract is *byte identity*: a grid run with ``--jobs 4``
or a warm cache must reproduce the serial path exactly. Every field is
therefore an int, bool, string, or structure of those (Python ints survive
JSON exactly at any magnitude), and histograms are encoded as sorted
``[key, count]`` pairs so the encoded form is canonical, not dict-order
dependent.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.baselines.average_only import AverageOnlyResult
from repro.baselines.kumar import StatementLevelResult
from repro.core.config import AnalysisConfig
from repro.core.lifetimes import LifetimeStats
from repro.core.profile import ParallelismProfile
from repro.core.results import AnalysisResult
from repro.core.stream import SegmentSummary

#: Type tag marking a serialized :class:`SegmentSummary` (shard pass-1
#: payload) apart from a plain analysis result.
SEGMENT_SUMMARY_KIND = "segment_summary"
#: Type tags of the prior-work baseline results (:mod:`repro.baselines`).
AVERAGE_ONLY_KIND = "average_only"
STATEMENT_LEVEL_KIND = "statement_level"

#: Every payload a job method returns (see
#: :data:`repro.engine.jobs.METHODS`); all but :class:`AnalysisResult`
#: encode with a ``__kind__`` tag.
JobResult = Union[AnalysisResult, SegmentSummary, AverageOnlyResult, StatementLevelResult]


def _histogram_to_pairs(histogram: Dict[int, int]) -> List[List[int]]:
    return [[int(key), int(count)] for key, count in sorted(histogram.items())]


def _histogram_from_pairs(pairs: List[List[int]]) -> Dict[int, int]:
    return {int(key): int(count) for key, count in pairs}


def profile_to_dict(profile: Optional[ParallelismProfile]) -> Optional[dict]:
    if profile is None:
        return None
    return {"counts": _histogram_to_pairs(profile.counts)}


def profile_from_dict(data: Optional[dict]) -> Optional[ParallelismProfile]:
    if data is None:
        return None
    return ParallelismProfile(_histogram_from_pairs(data["counts"]))


def lifetimes_to_dict(stats: Optional[LifetimeStats]) -> Optional[dict]:
    if stats is None:
        return None
    return {
        "lifetime_histogram": _histogram_to_pairs(stats.lifetime_histogram),
        "sharing_histogram": _histogram_to_pairs(stats.sharing_histogram),
        "values_created": stats.values_created,
        "total_uses": stats.total_uses,
    }


def lifetimes_from_dict(data: Optional[dict]) -> Optional[LifetimeStats]:
    if data is None:
        return None
    return LifetimeStats(
        lifetime_histogram=_histogram_from_pairs(data["lifetime_histogram"]),
        sharing_histogram=_histogram_from_pairs(data["sharing_histogram"]),
        values_created=data["values_created"],
        total_uses=data["total_uses"],
    )


def segment_summary_to_dict(summary: SegmentSummary) -> dict:
    """Encode a shard segment summary as canonical JSON-safe data (wells
    and profiles become sorted pairs, exactly like result histograms)."""
    if summary.generic:
        well = [
            [int(loc), entry[0], entry[1], entry[2], int(bool(entry[3]))]
            for loc, entry in sorted(summary.well.items())
        ]
    else:
        well = [[int(loc), int(level)] for loc, level in sorted(summary.well.items())]
    return {
        "__kind__": SEGMENT_SUMMARY_KIND,
        "count": summary.count,
        "prefix_count": summary.prefix_count,
        "generic": summary.generic,
        "floor": summary.floor,
        "deepest": summary.deepest,
        "placed": summary.placed,
        "syscalls": summary.syscalls,
        "firewalls": summary.firewalls,
        "branches": summary.branches,
        "well": well,
        "ring": list(summary.ring) if summary.ring is not None else None,
        "mem_store_level": summary.mem_store_level,
        "mem_deepest_access": summary.mem_deepest_access,
        "profile": (
            _histogram_to_pairs(summary.profile)
            if summary.profile is not None
            else None
        ),
    }


def segment_summary_from_dict(data: dict) -> SegmentSummary:
    """Inverse of :func:`segment_summary_to_dict`."""
    generic = bool(data["generic"])
    if generic:
        well = {
            int(row[0]): [int(row[1]), int(row[2]), int(row[3]), bool(row[4])]
            for row in data["well"]
        }
    else:
        well = {int(row[0]): int(row[1]) for row in data["well"]}
    ring = data["ring"]
    if ring is not None:
        ring = [None if level is None else int(level) for level in ring]
    profile = data["profile"]
    if profile is not None:
        profile = _histogram_from_pairs(profile)
    return SegmentSummary(
        count=int(data["count"]),
        prefix_count=int(data["prefix_count"]),
        generic=generic,
        floor=int(data["floor"]),
        deepest=int(data["deepest"]),
        placed=int(data["placed"]),
        syscalls=int(data["syscalls"]),
        firewalls=int(data["firewalls"]),
        branches=int(data["branches"]),
        well=well,
        ring=ring,
        mem_store_level=int(data["mem_store_level"]),
        mem_deepest_access=int(data["mem_deepest_access"]),
        profile=profile,
    )


def result_to_dict(result: JobResult) -> dict:
    """Encode a result (and the config that produced it) as JSON-safe data.

    Accepts every payload type the engine ships across its process and
    cache boundaries: a whole-trace :class:`AnalysisResult`, or — tagged
    with ``__kind__`` so the decoder can tell them apart — a shard job's
    :class:`SegmentSummary`, an :class:`AverageOnlyResult` or a
    :class:`StatementLevelResult`.
    """
    if isinstance(result, SegmentSummary):
        return segment_summary_to_dict(result)
    if isinstance(result, AverageOnlyResult):
        return {
            "__kind__": AVERAGE_ONLY_KIND,
            "placed_operations": result.placed_operations,
            "critical_path_length": result.critical_path_length,
        }
    if isinstance(result, StatementLevelResult):
        return {
            "__kind__": STATEMENT_LEVEL_KIND,
            "statements_placed": result.statements_placed,
            "instructions_placed": result.instructions_placed,
            "critical_path_length": result.critical_path_length,
            "profile": profile_to_dict(result.profile),
        }
    return {
        "records_processed": result.records_processed,
        "placed_operations": result.placed_operations,
        "critical_path_length": result.critical_path_length,
        "profile": profile_to_dict(result.profile),
        "syscalls": result.syscalls,
        "firewalls": result.firewalls,
        "branches": result.branches,
        "mispredictions": result.mispredictions,
        "peak_live_well": result.peak_live_well,
        "lifetimes": lifetimes_to_dict(result.lifetimes),
        "config": result.config.canonical(),
    }


def result_from_dict(data: dict) -> JobResult:
    """Inverse of :func:`result_to_dict` (type-dispatched on ``__kind__``)."""
    kind = data.get("__kind__")
    if kind == SEGMENT_SUMMARY_KIND:
        return segment_summary_from_dict(data)
    if kind == AVERAGE_ONLY_KIND:
        return AverageOnlyResult(
            placed_operations=data["placed_operations"],
            critical_path_length=data["critical_path_length"],
        )
    if kind == STATEMENT_LEVEL_KIND:
        return StatementLevelResult(
            statements_placed=data["statements_placed"],
            instructions_placed=data["instructions_placed"],
            critical_path_length=data["critical_path_length"],
            profile=profile_from_dict(data["profile"]),
        )
    return AnalysisResult(
        records_processed=data["records_processed"],
        placed_operations=data["placed_operations"],
        critical_path_length=data["critical_path_length"],
        profile=profile_from_dict(data["profile"]),
        syscalls=data["syscalls"],
        firewalls=data["firewalls"],
        branches=data["branches"],
        mispredictions=data["mispredictions"],
        peak_live_well=data["peak_live_well"],
        lifetimes=lifetimes_from_dict(data["lifetimes"]),
        config=AnalysisConfig.from_canonical(data["config"]),
    )


def result_to_bytes(result: JobResult) -> bytes:
    """Canonical byte encoding (the form the determinism tests compare)."""
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
