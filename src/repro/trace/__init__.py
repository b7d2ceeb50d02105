"""Trace layer: record format, columnar traces, binary IO, statistics, synthesis."""

from repro.trace.columnar import ColumnarTrace
from repro.trace.io import read_trace_file, write_trace_file
from repro.trace.record import (
    FLAG_CONDITIONAL,
    FLAG_TAKEN,
    R_AUX,
    R_CLASS,
    R_DESTS,
    R_FLAGS,
    R_SRCS,
    TraceRecord,
    format_record,
    make_record,
)
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.synthetic import TraceBuilder, independent_ops, random_trace, serial_chain

__all__ = [
    "ColumnarTrace",
    "read_trace_file",
    "write_trace_file",
    "FLAG_CONDITIONAL",
    "FLAG_TAKEN",
    "R_AUX",
    "R_CLASS",
    "R_DESTS",
    "R_FLAGS",
    "R_SRCS",
    "TraceRecord",
    "format_record",
    "make_record",
    "DEFAULT_SEGMENTS",
    "SegmentMap",
    "TraceStats",
    "compute_stats",
    "TraceBuilder",
    "independent_ops",
    "random_trace",
    "serial_chain",
]
