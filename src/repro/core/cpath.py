"""Critical-path composition analysis.

Beyond the critical path *length*, it is often more actionable to know what
the critical path is *made of*: which operation classes, which dependence
kinds, and which static instructions sit on the longest chain. This module
summarizes one longest chain of an explicit DDG
(:func:`repro.verify.oracle.build_oracle_ddg`) — the tool we used while
tuning the workload suite, promoted to a public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.isa.opclasses import OpClass

if TYPE_CHECKING:  # annotation only: core never imports the verify harness
    from repro.verify.oracle import OracleDDG


@dataclass
class CriticalPathSummary:
    """What one longest dependence chain consists of."""

    length_nodes: int
    length_levels: int
    #: operation-class name -> nodes of that class on the path
    by_class: Dict[str, int] = field(default_factory=dict)
    #: dependence kind (raw/war/fence/firewall/mem/source) -> edges on the path
    by_edge_kind: Dict[str, int] = field(default_factory=dict)
    #: (source statement id, opclass name) -> occurrences, most frequent
    #: first (statement ids come from the MiniC compiler's .stmt markers;
    #: -1 for hand-written assembly)
    hot_statements: List[Tuple[int, str, int]] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report."""
        lines = [
            f"critical path: {self.length_nodes} operations over "
            f"{self.length_levels} levels",
            "by operation class: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.by_class.items())),
            "by dependence kind: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.by_edge_kind.items())),
        ]
        if self.hot_statements:
            lines.append("hottest source statements (stmt id, class, occurrences):")
            for stmt, name, count in self.hot_statements:
                lines.append(f"  stmt={stmt:<7d} {name:<8s} x{count}")
        return "\n".join(lines)


def summarize_critical_path(
    ddg: "OracleDDG", trace, top: int = 8
) -> CriticalPathSummary:
    """Summarize one longest chain of ``ddg`` against its source ``trace``.

    Args:
        ddg: an explicit DDG built from ``trace``.
        trace: the trace the DDG was built from (indexable by record index).
        top: how many hot static operations to report.
    """
    path = ddg.critical_path()
    summary = CriticalPathSummary(
        length_nodes=len(path),
        length_levels=ddg.critical_path_length,
    )
    static_counts: Dict[Tuple[int, str], int] = {}
    for index, kind in path:
        record = trace[index]
        name = OpClass(record[0]).name
        summary.by_class[name] = summary.by_class.get(name, 0) + 1
        stmt = record[4]
        key = (stmt, name)
        static_counts[key] = static_counts.get(key, 0) + 1
        summary.by_edge_kind[kind] = summary.by_edge_kind.get(kind, 0) + 1
    summary.hot_statements = [
        (stmt, name, count)
        for (stmt, name), count in sorted(
            static_counts.items(), key=lambda item: -item[1]
        )[:top]
    ]
    return summary
