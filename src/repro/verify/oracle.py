"""Reference oracle: explicit DDG edges + topological longest path.

The production analyzers (the frontier loops, the vectorized backend,
two-pass) all compute placement levels *incrementally* with a live well:
each record's level is final the moment it is scanned, using running
``floor`` / ``deepest`` scalars. This oracle deliberately does neither.
It makes two passes:

1. **Edge construction** — a forward scan that records, for every dynamic
   operation, the complete set of level constraints the paper defines
   (section 2.2), as explicit weighted edges. No level is computed here;
   the scan tracks only *identities* (who produced the value at a
   location, who has consumed it, which nodes have become firewall
   sources), never levels. Where the incremental analyzers keep one scalar
   (``floor``, ``deepest``, ``mem_store_level``), the oracle keeps the
   whole set of nodes behind that scalar and emits one edge per member —
   obviously correct, quadratic, and fine for the short traces the
   verification harness generates.
2. **Longest path** — node ids are assigned in scan order and every edge
   points forward, so scan order is a topological order; one relaxation
   sweep computes each node's level as the longest constraint path ending
   at it.

Constraint edges (``u -> v`` with weight ``w`` meaning
``level(v) >= level(u) + w``; ``top`` is the latency of ``v``):

=========  ==========  ====================================================
Kind       Weight      Emitted when
=========  ==========  ====================================================
raw        top         ``v`` reads the value ``u`` created
war        1           ``v`` overwrites a value ``u`` consumed and ``v``'s
                       destination class is not renamed
fence      1           ``v`` is a conservative system call; one edge from
                       *every* previously placed node (the incremental
                       analyzers compress this to ``deepest + 1``)
firewall   top         ``u`` is any firewall source so far: a conservative
                       system call, a window-displaced node, or a
                       mispredicted-branch pseudo node (the incremental
                       analyzers compress this to ``floor - 1 + top``)
mem        top / 1     conservative disambiguation: a load behind every
                       prior store (``top``), a store behind every prior
                       memory access (``1``)
=========  ==========  ====================================================

Pseudo nodes (never placed, never counted):

- **preexist** — materialized at a location's first touch; its level
  resolves to ``floor - 1`` *at touch time* via weight-0 firewall edges,
  reproducing the frozen-at-first-touch semantics of the live well.
- **branch** — a mispredicted conditional branch; its level resolves to
  ``resolve - 1`` (raw/firewall edges weighted ``top(BRANCH) - 1``), after
  which it acts as an ordinary firewall source, reproducing
  ``raise_to(resolve)``.

Unsupported: resource models (greedy first-fit slot allocation is a
machine throttle, not a dependence — it has no longest-path form). The
harness skips the oracle for resource-constrained configurations and
cross-checks the implementations against each other instead.

Inspection: this is the repository's one explicit DDG, so it also serves
the paper's worked figures, the examples and
:func:`repro.core.cpath.summarize_critical_path`. Every edge carries its
kind; :meth:`OracleDDG.edges` yields ``(u_record, v_record, kind)`` in
trace order (pre-exist pseudo nodes never appear; a mispredicted branch
appears at its own record index), and :meth:`OracleDDG.critical_path`
walks one longest chain back from the deepest placed operation as
``(record_index, kind_of_edge_into_it)`` steps. ``max_records`` is the
only size guard: raise it to inspect longer traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.branch import make_predictor
from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.profile import ParallelismProfile
from repro.core.results import AnalysisResult
from repro.isa.locations import is_register_location, memory_address
from repro.isa.opclasses import OpClass, PLACED_CLASSES
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

#: Safety cap: the oracle is quadratic by design.
DEFAULT_MAX_RECORDS = 5_000

#: Node kinds. Only ``op`` and ``syscall`` nodes are placed operations.
KIND_OP = "op"
KIND_SYSCALL = "syscall"
KIND_PREEXIST = "preexist"
KIND_BRANCH = "branch"

_PLACED_KINDS = (KIND_OP, KIND_SYSCALL)

#: Edge kinds (see the module docstring's table).
EDGE_RAW = "raw"
EDGE_WAR = "war"
EDGE_FENCE = "fence"
EDGE_FIREWALL = "firewall"
EDGE_MEM = "mem"


@dataclass
class _Node:
    """One oracle DDG node: a base constant plus in-edges."""

    kind: str
    base: int
    record_index: int
    #: (source, weight, edge kind), in emission order
    edges: List[Tuple[int, int, str]] = field(default_factory=list)


class OracleDDG:
    """The materialized constraint graph plus its longest-path levels."""

    def __init__(self, nodes: List[_Node], config: AnalysisConfig, records: int,
                 syscalls: int, branches: int, mispredictions: int):
        self.nodes = nodes
        self.config = config
        self.records_processed = records
        self.syscalls = syscalls
        self.branches = branches
        self.mispredictions = mispredictions
        self.levels = self._longest_path()

    def _longest_path(self) -> List[int]:
        """One relaxation sweep in node order (a topological order: every
        edge points from a lower node id to a higher one)."""
        levels: List[int] = []
        for node in self.nodes:
            level = node.base
            for source, weight, _ in node.edges:
                candidate = levels[source] + weight
                if candidate > level:
                    level = candidate
            levels.append(level)
        return levels

    # -- summaries ---------------------------------------------------------

    def placed_levels(self) -> List[int]:
        """Levels of placed operations, in trace order."""
        return [
            level
            for node, level in zip(self.nodes, self.levels)
            if node.kind in _PLACED_KINDS
        ]

    def placed_records(self) -> List[Tuple[int, str, int]]:
        """``(record_index, kind, level)`` per placed operation, in trace
        order — the form the metamorphic firewall-partition check reads."""
        return [
            (node.record_index, node.kind, level)
            for node, level in zip(self.nodes, self.levels)
            if node.kind in _PLACED_KINDS
        ]

    @property
    def placed_operations(self) -> int:
        return sum(1 for node in self.nodes if node.kind in _PLACED_KINDS)

    @property
    def critical_path_length(self) -> int:
        placed = self.placed_levels()
        return max(placed) + 1 if placed else 0

    def profile(self) -> ParallelismProfile:
        return ParallelismProfile(dict(Counter(self.placed_levels())))

    # -- inspection --------------------------------------------------------

    def edges(self) -> Iterator[Tuple[int, int, str]]:
        """Every constraint edge as ``(u_record, v_record, kind)``, in
        trace order of ``v``. Pre-exist pseudo nodes are never exposed. A
        pair of records can carry more than one kind (e.g. ``raw`` and
        ``firewall`` from a syscall that produced the value read)."""
        nodes = self.nodes
        for node in nodes:
            if node.kind == KIND_PREEXIST:
                continue
            for source, _, kind in node.edges:
                origin = nodes[source]
                if origin.kind != KIND_PREEXIST:
                    yield origin.record_index, node.record_index, kind

    def critical_path(self) -> List[Tuple[int, str]]:
        """One longest dependence chain as ``(record_index, kind)`` steps,
        ``kind`` naming the edge into that record: ``"source"`` first,
        the deepest placed operation last.

        The walk starts at the earliest placed node on the deepest level
        and follows, at each node, the first in-edge (in emission order)
        whose constraint is binding. A binding edge out of a pre-exist
        pseudo node always has a binding twin from a real node (the
        firewall sources that froze the pseudo node's level, or none when
        the node sits at its base level), so the walk never needs one.
        """
        nodes = self.nodes
        levels = self.levels
        placed = [
            index for index, node in enumerate(nodes) if node.kind in _PLACED_KINDS
        ]
        if not placed:
            return []
        current = max(placed, key=lambda index: (levels[index], -index))
        steps: List[Tuple[int, str]] = []
        while True:
            node = nodes[current]
            level = levels[current]
            for source, weight, kind in node.edges:
                if (
                    levels[source] + weight == level
                    and nodes[source].kind != KIND_PREEXIST
                ):
                    steps.append((node.record_index, kind))
                    current = source
                    break
            else:
                steps.append((node.record_index, "source"))
                break
        steps.reverse()
        return steps

    def to_result(self) -> AnalysisResult:
        """Summarize as an :class:`AnalysisResult`. Fields the oracle does
        not define (firewall tally, live-well peak, lifetimes) carry the
        ``-1`` / ``None`` sentinels; the harness masks them out."""
        return AnalysisResult(
            records_processed=self.records_processed,
            placed_operations=self.placed_operations,
            critical_path_length=self.critical_path_length,
            profile=self.profile() if self.config.collect_profile else None,
            syscalls=self.syscalls,
            firewalls=-1,
            branches=self.branches,
            mispredictions=self.mispredictions,
            peak_live_well=-1,
            lifetimes=None,
            config=self.config,
        )


class _Value:
    """Identity of the value currently live at a location: who produced it
    and who has consumed it. No levels."""

    __slots__ = ("producer", "consumers")

    def __init__(self, producer: int):
        self.producer = producer
        self.consumers: List[int] = []


def build_oracle_ddg(
    trace: Iterable,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> OracleDDG:
    """Build the oracle constraint graph for ``trace`` under ``config``.

    Raises:
        ValueError: for resource-constrained configs (unsupported, see the
            module docstring) or traces longer than ``max_records``.
    """
    if config is None:
        config = AnalysisConfig()
    if config.resources is not None and not config.resources.unconstrained:
        raise ValueError(
            "the verification oracle does not support resource models "
            "(greedy slot allocation has no longest-path form)"
        )
    if segments is None:
        segments = getattr(trace, "segments", DEFAULT_SEGMENTS)

    latency = config.latency.steps
    conservative = config.syscall_policy == CONSERVATIVE
    conservative_mem = config.memory_disambiguation == CONSERVATIVE_DISAMBIGUATION
    predictor = make_predictor(config.branch_predictor) if config.branch_predictor else None
    stack_floor = segments.stack_floor
    branch_top = latency[OpClass.BRANCH]

    def renamed(location: int) -> bool:
        if is_register_location(location):
            return config.rename_registers
        if memory_address(location) >= stack_floor:
            return config.rename_stack
        return config.rename_data

    nodes: List[_Node] = []

    def add_node(kind: str, base: int, record_index: int) -> int:
        nodes.append(_Node(kind, base, record_index))
        return len(nodes) - 1

    values: Dict[int, _Value] = {}
    placed_so_far: List[int] = []  # every placed node (fence edge sources)
    floor_sources: List[int] = []  # syscalls, displaced nodes, branch pseudos
    prior_stores: List[int] = []  # conservative disambiguation
    prior_mem_accesses: List[int] = []

    window = config.window_size
    ring: List[Optional[int]] = [None] * window if window else []
    ring_pos = 0

    records = 0
    syscalls = 0
    branches = 0
    mispredictions = 0

    def touch(location: int) -> _Value:
        """The live value at ``location``; first touches materialize a
        pre-existing value frozen at the floor of the touching record."""
        value = values.get(location)
        if value is None:
            pseudo = add_node(KIND_PREEXIST, -1, -1)
            # level(pseudo) = floor - 1 at touch time: weight-0 edges from
            # every firewall source active right now.
            nodes[pseudo].edges.extend(
                (source, 0, EDGE_FIREWALL) for source in floor_sources
            )
            value = _Value(pseudo)
            values[location] = value
        return value

    for index, record in enumerate(trace):
        records += 1
        if records > max_records:
            raise ValueError(
                f"trace exceeds max_records={max_records}; the oracle is "
                "quadratic — analyze long traces with the streaming analyzer"
            )
        if ring:
            displaced = ring[ring_pos]
            if displaced is not None:
                floor_sources.append(displaced)
        opclass = OpClass(record[0])

        if opclass not in PLACED_CLASSES:
            if opclass is OpClass.BRANCH and record[3] & FLAG_CONDITIONAL:
                branches += 1
                if predictor is not None:
                    pc, actual = record[4], bool(record[3] & FLAG_TAKEN)
                    predicted = predictor.predict(pc)
                    predictor.update(pc, actual)
                    if predicted != actual:
                        mispredictions += 1
                        # Pseudo node at level resolve - 1, so that the
                        # uniform "floor = source level + 1" rule yields
                        # floor = resolve for nodes placed after it.
                        pseudo = add_node(KIND_BRANCH, branch_top - 2, index)
                        edges = nodes[pseudo].edges
                        for src in record[1]:
                            value = values.get(src)  # peek: no materialization
                            if value is not None:
                                edges.append((value.producer, branch_top - 1, EDGE_RAW))
                        edges.extend(
                            (source, branch_top - 1, EDGE_FIREWALL)
                            for source in floor_sources
                        )
                        floor_sources.append(pseudo)
            if ring:
                ring[ring_pos] = None
                ring_pos = (ring_pos + 1) % window
            continue

        if opclass is OpClass.SYSCALL:
            syscalls += 1
            if not conservative:
                if ring:
                    ring[ring_pos] = None
                    ring_pos = (ring_pos + 1) % window
                continue
            top = latency[OpClass.SYSCALL]
            node = add_node(KIND_SYSCALL, max(0, top - 1), index)
            edges = nodes[node].edges
            # deepest + 1
            edges.extend((prior, 1, EDGE_FENCE) for prior in placed_so_far)
            edges.extend((source, top, EDGE_FIREWALL) for source in floor_sources)
            placed_so_far.append(node)
            floor_sources.append(node)
            for dest in record[2]:
                values[dest] = _Value(node)
            if ring:
                ring[ring_pos] = node
                ring_pos = (ring_pos + 1) % window
            continue

        top = latency[opclass]
        srcs, dests = record[1], record[2]
        # Materialize first touches BEFORE allocating this node: pre-exist
        # pseudo nodes must get lower ids (scan order == topological order).
        producers = [touch(src).producer for src in srcs]
        node = add_node(KIND_OP, top - 1, index)
        edges = nodes[node].edges
        for producer in producers:
            edges.append((producer, top, EDGE_RAW))
        for dest in dests:
            if renamed(dest):
                continue
            old = values.get(dest)
            if old is not None:
                edges.extend((consumer, 1, EDGE_WAR) for consumer in old.consumers)
        if conservative_mem:
            if opclass is OpClass.LOAD:
                edges.extend((store, top, EDGE_MEM) for store in prior_stores)
            elif opclass is OpClass.STORE:
                edges.extend((access, 1, EDGE_MEM) for access in prior_mem_accesses)
        edges.extend((source, top, EDGE_FIREWALL) for source in floor_sources)

        placed_so_far.append(node)
        if conservative_mem and opclass in (OpClass.LOAD, OpClass.STORE):
            prior_mem_accesses.append(node)
            if opclass is OpClass.STORE:
                prior_stores.append(node)
        for src in srcs:
            values[src].consumers.append(node)
        for dest in dests:
            values[dest] = _Value(node)
        if ring:
            ring[ring_pos] = node
            ring_pos = (ring_pos + 1) % window

    return OracleDDG(nodes, config, records, syscalls, branches, mispredictions)


def oracle_analyze(
    trace: Iterable,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """Analyze ``trace`` with the oracle; drop-in signature for
    :data:`repro.engine.jobs.METHODS` (sentinel fields per
    :meth:`OracleDDG.to_result`)."""
    return build_oracle_ddg(trace, config, segments).to_result()
