"""The differential + metamorphic verification harness.

For every generated case (see :mod:`repro.verify.generate`) the harness
runs a *plan* of analyses and checks two families of properties:

**Differential** — every implementation of the placement rule produces
the same result on the same (trace, config):

- ``forward`` — the production frontier loops (:mod:`repro.core.analyzer`
  routing into :mod:`repro.core.stream`);
- ``twopass`` — the reverse-annotated method (``peak_live_well`` masked);
- ``reference`` — the readable live-well implementation;
- ``oracle`` — explicit DDG + longest path (:mod:`repro.verify.oracle`),
  skipped for resource-constrained configs.

**Metamorphic** — the paper's own invariants, checked as relations between
analyses of the *same trace* under transformed configs:

1. *renaming-monotone*: adding renaming (none -> regs -> regs+stack ->
   all) never lengthens the critical path, and never changes the placed
   operation count;
2. *window-monotone*: the critical path is non-increasing in window size
   (1 -> 4 -> 16 -> unlimited);
3. *latency-scaling*: in the pure dataflow limit, scaling every latency
   uniformly by ``k`` scales the critical path exactly by ``k``;
4. *firewall-partition*: in the oracle DDG under conservative system
   calls, each system call's level strictly separates the levels of all
   operations before it (in trace order) from all operations after it;
5. *conservation*: placed operations, record counts, syscall/branch
   tallies, and profile mass all match a direct census of the trace.

Properties 1 and 2 are skipped under resource models: greedy first-fit
slot allocation is subject to scheduling anomalies (a *relaxed* input
schedule can first-fit to a *longer* one), so pointwise monotonicity is
not guaranteed there — only the differential checks apply.

Case analyses are expressed as :class:`~repro.engine.jobs.AnalysisJob`
grids over a :class:`GeneratedTraceStore` and executed through the
existing engine pool, so ``verify --jobs 8`` parallelizes cases exactly
like experiment grids (``--jobs 1``, the default, stays in-process — the
mode mutation smoke tests require, since monkeypatched analyzers don't
cross process boundaries). Failures are re-checked in-process, shrunk by
greedy record deletion, and persisted as replayable artifacts
(:mod:`repro.verify.artifacts`).
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import vkernels
from repro.core.config import CONSERVATIVE, OPTIMISTIC, AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.results import AnalysisResult
from repro.isa.opclasses import OpClass, PLACED_CLASSES
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import FLAG_CONDITIONAL
from repro.verify.compare import diff_results
from repro.verify.generate import VerifyCase, generate_case, shrink_trace
from repro.verify.oracle import KIND_SYSCALL, build_oracle_ddg

#: The implementation every other one is diffed against.
BASELINE_METHOD = "forward"

#: Implementations diffed against the baseline on the case config.
DIFF_METHODS = ("twopass", "reference")

#: The exact-vs-sharded metamorphic pair: ``stream`` re-analyzes the case
#: trace through chunked frontier streaming, ``sharded`` through the full
#: segment-summary + splice machinery (see :mod:`repro.core.stream`).
#: Both must match the baseline on *every* field — no masking — for every
#: configuration, eligible for splicing or not.
SHARD_CHECKS = (("shard:stream", "stream"), ("shard:stitch", "sharded"))

#: Window sizes of the window-monotonicity chain (None = unlimited).
WINDOW_CHAIN: Tuple[Optional[int], ...] = (1, 4, 16, None)

#: Uniform latency multipliers for the latency-scaling property.
SCALE_FACTORS = (2, 3)

_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)
_PLACED_INTS = frozenset(int(opclass) for opclass in PLACED_CLASSES)

_RENAME_STEPS = (
    (False, False, False),
    (True, False, False),
    (True, True, False),
    (True, True, True),
)


def _oracle_supported(config: AnalysisConfig) -> bool:
    return config.resources is None or config.resources.unconstrained


def _pure_dataflow(scale: int) -> AnalysisConfig:
    """The dataflow limit with every latency equal to ``scale`` (the only
    regime where latency scaling is exact — see DESIGN.md section 11)."""
    return AnalysisConfig(
        syscall_policy=OPTIMISTIC,
        latency=LatencyTable({opclass: scale for opclass in OpClass}),
        collect_profile=False,
    )


def case_plan(
    config: AnalysisConfig, focus: str = "all"
) -> List[Tuple[str, str, AnalysisConfig]]:
    """The analyses one case needs, as ``(tag, method, config)`` triples.

    ``focus="shard"`` restricts the plan to the baseline plus the
    exact-vs-sharded pair (the CI shard-equivalence gate runs many more
    cases than the full sweep could afford per case).

    ``focus="backend"`` diffs the vectorized numpy backend
    (:mod:`repro.core.vkernels`, pinned via the ``vkernel`` method)
    pairwise against the python ``forward`` frontier: on the case config
    with its window cleared (windowed configs never run vectorized), and
    across the rename steps of that config (the generated cases
    themselves vary syscall policy, memory disambiguation, latency
    tables, and lifetime collection, so the product grid is covered
    across a sweep). Only configs the backend accepts get ``vkernel``
    legs, so no pair compares python with itself; with NumPy absent
    ``vkernel`` falls back and the pairs degenerate to self-checks."""
    plan = [(f"diff:{BASELINE_METHOD}", BASELINE_METHOD, config)]
    if focus == "shard":
        plan.extend((tag, method, config) for tag, method in SHARD_CHECKS)
        return plan
    if focus == "backend":
        windowless = config.derive(window_size=None)
        if vkernels.eligible(windowless):
            legs = [("case", windowless)] + [
                (f"rename{step}", windowless.derive(
                    rename_registers=regs, rename_stack=stack, rename_data=data
                ))
                for step, (regs, stack, data) in enumerate(_RENAME_STEPS)
            ]
            for axis, derived in legs:
                plan.append((f"backend:{axis}:py", "forward", derived))
                plan.append((f"backend:{axis}:np", "vkernel", derived))
        return plan
    if focus != "all":
        raise ValueError(f"unknown verification focus {focus!r}")
    for tag, method in SHARD_CHECKS:
        plan.append((tag, method, config))
    for method in DIFF_METHODS:
        plan.append((f"diff:{method}", method, config))
    if _oracle_supported(config):
        plan.append(("diff:oracle", "oracle", config))
    if config.resources is None:
        for step, (regs, stack, data) in enumerate(_RENAME_STEPS):
            plan.append((
                f"rename:{step}",
                BASELINE_METHOD,
                config.derive(
                    rename_registers=regs, rename_stack=stack, rename_data=data
                ),
            ))
        for window in WINDOW_CHAIN:
            plan.append((
                f"window:{window}",
                BASELINE_METHOD,
                config.derive(window_size=window),
            ))
    plan.append(("scale:1", BASELINE_METHOD, _pure_dataflow(1)))
    for factor in SCALE_FACTORS:
        plan.append((f"scale:{factor}", BASELINE_METHOD, _pure_dataflow(factor)))
    return plan


# -- checks -----------------------------------------------------------------


def _census_failures(
    trace: ColumnarTrace, config: AnalysisConfig, result: AnalysisResult
) -> List[str]:
    """Conservation: result tallies match a direct census of the trace."""
    records = syscalls = branches = placed = 0
    conservative = config.syscall_policy == CONSERVATIVE
    for record in trace:
        records += 1
        opclass = record[0]
        if opclass == _SYSCALL:
            syscalls += 1
            if conservative:
                placed += 1
        elif opclass in _PLACED_INTS:
            placed += 1
        elif opclass == _BRANCH and record[3] & FLAG_CONDITIONAL:
            branches += 1
    failures = []
    for name, want in (
        ("records_processed", records),
        ("placed_operations", placed),
        ("syscalls", syscalls),
        ("branches", branches),
    ):
        got = getattr(result, name)
        if got != want:
            failures.append(
                f"property conservation: {name} = {got}, trace census expects {want}"
            )
    if result.profile is not None:
        if result.profile.total_operations != result.placed_operations:
            failures.append(
                "property conservation: profile mass "
                f"{result.profile.total_operations} != placed operations "
                f"{result.placed_operations}"
            )
        if result.profile.depth != result.critical_path_length:
            failures.append(
                f"property conservation: profile depth {result.profile.depth} "
                f"!= critical path {result.critical_path_length}"
            )
    return failures


def _firewall_partition_failures(
    trace: ColumnarTrace, config: AnalysisConfig
) -> List[str]:
    """Each conservative system call's level strictly separates every
    earlier placed operation's level from every later one's (checked on
    the oracle DDG, which keeps per-node levels)."""
    ddg = build_oracle_ddg(
        trace, config.derive(syscall_policy=CONSERVATIVE, resources=None)
    )
    placed = ddg.placed_records()  # (record_index, kind, level), trace order
    failures = []
    for position, (record_index, kind, level) in enumerate(placed):
        if kind != KIND_SYSCALL:
            continue
        before = max((lvl for _, _, lvl in placed[:position]), default=None)
        after = min((lvl for _, _, lvl in placed[position + 1:]), default=None)
        if before is not None and before >= level:
            failures.append(
                "property firewall-partition: operation at level "
                f"{before} before the syscall at record {record_index} is not "
                f"below its level {level}"
            )
        if after is not None and after <= level:
            failures.append(
                "property firewall-partition: operation at level "
                f"{after} after the syscall at record {record_index} is not "
                f"above its level {level}"
            )
    return failures


def evaluate_case(
    trace: ColumnarTrace,
    config: AnalysisConfig,
    results: Dict[str, AnalysisResult],
) -> List[str]:
    """All differential + metamorphic checks for one case, given the
    results of its :func:`case_plan` analyses. Tolerates missing entries
    (an analysis that crashed is reported separately by the caller)."""
    failures: List[str] = []
    baseline = results.get(f"diff:{BASELINE_METHOD}")
    if baseline is not None:
        for method in DIFF_METHODS + ("oracle",):
            result = results.get(f"diff:{method}")
            if result is not None:
                failures.extend(
                    diff_results(BASELINE_METHOD, baseline, method, result)
                )
        for tag, method in SHARD_CHECKS:
            result = results.get(tag)
            if result is not None:
                # Exact-vs-sharded invariant: unmasked field-for-field
                # equality (peak_live_well included) against the baseline.
                failures.extend(
                    diff_results(BASELINE_METHOD, baseline, method, result)
                )
        failures.extend(_census_failures(trace, config, baseline))

    for tag in sorted(results):
        # Cross-backend invariant: backend:<axis>:np is unmasked
        # field-for-field identical to its backend:<axis>:py twin (same
        # config, python frontier).
        if not tag.startswith("backend:") or not tag.endswith(":np"):
            continue
        py_tag = tag[:-3] + ":py"
        reference = results.get(py_tag)
        if reference is not None:
            failures.extend(diff_results(py_tag, reference, tag, results[tag]))

    rename_tags = [f"rename:{step}" for step in range(len(_RENAME_STEPS))]
    if all(tag in results for tag in rename_tags):
        paths = [results[tag].critical_path_length for tag in rename_tags]
        if any(paths[i + 1] > paths[i] for i in range(len(paths) - 1)):
            failures.append(
                f"property renaming-monotone: critical paths {paths} "
                "(none -> regs -> regs+stack -> all) increase with more renaming"
            )
        placed = {results[tag].placed_operations for tag in rename_tags}
        if len(placed) > 1:
            failures.append(
                f"property renaming-monotone: placed operations {sorted(placed)} "
                "change with renaming (renaming must only move levels)"
            )

    window_tags = [f"window:{window}" for window in WINDOW_CHAIN]
    if all(tag in results for tag in window_tags):
        paths = [results[tag].critical_path_length for tag in window_tags]
        if any(paths[i + 1] > paths[i] for i in range(len(paths) - 1)):
            failures.append(
                f"property window-monotone: critical paths {paths} for windows "
                f"{WINDOW_CHAIN} increase with window size"
            )

    if "scale:1" in results:
        unit_path = results["scale:1"].critical_path_length
        for factor in SCALE_FACTORS:
            scaled = results.get(f"scale:{factor}")
            if scaled is None:
                continue
            if scaled.critical_path_length != factor * unit_path:
                failures.append(
                    "property latency-scaling: critical path "
                    f"{scaled.critical_path_length} at uniform latency {factor} "
                    f"!= {factor} * {unit_path}"
                )

    if _oracle_supported(config):
        failures.extend(_firewall_partition_failures(trace, config))
    return failures


# -- in-process execution (shrinking, artifact replay, unit tests) ----------


def analyze_case(
    trace: ColumnarTrace,
    config: AnalysisConfig,
    plan: Optional[Sequence[Tuple[str, str, AnalysisConfig]]] = None,
) -> Tuple[Dict[str, AnalysisResult], List[str]]:
    """Run a case plan in-process; returns ``(results, errors)`` where
    errors are analyses that raised instead of returning."""
    from repro.engine.jobs import METHODS

    results: Dict[str, AnalysisResult] = {}
    errors: List[str] = []
    for tag, method, cfg in plan if plan is not None else case_plan(config):
        try:
            results[tag] = METHODS[method](trace, cfg)
        except Exception as error:  # noqa: BLE001 - a crash is a finding
            errors.append(f"{tag}: {type(error).__name__}: {error}")
    return results, errors


def verify_case(
    trace: ColumnarTrace, config: AnalysisConfig, focus: str = "all"
) -> List[str]:
    """Fully verify one (trace, config) in-process; empty list = pass."""
    results, errors = analyze_case(trace, config, plan=case_plan(config, focus))
    return errors + evaluate_case(trace, config, results)


# -- engine-driven fuzz run --------------------------------------------------


@dataclass
class CaseFailure:
    """One failing case after shrinking."""

    index: int
    seed: int
    name: str
    records: int
    failures: List[str]
    artifacts: Tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [
            f"case {self.name} (seed {self.seed:#018x}, "
            f"{self.records} records after shrink):"
        ]
        lines.extend(f"  {failure}" for failure in self.failures)
        if self.artifacts:
            lines.append(f"  artifact: {self.artifacts[0]}")
        return "\n".join(lines)


@dataclass
class VerifySummary:
    """Outcome of one :func:`run_verification` sweep."""

    seed: int
    cases: int
    evaluated: int
    analyses: int
    failures: List[CaseFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} cases)"
        lines = [
            f"verify: {status} — {self.evaluated}/{self.cases} cases, "
            f"{self.analyses} analyses, seed {self.seed}"
        ]
        lines.extend(failure.describe() for failure in self.failures)
        return "\n".join(lines)


class GeneratedTraceStore:
    """A :class:`~repro.harness.runner.TraceStore` over generated case
    traces, keyed by case name — no workload suite behind it.

    Wraps the real store's memory cache and disk spill, so the
    engine pool's worker processes (which only ever see trace file paths
    and the parent's decoded traces, never workload names) work unchanged.
    """

    def __init__(self, directory: Optional[str] = None):
        # Composition, not subclassing: reuse the caching machinery but
        # refuse to fall back to the workload suite for unknown names.
        from repro.harness.runner import TraceStore

        self._base = TraceStore(directory)
        self._names: Dict[str, int] = {}

    @property
    def directory(self):
        return self._base.directory

    def persist_to(self, directory: str) -> None:
        self._base.persist_to(directory)

    def add(self, name: str, trace: ColumnarTrace) -> int:
        """Register a generated trace; returns the cap (= record count)
        jobs against it must use."""
        cap = max(1, len(trace))
        self._base._memory[(name, cap, False)] = trace
        self._names[name] = cap
        return cap

    def _require(self, name: str, cap: int, optimize: bool) -> ColumnarTrace:
        if optimize or self._names.get(name) != cap:
            raise KeyError(
                f"unknown generated trace {name!r} at cap {cap} "
                f"(optimize={optimize})"
            )
        return self._base._memory[(name, cap, False)]

    def trace(self, workload, cap: int, optimize: bool = False) -> ColumnarTrace:
        name = workload if isinstance(workload, str) else workload.name
        return self._require(name, cap, optimize)

    def ensure_on_disk(self, workload, cap: int, optimize: bool = False):
        name = workload if isinstance(workload, str) else workload.name
        trace = self._require(name, cap, optimize)
        if not self.directory:
            raise ValueError("ensure_on_disk requires a disk-backed store")
        from repro.trace.io import TraceFormatError, read_trace_digest, write_trace_file

        path = self._base._path(name, cap, optimize)
        digest = trace.digest()
        on_disk = None
        if path and os.path.exists(path):
            try:
                on_disk = read_trace_digest(path)
            except TraceFormatError:
                on_disk = None
        if on_disk != digest:
            write_trace_file(path, trace)
        return path, digest

    def invalidate(self, workload, cap: int, optimize: bool = False) -> bool:
        return self._base.invalidate(workload, cap, optimize)


def run_verification(
    seed: int = 0,
    cases: int = 200,
    shrink: bool = True,
    artifact_dir: Optional[str] = None,
    jobs: int = 1,
    engine=None,
    max_failures: int = 20,
    progress: Optional[Callable[[int, int], None]] = None,
    focus: str = "all",
) -> VerifySummary:
    """Fuzz ``cases`` generated cases under ``seed``.

    Analyses fan out through the engine pool (``jobs`` workers; 1 =
    in-process). Failing cases are re-verified in-process, shrunk by
    greedy deletion when ``shrink`` is set, and persisted under
    ``artifact_dir`` when given. Evaluation stops after ``max_failures``
    failing cases. ``focus`` narrows the per-case plan (``"shard"`` runs
    just the exact-vs-sharded invariant, see :func:`case_plan`).
    """
    if engine is None:
        from repro.engine.api import ExperimentEngine

        engine = ExperimentEngine(store=GeneratedTraceStore(), jobs=jobs)
    store = engine.store
    if not hasattr(store, "add"):
        raise ValueError("run_verification needs an engine with a GeneratedTraceStore")

    from repro.engine.jobs import AnalysisJob

    all_cases = [generate_case(seed, index) for index in range(cases)]
    grid: List[AnalysisJob] = []
    index_map: List[Tuple[int, str]] = []
    for case in all_cases:
        cap = store.add(case.name, case.trace)
        for tag, method, cfg in case_plan(case.config, focus):
            grid.append(AnalysisJob(workload=case.name, cap=cap, config=cfg, method=method))
            index_map.append((case.index, tag))

    outcomes = engine.run_grid(grid)
    results_by_case: Dict[int, Dict[str, AnalysisResult]] = defaultdict(dict)
    errors_by_case: Dict[int, List[str]] = defaultdict(list)
    for outcome, (case_index, tag) in zip(outcomes, index_map):
        if outcome.ok:
            results_by_case[case_index][tag] = outcome.result
        else:
            errors_by_case[case_index].append(f"{tag}: analysis failed: {outcome.error}")

    failures: List[CaseFailure] = []
    evaluated = 0
    for case in all_cases:
        case_failures = errors_by_case.get(case.index, [])
        if not case_failures:
            case_failures = evaluate_case(
                case.trace, case.config, results_by_case.get(case.index, {})
            )
        evaluated += 1
        if progress is not None:
            progress(evaluated, cases)
        if not case_failures:
            continue
        trace = case.trace
        if shrink:
            shrunk = shrink_trace(
                trace,
                lambda candidate: bool(verify_case(candidate, case.config, focus)),
            )
            refreshed = verify_case(shrunk, case.config, focus)
            if refreshed:  # guard: keep the original if shrinking lost the bug
                trace, case_failures = shrunk, refreshed
        artifacts: Tuple[str, ...] = ()
        if artifact_dir:
            from repro.verify.artifacts import persist_failure

            artifacts = persist_failure(artifact_dir, case, trace, case_failures)
        failures.append(
            CaseFailure(
                index=case.index,
                seed=case.seed,
                name=case.name,
                records=len(trace),
                failures=case_failures,
                artifacts=artifacts,
            )
        )
        if len(failures) >= max_failures:
            break
    return VerifySummary(
        seed=seed,
        cases=cases,
        evaluated=evaluated,
        analyses=len(grid),
        failures=failures,
    )


__all__ = [
    "BASELINE_METHOD",
    "CaseFailure",
    "DIFF_METHODS",
    "SHARD_CHECKS",
    "GeneratedTraceStore",
    "VerifyCase",
    "VerifySummary",
    "analyze_case",
    "case_plan",
    "evaluate_case",
    "run_verification",
    "verify_case",
]
