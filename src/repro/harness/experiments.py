"""Experiment definitions: one function per paper table/figure + ablations.

Every function takes a trace source — a
:class:`~repro.harness.runner.TraceStore` or a fully configured
:class:`~repro.engine.ExperimentEngine` — plus an instruction cap, and
returns an :class:`ExperimentOutput`. The registry :data:`EXPERIMENTS` maps
experiment ids (``table3``, ``fig8``, ...) to their functions; the benchmark
suite and the CLI both dispatch through it.

Analysis structure: each experiment builds its full (workload x config)
grid of :class:`~repro.engine.AnalysisJob` specs up front and submits the
batch through :meth:`ExperimentEngine.run_grid`, so the same code runs
serially under ``--jobs 1`` and fans out to worker processes under
``--jobs N`` — and hits the on-disk result cache either way. Jobs are
ordered workload-major, keeping each worker's small trace LRU hot. Only
Figure 7's jobs collect a parallelism profile; every other grid switches
it off, so the cache entries they store stay small.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Union

# The baselines run as engine job methods ("average_only", "statement");
# the names stay here as the module attributes the e2e benchmark's tracing
# hooks wrap.
from repro.baselines.average_only import average_parallelism  # noqa: F401
from repro.baselines.kumar import statement_parallelism  # noqa: F401
from repro.core.config import CONSERVATIVE, OPTIMISTIC, AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.resources import ResourceModel
from repro.core.results import measurement_error
from repro.engine import AnalysisJob, ExperimentEngine, JobFailedError
from repro.harness.paper_data import PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4
from repro.harness.runner import DEFAULT_CAP, TraceStore
from repro.harness.tables import Table
from repro.isa.opclasses import OpClass
from repro.trace.stats import compute_stats
from repro.workloads.suite import all_workloads

#: What experiment functions accept as their trace source.
TraceSource = Union[TraceStore, ExperimentEngine]


def as_engine(source: Optional[TraceSource]) -> ExperimentEngine:
    """Coerce a trace source to an engine (a bare store gets the serial,
    uncached engine — the behavior the store alone used to provide)."""
    if source is None:
        return ExperimentEngine()
    if isinstance(source, ExperimentEngine):
        return source
    return ExperimentEngine(store=source)


@dataclass
class ExperimentOutput:
    """Tables plus optional named text figures (ASCII plots)."""

    tables: List[Table]
    figures: Dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        parts = [table.render() for table in self.tables]
        for name, text in self.figures.items():
            parts.append(f"--- {name} ---\n{text}")
        return "\n\n".join(parts)


def _grid_by_workload(
    engine: ExperimentEngine,
    cap: int,
    variants: List[Union[AnalysisConfig, Dict[str, object]]],
    profile: bool = False,
    outcomes: bool = False,
):
    """Run the (workload x variant) product grid strictly; returns
    ``(workloads, {workload name: [result per variant]})``.

    A variant is an :class:`AnalysisConfig`, or a dict of
    :class:`AnalysisJob` keyword arguments (``{"method": "twopass"}``,
    ``{"optimize": True}``) whose config defaults to ``AnalysisConfig()``.
    Every job gets ``collect_profile=profile``: only Figure 7 reads a
    parallelism profile, and a stored profile is most of a result-cache
    entry. ``outcomes=True`` returns the :class:`JobOutcome` per variant
    instead of its result (abl-twopass reads per-job timings)."""
    workloads = all_workloads()
    grid = []
    for workload in workloads:
        for variant in variants:
            kwargs = dict(variant) if isinstance(variant, dict) else {"config": variant}
            config = replace(kwargs.pop("config", AnalysisConfig()), collect_profile=profile)
            grid.append(AnalysisJob(workload.name, cap, config, **kwargs))
    done = engine.run_grid(grid)
    failures = [outcome for outcome in done if not outcome.ok]
    if failures:
        raise JobFailedError(failures)
    items = done if outcomes else [outcome.result for outcome in done]
    width = len(variants)
    by_workload = {
        workload.name: items[i * width : (i + 1) * width]
        for i, workload in enumerate(workloads)
    }
    return workloads, by_workload


# -- Table 1 -----------------------------------------------------------------


def table1_latencies(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Instruction class operation times (paper Table 1)."""
    paper = {
        OpClass.IALU: 1,
        OpClass.IMUL: 6,
        OpClass.IDIV: 12,
        OpClass.FADD: 6,
        OpClass.FMUL: 6,
        OpClass.FDIV: 12,
        OpClass.LOAD: 1,
        OpClass.STORE: 1,
        OpClass.SYSCALL: 1,
    }
    table = Table(
        "Table 1: Instruction Class Operation Times (DDG levels)",
        ["Operation class", "Steps (ours)", "Steps (paper)"],
    )
    ours = LatencyTable.default()
    for opclass, steps in paper.items():
        table.add_row(opclass.name, ours.steps[opclass], steps)
    table.notes = "Configured in repro.core.latency.LatencyTable.default()."
    return ExperimentOutput([table])


# -- Table 2 -----------------------------------------------------------------


def table2_suite(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Benchmark inventory (paper Table 2)."""
    engine = as_engine(source)
    table = Table(
        "Table 2: Workloads Analyzed",
        [
            "Workload",
            "Analog of",
            "Type",
            "Total instrs (full run)",
            "Instrs analyzed",
            "Syscall interval",
            "Branch %",
            "Paper total instrs",
        ],
    )
    workloads = all_workloads()
    engine.prepare([workload.name for workload in workloads], cap, full_run=True)
    for workload in workloads:
        trace = engine.trace(workload, cap)
        stats = compute_stats(trace)
        total = engine.store.full_run_length(workload)
        paper_total, _ = PAPER_TABLE2[workload.analog_of]
        table.add_row(
            workload.name,
            workload.analog_of,
            workload.category,
            total,
            len(trace),
            stats.syscall_interval,
            100.0 * stats.branches / max(stats.total, 1),
            paper_total,
        )
    table.notes = (
        "Analyzed instructions are taken from the start of each trace, as in "
        "the paper (its cap was 100M; ours scales to pure-Python analysis)."
    )
    return ExperimentOutput([table])


# -- Table 3 -----------------------------------------------------------------


def table3_dataflow(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Dataflow limit under conservative vs optimistic syscalls (Table 3)."""
    engine = as_engine(source)
    table = Table(
        "Table 3: Dataflow Results (all renaming on, unlimited window)",
        [
            "Workload",
            "Syscalls",
            "Cons CP",
            "Cons AP",
            "Opt CP",
            "Opt AP",
            "Max error",
            "Paper cons AP",
            "Paper error",
        ],
    )
    configs = [
        AnalysisConfig.dataflow_limit(CONSERVATIVE),
        AnalysisConfig.dataflow_limit(OPTIMISTIC),
    ]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        conservative, optimistic = results[workload.name]
        paper = PAPER_TABLE3[workload.analog_of]
        table.add_row(
            workload.name,
            conservative.syscalls,
            conservative.critical_path_length,
            conservative.available_parallelism,
            optimistic.critical_path_length,
            optimistic.available_parallelism,
            measurement_error(conservative, optimistic),
            paper[2],
            paper[5],
        )
    table.notes = (
        "AP = placed operations / critical path length. The conservative "
        "assumption firewalls every system call; comparing the two columns "
        "bounds the measurement error, as in the paper."
    )
    return ExperimentOutput([table])


# -- Figure 7 ----------------------------------------------------------------


def fig7_profiles(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Parallelism profiles (paper Figure 7), as ASCII plots + burstiness."""
    engine = as_engine(source)
    table = Table(
        "Figure 7 summary: Parallelism Profile Statistics",
        [
            "Workload",
            "Levels",
            "Mean ops/level",
            "Peak ops/level",
            "Burstiness (CV)",
        ],
    )
    figures = {}
    configs = [AnalysisConfig.dataflow_limit(CONSERVATIVE)]
    workloads, results = _grid_by_workload(engine, cap, configs, profile=True)
    for workload in workloads:
        (result,) = results[workload.name]
        profile = result.profile
        table.add_row(
            workload.name,
            profile.depth,
            profile.average_parallelism,
            profile.max_width,
            profile.burstiness(),
        )
        figures[f"{workload.name} parallelism profile"] = profile.ascii_plot()
    table.notes = (
        "Conservative syscalls, full renaming, no window — the Figure 7 "
        "configuration. Burstiness is the coefficient of variation of "
        "per-level operation counts (the paper notes the profiles are bursty)."
    )
    return ExperimentOutput([table], figures)


# -- Table 4 -----------------------------------------------------------------

_RENAMING_CONFIGS = [
    ("No renaming", AnalysisConfig.no_renaming),
    ("Regs renamed", AnalysisConfig.registers_renamed),
    ("Regs/stack renamed", AnalysisConfig.registers_and_stack_renamed),
    ("Reg/mem renamed", AnalysisConfig),
]


def table4_renaming(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Available parallelism under the four renaming conditions (Table 4)."""
    engine = as_engine(source)
    table = Table(
        "Table 4: Available Parallelism under Different Renaming Conditions",
        ["Workload"]
        + [name for name, _ in _RENAMING_CONFIGS]
        + ["Paper (none/regs/r+s/full)"],
    )
    configs = [make() for _, make in _RENAMING_CONFIGS]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        values = [result.available_parallelism for result in results[workload.name]]
        paper = PAPER_TABLE4[workload.analog_of]
        table.add_row(
            workload.name,
            *values,
            "/".join(f"{v:g}" for v in paper),
        )
    table.notes = (
        "Conservative syscalls, unlimited window, no resource limits — the "
        "Table 4 configuration. Compare shapes: which renaming level "
        "unlocks each workload."
    )
    return ExperimentOutput([table])


# -- Figure 8 ----------------------------------------------------------------

#: Window sizes swept for Figure 8 (None = whole trace).
FIG8_WINDOWS = (1, 4, 16, 64, 256, 1024, 4096, 16384, None)


def fig8_window(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Window size vs percent of total available parallelism (Figure 8)."""
    engine = as_engine(source)
    headers = ["Workload"] + [
        "inf" if w is None else str(w) for w in FIG8_WINDOWS
    ]
    table = Table("Figure 8: Window Size vs % of Total Available Parallelism", headers)
    absolute = Table(
        "Figure 8 (absolute): Window Size vs Available Parallelism",
        headers,
    )
    configs = [AnalysisConfig(window_size=window) for window in FIG8_WINDOWS]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        values = [result.available_parallelism for result in results[workload.name]]
        total = values[-1]
        table.add_row(
            workload.name, *[100.0 * v / total if total else 0.0 for v in values]
        )
        absolute.add_row(workload.name, *values)
    table.notes = (
        "All renaming on, conservative syscalls (the Figure 8 configuration). "
        "Each column is one full DDG extraction per workload. The paper's "
        "qualitative findings: modest parallelism (single digits to low tens) "
        "already at W~100; low-ILP programs saturate early; high-ILP programs "
        "keep climbing at the largest windows."
    )
    return ExperimentOutput([table, absolute])


# -- section 2.3 distributions -------------------------------------------------


def lifetimes(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Value lifetime and degree-of-sharing distributions (section 2.3)."""
    engine = as_engine(source)
    table = Table(
        "Value Lifetimes and Degree of Sharing (full renaming, conservative)",
        [
            "Workload",
            "Values",
            "Mean lifetime",
            "P50 lifetime",
            "P90 lifetime",
            "Mean sharing",
            "Dead value %",
        ],
    )
    configs = [AnalysisConfig(collect_lifetimes=True)]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        (result,) = results[workload.name]
        stats = result.lifetimes
        table.add_row(
            workload.name,
            stats.values_created,
            stats.mean_lifetime,
            stats.quantile_lifetime(0.5),
            stats.quantile_lifetime(0.9),
            stats.mean_sharing,
            100.0 * stats.dead_value_fraction,
        )
    table.notes = (
        "Lifetime = levels from creation to last use (temporary-storage "
        "requirement); sharing = consumers per computed value (token fan-out)."
    )
    return ExperimentOutput([table])


# -- ablations -----------------------------------------------------------------


def ablation_resources(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Figure 4 generalized: universal functional-unit count sweep."""
    engine = as_engine(source)
    counts = (1, 2, 4, 8, 16, 32, 64, None)
    table = Table(
        "Ablation: Available Parallelism vs Universal FU Count",
        ["Workload"] + ["inf" if c is None else str(c) for c in counts],
    )
    configs = [
        AnalysisConfig(
            resources=None if count is None else ResourceModel(universal=count)
        )
        for count in counts
    ]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        values = [result.available_parallelism for result in results[workload.name]]
        table.add_row(workload.name, *values)
    table.notes = (
        "Greedy first-fit placement; with k universal FUs no level holds "
        "more than k operations, so AP <= k by construction."
    )
    return ExperimentOutput([table])


def ablation_branch(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Extension: misprediction firewalls under real predictors."""
    engine = as_engine(source)
    models = (None, "gshare", "bimodal", "taken", "not-taken")
    table = Table(
        "Ablation: Available Parallelism under Branch-Prediction Firewalls",
        ["Workload"]
        + ["perfect" if m is None else m for m in models]
        + ["gshare mispred %"],
    )
    configs = [AnalysisConfig(branch_predictor=model) for model in models]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        values = []
        gshare_rate = 0.0
        for model, result in zip(models, results[workload.name]):
            values.append(result.available_parallelism)
            if model == "gshare" and result.branches:
                gshare_rate = 100.0 * result.mispredictions / result.branches
        table.add_row(workload.name, *values, gshare_rate)
    table.notes = (
        "Each mispredicted conditional branch firewalls the DDG at its "
        "resolution level (paper section 3.2's mispredicted-branch firewall). "
        "The paper's published numbers assume perfect prediction."
    )
    return ExperimentOutput([table])


def ablation_twopass(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Paper section 3.2: forward single-pass vs reverse-annotated two-pass."""
    engine = as_engine(source)
    table = Table(
        "Ablation: Live-Well Working Set, Forward (method 2) vs Two-Pass (method 1)",
        [
            "Workload",
            "Fwd peak live well",
            "2-pass peak live well",
            "Reduction",
            "Same CP",
            "Fwd sec",
            "2-pass sec",
        ],
    )
    # Outcomes, not results: they carry per-job wall-clock timings; a
    # result-cache hit reports 0s — the cached run did the work earlier.
    workloads, outcomes = _grid_by_workload(
        engine, cap, [{"method": "forward"}, {"method": "twopass"}], outcomes=True
    )
    for workload in workloads:
        fwd, two = outcomes[workload.name]
        forward, twopass = fwd.result, two.result
        reduction = (
            forward.peak_live_well / twopass.peak_live_well
            if twopass.peak_live_well
            else float("nan")
        )
        table.add_row(
            workload.name,
            forward.peak_live_well,
            twopass.peak_live_well,
            reduction,
            forward.critical_path_length == twopass.critical_path_length,
            fwd.seconds,
            two.seconds,
        )
    table.notes = (
        "Method 1 stores the whole trace but evicts dead values eagerly; the "
        "paper needed 32 MB for method 2's working set on SPEC. Results are "
        "identical by construction; only the working set differs. Timings "
        "are per-job wall clock (0 when served from the result cache)."
    )
    return ExperimentOutput([table])


def ablation_disambiguation(
    source: TraceSource, cap: int = DEFAULT_CAP
) -> ExperimentOutput:
    """Memory disambiguation strategies (the prior-work axis of section 3.1).

    Perfect disambiguation (the paper's setting) orders memory operations by
    their exact dynamic addresses; the conservative model has no alias
    information at all, so every load trails the last store. Wall's limit
    study showed this single assumption costs an order of magnitude; this
    ablation reproduces that comparison on our suite.
    """
    engine = as_engine(source)
    table = Table(
        "Ablation: Memory Disambiguation — Perfect vs None",
        [
            "Workload",
            "Perfect AP",
            "Conservative AP",
            "Perfect/Conservative",
        ],
    )
    configs = [
        AnalysisConfig(),
        AnalysisConfig(memory_disambiguation="conservative"),
    ]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        perfect, conservative = results[workload.name]
        ratio = (
            perfect.available_parallelism / conservative.available_parallelism
            if conservative.available_parallelism
            else float("nan")
        )
        table.add_row(
            workload.name,
            perfect.available_parallelism,
            conservative.available_parallelism,
            ratio,
        )
    table.notes = (
        "Conservative: loads depend on the last store; stores wait for every "
        "earlier memory access. All renaming on, conservative syscalls."
    )
    return ExperimentOutput([table])


def ablation_latency(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Operation-latency sensitivity (section 3.1 cites 'changes in
    operation latencies' as a prior-work axis)."""
    engine = as_engine(source)
    tables_by_name = [
        ("unit", LatencyTable.unit()),
        ("Table 1", LatencyTable.default()),
        ("2x Table 1", LatencyTable(
            {opclass: steps * 2 for opclass, steps in LatencyTable.default().steps.items()}
        )),
        ("slow memory", LatencyTable.default().with_overrides(LOAD=4, STORE=4)),
    ]
    table = Table(
        "Ablation: Available Parallelism vs Operation Latencies",
        ["Workload"] + [name for name, _ in tables_by_name],
    )
    configs = [AnalysisConfig(latency=latency) for _, latency in tables_by_name]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        values = [result.available_parallelism for result in results[workload.name]]
        table.add_row(workload.name, *values)
    table.notes = (
        "Longer latencies stretch dependence chains but also let more "
        "independent work overlap per level; the net effect is "
        "workload-specific (chain-bound workloads lose, parallel ones gain)."
    )
    return ExperimentOutput([table])


def machine_models(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Throttling the DDG to machine models (paper section 2.3)."""
    from repro.core.machines import MACHINE_MODELS

    engine = as_engine(source)
    table = Table(
        "Machine Models: Extractable Parallelism per Machine Class",
        ["Workload"] + list(MACHINE_MODELS),
    )
    configs = [model.config for model in MACHINE_MODELS.values()]
    workloads, results = _grid_by_workload(engine, cap, configs)
    for workload in workloads:
        values = [result.available_parallelism for result in results[workload.name]]
        table.add_row(workload.name, *values)
    table.notes = "Models, weakest first: " + "; ".join(
        f"{model.name} = {model.description}" for model in MACHINE_MODELS.values()
    )
    return ExperimentOutput([table])


def ablation_compiler(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """The compiler's second-order effect on parallelism (paper section 3.2
    caveat 2: 'the compiler can actually create a second order effect on
    the parallelism in the program')."""
    engine = as_engine(source)
    table = Table(
        "Ablation: Compiler Optimization vs Measured Parallelism",
        [
            "Workload",
            "Instrs (plain)",
            "Instrs (optimized)",
            "AP (plain)",
            "AP (optimized)",
            "AP ratio",
        ],
    )
    workloads, results = _grid_by_workload(
        engine, cap, [{"optimize": False}, {"optimize": True}]
    )
    for workload in workloads:
        plain, optimized = results[workload.name]
        ratio = (
            optimized.available_parallelism / plain.available_parallelism
            if plain.available_parallelism
            else float("nan")
        )
        table.add_row(
            workload.name,
            plain.records_processed,
            optimized.records_processed,
            plain.available_parallelism,
            optimized.available_parallelism,
            ratio,
        )
    table.notes = (
        "Optimization: constant folding, algebraic simplification, "
        "dead-control elimination, power-of-two strength reduction, and "
        "2-4x counted-loop unrolling with induction-variable offsetting — "
        "the paper's own example ('loop unrolling ... tends to decrease "
        "the recurrences created by loop counters, thus increasing the "
        "parallelism'). AP moves per workload according to whether the "
        "removed work sat on its critical path."
    )
    return ExperimentOutput([table])


def ablation_baselines(source: TraceSource, cap: int = DEFAULT_CAP) -> ExperimentOutput:
    """Prior-work comparison: average-only and statement-granularity."""
    engine = as_engine(source)
    table = Table(
        "Baselines: Paragraph vs Average-Only vs Statement Granularity (Kumar)",
        [
            "Workload",
            "Paragraph AP",
            "Average-only AP",
            "CP match",
            "Stmt-level AP",
            "Instrs/stmt",
            "Intra-stmt factor",
        ],
    )
    workloads, results = _grid_by_workload(
        engine,
        cap,
        [AnalysisConfig(), {"method": "average_only"}, {"method": "statement"}],
    )
    for workload in workloads:
        paragraph, avg, stmt = results[workload.name]
        factor = (
            paragraph.available_parallelism
            / (stmt.average_parallelism * stmt.mean_statement_size)
            if stmt.average_parallelism
            else float("nan")
        )
        table.add_row(
            workload.name,
            paragraph.available_parallelism,
            avg.average_parallelism,
            paragraph.critical_path_length == avg.critical_path_length,
            stmt.average_parallelism,
            stmt.mean_statement_size,
            factor,
        )
    table.notes = (
        "Average-only reimplements the Wall/Tjaden-Flynn-style analyses "
        "(critical path only) and must agree with Paragraph. Kumar's "
        "statement-granularity analysis hides fine-grain parallelism within "
        "statements; the intra-statement factor shows how instruction-level "
        "operation counts relate to statement-level ones."
    )
    return ExperimentOutput([table])


#: Experiment id -> function.
EXPERIMENTS: Dict[str, Callable[..., ExperimentOutput]] = {
    "table1": table1_latencies,
    "table2": table2_suite,
    "table3": table3_dataflow,
    "fig7": fig7_profiles,
    "table4": table4_renaming,
    "fig8": fig8_window,
    "lifetimes": lifetimes,
    "abl-resources": ablation_resources,
    "abl-branch": ablation_branch,
    "abl-twopass": ablation_twopass,
    "abl-baselines": ablation_baselines,
    "abl-disambiguation": ablation_disambiguation,
    "abl-latency": ablation_latency,
    "abl-compiler": ablation_compiler,
    "machines": machine_models,
}


def run_experiment(
    name: str, source: Optional[TraceSource] = None, cap: int = DEFAULT_CAP
) -> ExperimentOutput:
    """Run one experiment by id against a store or engine."""
    engine = as_engine(source)
    try:
        function = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
        ) from None
    return function(engine, cap)
