"""Command-line interface: ``paragraph`` (or ``python -m repro.harness``).

Subcommands:

- ``list`` — available experiments and workloads;
- ``run`` — run experiments and print/save their tables;
- ``analyze`` — ad-hoc Paragraph analysis of one workload under explicit
  switches (the direct equivalent of invoking the original tool);
- ``verify`` — property-based differential verification of the analyzer
  implementations (see :mod:`repro.verify`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.analyzer import BACKEND_PYTHON, BACKENDS, analyze
from repro.core.config import AnalysisConfig
from repro.engine import ExperimentEngine, console_listener
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import DEFAULT_CAP, TraceStore
from repro.workloads.suite import SUITE_NAMES, load_workload


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="analysis worker processes (1 = in-process serial, the "
        "debuggable default)",
    )
    parser.add_argument(
        "--result-cache",
        help="directory for the content-addressed result cache; repeated "
        "runs with the same traces and configs skip recompute entirely",
    )
    parser.add_argument(
        "--result-cache-max-bytes",
        metavar="SIZE",
        default=None,
        help="size budget for --result-cache (bytes, or with a K/M/G "
        "suffix); stores past the budget evict least-recently-used "
        "entries (default: unbounded)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock limit in seconds (a stuck job fails alone; "
        "the rest of the grid continues)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed analysis job (stderr)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per job for transient failures (worker crash, "
        "timeout, IO), with exponential backoff; a job still "
        "failing afterwards is quarantined (default: 2, 0 disables)",
    )
    parser.add_argument(
        "--journal-dir",
        help="directory for append-only run journals; outcomes are "
        "journaled as they land so an interrupted grid can be resumed "
        "with --resume <run-id>",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        help="resume a journaled run: completed jobs replay from the "
        "journal, only the remainder re-executes (requires --journal-dir)",
    )
    fail_mode = parser.add_mutually_exclusive_group()
    fail_mode.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the grid at the first unretryable job failure",
    )
    fail_mode.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="run every job even when some fail (default)",
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="collect per-phase timings and cache/pool counters, exported "
        "as JSONL (default path: <journal-dir>/<run-id>.metrics.jsonl; "
        "render it later with 'report-run')",
    )


def _parse_cache_budget(args) -> Optional[int]:
    if args.result_cache_max_bytes is None:
        return None
    if not args.result_cache:
        raise SystemExit("--result-cache-max-bytes requires --result-cache")
    from repro.engine.cache import parse_size

    try:
        return parse_size(args.result_cache_max_bytes)
    except ValueError as error:
        raise SystemExit(f"--result-cache-max-bytes: {error}") from None


def _build_engine(args) -> ExperimentEngine:
    if args.resume and not args.journal_dir:
        raise SystemExit("--resume requires --journal-dir")
    engine = ExperimentEngine(
        store=TraceStore(args.trace_dir),
        jobs=args.jobs,
        result_cache=args.result_cache,
        result_cache_max_bytes=_parse_cache_budget(args),
        timeout=args.job_timeout,
        progress=console_listener() if args.progress else None,
        retries=args.retries,
        journal_dir=args.journal_dir,
        resume=args.resume,
        fail_fast=args.fail_fast,
        metrics=args.metrics is not None or None,
        metrics_path=args.metrics or None,
    )
    if engine.run_id:
        verb = "resuming" if args.resume else "journaling"
        print(f"{verb} run {engine.run_id} (journal: {args.journal_dir})", file=sys.stderr)
    if engine.metrics:
        print(f"metrics: {engine.metrics_file}", file=sys.stderr)
    return engine


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paragraph",
        description=(
            "Dynamic dependency analysis of ordinary programs "
            "(Austin & Sohi, ISCA 1992 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads")

    run = sub.add_parser("run", help="run experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids (or 'all'): {', '.join(EXPERIMENTS)}",
    )
    run.add_argument("--cap", type=int, default=DEFAULT_CAP, help="instruction cap")
    run.add_argument("--out", help="directory for .txt/.csv artifacts")
    run.add_argument(
        "--trace-dir", help="directory for cached binary traces (reused across runs)"
    )
    _add_engine_arguments(run)

    report = sub.add_parser(
        "report", help="run every experiment and write EXPERIMENTS.md"
    )
    report.add_argument("--cap", type=int, default=DEFAULT_CAP)
    report.add_argument("--out", default="EXPERIMENTS.md")
    report.add_argument("--trace-dir", help="directory for cached binary traces")
    _add_engine_arguments(report)

    serve = sub.add_parser(
        "serve",
        help="run the analysis job server (async HTTP/JSON over one "
        "engine pool; see repro.serve)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve.add_argument(
        "--port",
        type=int,
        default=8037,
        help="bind port; 0 picks an ephemeral port (default: %(default)s)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, help="engine worker processes (default: 1)"
    )
    serve.add_argument("--trace-dir", help="directory for cached binary traces")
    serve.add_argument(
        "--result-cache",
        help="shared result-cache directory (dedupes identical work across "
        "server restarts and sibling processes)",
    )
    serve.add_argument(
        "--result-cache-max-bytes",
        metavar="SIZE",
        default=None,
        help="size budget for --result-cache (bytes or K/M/G suffix)",
    )
    serve.add_argument(
        "--journal-dir",
        help="run-journal directory; a drained server's run resumes with --resume",
    )
    serve.add_argument(
        "--resume", metavar="RUN_ID", help="resume a journaled run's completed jobs"
    )
    serve.add_argument(
        "--retries", type=int, default=2, help="transient-failure retries per job"
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, help="per-job wall-clock limit (s)"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="bounded submission queue size; a full queue answers 429 "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--batch",
        type=int,
        default=None,
        help="jobs dispatched per engine grid (default: --jobs)",
    )
    serve.add_argument(
        "--no-metrics",
        dest="metrics",
        action="store_false",
        help="disable the repro.obs metrics registry and per-run export",
    )
    serve.add_argument(
        "--port-file",
        help="write a JSON {host, port, pid, run_id} document here once "
        "listening (subprocess port discovery)",
    )
    serve.add_argument(
        "--keepalive-timeout",
        type=float,
        default=75.0,
        metavar="SECONDS",
        help="close idle keep-alive connections after this long; 0 "
        "disables the timeout (default: %(default)s)",
    )
    serve.add_argument(
        "--upload-budget",
        metavar="SIZE",
        default=None,
        help="byte budget for uploaded traces held in memory; LRU uploads "
        "not referenced by live jobs are evicted past it (bytes or K/M/G "
        "suffix; default: 256M)",
    )

    report_run = sub.add_parser(
        "report-run",
        help="render the metrics report for a recorded run "
        "(requires the run to have executed with --metrics)",
    )
    report_run.add_argument(
        "run_id",
        help="a run id (looked up under --journal-dir) or a direct path "
        "to a .metrics.jsonl file",
    )
    report_run.add_argument(
        "--journal-dir",
        default=".",
        help="directory holding <run-id>.metrics.jsonl files (default: .)",
    )
    report_run.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many slowest jobs to list (default: 10)",
    )

    verify = sub.add_parser(
        "verify",
        help="property-based differential verification of the analyzers "
        "(random cases, metamorphic invariants, shrunk counterexamples)",
    )
    verify.add_argument("--seed", type=int, default=0, help="root seed (default: 0)")
    verify.add_argument(
        "--cases", type=int, default=200, help="generated cases (default: 200)"
    )
    verify.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="persist failing traces as generated, without greedy shrinking",
    )
    verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="analysis worker processes (1 = in-process; required for --mutate)",
    )
    verify.add_argument(
        "--artifact-dir",
        default="results/verify",
        help="where failing cases are persisted as replayable .pgt2 + .json "
        "pairs (default: %(default)s)",
    )
    verify.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop after this many failing cases (default: %(default)s)",
    )
    verify.add_argument(
        "--replay",
        metavar="ARTIFACT",
        help="re-run verification on a persisted counterexample (.pgt2 or "
        ".json) instead of fuzzing",
    )
    verify.add_argument(
        "--mutate",
        metavar="NAME",
        help="self-test: run with a deliberately injected analyzer bug "
        "(see repro.verify.mutations; forces --jobs 1)",
    )
    verify.add_argument(
        "--progress", action="store_true", help="print per-case progress (stderr)"
    )
    verify.add_argument(
        "--focus",
        choices=["all", "shard", "backend"],
        default="all",
        help="narrow the per-case plan: 'shard' runs only the "
        "exact-vs-sharded streaming invariant; 'backend' diffs the "
        "vectorized numpy backend against the python frontier on each "
        "case's windowless config and its renaming steps (default: all "
        "checks)",
    )

    adhoc = sub.add_parser("analyze", help="analyze one workload or trace file")
    adhoc.add_argument(
        "workload",
        help=f"a suite workload ({', '.join(SUITE_NAMES)}) or a .pgt/.pgt2 "
        "trace file",
    )
    adhoc.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"instruction cap (default: {DEFAULT_CAP}; --stream defaults "
        "to the whole trace instead)",
    )
    adhoc.add_argument(
        "--stream",
        action="store_true",
        help="analyze with bounded memory: the trace streams through "
        "window-aligned segments instead of loading whole (identical "
        "results; required for traces larger than memory)",
    )
    adhoc.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="RECORDS",
        help="records per segment for --stream (rounded up to a window "
        "multiple; default: 1Mi)",
    )
    adhoc.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for --stream: eligible configurations "
        "analyze segments in parallel and stitch (default: 1, sequential)",
    )
    adhoc.add_argument(
        "--backend",
        choices=BACKENDS,
        default=BACKEND_PYTHON,
        help="analysis backend: 'numpy' evaluates the placement rule over "
        "level-frontier batches of the whole trace when NumPy is available "
        "and the configuration is eligible, falling back to the python "
        "loops otherwise (identical results either way; whole-trace only, "
        "so not with --stream; default: python)",
    )
    adhoc.add_argument("--window", type=int, default=None)
    adhoc.add_argument(
        "--syscalls", choices=["conservative", "optimistic"], default="conservative"
    )
    adhoc.add_argument("--no-rename-registers", action="store_true")
    adhoc.add_argument("--no-rename-stack", action="store_true")
    adhoc.add_argument("--no-rename-data", action="store_true")
    adhoc.add_argument("--branch-predictor", default=None)
    adhoc.add_argument("--profile", action="store_true", help="print the ASCII profile")
    adhoc.add_argument("--lifetimes", action="store_true")
    return parser


def _command_list() -> int:
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("workloads:")
    for name in SUITE_NAMES:
        workload = load_workload(name)
        print(f"  {name:12s} ({workload.analog_of}): {workload.description}")
    return 0


def _command_run(args) -> int:
    from repro.engine.shutdown import graceful_flush

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    engine = _build_engine(args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    with graceful_flush(engine):
        for name in names:
            output = run_experiment(name, engine, args.cap)
            text = output.render()
            print(text)
            print()
            if args.out:
                with open(os.path.join(args.out, f"{name}.txt"), "w") as handle:
                    handle.write(text + "\n")
                for index, table in enumerate(output.tables):
                    suffix = "" if len(output.tables) == 1 else f".{index}"
                    path = os.path.join(args.out, f"{name}{suffix}.csv")
                    with open(path, "w") as handle:
                        handle.write(table.to_csv() + "\n")
    if args.progress:
        print(engine.telemetry.summary(), file=sys.stderr)
    return 0


def _command_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    upload_budget = ServeConfig.upload_budget_bytes
    if args.upload_budget is not None:
        from repro.engine.cache import parse_size

        try:
            upload_budget = parse_size(args.upload_budget)
        except ValueError as error:
            raise SystemExit(f"--upload-budget: {error}") from None
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        trace_dir=args.trace_dir,
        result_cache=args.result_cache,
        result_cache_max_bytes=_parse_cache_budget(args),
        journal_dir=args.journal_dir,
        resume=args.resume,
        retries=args.retries,
        job_timeout=args.job_timeout,
        queue_limit=args.queue_limit,
        batch=args.batch,
        metrics=args.metrics,
        port_file=args.port_file,
        keepalive_timeout=args.keepalive_timeout or None,
        upload_budget_bytes=upload_budget,
    )
    if config.resume and not config.journal_dir:
        raise SystemExit("--resume requires --journal-dir")
    return run_server(config)


def _command_verify(args) -> int:
    from contextlib import nullcontext

    from repro.verify.artifacts import replay_artifact
    from repro.verify.harness import run_verification
    from repro.verify.mutations import MUTATIONS, apply_mutation

    if args.replay:
        failures = replay_artifact(args.replay)
        if not failures:
            print(f"replay {args.replay}: no longer fails")
            return 0
        print(f"replay {args.replay}: still failing")
        for failure in failures:
            print(f"  {failure}")
        return 1

    mutation = nullcontext()
    if args.mutate:
        if args.mutate not in MUTATIONS:
            print(
                f"error: unknown mutation {args.mutate!r}; "
                f"choose from {', '.join(sorted(MUTATIONS))}",
                file=sys.stderr,
            )
            return 2
        if args.jobs != 1:
            print(
                "note: --mutate forces --jobs 1 (mutations are in-process)",
                file=sys.stderr,
            )
            args.jobs = 1
        mutation = apply_mutation(args.mutate)

    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            if done % 50 == 0 or done == total:
                print(f"verify: {done}/{total} cases evaluated", file=sys.stderr)

    with mutation:
        summary = run_verification(
            seed=args.seed,
            cases=args.cases,
            shrink=args.shrink,
            artifact_dir=args.artifact_dir,
            jobs=args.jobs,
            max_failures=args.max_failures,
            progress=progress,
            focus=args.focus,
        )
    print(summary.describe())
    if args.mutate:
        # Self-test semantics: the injected bug MUST be caught.
        if summary.ok:
            print(
                f"error: mutation {args.mutate!r} was NOT caught", file=sys.stderr
            )
            return 1
        print(f"mutation {args.mutate!r} caught, as expected")
        return 0
    return 0 if summary.ok else 1


def _analyze_streamed(args, config: AnalysisConfig, is_file: bool):
    """The ``analyze --stream`` path: bounded-memory file streaming, with
    parallel sharding when ``--jobs`` and the config allow it. Suite
    workloads are traced to a scratch .pgt2 first so the same file
    machinery (manifest, segments, digests) covers both inputs."""
    import tempfile

    from repro.engine.shards import shard_analyze_file

    engine = None
    if args.jobs > 1:
        engine = ExperimentEngine(jobs=args.jobs)
    if is_file:
        if args.cap is not None:
            # A cap stops a sequential stream mid-file; the parallel path
            # analyzes whole segments and cannot honor one.
            from repro.core.stream import DEFAULT_CHUNK_RECORDS, stream_analyze_file

            return stream_analyze_file(
                args.workload,
                config,
                chunk_records=args.shard_size or DEFAULT_CHUNK_RECORDS,
                cap=args.cap,
            )
        return shard_analyze_file(
            args.workload,
            config,
            shard_size=args.shard_size,
            engine=engine,
        )
    from repro.trace.io import write_trace_file

    workload = load_workload(args.workload)
    cap = args.cap if args.cap is not None else DEFAULT_CAP
    trace = workload.trace(max_instructions=cap)
    with tempfile.TemporaryDirectory(prefix="paragraph-stream-") as scratch:
        path = os.path.join(scratch, f"{args.workload}.pgt2")
        write_trace_file(path, trace)
        return shard_analyze_file(
            path,
            config,
            shard_size=args.shard_size,
            engine=engine,
        )


def _command_analyze(args) -> int:
    config = AnalysisConfig(
        syscall_policy=args.syscalls,
        rename_registers=not args.no_rename_registers,
        rename_stack=not args.no_rename_stack,
        rename_data=not args.no_rename_data,
        window_size=args.window,
        branch_predictor=args.branch_predictor,
        collect_lifetimes=args.lifetimes,
    )
    is_file = args.workload.endswith((".pgt", ".pgt2"))
    if args.stream:
        result = _analyze_streamed(args, config, is_file)
    elif is_file:
        from repro.trace.io import read_trace_file

        cap = args.cap if args.cap is not None else DEFAULT_CAP
        trace = read_trace_file(args.workload).head(cap)
        result = analyze(trace, config, backend=args.backend)
    else:
        cap = args.cap if args.cap is not None else DEFAULT_CAP
        workload = load_workload(args.workload)
        trace = workload.trace(max_instructions=cap)
        result = analyze(trace, config, backend=args.backend)
    print(result.summary())
    print(f"  placed operations : {result.placed_operations:,}")
    print(f"  critical path     : {result.critical_path_length:,}")
    print(f"  available ILP     : {result.available_parallelism:.2f}")
    print(f"  syscalls/firewalls: {result.syscalls}/{result.firewalls}")
    print(f"  peak live well    : {result.peak_live_well:,}")
    if result.mispredictions:
        print(f"  mispredictions    : {result.mispredictions:,}")
    if args.profile and result.profile is not None:
        print(result.profile.ascii_plot())
    if args.lifetimes and result.lifetimes is not None:
        stats = result.lifetimes
        print(
            f"  lifetimes: mean={stats.mean_lifetime:.1f} "
            f"p90={stats.quantile_lifetime(0.9)} "
            f"sharing={stats.mean_sharing:.2f}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "report":
        from repro.engine.shutdown import graceful_flush
        from repro.harness.report import write_report

        engine = _build_engine(args)
        with graceful_flush(engine):
            write_report(args.out, args.cap, engine)
        print(f"wrote {args.out}")
        return 0
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "verify":
        return _command_verify(args)
    if args.command == "report-run":
        from repro.obs.export import MetricsExportError
        from repro.obs.report import report_run

        try:
            print(report_run(args.run_id, journal_dir=args.journal_dir, top=args.top))
        except (OSError, MetricsExportError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0
    if args.stream and args.backend != BACKEND_PYTHON:
        parser.error(
            f"analyze --stream cannot use --backend {args.backend}: the "
            f"{args.backend} backend runs whole-trace analyses only"
        )
    return _command_analyze(args)


if __name__ == "__main__":
    sys.exit(main())
