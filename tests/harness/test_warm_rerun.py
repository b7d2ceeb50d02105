"""A warm ``run all`` is pure cache reads, and only Figure 7 stores profiles.

A cold cap-300 run fills a trace directory and a result cache. A second
run, with a fresh store and cache on the same directories and simulation
and the prior-work baselines patched to raise, must reproduce every
output: traces decode from disk, Table 2's full-run lengths come from
their sidecars, and every analysis — abl-baselines' baselines included —
is a result-cache hit.
"""

import csv
import io

import pytest

from repro.engine import ExperimentEngine
from repro.engine import jobs
from repro.engine.cache import ResultCache
from repro.harness import experiments
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import TraceStore
from repro.workloads.base import Workload

CAP = 300
#: Columns that hold wall-clock timings, per CSV file name (a cache hit
#: reports 0 seconds, a cold run the seconds it took).
MASKED_COLUMNS = {"abl-twopass.csv": ("Fwd sec", "2-pass sec")}


class SpyEngine(ExperimentEngine):
    """Records every submitted job under the experiment that submitted it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.experiment = None
        self.jobs_by_experiment = {}

    def run_grid_with_store(self, grid, store):
        self.jobs_by_experiment.setdefault(self.experiment, []).extend(grid)
        return super().run_grid_with_store(grid, store)


def reproduce(engine: SpyEngine):
    """``run all --out``'s files as ``{name: text}``: every CSV plus the
    rendered text of each experiment."""
    files = {}
    for name in EXPERIMENTS:
        engine.experiment = name
        output = run_experiment(name, engine, CAP)
        files[f"{name}.txt"] = output.render() + "\n"
        for index, table in enumerate(output.tables):
            suffix = "" if len(output.tables) == 1 else f".{index}"
            files[f"{name}{suffix}.csv"] = table.to_csv() + "\n"
    return files


def masked(name, text):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    positions = [rows[0].index(column) for column in MASKED_COLUMNS.get(name, ())]
    for row in rows[1:]:
        for position in positions:
            row[position] = ""
    return rows


def no_baselines(monkeypatch):
    """Make both prior-work baselines raise, as job methods and as the
    functions the harness module holds."""

    def no_baseline(*args, **kwargs):
        raise AssertionError("a warm run computed a prior-work baseline")

    for method, name in (
        ("average_only", "average_parallelism"),
        ("statement", "statement_parallelism"),
    ):
        monkeypatch.setitem(jobs.METHODS, method, no_baseline)
        monkeypatch.setattr(experiments, name, no_baseline)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold run: the directories it filled, its files and its spy."""
    base = tmp_path_factory.mktemp("warm-rerun")
    trace_dir, cache_dir = str(base / "traces"), str(base / "results")
    engine = SpyEngine(store=TraceStore(trace_dir), result_cache=ResultCache(cache_dir))
    files = reproduce(engine)
    return trace_dir, cache_dir, files, engine


def test_warm_rerun_is_pure_cache_reads(cold, monkeypatch):
    trace_dir, cache_dir, cold_files, _ = cold

    def no_simulation(*args, **kwargs):
        raise AssertionError("a warm run simulated a workload")

    monkeypatch.setattr(Workload, "run", no_simulation)
    no_baselines(monkeypatch)
    cache = ResultCache(cache_dir)
    warm_files = reproduce(SpyEngine(store=TraceStore(trace_dir), result_cache=cache))
    assert cache.misses == 0
    assert sorted(warm_files) == sorted(cold_files)
    assert warm_files["fig7.txt"] == cold_files["fig7.txt"]
    for name, text in cold_files.items():
        if not name.endswith(".csv"):
            continue
        if name in MASKED_COLUMNS:
            assert masked(name, warm_files[name]) == masked(name, text), name
        else:
            assert warm_files[name] == text, name


def test_warm_baselines_are_cache_hits(cold, monkeypatch):
    trace_dir, cache_dir, cold_files, _ = cold
    no_baselines(monkeypatch)
    cache = ResultCache(cache_dir)
    engine = ExperimentEngine(store=TraceStore(trace_dir), result_cache=cache)
    output = run_experiment("abl-baselines", engine, CAP)
    # 10 workloads x (Paragraph, average-only, statement-level)
    assert (cache.hits, cache.misses) == (30, 0)
    assert output.tables[0].to_csv() + "\n" == cold_files["abl-baselines.csv"]


def test_only_fig7_jobs_collect_profiles(cold):
    jobs = cold[3].jobs_by_experiment
    assert jobs["fig7"] and all(job.config.collect_profile for job in jobs["fig7"])
    others = {name: grid for name, grid in jobs.items() if name != "fig7"}
    assert {"table3", "abl-twopass", "abl-baselines", "abl-compiler", "machines"} <= set(others)
    for name, grid in others.items():
        assert not any(job.config.collect_profile for job in grid), name
