"""The prior-work baselines run as engine job methods: through the pool and
the result cache like every other grid point, and failing one job at a
time when a configuration is outside their model."""

import pytest

from repro.baselines import average_parallelism, statement_parallelism
from repro.core.config import AnalysisConfig
from repro.engine import AnalysisJob, ExperimentEngine
from repro.engine.serialize import result_to_bytes
from repro.harness.experiments import run_experiment
from repro.harness.runner import TraceStore
from repro.workloads.suite import SUITE_NAMES

CAP = 800
METHODS = ("forward", "average_only", "statement")


def baseline_grid():
    """abl-baselines' grid: every suite workload x (Paragraph, both
    baselines), profiles off as the experiment submits it."""
    config = AnalysisConfig(collect_profile=False)
    return [
        AnalysisJob(name, CAP, config, method=method)
        for name in SUITE_NAMES
        for method in METHODS
    ]


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("baseline-traces"))


@pytest.fixture(scope="module")
def serial(trace_dir):
    store = TraceStore(trace_dir)
    results = ExperimentEngine(store=store, jobs=1).analyze_grid(baseline_grid())
    return store, [result_to_bytes(result) for result in results]


def test_jobs_match_direct_calls(serial):
    store, encoded = serial
    config = AnalysisConfig(collect_profile=False)
    for index, name in enumerate(SUITE_NAMES):
        trace = store.trace(name, CAP)
        assert encoded[3 * index + 1] == result_to_bytes(average_parallelism(trace, config))
        assert encoded[3 * index + 2] == result_to_bytes(statement_parallelism(trace, config))


def test_pool_is_byte_identical_to_serial(serial, trace_dir):
    _, encoded = serial
    engine = ExperimentEngine(store=TraceStore(trace_dir), jobs=2)
    results = engine.analyze_grid(baseline_grid())
    assert [result_to_bytes(result) for result in results] == encoded


def test_experiment_table_identical_under_pool(trace_dir):
    tables = [
        run_experiment(
            "abl-baselines", ExperimentEngine(store=TraceStore(trace_dir), jobs=jobs), CAP
        ).tables[0].to_csv()
        for jobs in (1, 2)
    ]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_unsupported_config_fails_one_job_loudly(trace_dir, jobs):
    """The average-only baseline models no window: its ValueError becomes
    that job's failed outcome, and the rest of the grid still runs."""
    engine = ExperimentEngine(store=TraceStore(trace_dir), jobs=jobs)
    outcomes = engine.run_grid(
        [
            AnalysisJob("xlispx", CAP, AnalysisConfig(window_size=64), method="average_only"),
            AnalysisJob("xlispx", CAP, method="statement"),
        ]
    )
    assert [outcome.ok for outcome in outcomes] == [False, True]
    assert outcomes[0].error.startswith("ValueError: average-only baseline models no window")
