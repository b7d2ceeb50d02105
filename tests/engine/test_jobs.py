"""Job specs and stable digests."""

import json
import subprocess
import sys

import pytest

from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.resources import ResourceModel
from repro.engine.jobs import METHODS, AnalysisJob
from repro.isa.opclasses import OpClass


class TestConfigDigest:
    def test_equal_configs_equal_digests(self):
        assert AnalysisConfig().digest() == AnalysisConfig().digest()

    def test_every_switch_changes_digest(self):
        base = AnalysisConfig()
        variants = [
            AnalysisConfig(syscall_policy=OPTIMISTIC),
            AnalysisConfig(rename_registers=False),
            AnalysisConfig(rename_stack=False),
            AnalysisConfig(rename_data=False),
            AnalysisConfig(window_size=64),
            AnalysisConfig(latency=LatencyTable.unit()),
            AnalysisConfig(resources=ResourceModel(universal=4)),
            AnalysisConfig(branch_predictor="gshare"),
            AnalysisConfig(memory_disambiguation="conservative"),
            AnalysisConfig(collect_lifetimes=True),
            AnalysisConfig(collect_profile=False),
        ]
        digests = {config.digest() for config in variants}
        assert len(digests) == len(variants)
        assert base.digest() not in digests

    def test_canonical_round_trip(self):
        config = AnalysisConfig(
            syscall_policy=OPTIMISTIC,
            window_size=256,
            latency=LatencyTable.default().with_overrides(IMUL=3),
            resources=ResourceModel(universal=8, per_class={OpClass.FMUL: 2}),
            branch_predictor="bimodal",
            memory_disambiguation="conservative",
            collect_lifetimes=True,
        )
        restored = AnalysisConfig.from_canonical(config.canonical())
        assert restored == config
        assert restored.digest() == config.digest()

    def test_digest_stable_across_interpreters(self):
        """The digest must not depend on PYTHONHASHSEED or any per-process
        state: a worker and its parent must agree on cache keys."""
        script = (
            "from repro.core.config import AnalysisConfig; "
            "print(AnalysisConfig(window_size=64).digest())"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("0", "12345")
        }
        assert runs == {AnalysisConfig(window_size=64).digest()}


class TestAnalysisJob:
    def test_round_trip(self):
        job = AnalysisJob(
            "cc1x", 5000, AnalysisConfig(window_size=16), method="twopass", optimize=True
        )
        restored = AnalysisJob.from_canonical(job.canonical())
        assert restored == job
        assert restored.digest() == job.digest()

    def test_wire_form_is_json_safe(self):
        job = AnalysisJob("cc1x", 5000, AnalysisConfig(resources=ResourceModel(universal=2)))
        assert AnalysisJob.from_canonical(json.loads(json.dumps(job.canonical()))) == job

    def test_digest_covers_every_axis(self):
        base = AnalysisJob("cc1x", 5000)
        variants = [
            AnalysisJob("xlispx", 5000),
            AnalysisJob("cc1x", 6000),
            AnalysisJob("cc1x", 5000, AnalysisConfig(window_size=4)),
            AnalysisJob("cc1x", 5000, method="twopass"),
            AnalysisJob("cc1x", 5000, optimize=True),
        ]
        digests = {job.digest() for job in variants}
        assert len(digests) == len(variants)
        assert base.digest() not in digests

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis method"):
            AnalysisJob("cc1x", 100, method="sideways")

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError, match="cap must be"):
            AnalysisJob("cc1x", 0)

    def test_trace_key_ignores_config(self):
        one = AnalysisJob("cc1x", 100, AnalysisConfig())
        two = AnalysisJob("cc1x", 100, AnalysisConfig(window_size=8))
        assert one.trace_key == two.trace_key

    def test_describe_mentions_extras(self):
        text = AnalysisJob("cc1x", 100, method="twopass", optimize=True).describe()
        assert "twopass" in text and "optimized" in text


class TestMethods:
    """The pinned verification methods ride the same job machinery."""

    def test_registry_complete(self):
        from repro.engine.jobs import METHODS

        assert set(METHODS) == {
            "forward",
            "twopass",
            "vkernel",
            "reference",
            "oracle",
            "stream",
            "sharded",
            "segment",
            "average_only",
            "statement",
        }

    @pytest.mark.parametrize(
        "method,columnar",
        [
            ("forward", True),
            ("vkernel", True),
            ("twopass", False),
            ("reference", False),
            ("oracle", False),
            ("stream", True),
            ("sharded", True),
            ("segment", True),
        ],
    )
    def test_prefers_columnar(self, method, columnar, tmp_path):
        """Frontier methods read a decoded trace's columns directly; only
        the checkers iterate it, which builds the operand-tuple view."""
        from repro.trace.io import read_trace_file, write_trace_file
        from repro.trace.synthetic import random_trace

        path = tmp_path / "trace.pgt"
        write_trace_file(path, random_trace(seed=3, length=200, syscall_fraction=0.05))
        trace = read_trace_file(path)
        AnalysisJob("w", len(trace), method=method).run(trace)
        assert (trace._operand_tuples is None) is columnar

    @pytest.mark.parametrize(
        "method",
        ["forward", "twopass", "vkernel", "reference", "stream", "sharded"],
    )
    def test_all_methods_agree_on_either_representation(self, method):
        """Every method accepts a record list as well as columns via
        job.run and lands on the readable reference's result (modulo
        documented masks)."""
        from repro.core.reference import reference_analyze
        from repro.trace.synthetic import random_trace

        trace = random_trace(seed=3, length=400)
        expected = reference_analyze(trace, AnalysisConfig())
        job = AnalysisJob("w", len(trace), method=method)
        for representation in (list(trace), trace):
            result = job.run(representation)
            assert result.critical_path_length == expected.critical_path_length
            assert result.placed_operations == expected.placed_operations
            assert result.profile.counts == expected.profile.counts

    def test_oracle_method_runs_via_job(self):
        from repro.core.reference import reference_analyze
        from repro.trace.synthetic import random_trace

        trace = random_trace(seed=3, length=200)
        expected = reference_analyze(trace, AnalysisConfig())
        result = AnalysisJob("w", len(trace), method="oracle").run(trace)
        assert result.critical_path_length == expected.critical_path_length
        assert result.peak_live_well == -1  # oracle sentinel


VIEW_CONFIGS = {
    "dataflow": AnalysisConfig(),
    "windowed": AnalysisConfig(window_size=16),
    "generic": AnalysisConfig.no_renaming(),
}

#: Methods that analyze the whole trace; the chunked and segment methods
#: read parts of it, which build fewer views than they are handed.
WHOLE_TRACE_METHODS = (
    "forward",
    "twopass",
    "vkernel",
    "reference",
    "oracle",
    "average_only",
    "statement",
)


def views_built(job, trace):
    """The ``trace.views_built.*`` counters running ``job`` on ``trace``
    increments, by view name."""
    from repro.obs import metrics as obs

    registry = obs.enable(obs.MetricsRegistry())
    try:
        job.run(trace)
    finally:
        obs.disable()
    prefix = "trace.views_built."
    return {
        name[len(prefix):]: count
        for name, count in registry.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


class TestTraceViews:
    """``trace_views`` names exactly the memoized views each kernel and
    each job method reads, so the pool's pre-fork build leaves workers
    nothing to build."""

    @pytest.fixture(scope="class")
    def records(self):
        from repro.trace.synthetic import random_trace

        return list(random_trace(seed=11, length=400, syscall_fraction=0.03))

    def test_each_kernel_is_covered(self):
        from repro.core.kernels import select_kernel

        assert {select_kernel(config) for config in VIEW_CONFIGS.values()} == set(VIEW_CONFIGS)

    @pytest.mark.parametrize("kernel", sorted(VIEW_CONFIGS))
    @pytest.mark.parametrize(
        "method,backend",
        [(method, "python") for method in sorted(METHODS)] + [("forward", "numpy")],
    )
    def test_prebuilt_views_leave_nothing_to_build(self, records, kernel, method, backend):
        from repro.core.kernels import trace_views
        from repro.trace.columnar import ColumnarTrace

        config = VIEW_CONFIGS[kernel]
        job = AnalysisJob("w", len(records), config, method=method, backend=backend)
        try:
            fresh = views_built(job, ColumnarTrace.from_buffer(records))
        except ValueError as error:  # e.g. a baseline that models no window
            pytest.skip(f"{method} rejects the {kernel} config: {error}")
        named = trace_views(config, method, backend)
        trace = ColumnarTrace.from_buffer(records)
        for name in named:
            getattr(trace, name)()
        assert views_built(job, trace) == {}

        assert all(count == 1 for count in fresh.values())
        if method in WHOLE_TRACE_METHODS:
            assert set(fresh) == set(named)
        else:
            assert set(fresh) <= set(named)


class TestJobBackend:
    """The backend is an execution strategy, never identity: it rides the
    wire format (only when non-default) but is stripped from digests so
    both backends share one result-cache entry."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis backend"):
            AnalysisJob("cc1x", 100, backend="cuda")

    def test_digest_ignores_backend(self):
        py = AnalysisJob("cc1x", 5000)
        np = AnalysisJob("cc1x", 5000, backend="numpy")
        assert py.digest() == np.digest()

    def test_canonical_omits_default_backend(self):
        """Canonical forms written before the backend knob existed must
        stay byte-identical for python-backend jobs."""
        assert "backend" not in AnalysisJob("cc1x", 100).canonical()
        assert AnalysisJob("cc1x", 100, backend="numpy").canonical()["backend"] == "numpy"

    def test_round_trip_preserves_backend(self):
        job = AnalysisJob("cc1x", 5000, backend="numpy")
        assert AnalysisJob.from_canonical(job.canonical()) == job

    def test_legacy_canonical_defaults_to_python(self):
        data = AnalysisJob("cc1x", 100).canonical()
        data.pop("backend", None)
        assert AnalysisJob.from_canonical(data).backend == "python"

    def test_describe_mentions_numpy(self):
        assert "numpy" in AnalysisJob("cc1x", 100, backend="numpy").describe()
        assert "numpy" not in AnalysisJob("cc1x", 100).describe()

    @pytest.mark.parametrize(
        "method", ["forward", "stream", "sharded", "twopass"]
    )
    def test_run_identical_across_backends(self, method):
        """backend="numpy" never changes a job's result — backend-aware
        methods route through the vectorized engine (or fall back), and
        implementation-pinned methods ignore the preference entirely."""
        from repro.trace.synthetic import random_trace

        trace = random_trace(seed=5, length=300, syscall_fraction=0.03)
        py = AnalysisJob("w", len(trace), method=method).run(trace)
        np = AnalysisJob("w", len(trace), method=method, backend="numpy").run(trace)
        assert np.critical_path_length == py.critical_path_length
        assert np.placed_operations == py.placed_operations

    def test_segment_method_identical_across_backends(self):
        from repro.trace.synthetic import random_trace

        trace = random_trace(seed=6, length=300, syscall_fraction=0.05)
        py = AnalysisJob("w", len(trace), method="segment").run(trace)
        np = AnalysisJob(
            "w", len(trace), method="segment", backend="numpy"
        ).run(trace)
        assert np == py  # SegmentSummary dataclass equality, field by field
