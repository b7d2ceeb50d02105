"""The differential + metamorphic harness, including mutation smoke tests.

The mutation tests are the harness verifying itself: a deliberately buggy
analyzer variant must be caught, shrunk to a tiny counterexample, and
persisted as a replayable artifact. A harness that passes on mutants is
worse than no harness.
"""

import random

import pytest

from repro.core import vkernels
from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.core.resources import ResourceModel
from repro.trace.columnar import ColumnarTrace
from repro.trace.synthetic import TraceBuilder
from repro.verify.generate import generate_case, generate_trace
from repro.verify.harness import (
    BASELINE_METHOD,
    DIFF_METHODS,
    GeneratedTraceStore,
    case_plan,
    evaluate_case,
    run_verification,
    verify_case,
)
from repro.verify.mutations import apply_mutation

DATA = 0x1000


class TestCasePlan:
    def test_diff_methods_always_present(self):
        tags = {tag for tag, _, _ in case_plan(AnalysisConfig())}
        assert f"diff:{BASELINE_METHOD}" in tags
        for method in DIFF_METHODS + ("oracle",):
            assert f"diff:{method}" in tags

    def test_oracle_skipped_under_resources(self):
        config = AnalysisConfig(resources=ResourceModel(universal=2))
        tags = {tag for tag, _, _ in case_plan(config)}
        assert "diff:oracle" not in tags

    def test_monotone_chains_skipped_under_resources(self):
        """First-fit scheduling anomalies void pointwise monotonicity."""
        config = AnalysisConfig(resources=ResourceModel(universal=2))
        tags = {tag for tag, _, _ in case_plan(config)}
        assert not any(tag.startswith(("rename:", "window:")) for tag in tags)

    def test_scale_chain_always_present(self):
        config = AnalysisConfig(resources=ResourceModel(universal=2))
        tags = {tag for tag, _, _ in case_plan(config)}
        assert {"scale:1", "scale:2", "scale:3"} <= tags

    def test_plan_configs_preserve_trace_independent_switches(self):
        config = AnalysisConfig(window_size=8, branch_predictor="gshare")
        for tag, _, cfg in case_plan(config):
            if tag.startswith("rename:"):
                assert cfg.window_size == 8
                assert cfg.branch_predictor == "gshare"


class TestBackendFocusPlan:
    def test_backend_case_always_present(self):
        for config in (AnalysisConfig(), AnalysisConfig(window_size=16)):
            tags = {tag for tag, _, _ in case_plan(config, focus="backend")}
            assert {"backend:case:py", "backend:case:np"} <= tags

    def test_paired_py_np_tags(self):
        plan = case_plan(AnalysisConfig(), focus="backend")
        tags = {tag for tag, _, _ in plan}
        np_tags = {tag for tag in tags if tag.endswith(":np")}
        assert np_tags  # the case and the rename steps both contribute
        for tag in np_tags:
            assert tag[:-3] + ":py" in tags
        methods = {tag: method for tag, method, _ in plan}
        for tag in np_tags:
            assert methods[tag] == "vkernel"
            assert methods[tag[:-3] + ":py"] == "forward"

    def test_ineligible_configs_plan_no_backend_legs(self):
        """Constrained resources are backend-ineligible, so every vkernel
        leg would compare python against python — only the baseline
        remains."""
        config = AnalysisConfig(resources=ResourceModel(universal=2))
        tags = {tag for tag, _, _ in case_plan(config, focus="backend")}
        assert tags == {f"diff:{BASELINE_METHOD}"}

    def test_windowed_case_legs_are_eligible(self):
        """A windowed case's vkernel legs run on its config with the window
        cleared, each beside a python twin on that same config."""
        case = next(
            case
            for case in (generate_case(77, seed) for seed in range(64))
            if case.config.window_size is not None
            and vkernels.eligible(case.config.derive(window_size=None))
        )
        plan = case_plan(case.config, focus="backend")
        configs = {tag: cfg for tag, _, cfg in plan}
        np_tags = [tag for tag in configs if tag.endswith(":np")]
        assert np_tags
        for tag in np_tags:
            assert vkernels.eligible(configs[tag]), tag
            assert configs[tag[:-3] + ":py"] == configs[tag]
        assert configs[f"diff:{BASELINE_METHOD}"] == case.config

    def test_unknown_focus_rejected(self):
        with pytest.raises(ValueError, match="unknown verification focus"):
            case_plan(AnalysisConfig(), focus="nope")

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_cases_pass(self, seed):
        case = generate_case(77, seed)
        assert verify_case(case.trace, case.config, focus="backend") == []


class TestVerifyCase:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_cases_pass(self, seed):
        case = generate_case(99, seed)
        assert verify_case(case.trace, case.config) == []

    def test_detects_injected_disagreement(self):
        """evaluate_case flags a result that disagrees with the baseline."""
        from repro.engine.jobs import METHODS

        case = generate_case(99, 0)
        plan = case_plan(case.config)
        results = {
            tag: METHODS[method](case.trace, cfg) for tag, method, cfg in plan
        }
        broken = results[f"diff:{BASELINE_METHOD}"]
        tag = f"diff:{DIFF_METHODS[0]}"
        results[tag].critical_path_length = broken.critical_path_length + 1
        failures = evaluate_case(case.trace, case.config, results)
        assert any("critical_path_length" in failure for failure in failures)

    def test_tolerates_missing_results(self):
        case = generate_case(99, 1)
        assert evaluate_case(case.trace, case.config, {}) == []


class TestGeneratedTraceStore:
    def test_round_trip(self):
        store = GeneratedTraceStore()
        trace = generate_trace(random.Random(0))
        cap = store.add("caseX", trace)
        assert cap == len(trace)
        assert store.trace("caseX", cap).digest() == trace.digest()

    def test_unknown_name_raises(self):
        store = GeneratedTraceStore()
        with pytest.raises(KeyError):
            store.trace("nothere", 10)

    def test_wrong_cap_raises(self):
        store = GeneratedTraceStore()
        cap = store.add("caseX", generate_trace(random.Random(0)))
        with pytest.raises(KeyError):
            store.trace("caseX", cap + 1)

    def test_optimized_variant_raises(self):
        store = GeneratedTraceStore()
        cap = store.add("caseX", generate_trace(random.Random(0)))
        with pytest.raises(KeyError):
            store.trace("caseX", cap, optimize=True)

    def test_columnar_view(self):
        store = GeneratedTraceStore()
        trace = generate_trace(random.Random(1))
        cap = store.add("caseY", trace)
        columnar = store.trace("caseY", cap)
        assert isinstance(columnar, ColumnarTrace)
        assert columnar.digest() == trace.digest()


class TestRunVerification:
    def test_small_sweep_passes(self):
        summary = run_verification(seed=0, cases=20)
        assert summary.ok, summary.describe()
        assert summary.evaluated == 20
        assert summary.analyses > 20 * len(DIFF_METHODS)
        assert "PASS" in summary.describe()

    def test_parallel_sweep_matches_serial(self):
        """Cases fan out through the engine pool like experiment grids."""
        serial = run_verification(seed=3, cases=10, jobs=1)
        parallel = run_verification(seed=3, cases=10, jobs=2)
        assert serial.ok and parallel.ok
        assert serial.analyses == parallel.analyses

    def test_progress_callback(self):
        seen = []
        run_verification(seed=0, cases=5, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(i, 5) for i in range(1, 6)]


def _syscall_dest_trace():
    """Optimistic-syscall regression shape: a syscall with a destination
    must not kill the prior value of that register."""
    builder = TraceBuilder()
    from repro.isa.opclasses import OpClass

    builder.ialu(5)
    builder.ialu(3, 5, 4)
    builder.op(OpClass.SYSCALL, (5,))  # syscall writing r5
    builder.ialu(1, 5, 1)
    return builder.build()


class TestKnownRegressions:
    def test_optimistic_syscall_with_dests(self):
        """The twopass bug this harness caught on its first 500-case run."""
        config = AnalysisConfig(
            syscall_policy=OPTIMISTIC,
            rename_registers=True,
            rename_stack=True,
            rename_data=True,
        )
        assert verify_case(_syscall_dest_trace(), config) == []


class TestMutations:
    @pytest.mark.parametrize(
        "mutation", ["kernel-load-skew", "frontier-war-loss"]
    )
    def test_mutant_caught_shrunk_and_replayable(self, mutation, tmp_path):
        artifact_dir = str(tmp_path / "artifacts")
        with apply_mutation(mutation):
            summary = run_verification(
                seed=0, cases=60, artifact_dir=artifact_dir, max_failures=3
            )
            assert not summary.ok, f"harness missed mutation {mutation}"
            for failure in summary.failures:
                assert failure.records <= 20  # acceptance bound on shrunk size
                assert failure.artifacts
        # outside the mutation context the artifacts replay clean
        from repro.verify.artifacts import replay_artifact

        for failure in summary.failures:
            assert replay_artifact(failure.artifacts[0]) == []

    def test_mutant_artifact_still_fails_under_mutation(self, tmp_path):
        artifact_dir = str(tmp_path / "artifacts")
        with apply_mutation("kernel-load-skew"):
            summary = run_verification(
                seed=0, cases=60, artifact_dir=artifact_dir, max_failures=1
            )
            from repro.verify.artifacts import replay_artifact

            failure = summary.failures[0]
            assert replay_artifact(failure.artifacts[0])  # still failing inside

    def test_vkernel_batch_skew_caught_by_backend_focus(self, tmp_path):
        """The cross-backend differential must catch an off-by-one in the
        vectorized backend's frontier batch seeding. Meaningless without
        NumPy — the mutated seeding never runs when the backend falls
        back to the python frontier."""
        from repro.core import vkernels

        if not vkernels.available():
            pytest.skip("NumPy is not installed")
        artifact_dir = str(tmp_path / "artifacts")
        with apply_mutation("vkernel-batch-skew"):
            summary = run_verification(
                seed=0,
                cases=60,
                artifact_dir=artifact_dir,
                max_failures=3,
                focus="backend",
            )
            assert not summary.ok, "harness missed mutation vkernel-batch-skew"
            for failure in summary.failures:
                assert failure.artifacts
        from repro.verify.artifacts import replay_artifact

        for failure in summary.failures:
            assert replay_artifact(failure.artifacts[0]) == []

    def test_vkernel_batch_skew_invisible_to_python_backends(self):
        """The mutation lives entirely inside the vectorized backend, so
        the default (python-only) plan must keep passing under it."""
        case = generate_case(99, 3)
        with apply_mutation("vkernel-batch-skew"):
            assert verify_case(case.trace, case.config) == []

    def test_unknown_mutation(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            with apply_mutation("nope"):
                pass

    def test_mutation_restores_original(self):
        case = generate_case(99, 2)
        before = verify_case(case.trace, case.config)
        with apply_mutation("kernel-load-skew"):
            pass
        assert verify_case(case.trace, case.config) == before == []
