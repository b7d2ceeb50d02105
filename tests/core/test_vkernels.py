"""Vectorized placement backend: eligibility, fallback, and bit-equality.

``repro.core.vkernels`` is the vectorized implementation of the placement
semantics (the python one is the :class:`~repro.core.stream.Frontier`),
evaluating the rule over level-frontier batches with NumPy. It is an
execution strategy, never semantics: every test here pins it
field-for-field against the python frontier over the same traces
and configurations. The backend analyzes whole traces only; streaming
and sharding always run the python frontier.
"""

import pickle

import pytest

from repro.core import vkernels
from repro.core.analyzer import analyze
from repro.core.config import CONSERVATIVE_DISAMBIGUATION, AnalysisConfig
from repro.core.resources import ResourceModel
from repro.core.stream import advance, finalize, new_frontier
from repro.trace.columnar import ColumnarTrace
from repro.trace.synthetic import TraceBuilder, random_trace

requires_numpy = pytest.mark.skipif(
    not vkernels.available(), reason="NumPy is not installed"
)


def assert_same_result(fast, slow):
    """Field-for-field equality (profiles compare by counts)."""
    assert fast.records_processed == slow.records_processed
    assert fast.placed_operations == slow.placed_operations
    assert fast.critical_path_length == slow.critical_path_length
    assert fast.syscalls == slow.syscalls
    assert fast.firewalls == slow.firewalls
    assert fast.branches == slow.branches
    assert fast.mispredictions == slow.mispredictions
    assert fast.peak_live_well == slow.peak_live_well
    if slow.profile is None:
        assert fast.profile is None
    else:
        assert fast.profile.counts == slow.profile.counts
    if slow.lifetimes is None:
        assert fast.lifetimes is None
    else:
        assert fast.lifetimes.lifetime_histogram == slow.lifetimes.lifetime_histogram
        assert fast.lifetimes.sharing_histogram == slow.lifetimes.sharing_histogram


def columnar_trace(seed, length=400, **kwargs):
    kwargs.setdefault("memory_words", 24)
    kwargs.setdefault("syscall_fraction", 0.03)
    return ColumnarTrace.from_buffer(
        random_trace(seed=seed, length=length, **kwargs)
    )


class TestEligibility:
    @pytest.mark.parametrize(
        "config",
        [
            AnalysisConfig(),
            AnalysisConfig.no_renaming(),
            AnalysisConfig(rename_stack=False),
            AnalysisConfig(rename_data=False),
            AnalysisConfig(collect_profile=False),
            AnalysisConfig(syscall_policy="optimistic"),
            AnalysisConfig(collect_lifetimes=True),
            AnalysisConfig(memory_disambiguation=CONSERVATIVE_DISAMBIGUATION),
            AnalysisConfig(resources=ResourceModel()),  # unconstrained
        ],
    )
    def test_eligible_configs(self, config):
        assert vkernels.eligible(config)

    @pytest.mark.parametrize(
        "config",
        [
            AnalysisConfig(branch_predictor="bimodal"),
            AnalysisConfig(branch_predictor="not-taken"),
            AnalysisConfig(resources=ResourceModel(universal=2)),
            AnalysisConfig(window_size=1),
            AnalysisConfig(window_size=64),
        ],
    )
    def test_sequential_features_are_ineligible(self, config):
        assert not vkernels.eligible(config)


class TestBackendValidation:
    """An unknown backend string is a caller error everywhere, even when
    NumPy is absent (validation precedes availability)."""

    def test_analyze_rejects_unknown_backend(self, figure1_trace):
        with pytest.raises(ValueError, match="unknown analysis backend"):
            analyze(figure1_trace, AnalysisConfig(), backend="cuda")

    def test_analyze_rejects_unknown_backend_on_columns(self, figure1_trace):
        columnar = ColumnarTrace.from_buffer(figure1_trace)
        with pytest.raises(ValueError, match="unknown analysis backend"):
            analyze(columnar, AnalysisConfig(), backend="cuda")

    def test_new_frontier_rejects_unknown_backend(self):
        """Streaming has no backend knob: a stale caller that passes one
        fails loudly instead of having it silently ignored."""
        with pytest.raises(TypeError):
            new_frontier(AnalysisConfig(), backend="cuda")
        assert not hasattr(new_frontier(AnalysisConfig()), "backend")

    def test_python_backend_is_always_valid(self, figure1_trace):
        result = analyze(figure1_trace, AnalysisConfig(), backend="python")
        assert result.records_processed == len(figure1_trace)


class TestGracefulFallback:
    """backend="numpy" silently degrades to the python loops whenever the
    vectorized engine cannot run; results never change."""

    def test_without_numpy_available_is_false(self, monkeypatch):
        monkeypatch.setattr(vkernels, "_np", None)
        assert not vkernels.available()

    def test_without_numpy_analyze_falls_back(self, monkeypatch):
        trace = columnar_trace(5, length=120)
        expected = analyze(trace, AnalysisConfig())
        monkeypatch.setattr(vkernels, "_np", None)
        assert_same_result(
            analyze(trace, AnalysisConfig(), backend="numpy"), expected
        )

    def test_without_numpy_strict_entry_raises(self, monkeypatch):
        trace = columnar_trace(5, length=60)
        monkeypatch.setattr(vkernels, "_np", None)
        with pytest.raises(RuntimeError, match="requires NumPy"):
            vkernels.analyze_vectorized(trace, AnalysisConfig())

    @requires_numpy
    def test_ineligible_config_falls_back(self):
        trace = columnar_trace(6, length=200, branch_fraction=0.2)
        config = AnalysisConfig(branch_predictor="bimodal")
        expected = analyze(trace, config)
        assert_same_result(analyze(trace, config, backend="numpy"), expected)

    @requires_numpy
    def test_ineligible_config_strict_entry_raises(self):
        trace = columnar_trace(6, length=60)
        with pytest.raises(ValueError, match="not eligible"):
            vkernels.analyze_vectorized(
                trace, AnalysisConfig(branch_predictor="bimodal")
            )


#: The cross-backend grid: renaming lattice x window x syscall policy x
#: disambiguation x lifetimes. Windowless cells run vectorized; windowed
#: cells are ineligible and fall back to the python windowed loop.
BACKEND_GRID = [
    AnalysisConfig(syscall_policy=policy, window_size=window, **extra)
    for policy in ("conservative", "optimistic")
    for window in (None, 1, 7, 64)
    for extra in (
        {},
        {"rename_registers": False, "rename_stack": False, "rename_data": False},
        {"rename_stack": False},
        {"memory_disambiguation": CONSERVATIVE_DISAMBIGUATION},
        {"collect_lifetimes": True},
    )
]


@requires_numpy
class TestCrossBackendGrid:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grid_identical_results(self, seed):
        trace = columnar_trace(seed)
        for config in BACKEND_GRID:
            expected = analyze(trace, config)
            if config.window_size is None:
                assert vkernels.eligible(config), config.describe()
                fast = vkernels.analyze_vectorized(trace, config)
            else:
                # Windows always run the python windowed loop.
                assert not vkernels.eligible(config), config.describe()
                fast = analyze(trace, config, backend="numpy")
            assert_same_result(fast, expected)

    def test_profile_toggle(self):
        trace = columnar_trace(4, length=250)
        config = AnalysisConfig(collect_profile=False)
        assert_same_result(
            vkernels.analyze_vectorized(trace, config),
            analyze(trace, config),
        )

    def test_wide_frontier_rounds(self):
        """A trace wide enough to leave the scalar cascade and run the
        wide numpy frontier rounds (> NARROW_FRONTIER independent ops)."""
        builder = TraceBuilder()
        for i in range(4 * vkernels.NARROW_FRONTIER):
            builder.ialu(1 + (i % 60))
        trace = ColumnarTrace.from_buffer(builder.build())
        for config in (AnalysisConfig(), AnalysisConfig.no_renaming()):
            assert_same_result(
                vkernels.analyze_vectorized(trace, config),
                analyze(trace, config),
            )


@requires_numpy
class TestEdgeTraces:
    def test_empty_trace(self):
        trace = ColumnarTrace.from_buffer(TraceBuilder().build())
        result = vkernels.analyze_vectorized(trace, AnalysisConfig())
        assert result.records_processed == 0
        assert_same_result(result, analyze(trace, AnalysisConfig()))

    def test_syscall_only_trace(self):
        builder = TraceBuilder()
        builder.syscall()
        builder.syscall()
        trace = ColumnarTrace.from_buffer(builder.build())
        for config in (
            AnalysisConfig(),
            AnalysisConfig.no_renaming(),
            AnalysisConfig(syscall_policy="optimistic"),
        ):
            assert_same_result(
                vkernels.analyze_vectorized(trace, config),
                analyze(trace, config),
            )

    def test_syscall_with_dests(self):
        from repro.isa.opclasses import OpClass

        builder = TraceBuilder()
        builder.ialu(5)
        builder.ialu(3, 5, 4)
        builder.op(OpClass.SYSCALL, (5,))
        builder.ialu(1, 5, 1)
        trace = ColumnarTrace.from_buffer(builder.build())
        for policy in ("conservative", "optimistic"):
            config = AnalysisConfig(syscall_policy=policy)
            assert_same_result(
                vkernels.analyze_vectorized(trace, config),
                analyze(trace, config),
            )

    def test_branchy_trace(self):
        """Branches/jumps are never placed but still counted; with no
        predictor they stay backend-eligible."""
        trace = columnar_trace(9, length=300, branch_fraction=0.3)
        for config in (AnalysisConfig(), AnalysisConfig(collect_lifetimes=True)):
            assert_same_result(
                vkernels.analyze_vectorized(trace, config),
                analyze(trace, config),
            )


@requires_numpy
class TestAdvanceBatch:
    """Batched streaming: the python frontier, advanced batch by batch,
    must finish exactly where the numpy backend's whole-trace analysis
    does. The numpy backend never continues a frontier; windowed configs
    are ineligible for it and run the python frontier whole-trace too."""

    CONFIGS = [
        AnalysisConfig(),
        AnalysisConfig.no_renaming(),
        AnalysisConfig(window_size=16),
        AnalysisConfig(syscall_policy="optimistic", collect_lifetimes=True),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
    def test_numpy_batches_match_python(self, config):
        trace = columnar_trace(7)
        assert vkernels.eligible(config) == (config.window_size is None)
        cuts = [0, 61, 250, len(trace)]
        fr = new_frontier(config, trace.segments)
        for lo, hi in zip(cuts, cuts[1:]):
            advance(fr, trace, lo, hi)
        assert_same_result(finalize(fr), analyze(trace, config, backend="numpy"))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
    def test_backend_handoff_mid_stream(self, config):
        """At the handoff the python frontier's state finalizes to the
        numpy backend's answer for the prefix; it then continues over a
        separately decoded chunk of the rest (as a file stream does) to
        the numpy answer for the whole trace — exact state, not just
        totals."""
        trace = columnar_trace(8)
        mid = len(trace) // 2
        fr = new_frontier(config, trace.segments)
        advance(fr, trace, 0, mid)
        assert_same_result(
            finalize(fr), analyze(trace.head(mid), config, backend="numpy")
        )
        rest = ColumnarTrace.from_buffer(
            [trace[i] for i in range(mid, len(trace))], trace.segments
        )
        advance(fr, rest)
        assert_same_result(finalize(fr), analyze(trace, config, backend="numpy"))


@requires_numpy
class TestIndexCache:
    def test_index_reused_across_runs(self):
        trace = columnar_trace(11, length=150)
        vkernels.analyze_vectorized(trace, AnalysisConfig())
        cached = dict(trace._vk_index)
        assert cached
        vkernels.analyze_vectorized(trace, AnalysisConfig.no_renaming())
        for key, value in cached.items():
            assert trace._vk_index[key] is value

    def test_policy_keys_distinct(self):
        trace = columnar_trace(11, length=150)
        vkernels.analyze_vectorized(trace, AnalysisConfig())
        vkernels.analyze_vectorized(
            trace, AnalysisConfig(syscall_policy="optimistic")
        )
        assert len(trace._vk_index) == 2


@requires_numpy
class TestPickledColumns:
    """A trace sent to another process by pickle, rather than inherited
    through fork, must analyze identically."""

    def test_unpickled_trace_identical(self):
        local = columnar_trace(13, length=300)
        copy = pickle.loads(pickle.dumps(local))
        for config in (
            AnalysisConfig(),
            AnalysisConfig.no_renaming(),
            AnalysisConfig(collect_lifetimes=True),
        ):
            assert_same_result(
                vkernels.analyze_vectorized(copy, config),
                analyze(local, config),
            )

    def test_index_built_before_pickling_is_reused(self):
        """A trace the parent already analyzed carries its access index
        into the copy, which must give the same answer from it."""
        local = columnar_trace(14, length=300)
        expected = vkernels.analyze_vectorized(local, AnalysisConfig())
        copy = pickle.loads(pickle.dumps(local))
        assert copy._vk_index.keys() == local._vk_index.keys()
        assert_same_result(vkernels.analyze_vectorized(copy, AnalysisConfig()), expected)
