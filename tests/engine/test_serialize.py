"""Exact result serialization round-trips."""

import dataclasses
import json
import random

import pytest

from repro.baselines import (
    AverageOnlyResult,
    StatementLevelResult,
    average_parallelism,
    statement_parallelism,
)
from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.core.resources import ResourceModel
from repro.core.twopass import twopass_analyze
from repro.engine.serialize import result_from_dict, result_to_bytes, result_to_dict
from repro.trace.synthetic import random_trace


def _results_equal(left, right) -> bool:
    return result_to_bytes(left) == result_to_bytes(right)


@pytest.fixture(scope="module")
def trace():
    return random_trace(seed=42, length=2000)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            AnalysisConfig(),
            AnalysisConfig(collect_lifetimes=True),
            AnalysisConfig(collect_profile=False),
            AnalysisConfig(window_size=32, branch_predictor="gshare"),
        ],
        ids=["default", "lifetimes", "no-profile", "windowed-predicted"],
    )
    def test_forward_round_trip(self, trace, config):
        result = analyze(trace, config)
        restored = result_from_dict(result_to_dict(result))
        assert _results_equal(result, restored)
        # the scalar surface the tables read must match exactly
        assert restored.available_parallelism == result.available_parallelism
        assert restored.critical_path_length == result.critical_path_length
        assert restored.peak_live_well == result.peak_live_well
        assert restored.config == result.config

    def test_twopass_round_trip(self, trace):
        result = twopass_analyze(trace, AnalysisConfig())
        restored = result_from_dict(result_to_dict(result))
        assert _results_equal(result, restored)

    def test_profile_survives_exactly(self, trace):
        result = analyze(trace, AnalysisConfig())
        restored = result_from_dict(result_to_dict(result))
        assert restored.profile.counts == result.profile.counts
        assert isinstance(next(iter(restored.profile.counts)), int)

    def test_lifetimes_survive_exactly(self, trace):
        result = analyze(trace, AnalysisConfig(collect_lifetimes=True))
        restored = result_from_dict(result_to_dict(result))
        assert restored.lifetimes.lifetime_histogram == result.lifetimes.lifetime_histogram
        assert restored.lifetimes.sharing_histogram == result.lifetimes.sharing_histogram

    def test_bytes_are_canonical(self, trace):
        result = analyze(trace, AnalysisConfig())
        assert result_to_bytes(result) == result_to_bytes(
            result_from_dict(result_to_dict(result))
        )


class TestBaselineRoundTrip:
    """The prior-work baselines' results cross the pool, the result cache
    and the run journal as ``__kind__``-tagged payloads."""

    @pytest.mark.parametrize(
        "baseline, config",
        [
            (average_parallelism, AnalysisConfig()),
            (statement_parallelism, AnalysisConfig()),
            (statement_parallelism, AnalysisConfig(collect_profile=False)),
        ],
        ids=["average-only", "statement", "statement-no-profile"],
    )
    def test_round_trip_is_byte_exact(self, trace, baseline, config):
        result = baseline(trace, config)
        encoded = result_to_bytes(result)
        restored = result_from_dict(json.loads(encoded))
        assert type(restored) is type(result)
        assert result_to_bytes(restored) == encoded
        assert restored.average_parallelism == result.average_parallelism

    def test_kinds_are_tagged(self, trace):
        assert result_to_dict(average_parallelism(trace))["__kind__"] == "average_only"
        assert result_to_dict(statement_parallelism(trace))["__kind__"] == "statement_level"
        assert "__kind__" not in result_to_dict(analyze(trace, AnalysisConfig()))

    def test_statement_profile_survives_exactly(self, trace):
        result = statement_parallelism(trace)
        restored = result_from_dict(result_to_dict(result))
        assert isinstance(restored, StatementLevelResult)
        assert restored.profile.counts == result.profile.counts

    def test_no_records_processed(self, trace):
        """Record counters read ``records_processed`` with a default of 0;
        a baseline job must not count records it did not analyze."""
        for result in (average_parallelism(trace), statement_parallelism(trace)):
            restored = result_from_dict(result_to_dict(result))
            assert isinstance(restored, (AverageOnlyResult, StatementLevelResult))
            assert not hasattr(restored, "records_processed")


def _config_round_trip(config: AnalysisConfig) -> AnalysisConfig:
    """Through the JSON wire format — what the result cache and the verify
    artifacts both rely on."""
    return AnalysisConfig.from_canonical(json.loads(json.dumps(config.canonical())))


class TestConfigRoundTrip:
    """Every AnalysisConfig field survives canonical()/from_canonical()
    through actual JSON text, digest-identically."""

    #: One non-default value per field (field order mirrors the dataclass).
    NON_DEFAULTS = {
        "syscall_policy": "optimistic",
        "rename_registers": False,
        "rename_stack": False,
        "rename_data": False,
        "window_size": 17,
        "latency": LatencyTable.unit().with_overrides(FDIV=31),
        "resources": ResourceModel(universal=3),
        "branch_predictor": "gshare",
        "memory_disambiguation": "conservative",
        "collect_lifetimes": True,
        "collect_profile": False,
    }

    def test_every_field_covered(self):
        assert set(self.NON_DEFAULTS) == {
            field.name for field in dataclasses.fields(AnalysisConfig)
        }

    @pytest.mark.parametrize("name", sorted(NON_DEFAULTS))
    def test_single_field_round_trips(self, name):
        config = AnalysisConfig(**{name: self.NON_DEFAULTS[name]})
        restored = _config_round_trip(config)
        assert restored == config
        assert restored.digest() == config.digest()
        assert getattr(restored, name) == self.NON_DEFAULTS[name]

    def test_all_fields_at_once(self):
        config = AnalysisConfig(**self.NON_DEFAULTS)
        assert _config_round_trip(config).digest() == config.digest()

    def test_per_class_resources(self):
        from repro.isa.opclasses import OpClass

        config = AnalysisConfig(resources=ResourceModel(per_class={OpClass.LOAD: 2}))
        restored = _config_round_trip(config)
        assert restored.digest() == config.digest()
        assert restored.resources == config.resources

    def test_random_configs_round_trip(self):
        from repro.verify.generate import sample_config

        for seed in range(50):
            config = sample_config(random.Random(seed))
            restored = _config_round_trip(config)
            assert restored.digest() == config.digest(), config.describe()

    def test_digest_distinguishes_every_field(self):
        """The digest the cache keys on actually depends on each field."""
        base = AnalysisConfig()
        digests = {base.digest()}
        for name, value in self.NON_DEFAULTS.items():
            digests.add(AnalysisConfig(**{name: value}).digest())
        assert len(digests) == len(self.NON_DEFAULTS) + 1
