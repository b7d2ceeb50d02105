"""Result cache hit/miss behavior."""

import json
import os

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.engine.cache import SCHEMA_VERSION, ResultCache, cache_key
from repro.engine.jobs import AnalysisJob
from repro.engine.serialize import result_to_bytes
from repro.trace.synthetic import random_trace

TRACE = random_trace(seed=5, length=1500)
DIGEST = TRACE.digest()


def _job(**kwargs):
    return AnalysisJob("cc1x", 1500, kwargs.pop("config", AnalysisConfig()), **kwargs)


class TestKeys:
    def test_key_is_deterministic(self):
        assert cache_key(DIGEST, _job()) == cache_key(DIGEST, _job())

    def test_key_varies_with_trace_and_job(self):
        other_digest = random_trace(seed=6, length=1500).digest()
        assert cache_key(DIGEST, _job()) != cache_key(other_digest, _job())
        assert cache_key(DIGEST, _job()) != cache_key(
            DIGEST, _job(config=AnalysisConfig(window_size=2))
        )


class TestStoreLoad:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = _job()
        result = analyze(TRACE, job.config)
        key = cache_key(DIGEST, job)
        cache.store(key, DIGEST, job, result)
        loaded = cache.load(key)
        assert result_to_bytes(loaded) == result_to_bytes(result)
        assert cache.hits == 1 and cache.misses == 0
        assert len(cache) == 1

    def test_entry_bytes_are_the_compact_sorted_encoding(self, tmp_path):
        """An entry is written in one piece by the C encoder, and its bytes
        are what the pure-python ``json.dump`` wrote before."""
        import io

        from repro.engine.serialize import result_to_dict

        cache = ResultCache(str(tmp_path))
        job = _job(config=AnalysisConfig(collect_lifetimes=True))
        result = analyze(TRACE, job.config)
        assert result.profile is not None and result.lifetimes is not None
        key = cache_key(DIGEST, job)
        cache.store(key, DIGEST, job, result)
        entry = {
            "schema": SCHEMA_VERSION,
            "trace_digest": DIGEST,
            "job": job.canonical(),
            "result": result_to_dict(result),
        }
        expected = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        streamed = io.StringIO()
        json.dump(entry, streamed, sort_keys=True, separators=(",", ":"))
        assert streamed.getvalue() == expected
        with open(os.path.join(str(tmp_path), f"{key}.json"), "rb") as handle:
            assert handle.read() == expected.encode("utf-8")

    def test_miss_on_absent_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.load(cache_key(DIGEST, _job())) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = _job()
        key = cache_key(DIGEST, job)
        cache.store(key, DIGEST, job, analyze(TRACE, job.config))
        path = os.path.join(str(tmp_path), f"{key}.json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.load(key) is None
        assert not os.path.exists(path)

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = _job()
        key = cache_key(DIGEST, job)
        cache.store(key, DIGEST, job, analyze(TRACE, job.config))
        path = os.path.join(str(tmp_path), f"{key}.json")
        entry = json.load(open(path))
        entry["schema"] = SCHEMA_VERSION + 1
        json.dump(entry, open(path, "w"))
        assert cache.load(key) is None

    def test_entry_records_provenance(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = _job()
        key = cache_key(DIGEST, job)
        cache.store(key, DIGEST, job, analyze(TRACE, job.config))
        entry = json.load(open(os.path.join(str(tmp_path), f"{key}.json")))
        assert entry["trace_digest"] == DIGEST
        assert entry["job"] == job.canonical()


class TestQuarantine:
    def _poison(self, cache, tmp_path, job):
        key = cache_key(DIGEST, job)
        cache.store(key, DIGEST, job, analyze(TRACE, job.config))
        path = os.path.join(str(tmp_path), f"{key}.json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        return key, path

    def test_bad_entry_moved_aside_not_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key, path = self._poison(cache, tmp_path, _job())
        assert cache.load(key) is None
        assert not os.path.exists(path)
        quarantined = path + ".corrupt"
        assert os.path.exists(quarantined)
        assert open(quarantined).read() == "{ not json"  # evidence preserved
        assert cache.quarantined == 1
        assert len(cache) == 0  # .corrupt files are not entries

    def test_quarantined_entry_stays_a_miss_then_restores(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = _job()
        key, path = self._poison(cache, tmp_path, job)
        assert cache.load(key) is None
        assert cache.load(key) is None  # clean miss, no re-quarantine
        assert cache.quarantined == 1
        result = analyze(TRACE, job.config)
        cache.store(key, DIGEST, job, result)
        assert result_to_bytes(cache.load(key)) == result_to_bytes(result)

    def test_warns_once_per_run(self, tmp_path, caplog):
        cache = ResultCache(str(tmp_path))
        key_a, _ = self._poison(cache, tmp_path, _job())
        key_b, _ = self._poison(cache, tmp_path, _job(config=AnalysisConfig(window_size=2)))
        with caplog.at_level("DEBUG", logger="repro.engine.cache"):
            assert cache.load(key_a) is None
            assert cache.load(key_b) is None
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "quarantined" in warnings[0].getMessage()
        debugs = [r for r in caplog.records if r.levelname == "DEBUG"]
        assert len(debugs) == 1
        assert cache.quarantined == 2


class TestParseSize:
    def test_plain_bytes_and_suffixes(self):
        from repro.engine.cache import parse_size

        assert parse_size("1234") == 1234
        assert parse_size("4K") == 4096
        assert parse_size("2m") == 2 * 1024**2
        assert parse_size(" 1G ") == 1024**3
        assert parse_size("0") == 0

    def test_rejects_garbage(self):
        import pytest

        from repro.engine.cache import parse_size

        for bad in ("", "K", "1.5M", "-3", "10T"):
            with pytest.raises(ValueError):
                parse_size(bad)


class TestSizeBudget:
    """LRU eviction under a byte budget (--result-cache-max-bytes)."""

    def _fill(self, cache, count):
        """Store ``count`` distinct entries, oldest first; returns their
        keys in storage order with strictly increasing mtimes."""
        keys = []
        for index in range(count):
            job = _job(config=AnalysisConfig(window_size=index + 2))
            result = analyze(TRACE.head(64), job.config)
            key = cache_key(DIGEST, job)
            cache.store(key, DIGEST, job, result)
            os.utime(cache._path(key), (index, index))  # pin LRU order
            keys.append(key)
        return keys

    def _entry_size(self, tmp_path):
        probe = ResultCache(str(tmp_path / "probe"))
        job = _job(config=AnalysisConfig(window_size=99))
        key = cache_key(DIGEST, job)
        probe.store(key, DIGEST, job, analyze(TRACE.head(64), job.config))
        return os.path.getsize(probe._path(key))

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._fill(cache, 4)
        assert len(cache) == 4
        assert cache.evicted == 0

    def test_oldest_entries_evicted_past_budget(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache = ResultCache(str(tmp_path / "c"), max_bytes=3 * size + size // 2)
        keys = self._fill(cache, 5)
        assert len(cache) == 3
        assert cache.load(keys[0]) is None  # oldest two gone
        assert cache.load(keys[1]) is None
        assert cache.load(keys[4]) is not None
        assert cache.evicted == 2

    def test_hit_refreshes_recency(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache = ResultCache(str(tmp_path / "c"), max_bytes=10 * size)
        keys = self._fill(cache, 3)
        assert cache.load(keys[0]) is not None  # refreshes keys[0]'s mtime
        cache.max_bytes = 3 * size - size // 2  # room for 2 entries
        evicted = cache.enforce_budget()
        assert evicted == 1
        assert cache.load(keys[0]) is not None  # survived: recently hit
        assert cache.load(keys[1]) is None      # evicted: now the LRU

    def test_newest_entry_survives_any_budget(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=1)
        keys = self._fill(cache, 3)
        assert len(cache) == 1
        assert cache.load(keys[-1]) is not None

    def test_live_foreign_lock_skips_eviction(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=1)
        with open(cache._lock_path(), "w") as handle:
            handle.write("pid=0\n")
        keys = self._fill(cache, 3)
        assert cache.evicted == 0
        assert len(cache) == 3  # another evictor presumed live; we skipped
        os.remove(cache._lock_path())
        assert cache.enforce_budget() == 2
        assert cache.load(keys[-1]) is not None

    def test_stale_lock_is_broken(self, tmp_path, caplog):
        cache = ResultCache(str(tmp_path), max_bytes=1)
        lock = cache._lock_path()
        with open(lock, "w") as handle:
            handle.write("pid=0\n")
        os.utime(lock, (1, 1))  # ancient: a crashed evictor's leftover
        with caplog.at_level("WARNING", logger="repro.engine.cache"):
            self._fill(cache, 2)
        assert cache.evicted == 1
        assert any("stale" in r.getMessage() for r in caplog.records)
        assert not os.path.exists(lock)  # released after use

    def test_eviction_counter_reaches_obs(self, tmp_path):
        from repro.obs import metrics as obs

        registry = obs.enable()
        try:
            registry.drain()
            cache = ResultCache(str(tmp_path), max_bytes=1)
            self._fill(cache, 3)
            assert registry.snapshot()["counters"]["result_cache.evicted"] == 2
        finally:
            obs.disable()
