"""Trace store caching, staleness recovery, and disk sharing."""

import os

import pytest

from repro.harness.runner import TraceStore
from repro.trace.io import read_trace_digest, write_trace_file
from repro.trace.synthetic import random_trace
from repro.workloads.suite import load_workload


class TestMemoryCache:
    def test_trace_cached_by_key(self):
        store = TraceStore()
        first = store.trace("xlispx", 2000)
        second = store.trace("xlispx", 2000)
        assert first is second

    def test_distinct_caps_distinct_traces(self):
        store = TraceStore()
        assert len(store.trace("xlispx", 1000)) == 1000
        assert len(store.trace("xlispx", 3000)) == 3000

    def test_accepts_workload_object(self):
        store = TraceStore()
        workload = load_workload("cc1x")
        assert len(store.trace(workload, 500)) == 500

    def test_optimize_cached_separately(self):
        store = TraceStore()
        plain = store.trace("xlispx", 1000)
        optimized = store.trace("xlispx", 1000, optimize=True)
        assert plain is not optimized
        assert store.trace("xlispx", 1000, optimize=True) is optimized


class TestDiskCache:
    def test_round_trip_through_disk(self, tmp_path):
        directory = str(tmp_path / "traces")
        first_store = TraceStore(directory)
        trace = first_store.trace("xlispx", 1500)
        assert os.path.exists(os.path.join(directory, "xlispx.1500.pgt"))
        second_store = TraceStore(directory)
        loaded = second_store.trace("xlispx", 1500)
        assert list(loaded) == list(trace)


class TestStaleness:
    """A stale, truncated, or corrupted cache file must fail loudly and be
    regenerated — never silently analyzed."""

    def _cache_file(self, tmp_path, cap=1500):
        directory = str(tmp_path / "traces")
        fresh = TraceStore(directory).trace("xlispx", cap)
        return directory, os.path.join(directory, f"xlispx.{cap}.pgt"), fresh

    def test_corrupted_record_regenerated(self, tmp_path, caplog):
        directory, path, fresh = self._cache_file(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-2] ^= 0xFF  # flip a bit in the record stream
        open(path, "wb").write(bytes(data))
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert list(reloaded) == list(fresh)
        assert any("regenerating" in message for message in caplog.messages)
        read_trace_digest(path)  # the rewritten file is valid again

    def test_truncated_file_regenerated(self, tmp_path, caplog):
        directory, path, fresh = self._cache_file(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert list(reloaded) == list(fresh)
        assert any("regenerating" in message for message in caplog.messages)

    def test_truncated_mid_header_regenerated(self, tmp_path, caplog):
        """Cut inside the 60-byte PGT2 header — the read fails before a
        single record (or the digest) is seen."""
        directory, path, fresh = self._cache_file(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:30])
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert list(reloaded) == list(fresh)
        assert any("regenerating" in message for message in caplog.messages)
        read_trace_digest(path)  # rewritten file is whole again

    def test_truncated_mid_records_regenerated(self, tmp_path, caplog):
        """Cut a few bytes into the record stream — header parses, digest
        check never gets a full stream to verify."""
        directory, path, fresh = self._cache_file(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:70])  # header (60 B) + partial record
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert list(reloaded) == list(fresh)
        assert any("regenerating" in message for message in caplog.messages)
        read_trace_digest(path)

    def test_truncated_file_regenerated_by_columnar(self, tmp_path, caplog):
        """The columnar decode (what parallel grids pack into shared
        memory) recovers from both truncation shapes in turn."""
        directory, path, fresh = self._cache_file(tmp_path)
        for cut in (30, 70):  # mid-header, then mid-records
            data = open(path, "rb").read()
            open(path, "wb").write(data[:cut])
            with caplog.at_level("WARNING", logger="repro.harness.runner"):
                reloaded = TraceStore(directory).trace("xlispx", 1500)
            assert reloaded.digest() == fresh.digest()
            assert any("regenerating" in message for message in caplog.messages)
            caplog.clear()

    def test_invalidate_drops_all_cached_forms(self, tmp_path):
        directory, path, fresh = self._cache_file(tmp_path)
        store = TraceStore(directory)
        store.trace("xlispx", 1500)
        assert store.invalidate("xlispx", 1500) is True
        assert not os.path.exists(path)
        assert store.invalidate("xlispx", 1500) is False  # nothing left
        regenerated = store.trace("xlispx", 1500)
        assert list(regenerated) == list(fresh)
        assert os.path.exists(path)

    def test_oversized_file_regenerated(self, tmp_path, caplog):
        """A valid file holding more records than the cap is stale (written
        under the same name by a run with different parameters)."""
        directory = str(tmp_path / "traces")
        store = TraceStore(directory)
        path = os.path.join(directory, "xlispx.1500.pgt")
        write_trace_file(path, random_trace(seed=1, length=1600))
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = store.trace("xlispx", 1500)
        assert len(reloaded) <= 1500
        assert any("regenerating" in message for message in caplog.messages)


class TestEnsureOnDisk:
    def test_requires_disk_backed_store(self):
        with pytest.raises(ValueError, match="disk-backed"):
            TraceStore().ensure_on_disk("xlispx", 1000)

    def test_digest_matches_memory_and_header(self, tmp_path):
        store = TraceStore(str(tmp_path))
        path, digest = store.ensure_on_disk("xlispx", 1000)
        assert digest == store.trace("xlispx", 1000).digest()
        assert read_trace_digest(path) == digest

    def test_cold_file_needs_header_only(self, tmp_path):
        _, digest = TraceStore(str(tmp_path)).ensure_on_disk("xlispx", 1000)
        cold = TraceStore(str(tmp_path))
        path, cold_digest = cold.ensure_on_disk("xlispx", 1000)
        assert cold_digest == digest
        # records were never loaded: the digest came from the file header
        assert ("xlispx", 1000, False) not in cold._memory

    def test_divergent_disk_file_rewritten(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = store.trace("xlispx", 1000)  # in memory and on disk
        path = os.path.join(str(tmp_path), "xlispx.1000.pgt")
        write_trace_file(path, random_trace(seed=2, length=100))  # clobber
        returned_path, digest = store.ensure_on_disk("xlispx", 1000)
        assert returned_path == path
        assert digest == trace.digest()
        assert read_trace_digest(path) == digest

    def test_corrupt_file_regenerated(self, tmp_path, caplog):
        store = TraceStore(str(tmp_path))
        path, digest = store.ensure_on_disk("xlispx", 1000)
        open(path, "wb").write(b"garbage")
        cold = TraceStore(str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            repaired_path, repaired_digest = cold.ensure_on_disk("xlispx", 1000)
        assert repaired_path == path
        assert repaired_digest == digest
        assert read_trace_digest(path) == digest


class TestFullRunLength:
    def test_length_cached(self):
        store = TraceStore()
        first = store.full_run_length("doducx")
        second = store.full_run_length("doducx")
        assert first == second > 100_000
