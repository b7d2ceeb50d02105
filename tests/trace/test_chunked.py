"""Bounded-memory PGT2 access: manifests, segment decode, chunk streaming."""

import json
import os

import pytest

from repro.isa.opclasses import OpClass
from repro.trace.chunked import (
    build_manifest,
    decode_prefix,
    decode_segment,
    decode_slice,
    iter_chunks,
    load_manifest,
    manifest_path,
    segment_manifest,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import TraceFormatError, read_trace_digest, write_trace_file
from repro.trace.synthetic import TraceBuilder, random_trace

_SYSCALL = int(OpClass.SYSCALL)


@pytest.fixture
def trace():
    return random_trace(7, 200, syscall_fraction=0.05)


@pytest.fixture
def trace_path(tmp_path, trace):
    path = str(tmp_path / "t.pgt2")
    write_trace_file(path, trace)
    return path


class TestManifest:
    def test_segments_tile_the_trace(self, trace_path, trace):
        manifest = build_manifest(trace_path, shard_size=64)
        assert manifest.count == len(trace)
        assert [entry.count for entry in manifest.entries] == [64, 64, 64, 8]
        assert [entry.start for entry in manifest.entries] == [0, 64, 128, 192]
        ends = [entry.offset + entry.length for entry in manifest.entries]
        assert ends[:-1] == [entry.offset for entry in manifest.entries[1:]]
        assert ends[-1] == os.path.getsize(trace_path)

    def test_first_syscall_and_prefix_match_records(self, trace_path, trace):
        manifest = build_manifest(trace_path, shard_size=64)
        records = list(trace)
        for entry in manifest.entries:
            segment = records[entry.start : entry.start + entry.count]
            expected = next(
                (
                    entry.start + position
                    for position, record in enumerate(segment)
                    if record[0] == _SYSCALL
                ),
                -1,
            )
            assert entry.first_syscall == expected
            if expected < 0:
                assert entry.prefix_count == 0 and entry.prefix_length == 0
            else:
                assert entry.prefix_count == expected - entry.start + 1

    def test_segment_digest_is_standalone_trace_digest(
        self, tmp_path, trace_path, trace
    ):
        manifest = build_manifest(trace_path, shard_size=64)
        entry = manifest.entries[1]
        standalone = str(tmp_path / "seg.pgt2")
        sub = ColumnarTrace.from_buffer(
            list(trace)[entry.start : entry.start + entry.count], trace.segments
        )
        write_trace_file(standalone, sub)
        assert read_trace_digest(standalone) == entry.digest
        assert decode_segment(trace_path, manifest, 1).digest() == entry.digest

    def test_round_trips_through_dict(self, trace_path):
        manifest = build_manifest(trace_path, shard_size=64)
        clone = type(manifest).from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert clone == manifest

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.pgt2")
        write_trace_file(path, TraceBuilder().build())
        manifest = build_manifest(path, shard_size=64)
        assert manifest.count == 0
        assert manifest.entries == ()
        assert list(iter_chunks(path, 64)) == []

    def test_rejects_bad_shard_size(self, trace_path):
        with pytest.raises(ValueError, match="shard_size"):
            build_manifest(trace_path, shard_size=0)


class TestSidecar:
    def test_cached_and_reloaded(self, trace_path):
        first = segment_manifest(trace_path, shard_size=64)
        assert os.path.exists(manifest_path(trace_path, 64))
        assert load_manifest(trace_path, 64) == first
        assert segment_manifest(trace_path, shard_size=64) == first

    def test_stale_sidecar_rebuilt_after_rewrite(self, trace_path):
        segment_manifest(trace_path, shard_size=64)
        write_trace_file(trace_path, random_trace(8, 100, syscall_fraction=0.05))
        assert load_manifest(trace_path, 64) is None
        rebuilt = segment_manifest(trace_path, shard_size=64)
        assert rebuilt.count == 100

    def test_garbage_sidecar_is_a_miss(self, trace_path):
        with open(manifest_path(trace_path, 64), "w") as handle:
            handle.write("not json")
        assert load_manifest(trace_path, 64) is None
        assert segment_manifest(trace_path, shard_size=64).count == 200


class TestDecode:
    def test_segments_reassemble_the_trace(self, trace_path, trace):
        manifest = build_manifest(trace_path, shard_size=64)
        records = []
        for entry in manifest.entries:
            records.extend(decode_segment(trace_path, manifest, entry.index))
        assert records == list(trace)

    def test_prefix_is_records_through_first_syscall(self, trace_path, trace):
        manifest = build_manifest(trace_path, shard_size=64)
        entry = next(e for e in manifest.entries if e.first_syscall >= 0)
        prefix = decode_prefix(trace_path, manifest, entry.index)
        assert len(prefix.opclass) == entry.prefix_count
        assert prefix.opclass[-1] == _SYSCALL
        assert list(prefix) == list(trace)[entry.start : entry.first_syscall + 1]

    def test_prefix_requires_a_syscall(self, tmp_path):
        path = str(tmp_path / "nosys.pgt2")
        write_trace_file(path, random_trace(9, 50, syscall_fraction=0.0))
        manifest = build_manifest(path, shard_size=64)
        with pytest.raises(ValueError, match="no syscall prefix"):
            decode_prefix(path, manifest, 0)

    def test_digest_mismatch_detected(self, trace_path):
        manifest = build_manifest(trace_path, shard_size=64)
        entry = manifest.entries[0]
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            decode_slice(
                trace_path,
                entry.offset,
                entry.length,
                entry.count,
                manifest.segments,
                digest="0" * 64,
            )

    def test_truncated_slice_detected(self, trace_path):
        manifest = build_manifest(trace_path, shard_size=64)
        entry = manifest.entries[-1]
        with pytest.raises(TraceFormatError, match="truncated"):
            decode_slice(
                trace_path,
                entry.offset,
                entry.length + 100,  # runs off the end of the file
                entry.count,
                manifest.segments,
            )


class TestIterChunks:
    @pytest.mark.parametrize("chunk_records", [1, 7, 64, 200, 1000])
    def test_chunks_reassemble_the_trace(self, trace_path, trace, chunk_records):
        records = []
        for chunk in iter_chunks(trace_path, chunk_records):
            assert isinstance(chunk, ColumnarTrace)
            assert len(chunk.opclass) <= chunk_records
            records.extend(chunk)
        assert records == list(trace)

    def test_corrupted_payload_raises_before_last_chunk(self, trace_path):
        size = os.path.getsize(trace_path)
        with open(trace_path, "r+b") as handle:
            handle.seek(size - 3)
            byte = handle.read(1)
            handle.seek(size - 3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            list(iter_chunks(trace_path, 64))

    def test_truncated_file_raises(self, trace_path):
        size = os.path.getsize(trace_path)
        with open(trace_path, "r+b") as handle:
            handle.truncate(size - 5)
        with pytest.raises(TraceFormatError, match="truncated"):
            list(iter_chunks(trace_path, 64))

    def test_rejects_bad_chunk_size(self, trace_path):
        with pytest.raises(ValueError, match="chunk_records"):
            list(iter_chunks(trace_path, 0))
