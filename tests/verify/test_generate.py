"""Deterministic case generation and counterexample shrinking."""

import random

from repro.isa.opclasses import OpClass
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import FLAG_CONDITIONAL
from repro.verify.generate import (
    MAX_CASE_RECORDS,
    case_seed,
    generate_case,
    generate_trace,
    sample_config,
    shrink_trace,
)


class TestDeterminism:
    def test_same_seed_same_case(self):
        first = generate_case(7, 3)
        second = generate_case(7, 3)
        assert first.trace.digest() == second.trace.digest()
        assert first.config.digest() == second.config.digest()
        assert first.seed == second.seed

    def test_case_seeds_are_mixed(self):
        """Nearby (root, index) pairs give unrelated 64-bit seeds."""
        seeds = {case_seed(root, index) for root in range(4) for index in range(16)}
        assert len(seeds) == 64

    def test_index_changes_case(self):
        assert (
            generate_case(0, 0).trace.digest() != generate_case(0, 1).trace.digest()
        )

    def test_case_name(self):
        assert generate_case(0, 42).name == "case00042"


class TestTraceCoverage:
    """Over a modest case budget the generator exercises every record
    shape the analyzers distinguish — the whole point of the tiny pools."""

    def collect(self, cases=60):
        records = []
        for index in range(cases):
            records.extend(generate_case(0, index).trace)
        return records

    def test_trace_lengths_bounded(self):
        for index in range(60):
            assert 1 <= len(generate_case(0, index).trace) <= MAX_CASE_RECORDS

    def test_all_record_shapes_appear(self):
        records = self.collect()
        classes = {record[0] for record in records}
        for opclass in (
            OpClass.IALU,
            OpClass.LOAD,
            OpClass.STORE,
            OpClass.SYSCALL,
            OpClass.BRANCH,
            OpClass.JUMP,
            OpClass.NOP,
        ):
            assert int(opclass) in classes, f"no {opclass.name} generated"

    def test_read_then_write_and_multi_dest(self):
        records = self.collect()
        assert any(
            set(record[2]) & set(record[1]) for record in records
        ), "no same-location read-then-write generated"
        assert any(len(record[2]) > 1 for record in records), "no multi-dest op"

    def test_syscalls_with_and_without_operands(self):
        syscalls = [r for r in self.collect() if r[0] == int(OpClass.SYSCALL)]
        assert any(r[2] for r in syscalls), "no syscall with destinations"
        assert any(not r[1] and not r[2] for r in syscalls), "no bare syscall"

    def test_branches_both_directions(self):
        branches = [
            r
            for r in self.collect()
            if r[0] == int(OpClass.BRANCH) and r[3] & FLAG_CONDITIONAL
        ]
        from repro.trace.record import FLAG_TAKEN

        assert any(r[3] & FLAG_TAKEN for r in branches)
        assert any(not (r[3] & FLAG_TAKEN) for r in branches)

    def test_both_segments_touched(self):
        from repro.isa.locations import is_memory_location
        from repro.trace.segments import DEFAULT_SEGMENTS

        segments = {
            DEFAULT_SEGMENTS.classify(location)
            for record in self.collect()
            if record[0] in (int(OpClass.LOAD), int(OpClass.STORE))
            for location in (*record[1], *record[2])
            if is_memory_location(location)
        }
        assert {"data", "stack"} <= segments


class TestConfigCoverage:
    def sample(self, count=200):
        return [sample_config(random.Random(seed)) for seed in range(count)]

    def test_both_syscall_policies(self):
        policies = {config.syscall_policy for config in self.sample()}
        assert policies == {"conservative", "optimistic"}

    def test_window_sizes_vary(self):
        windows = {config.window_size for config in self.sample()}
        assert None in windows and len(windows) > 3

    def test_resources_sometimes(self):
        configs = self.sample()
        assert any(config.resources is not None for config in configs)
        assert any(config.resources is None for config in configs)

    def test_resources_can_be_disabled(self):
        configs = [
            sample_config(random.Random(seed), allow_resources=False)
            for seed in range(100)
        ]
        assert all(config.resources is None for config in configs)

    def test_predictors_vary(self):
        predictors = {config.branch_predictor for config in self.sample()}
        assert None in predictors and len(predictors) > 2


class TestShrink:
    def test_shrinks_to_single_guilty_record(self):
        """A predicate keyed on one record shrinks to exactly that record."""
        syscall = int(OpClass.SYSCALL)
        trace = next(
            trace
            for trace in (generate_trace(random.Random(seed)) for seed in range(50))
            if any(r[0] == syscall for r in trace)
        )

        def has_syscall(candidate):
            return any(r[0] == syscall for r in candidate)

        shrunk = shrink_trace(trace, has_syscall)
        assert len(shrunk) == 1
        assert next(iter(shrunk))[0] == syscall

    def test_preserves_predicate(self):
        trace = generate_trace(random.Random(9))
        threshold = max(1, len(trace) // 2)

        def long_enough(candidate):
            return len(candidate) >= threshold

        shrunk = shrink_trace(trace, long_enough)
        assert long_enough(shrunk)
        assert len(shrunk) == threshold  # greedy deletion reaches the floor

    def test_never_grows(self):
        trace = generate_trace(random.Random(3))
        shrunk = shrink_trace(trace, lambda candidate: True)
        assert len(shrunk) == 1  # everything deletable

    def test_unshrinkable_comes_back_unchanged(self):
        trace = generate_trace(random.Random(4))
        full = trace.digest()

        def only_whole(candidate):
            return candidate.digest() == full

        assert shrink_trace(trace, only_whole).digest() == full

    def test_min_records_respected(self):
        trace = generate_trace(random.Random(6))
        floor = min(3, len(trace))
        shrunk = shrink_trace(trace, lambda candidate: True, min_records=floor)
        assert len(shrunk) == floor

    def test_result_is_subsequence(self):
        trace = generate_trace(random.Random(8))
        kept = list(shrink_trace(trace, lambda c: len(c) % 2 == 1))
        records = list(trace)
        position = 0
        for record in kept:
            position = records.index(record, position) + 1  # raises if not in order

    def test_result_type(self):
        trace = generate_trace(random.Random(2))
        assert isinstance(shrink_trace(trace, lambda c: True), ColumnarTrace)
