"""Resource-state scaling: the union-find skip must keep scarce-FU
placement near-linear (a naive first-fit scan is quadratic)."""

import time

from repro.core.resources import ResourceModel, ResourceState


class TestSkipStructure:
    def test_saturated_history_skipped(self):
        state = ResourceState(ResourceModel(universal=1))
        for expected in range(2000):
            assert state.place(0, 0) == expected
        # placing from level 0 again must land at the frontier immediately
        assert state.place(0, 0) == 2000

    def test_path_compression_flattens_chains(self):
        state = ResourceState(ResourceModel(universal=1))
        for _ in range(5000):
            state.place(0, 0)
        table = state._universal
        # a lookup from 0 compresses the whole chain to point at the root
        root = table.first_free(0)
        assert root == 5000
        assert table.parents[0] == root

    def test_mid_history_requests_fast(self):
        # dependence-earliest in the middle of a packed region: the skip
        # structure must not re-walk it per request.
        state = ResourceState(ResourceModel(universal=2))
        start = time.perf_counter()
        for index in range(30_000):
            state.place(0, index // 4)  # earliest lags the frontier
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0  # the quadratic scan took minutes at this size

    def test_combined_constraints_converge(self):
        from repro.isa.opclasses import OpClass

        state = ResourceState(
            ResourceModel(universal=2, per_class={OpClass.IALU: 1})
        )
        # ialu takes its own cap; a second ialu at the same level must move
        assert state.place(int(OpClass.IALU), 0) == 0
        assert state.place(int(OpClass.IALU), 0) == 1
        # non-ialu fills the remaining universal slot at level 0
        assert state.place(int(OpClass.FMUL), 0) == 0
        # now level 0 is universally full for everyone
        assert state.place(int(OpClass.FADD), 0) == 1

    def test_interleaved_classes_independent_tables(self):
        from repro.isa.opclasses import OpClass

        state = ResourceState(
            ResourceModel(per_class={OpClass.FMUL: 1, OpClass.FDIV: 1})
        )
        for expected in range(50):
            assert state.place(int(OpClass.FMUL), 0) == expected
        # FDIV has its own table, unaffected by FMUL saturation
        assert state.place(int(OpClass.FDIV), 0) == 0
