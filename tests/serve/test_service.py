"""Service-level behaviors that need no socket: the upload byte budget,
all-or-nothing batch submission, and submit-time upload spec validation."""

import pytest

from repro.serve.service import (
    AnalysisService,
    ServeConfig,
    ServeStore,
    SpecError,
    UploadBudgetError,
    job_from_spec,
)
from repro.serve.state import QueueFullError
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import make_record


def _trace(seed=0, count=4):
    """A tiny synthetic trace whose content (and so upload id) varies
    with ``seed``."""
    records = [make_record(0, (1 + seed,), (2 + seed + i,)) for i in range(count)]
    return ColumnarTrace.from_buffer(records)


class TestUploadBudget:
    def test_lru_eviction_under_budget(self):
        store = ServeStore(upload_budget=100)
        first, _ = store.add_upload(_trace(seed=1), size=40)
        second, _ = store.add_upload(_trace(seed=2), size=40)
        third, _ = store.add_upload(_trace(seed=3), size=40)
        assert store.upload_cap(first) is None  # oldest evicted
        assert store.upload_cap(second) is not None
        assert store.upload_cap(third) is not None
        assert store.upload_bytes <= 100

    def test_touch_refreshes_lru_order(self):
        store = ServeStore(upload_budget=100)
        first, _ = store.add_upload(_trace(seed=1), size=40)
        second, _ = store.add_upload(_trace(seed=2), size=40)
        store.touch_upload(first)
        store.add_upload(_trace(seed=3), size=40)
        assert store.upload_cap(first) is not None  # touched: survived
        assert store.upload_cap(second) is None

    def test_pinned_uploads_are_not_evicted(self):
        store = ServeStore(upload_budget=100)
        first, _ = store.add_upload(_trace(seed=1), size=40)
        store.pinned = lambda name: name == first
        second, _ = store.add_upload(_trace(seed=2), size=40)
        store.add_upload(_trace(seed=3), size=40)
        assert store.upload_cap(first) is not None  # pinned: skipped
        assert store.upload_cap(second) is None  # unpinned LRU went instead

    def test_all_pinned_raises(self):
        store = ServeStore(upload_budget=100)
        store.pinned = lambda name: True
        store.add_upload(_trace(seed=1), size=60)
        with pytest.raises(UploadBudgetError):
            store.add_upload(_trace(seed=2), size=60)

    def test_oversized_upload_rejected_outright(self):
        store = ServeStore(upload_budget=100)
        with pytest.raises(UploadBudgetError):
            store.add_upload(_trace(seed=1), size=101)
        assert store.upload_bytes == 0

    def test_reupload_of_known_content_is_free(self):
        store = ServeStore(upload_budget=100)
        name, cap = store.add_upload(_trace(seed=1), size=60)
        again, cap_again = store.add_upload(_trace(seed=1), size=60)
        assert (name, cap) == (again, cap_again)
        assert store.upload_bytes == 60  # charged once

    def test_no_budget_means_no_eviction(self):
        store = ServeStore()
        for seed in range(5):
            store.add_upload(_trace(seed=seed), size=10**9)
        assert store.upload_bytes == 5 * 10**9


@pytest.fixture()
def service():
    return AnalysisService(ServeConfig(jobs=1, queue_limit=2, metrics=False))


def _spec(window):
    return {"workload": "cc1x", "cap": 1000, "config": {"window_size": window}}


class TestAtomicBatchSubmission:
    def test_overflowing_batch_enqueues_nothing(self, service):
        with pytest.raises(QueueFullError) as excinfo:
            service.submit_many([_spec(8), _spec(16), _spec(32)], client="alpha")
        assert "no jobs" in str(excinfo.value)
        assert service.queue.depth == 0
        assert len(service.registry) == 0
        assert service.stats["submitted"] == 0

    def test_exact_fit_batch_is_accepted(self, service):
        rows = service.submit_many([_spec(8), _spec(16)], client="alpha")
        assert [deduped for _, deduped in rows] == [False, False]
        assert service.queue.depth == 2

    def test_within_batch_duplicates_need_one_slot(self, service):
        service.submit(_spec(8), client="alpha")  # one slot left
        rows = service.submit_many([_spec(16), _spec(16)], client="beta")
        assert [deduped for _, deduped in rows] == [False, True]
        assert rows[0][0] is rows[1][0]
        assert service.queue.depth == 2

    def test_deduped_jobs_need_no_slots(self, service):
        service.submit_many([_spec(8), _spec(16)], client="alpha")  # queue full
        rows = service.submit_many([_spec(8), _spec(16)], client="beta")
        assert all(deduped for _, deduped in rows)

    def test_invalid_spec_fails_batch_before_any_enqueue(self, service):
        with pytest.raises(SpecError):
            service.submit_many([_spec(8), {"cap": 5}], client="alpha")
        assert service.queue.depth == 0
        assert service.stats["submitted"] == 0


class TestUploadSpecValidation:
    def test_cap_defaults_to_upload_cap(self):
        store = ServeStore()
        name, cap = store.add_upload(_trace(count=6), size=100)
        job = job_from_spec({"workload": name}, store)
        assert job.cap == cap == 6

    def test_matching_explicit_cap_is_accepted(self):
        store = ServeStore()
        name, cap = store.add_upload(_trace(count=6), size=100)
        assert job_from_spec({"workload": name, "cap": cap}, store).cap == cap

    def test_mismatched_cap_is_a_spec_error(self):
        store = ServeStore()
        name, cap = store.add_upload(_trace(count=6), size=100)
        with pytest.raises(SpecError, match="registered at cap"):
            job_from_spec({"workload": name, "cap": cap + 1}, store)

    def test_optimize_on_upload_is_a_spec_error(self):
        store = ServeStore()
        name, _ = store.add_upload(_trace(count=6), size=100)
        with pytest.raises(SpecError, match="optimize"):
            job_from_spec({"workload": name, "optimize": True}, store)
