"""Tests for batch-formation policies and the admission budget."""

from __future__ import annotations

from collections import deque

import pytest

from repro.baselines.registry import build_inference_system
from repro.errors import ConfigurationError, SchedulingError
from repro.models.registry import get_model, tiny_model
from repro.serving.budget import BudgetTracker, CapacityBudget, capacity_budget_for
from repro.serving.policies import (
    ContinuousBatching,
    FCFSFixedBatch,
    LengthBucketedBatch,
    default_policies,
)
from repro.serving.request import make_request_queue
from repro.workloads.requests import LONG, MEDIUM, SHORT


@pytest.fixture
def model():
    return tiny_model(n_layers=2, hidden=32, intermediate=64, n_heads=4)


def tracker_for(model, capacity_bytes: float = 1e18) -> BudgetTracker:
    return BudgetTracker(
        budget=CapacityBudget(capacity_bytes, "test"), model=model
    )


def queue_of(*classes):
    return deque(make_request_queue(list(classes)))


class TestFCFSFixedBatch:
    def test_takes_head_requests_in_arrival_order(self, model):
        waiting = queue_of(SHORT, LONG, MEDIUM, SHORT)
        admitted = FCFSFixedBatch(2).admit(waiting, [], tracker_for(model))
        assert [r.request_id for r in admitted] == [0, 1]
        assert [r.request_id for r in waiting] == [2, 3]

    def test_admits_nothing_while_batch_runs(self, model):
        waiting = queue_of(SHORT, SHORT)
        running = make_request_queue([MEDIUM])
        assert FCFSFixedBatch(2).admit(waiting, running, tracker_for(model)) == []
        assert len(waiting) == 2

    def test_final_partial_batch_is_admitted(self, model):
        waiting = queue_of(SHORT)
        admitted = FCFSFixedBatch(8).admit(waiting, [], tracker_for(model))
        assert len(admitted) == 1

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            FCFSFixedBatch(0)


class TestLengthBucketedBatch:
    def test_batches_are_single_class(self, model):
        waiting = queue_of(SHORT, LONG, SHORT, LONG, SHORT)
        admitted = LengthBucketedBatch(4).admit(waiting, [], tracker_for(model))
        assert {r.request_class.name for r in admitted} == {"Short"}
        assert [r.request_id for r in admitted] == [0, 2, 4]
        assert [r.request_id for r in waiting] == [1, 3]

    def test_oldest_bucket_served_first(self, model):
        waiting = queue_of(LONG, SHORT, SHORT)
        admitted = LengthBucketedBatch(4).admit(waiting, [], tracker_for(model))
        assert {r.request_class.name for r in admitted} == {"Long"}

    def test_admits_nothing_while_batch_runs(self, model):
        waiting = queue_of(SHORT)
        running = make_request_queue([SHORT])
        assert LengthBucketedBatch(4).admit(waiting, running, tracker_for(model)) == []

    def test_bucket_age_keyed_on_arrival_time_not_request_id(self, model):
        """With arrival processes, request ids are no longer
        arrival-ordered: the bucket whose oldest member *arrived* first
        wins, even if a younger-arriving class holds the smaller id."""
        waiting = queue_of(SHORT, LONG, SHORT)
        # id 0 (Short) arrived last; id 1 (Long) arrived first.
        waiting[0].arrival_time = 9.0
        waiting[1].arrival_time = 1.0
        waiting[2].arrival_time = 9.0
        admitted = LengthBucketedBatch(4).admit(waiting, [], tracker_for(model))
        assert {r.request_class.name for r in admitted} == {"Long"}

    def test_bucket_tie_breaks_deterministically_on_request_id(self, model):
        # Equal arrival times: the bucket holding the smaller id wins, so
        # repeated drains of the same queue pick the same bucket.
        waiting = queue_of(MEDIUM, SHORT)
        admitted = LengthBucketedBatch(4).admit(waiting, [], tracker_for(model))
        assert {r.request_class.name for r in admitted} == {"Medium"}


class TestContinuousBatching:
    def test_tops_up_free_slots_only(self, model):
        waiting = queue_of(SHORT, SHORT, SHORT, SHORT)
        running = make_request_queue([MEDIUM, MEDIUM])
        admitted = ContinuousBatching(3).admit(waiting, running, tracker_for(model))
        assert len(admitted) == 1
        assert len(waiting) == 3

    def test_respects_capacity_budget(self, model):
        one_long = make_request_queue([LONG])[0].kv_reservation_bytes(model)
        tracker = tracker_for(model, capacity_bytes=one_long * 2.5)
        waiting = queue_of(LONG, LONG, LONG, LONG)
        admitted = ContinuousBatching(8).admit(waiting, [], tracker)
        # Only two final-context reservations fit in 2.5x the budget.
        assert len(admitted) == 2

    def test_head_of_line_blocking_preserves_order(self, model):
        """A large head request blocks rather than being skipped (no
        starvation of long requests behind admission-friendly short ones)."""
        one_long = make_request_queue([LONG])[0].kv_reservation_bytes(model)
        one_short = make_request_queue([SHORT])[0].kv_reservation_bytes(model)
        tracker = tracker_for(model, capacity_bytes=one_long + one_short)
        waiting = queue_of(LONG, SHORT, SHORT, SHORT)
        admitted = ContinuousBatching(8).admit(waiting, [], tracker)
        assert [r.request_class.name for r in admitted] == ["Long", "Short"]
        # The next Short would fit alone, but the queue stays FCFS.
        assert waiting[0].request_class.name == "Short"

    def test_too_big_head_blocks_instead_of_being_skipped(self, model):
        """A head that does not fit must stop admission entirely, even
        when everything behind it would fit."""
        one_long = make_request_queue([LONG])[0].kv_reservation_bytes(model)
        one_short = make_request_queue([SHORT])[0].kv_reservation_bytes(model)
        tracker = tracker_for(model, capacity_bytes=one_long * 0.9)
        assert one_short < one_long * 0.9  # the Shorts alone would fit
        waiting = queue_of(LONG, SHORT, SHORT)
        admitted = ContinuousBatching(8).admit(waiting, [], tracker)
        assert admitted == []
        assert [r.request_class.name for r in waiting] == ["Long", "Short", "Short"]

    def test_optimistic_admission_charges_current_context(self, model):
        from repro.workloads.requests import RequestClass

        # Small prompt, long output: three prompts fit the budget but not
        # even one final context, so the two accountings disagree.
        growthy_class = RequestClass("Growthy", input_tokens=32, output_tokens=600)
        growthy = make_request_queue([growthy_class] * 3)
        prompt_bytes = growthy[0].kv_current_bytes(model)
        tracker = tracker_for(model, capacity_bytes=prompt_bytes * 3.2)
        waiting = deque(growthy)
        assert ContinuousBatching(8).admit(deque(growthy), [], tracker) == []
        admitted = ContinuousBatching(8, admission="optimistic").admit(
            waiting, [], tracker
        )
        assert len(admitted) == 3


class TestBudgetTracker:
    def test_reserve_release_cycle_tracks_peak(self, model):
        tracker = tracker_for(model)
        requests = make_request_queue([LONG, MEDIUM])
        tracker.reserve(requests[0])
        tracker.reserve(requests[1])
        peak = tracker.reserved_bytes
        tracker.release(requests[0])
        assert tracker.reserved_bytes < peak
        assert tracker.peak_reserved_bytes == pytest.approx(peak)

    def test_overcommit_rejected(self, model):
        request = make_request_queue([LONG])[0]
        tracker = tracker_for(
            model, capacity_bytes=request.kv_reservation_bytes(model) / 2
        )
        with pytest.raises(SchedulingError):
            tracker.reserve(request)

    def test_release_without_reservation_rejected(self, model):
        tracker = tracker_for(model)
        with pytest.raises(SchedulingError):
            tracker.release(make_request_queue([SHORT])[0])

    def test_empty_budget_rejected(self):
        with pytest.raises(SchedulingError):
            CapacityBudget(0.0, "empty")

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, capacity):
        with pytest.raises(SchedulingError, match="finite, positive capacity"):
            CapacityBudget(capacity, "unbounded")

    def test_fractional_budget_decides_on_its_whole_bytes(self, model):
        tracker = tracker_for(model, capacity_bytes=1000.75)
        assert tracker.capacity_bytes == 1000
        assert tracker.fits_bytes(1000)
        assert not tracker.fits_bytes(1001)
        assert not tracker.fits_bytes(1, extra_bytes=1000)


class TestDRAMPlacementBudget:
    """A DRAM-resident KV system's serving budget admits the batches its
    placement runs: at each context the budget holds the largest
    power-of-two batch ``effective_batch`` leaves unclamped but not twice
    it, and no request at all where batch 1 is out of memory."""

    @pytest.mark.parametrize("model_name", ["OPT-30B", "OPT-66B", "OPT-175B"])
    @pytest.mark.parametrize("label", ["FLEX(DRAM)", "DS+UVM(DRAM)"])
    def test_budget_matches_the_feasible_batch(self, label, model_name):
        system = build_inference_system(label, get_model(model_name))
        budget = capacity_budget_for(system)
        assert "host DRAM" in budget.description
        tracker = BudgetTracker(budget=budget, model=system.model)
        for seq_len in (1 << k for k in range(9, 17)):
            request_bytes = system.model.kv_cache_bytes(1, seq_len)
            if system.effective_batch(1, seq_len) == 0:
                assert not tracker.fits_bytes(request_bytes), seq_len
                continue
            # Halving from a batch no host holds stops at the largest
            # power of two that fits.
            batch = system.effective_batch(1 << 16, seq_len)
            assert 1 <= batch < 1 << 16
            assert system.effective_batch(batch, seq_len) == batch
            assert tracker.fits_bytes(batch * request_bytes), seq_len
            assert not tracker.fits_bytes(2 * batch * request_bytes), seq_len


def test_default_policies_cover_all_three():
    names = [policy.name for policy in default_policies(16)]
    assert names == ["fcfs-fixed", "length-bucketed", "continuous"]
