"""Deterministic queue-drain tests for the serving scheduler."""

from __future__ import annotations

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving import (
    AnalyticStepTime,
    CalibratedStepTime,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    FixedRateArrivals,
    Node,
    PoissonArrivals,
    StepTimeModel,
    default_policies,
    drain_queue,
)
from repro.serving.request import ServingRequest, make_request_queue
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, SHORT, RequestClass


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    """One simulated second per iteration, instantaneous prefill."""
    return AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=0.0, prefill_per_token_seconds=0.0
    )


#: A non-default value for every ServingRequest.OUTCOME_FIELDS entry.
STALE_OUTCOME = {
    "admitted_time": 0.0,
    "last_admitted_time": 0.0,
    "first_token_time": 0.0,
    "completion_time": 1.0,
    "tokens_generated": 1,
    "prefill_tokens_done": 1,
    "preemption_count": 1,
    "wasted_prefill_tokens": 1,
    "migration_count": 1,
    "migrated_recompute_tokens": 1,
    "kv_holder": "node0",
    "retry_attempts": 1,
    "shed_time": 0.0,
    "shed_reason": "queue-bound",
    "spilled_decode_seconds": 1.0,
}


class TestHandComputableDrains:
    def test_single_request_timeline(self, system):
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], FCFSFixedBatch(1)
        )
        report = scheduler.drain([SHORT])  # 100 output tokens
        request = report.requests[0]
        # Prefill emits token 1 at t=0; the other 99 tokens take 99 iterations.
        assert request.first_token_time == pytest.approx(0.0)
        assert request.latency_seconds == pytest.approx(99.0)
        assert report.makespan_seconds == pytest.approx(99.0)
        assert report.generated_tokens == 100
        assert report.tokens_per_second == pytest.approx(100.0 / 99.0)

    def test_fixed_batch_holds_until_longest_member_finishes(self, system):
        quick = RequestClass("Short", input_tokens=16, output_tokens=2)
        slow = RequestClass("Long", input_tokens=16, output_tokens=5)
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], FCFSFixedBatch(2)
        )
        report = scheduler.drain(make_request_queue([quick, slow, quick]))
        first, second, third = sorted(report.requests, key=lambda r: r.request_id)
        assert first.completion_time == pytest.approx(1.0)
        assert second.completion_time == pytest.approx(4.0)
        # The third request waits for the whole first batch despite the
        # quick member finishing at t=1.
        assert third.admitted_time == pytest.approx(4.0)

    def test_single_output_token_requests_complete_at_prefill(self, system):
        """Requests that finish during prefill must not trip the
        starvation guard; the drain continues with the next wave."""
        one_shot = RequestClass("One", input_tokens=8, output_tokens=1)
        step_time = AnalyticStepTime(
            base_seconds=1.0, per_token_seconds=0.0, prefill_per_token_seconds=0.5
        )
        for policy in (FCFSFixedBatch(4), ContinuousBatching(4)):
            scheduler = ClusterScheduler([Node(system, step_time=step_time)], policy)
            report = scheduler.drain(make_request_queue([one_shot] * 6))
            assert report.all_completed
            assert report.generated_tokens == 6

    def test_padded_slots_include_prefill_completers(self, system):
        """A padded batch is billed at its formed size even when some
        members complete during prefill."""

        class BatchPricedStepTime(AnalyticStepTime):
            def step_seconds(self, batch_size, seq_len):
                return float(batch_size)

            def prefill_seconds(self, batch_size, seq_len):
                return 0.5

        one_shot = RequestClass("One", input_tokens=8, output_tokens=1)
        slow = RequestClass("Slow", input_tokens=8, output_tokens=3)
        scheduler = ClusterScheduler(
            [Node(system, step_time=BatchPricedStepTime())], FCFSFixedBatch(2)
        )
        report = scheduler.drain(make_request_queue([one_shot, slow]))
        # Prefill (0.5s) + two decode iterations billed at the formed
        # 2-slot batch (2.0s each), not at the single surviving request.
        assert report.makespan_seconds == pytest.approx(0.5 + 2 * 2.0)

    def test_continuous_refills_slot_immediately(self, system):
        quick = RequestClass("Short", input_tokens=16, output_tokens=2)
        slow = RequestClass("Long", input_tokens=16, output_tokens=5)
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(2)
        )
        report = scheduler.drain(make_request_queue([quick, slow, quick]))
        third = report.requests[2]
        # The quick request frees its slot at t=1; the waiter joins then.
        assert third.admitted_time == pytest.approx(1.0)


class TestSeededMixedDrains:
    """The same seeded Short/Medium/Long queue under every policy."""

    N_REQUESTS = 48
    SEED = 11

    @pytest.fixture
    def reports(self, system):
        queue = sample_request_classes(self.N_REQUESTS, seed=self.SEED)
        return {
            report.policy: report
            for report in drain_queue(system, default_policies(8), queue)
        }

    def test_every_policy_completes_every_request(self, reports):
        for report in reports.values():
            assert report.all_completed, f"{report.policy} starved requests"
            assert report.completed == self.N_REQUESTS

    def test_no_starvation_all_requests_have_full_lifecycle(self, reports):
        for report in reports.values():
            for request in report.requests:
                assert request.admitted_time is not None
                assert request.first_token_time is not None
                assert request.completion_time is not None
                assert (
                    request.arrival_time
                    <= request.admitted_time
                    <= request.first_token_time
                    <= request.completion_time
                )
                assert request.tokens_generated == request.output_tokens

    def test_capacity_never_exceeded(self, reports):
        for report in reports.values():
            assert report.peak_kv_reserved_bytes <= report.kv_capacity_bytes

    def test_continuous_beats_fcfs_on_mixed_queue(self, reports):
        assert (
            reports["continuous"].tokens_per_second
            > reports["fcfs-fixed"].tokens_per_second
        )

    def test_drains_are_deterministic(self, system):
        queue = sample_request_classes(self.N_REQUESTS, seed=self.SEED)
        step_time = CalibratedStepTime(system)
        first = ClusterScheduler(
            [Node(system, step_time=step_time)], ContinuousBatching(8)
        ).drain(list(queue))
        second = ClusterScheduler(
            [Node(system, step_time=step_time)], ContinuousBatching(8)
        ).drain(list(queue))
        assert first.makespan_seconds == pytest.approx(second.makespan_seconds)
        assert first.tokens_per_second == pytest.approx(second.tokens_per_second)
        assert first.p95_latency_seconds == pytest.approx(second.p95_latency_seconds)


class TestCapacityConstrainedDrain:
    def test_tight_budget_serializes_but_completes(self, system, tiny_mha):
        one_long = make_request_queue([LONG])[0].kv_reservation_bytes(tiny_mha)
        budget = CapacityBudget(one_long * 2.2, "two long slots")
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps(), budget=budget)], ContinuousBatching(8)
        )
        report = scheduler.drain([LONG] * 6)
        assert report.all_completed
        assert report.peak_kv_reserved_bytes <= budget.kv_capacity_bytes
        # At most two concurrent reservations means at least three waves.
        overlapping = max(
            sum(
                1
                for other in report.requests
                if other.admitted_time < request.completion_time
                and request.admitted_time < other.completion_time
            )
            for request in report.requests
        )
        assert overlapping <= 2

    def test_budget_too_small_for_any_request_raises(self, system, tiny_mha):
        one_short = make_request_queue([SHORT])[0].kv_reservation_bytes(tiny_mha)
        scheduler = ClusterScheduler(
            [
                Node(
                    system,
                    step_time=unit_steps(),
                    budget=CapacityBudget(one_short / 2, "too small"),
                )
            ],
            ContinuousBatching(4),
        )
        with pytest.raises(SchedulingError, match="starvation"):
            scheduler.drain([SHORT, SHORT])

    def test_empty_queue_rejected(self, system):
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(4)
        )
        with pytest.raises(SchedulingError):
            scheduler.drain([])


class TestQueueValidation:
    """Every element is type-checked, not just the head (the old code
    crashed deep inside the drain on mixed queues)."""

    def test_serving_request_amid_classes_rejected_with_index(self, system):
        mixed = [SHORT, LONG, make_request_queue([SHORT])[0], LONG]
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(4)
        )
        with pytest.raises(SchedulingError, match="element 2"):
            scheduler.drain(mixed)

    def test_class_amid_serving_requests_rejected_with_index(self, system):
        mixed = make_request_queue([SHORT, SHORT]) + [LONG]  # type: ignore[list-item]
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(4)
        )
        with pytest.raises(SchedulingError, match="element 2"):
            scheduler.drain(mixed)

    def test_second_drain_of_one_queue_rejected(self, system):
        """A drain mutates its requests and its report shares them: draining
        the same ServingRequest list again must fail loudly instead of
        reporting stale tokens and rewriting the first report's times."""
        queue = make_request_queue([SHORT] * 4)
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(4)
        )
        first = scheduler.drain(queue)
        completions = [r.completion_time for r in first.requests]
        with pytest.raises(SchedulingError, match="element 0"):
            scheduler.drain(queue)
        assert first.generated_tokens == 4 * SHORT.output_tokens
        assert [r.completion_time for r in first.requests] == completions

    @pytest.mark.parametrize("field", ServingRequest.OUTCOME_FIELDS)
    def test_request_carrying_drain_state_rejected_with_index(self, system, field):
        queue = make_request_queue([SHORT] * 3)
        setattr(queue[2], field, STALE_OUTCOME[field])
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(4)
        )
        with pytest.raises(SchedulingError, match=f"element 2 .*{field}="):
            scheduler.drain(queue)

    def test_arbitrary_garbage_rejected_at_its_index(self, system):
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(4)
        )
        with pytest.raises(SchedulingError, match="element 0"):
            scheduler.drain(["not a request", SHORT])  # type: ignore[list-item]


class TestStepTimeInterface:
    """Clamp accounting is part of the StepTimeModel interface: a custom
    model participates without the scheduler probing via getattr."""

    def test_custom_model_defaults_to_empty_notes(self, system):
        class FlatModel(StepTimeModel):
            def step_seconds(self, batch_size, seq_len):
                return 1.0

            def prefill_seconds(self, batch_size, seq_len):
                return 0.0

        report = ClusterScheduler(
            [Node(system, step_time=FlatModel())], ContinuousBatching(4)
        ).drain([SHORT, SHORT])
        assert report.step_time_notes == {}

    def test_custom_clamp_summary_lands_in_the_report(self, system):
        class WarningModel(StepTimeModel):
            def step_seconds(self, batch_size, seq_len):
                return 1.0

            def prefill_seconds(self, batch_size, seq_len):
                return 0.0

            def clamp_counters(self):
                return {"queries": 0}

            def grid_clamp_summary(self, since=None):
                return {"clamped_queries": 7, "window": since}

        report = ClusterScheduler(
            [Node(system, step_time=WarningModel())], ContinuousBatching(4)
        ).drain([SHORT])
        assert report.step_time_notes["clamped_queries"] == 7
        assert report.step_time_notes["window"] == {"queries": 0}


class TestArrivalDrains:
    def test_engine_idles_until_first_arrival(self, system):
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(2)
        )
        report = scheduler.drain(
            [SHORT], arrivals=FixedRateArrivals(1.0, start=5.0)
        )
        request = report.requests[0]
        assert request.arrival_time == pytest.approx(5.0)
        assert request.admitted_time == pytest.approx(5.0)
        # 100 output tokens: first at prefill, 99 decode iterations.
        assert report.makespan_seconds == pytest.approx(5.0 + 99.0)
        assert request.latency_seconds == pytest.approx(99.0)

    def test_late_arrival_joins_at_iteration_boundary(self, system):
        quick = RequestClass("Quick", input_tokens=16, output_tokens=4)
        scheduler = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(2)
        )
        report = scheduler.drain(
            make_request_queue([quick, quick], arrival_times=[0.0, 1.5])
        )
        late = report.requests[1]
        # Arrives mid-iteration at 1.5; the scheduler only acts at the next
        # boundary (t=2), so queueing time is the 0.5s remainder.
        assert late.admitted_time == pytest.approx(2.0)
        assert late.queueing_seconds == pytest.approx(0.5)

    def test_seeded_poisson_drain_is_byte_identical(self, system):
        """ISSUE acceptance: two invocations of the same seeded
        Poisson-arrival drain produce byte-identical reports."""
        queue = sample_request_classes(32, seed=13)
        arrivals = PoissonArrivals(rate_per_second=0.2, seed=13)

        def run():
            return ClusterScheduler(
                [Node(system, step_time=unit_steps())],
                ContinuousBatching(4, admission="optimistic"),
            ).drain(list(queue), arrivals=arrivals)

        first, second = run(), run()
        assert repr(first) == repr(second)
        assert repr(first.requests) == repr(second.requests)
        assert first == second

    def test_arrival_process_spans_the_makespan(self, system):
        queue = sample_request_classes(16, seed=2)
        arrivals = PoissonArrivals(rate_per_second=0.05, seed=4)
        report = ClusterScheduler(
            [Node(system, step_time=unit_steps())], ContinuousBatching(4)
        ).drain(list(queue), arrivals=arrivals)
        assert report.all_completed
        last_arrival = max(r.arrival_time for r in report.requests)
        assert report.makespan_seconds >= last_arrival
        for request in report.requests:
            assert request.admitted_time >= request.arrival_time


class TestChunkedPrefill:
    def test_invalid_chunk_size_rejected(self, system):
        with pytest.raises(ConfigurationError):
            ClusterScheduler(
                [Node(system, step_time=unit_steps(), prefill_chunk_tokens=0)],
                ContinuousBatching(2),
            )

    def test_chunk_at_least_prompt_is_bit_identical_to_unchunked(self, system):
        """ISSUE acceptance: chunk size >= every prompt length reproduces
        the unchunked drain exactly (same code path, unbounded chunk)."""
        queue = sample_request_classes(24, seed=3)
        step_time = AnalyticStepTime(
            base_seconds=1.0,
            per_token_seconds=1e-4,
            prefill_per_token_seconds=1e-3,
        )

        def run(chunk):
            return ClusterScheduler(
                [Node(system, step_time=step_time, prefill_chunk_tokens=chunk)],
                ContinuousBatching(8),
            ).drain(list(queue))

        unchunked = run(None)
        chunked = run(max(LONG.input_tokens, 8192))
        assert repr(unchunked) == repr(chunked)
        assert repr(unchunked.requests) == repr(chunked.requests)

    def test_chunking_bounds_the_decode_stall(self, system):
        """Hand-computable: an 8-token chunk caps how long a late admission
        stalls the running decode, where unchunked prefill stalls it for
        the whole 16-token prompt."""
        step_time = AnalyticStepTime(
            base_seconds=1.0,
            per_token_seconds=0.0,
            prefill_per_token_seconds=1.0,
        )
        first = RequestClass("First", input_tokens=8, output_tokens=3)
        late = RequestClass("Late", input_tokens=16, output_tokens=2)
        queue = [
            lambda: make_request_queue([first, late], arrival_times=[0.0, 1.5])
        ]

        def run(chunk):
            return ClusterScheduler(
                [Node(system, step_time=step_time, prefill_chunk_tokens=chunk)],
                ContinuousBatching(2),
            ).drain(queue[0]())

        unchunked = run(None)
        # t0 admit First, prefill 8s -> token1@8; decode -> token2@9;
        # t9 admit Late, prefill 16s -> t25 (First stalled the whole
        # prompt); decode -> First token3 and Late token2, both @26.
        assert unchunked.requests[0].completion_time == pytest.approx(26.0)
        assert unchunked.requests[1].completion_time == pytest.approx(26.0)
        chunked = run(8)
        # t9 admit Late, chunk of 8 -> t17 (half done); decode -> First
        # token3@18: the stall shrank from 16s to one 8-token chunk.  Late
        # pays one extra decode boundary (27 vs 26) for not blocking First.
        assert chunked.requests[0].completion_time == pytest.approx(18.0)
        assert chunked.requests[1].completion_time == pytest.approx(27.0)

    def test_chunked_totals_conserved(self, system):
        queue = sample_request_classes(24, seed=9)
        report = ClusterScheduler(
            [Node(system, step_time=unit_steps(), prefill_chunk_tokens=256)],
            ContinuousBatching(8),
        ).drain(list(queue))
        assert report.all_completed
        for request in report.requests:
            assert request.tokens_generated == request.output_tokens

    def test_drain_queue_passes_arrivals_and_chunking_through(self, system):
        queue = sample_request_classes(12, seed=1)
        reports = drain_queue(
            system,
            default_policies(4),
            queue,
            step_time=unit_steps(),
            arrivals=FixedRateArrivals(0.5),
            prefill_chunk_tokens=512,
        )
        for report in reports:
            assert report.all_completed
            assert max(r.arrival_time for r in report.requests) > 0.0
