"""Optimistic admission and recompute-on-readmit preemption tests."""

from __future__ import annotations

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving import (
    AnalyticStepTime,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    Node,
    make_request_queue,
)
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, RequestClass

#: Small prompt, long output: the current footprint at admission is a
#: fraction of the final one, so optimistic admission overcommits and the
#: scheduler must preempt to resolve decode growth.
GROWTHY = RequestClass("Growthy", input_tokens=32, output_tokens=600)


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    return AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=0.0, prefill_per_token_seconds=0.0
    )


def scheduler_for(system, budget, admission="optimistic", slots=8):
    return ClusterScheduler(
        [Node(system, step_time=unit_steps(), budget=budget)],
        ContinuousBatching(slots, admission=admission),
    )


def growthy_budget(model, finals: float) -> CapacityBudget:
    final_bytes = model.kv_cache_bytes(1, GROWTHY.total_tokens)
    return CapacityBudget(final_bytes * finals, f"{finals} growthy finals")


class TestAdmissionModes:
    def test_unknown_admission_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="admission"):
            ContinuousBatching(4, admission="hopeful")

    def test_policy_names_distinguish_modes(self):
        assert ContinuousBatching(4).name == "continuous"
        assert (
            ContinuousBatching(4, admission="optimistic").name
            == "continuous-optimistic"
        )

    def test_reserve_mode_never_preempts(self, system, tiny_mha):
        report = scheduler_for(
            system, growthy_budget(tiny_mha, 2.2), admission="reserve"
        ).drain([GROWTHY] * 6)
        assert report.all_completed
        assert report.preemptions == 0
        assert report.wasted_prefill_tokens == 0


class TestPreemptionRoundTrip:
    @pytest.fixture
    def report(self, system, tiny_mha):
        return scheduler_for(system, growthy_budget(tiny_mha, 2.2)).drain(
            [GROWTHY] * 6
        )

    def test_preemptions_actually_happen(self, report):
        assert report.preemptions > 0
        assert report.wasted_prefill_tokens > 0

    def test_round_trip_conserves_emitted_tokens(self, report):
        # Preemption drops KV, never emitted tokens: every request still
        # generates exactly its output length, once.
        assert report.all_completed
        for request in report.requests:
            assert request.tokens_generated == request.output_tokens
        assert report.generated_tokens == 6 * GROWTHY.output_tokens

    def test_budget_never_burst(self, report):
        assert report.peak_kv_reserved_bytes <= report.kv_capacity_bytes

    def test_youngest_requests_bear_the_evictions(self, report):
        # Admission is FCFS, so the two oldest admissions keep their caches;
        # evictions land on the youngest admitted requests.
        by_id = sorted(report.requests, key=lambda r: r.request_id)
        assert by_id[0].preemption_count == 0
        assert by_id[-1].preemption_count >= 1

    def test_wasted_tokens_match_per_request_accounting(self, report):
        assert report.wasted_prefill_tokens == sum(
            r.wasted_prefill_tokens for r in report.requests
        )

    def test_preempted_requests_keep_first_token_time(self, report):
        for request in report.requests:
            if request.preemption_count:
                assert request.first_token_time is not None
                assert request.first_token_time <= request.completion_time

    def test_queueing_time_measures_first_admission_only(self, report):
        # Readmissions move only last_admitted_time: a preempted request's
        # queueing delay must not swallow the time it already spent running.
        preempted = [r for r in report.requests if r.preemption_count]
        assert preempted
        for request in preempted:
            assert request.last_admitted_time > request.admitted_time
            assert request.queueing_seconds == pytest.approx(
                request.admitted_time - request.arrival_time
            )

    def test_ledger_tracks_prefill_emitted_token(self, system, tiny_mha):
        """The token emitted at prefill completion is re-marked in the
        tracker before the next overflow check (a stale ledger would let
        the following decode iteration burst the budget)."""
        from repro.serving.engine import Node, NodeEngine
        from repro.sim.engine import Simulator

        budget = growthy_budget(tiny_mha, 10.0)
        engine = NodeEngine(
            Node(system, step_time=unit_steps(), budget=budget),
            ContinuousBatching(8, admission="optimistic"),
            Simulator(),
        )
        request = make_request_queue([GROWTHY])[0]
        engine.tracker.occupy(request)  # simlint: disable=SIM004
        engine.prefilling.append(request)
        engine._advance_prefill(optimistic=True)
        assert engine.running == [request]
        assert engine.tracker.reserved_bytes == pytest.approx(
            request.kv_current_bytes(tiny_mha)
        )


class TestOptimisticVsReserve:
    def test_optimistic_beats_reserve_on_growthy_queue(self, system, tiny_mha):
        budget = growthy_budget(tiny_mha, 2.2)
        reserve = scheduler_for(system, budget, admission="reserve").drain(
            [GROWTHY] * 6
        )
        optimistic = scheduler_for(system, budget).drain([GROWTHY] * 6)
        assert optimistic.tokens_per_second > reserve.tokens_per_second

    def test_optimistic_at_least_matches_reserve_on_mixed_queue(
        self, system, tiny_mha
    ):
        """The ISSUE acceptance criterion: on the Short/Medium/Long mix,
        optimistic admission with preemption sustains >= reserve-mode
        throughput."""
        queue = sample_request_classes(24, seed=3)
        one_long = make_request_queue([LONG])[0].kv_reservation_bytes(tiny_mha)
        budget = CapacityBudget(one_long * 2.5, "tight mixed")
        reserve = scheduler_for(system, budget, admission="reserve").drain(
            list(queue)
        )
        optimistic = scheduler_for(system, budget).drain(list(queue))
        assert optimistic.all_completed and reserve.all_completed
        assert (
            optimistic.tokens_per_second >= reserve.tokens_per_second
        ), "optimistic admission must not lose to up-front reservation"

    def test_modes_agree_when_budget_is_loose(self, system, tiny_mha):
        """With room for every final context, both accountings admit the
        same schedule: optimistic strictly generalizes reserve."""
        budget = growthy_budget(tiny_mha, 100.0)
        queue = sample_request_classes(16, seed=5)
        reserve = scheduler_for(system, budget, admission="reserve").drain(
            list(queue)
        )
        optimistic = scheduler_for(system, budget).drain(list(queue))
        assert optimistic.preemptions == 0
        assert optimistic.makespan_seconds == pytest.approx(
            reserve.makespan_seconds
        )


class TestPathologies:
    def test_sole_request_overflowing_budget_raises(self, system, tiny_mha):
        # Budget fits the prompt but not the full decode: with one admitted
        # request there is nothing to preempt, so the drain must fail loudly
        # instead of thrashing.
        prompt_bytes = tiny_mha.kv_cache_bytes(1, GROWTHY.input_tokens)
        budget = CapacityBudget(prompt_bytes * 1.5, "one prompt and change")
        with pytest.raises(SchedulingError, match="preemption cannot help"):
            scheduler_for(system, budget).drain([GROWTHY])

    def test_head_too_big_for_empty_engine_starves(self, system, tiny_mha):
        # Optimistic admission still refuses a head whose *current* context
        # cannot fit an empty budget.
        prompt_bytes = tiny_mha.kv_cache_bytes(1, GROWTHY.input_tokens)
        budget = CapacityBudget(prompt_bytes / 2, "half a prompt")
        with pytest.raises(SchedulingError, match="starvation"):
            scheduler_for(system, budget).drain([GROWTHY, GROWTHY])

class TestOverflowResolution:
    """Unit tests of the eviction mechanics, outside a full drain."""

    def overflow_fixture(self, system, tiny_mha):
        from repro.serving.engine import Node, NodeEngine
        from repro.sim.engine import Simulator

        queue = make_request_queue([GROWTHY] * 3)
        # Room for the three admission footprints but not three grown ones.
        admission = queue[0].kv_admission_bytes(tiny_mha)
        growth = (
            tiny_mha.kv_cache_bytes(1, GROWTHY.input_tokens + 1)
            - tiny_mha.kv_cache_bytes(1, GROWTHY.input_tokens)
        )
        budget = CapacityBudget(
            3 * admission + growth * 1.5, "3 admissions + 1.5 tokens"
        )
        engine = NodeEngine(
            Node(system, step_time=unit_steps(), budget=budget),
            ContinuousBatching(8, admission="optimistic"),
            Simulator(),
        )
        for admitted_at, request in enumerate(queue):
            engine.tracker.occupy(request)  # simlint: disable=SIM004
            request.admitted_time = float(admitted_at)
            request.last_admitted_time = float(admitted_at)
        return engine, queue

    def test_youngest_running_request_evicted_to_waiting_front(
        self, system, tiny_mha
    ):
        engine, queue = self.overflow_fixture(system, tiny_mha)
        engine.running.extend(queue)
        engine._resolve_overflow()
        # Exactly the youngest admission (id 2) was evicted; the next
        # decode step's growth now fits.
        assert [r.request_id for r in engine.running] == [0, 1]
        assert [r.request_id for r in engine.waiting] == [2]
        assert engine.waiting[0].preemption_count == 1
        assert (
            engine.waiting[0].wasted_prefill_tokens
            == engine.waiting[0].context_tokens
        )
        assert engine.waiting[0].prefill_tokens_done == 0
        growth = sum(engine.tracker.growth_bytes(r) for r in engine.running)
        assert engine.tracker.fits_bytes(growth)

    def test_prefilling_admissions_evicted_before_running_decodes(
        self, system, tiny_mha
    ):
        engine, queue = self.overflow_fixture(system, tiny_mha)
        engine.running.extend([queue[0], queue[1]])
        engine.prefilling.append(queue[2])
        engine.prefilling[0].prefill_tokens_done = 12  # mid-chunk progress
        engine._resolve_overflow()
        # The prefilling request is the youngest admission: it goes first,
        # and its wasted work is the chunk progress it had accumulated.
        assert engine.prefilling == []
        assert [r.request_id for r in engine.running] == [0, 1]
        assert [r.request_id for r in engine.waiting] == [2]
        assert engine.waiting[0].wasted_prefill_tokens == 12
