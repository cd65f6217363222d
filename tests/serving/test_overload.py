"""Overload control: spec parsing (and the unified spec-error shape),
load shedding, retry-with-backoff, park-with-deadline, token-rate
throttling, the disabled-overload byte-identity, request conservation,
and the downtime-billing edge cases."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.sanitizer import SanitizerError
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError
from repro.serving import (
    AnalyticStepTime,
    ClusterScheduler,
    ContinuousBatching,
    FaultSchedule,
    FixedRateArrivals,
    LeastOutstandingTokens,
    Node,
    NodeFault,
    OverloadControl,
    PoissonArrivals,
    RoundRobin,
    TokenRateThrottle,
    parse_arrival_spec,
    parse_autoscale_spec,
    parse_fault_spec,
    parse_overload_spec,
    parse_router_spec,
    uptime_billing,
)
from repro.serving.cluster import check_report_conservation
from repro.serving.overload import BACKOFF_SECONDS, BURST_SECONDS
from repro.workloads import sample_request_classes
from repro.workloads.requests import MEDIUM, SHORT


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    return AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )


def make_nodes(system, n, **node_kwargs):
    return [
        Node(system, step_time=unit_steps(), name=f"node{i}", **node_kwargs)
        for i in range(n)
    ]


def drain(system, n_nodes, overload, n_requests=32, seed=23, rate=2.0, **kwargs):
    scheduler = ClusterScheduler(
        make_nodes(system, n_nodes),
        ContinuousBatching(4, admission="optimistic"),
        router=kwargs.pop("router", LeastOutstandingTokens()),
        overload=overload,
        **kwargs,
    )
    return scheduler.drain(
        sample_request_classes(n_requests, seed=seed),
        arrivals=PoissonArrivals(rate_per_second=rate, seed=seed),
    )


def report_bytes(report) -> bytes:
    return json.dumps(dataclasses.asdict(report), sort_keys=True).encode()


class TestParseOverloadSpec:
    @pytest.mark.parametrize("spec", [None, "none", "off"])
    def test_no_overload(self, spec):
        assert parse_overload_spec(spec) is None

    def test_shed_queue_depth(self):
        control = parse_overload_spec("shed:8")
        assert control.action == "shed"
        assert control.max_queue_depth == 8
        assert control.max_tokens_per_second is None

    def test_shed_with_token_rate(self):
        control = parse_overload_spec("shed:8:5000")
        assert control.max_tokens_per_second == 5000.0

    def test_unset_marker_leaves_a_bound_open(self):
        control = parse_overload_spec("shed:-:5000")
        assert control.max_queue_depth is None
        assert control.max_tokens_per_second == 5000.0

    def test_retry_defaults(self):
        control = parse_overload_spec("retry:8", seed=5)
        assert control.action == "retry"
        assert control.max_attempts == 8
        assert control.backoff_seed == 5

    def test_retry_full_form(self):
        control = parse_overload_spec("retry:8:-:6:3")
        assert control.max_attempts == 6
        assert control.backoff_seed == 3

    def test_park_with_deadline(self):
        control = parse_overload_spec("park:4:-:120")
        assert control.action == "park"
        assert control.park_deadline_seconds == 120.0

    def test_both_bounds_unset_rejected(self):
        with pytest.raises(ConfigurationError, match="queue depth or a token rate"):
            parse_overload_spec("shed:-")

    def test_unknown_action(self):
        with pytest.raises(ConfigurationError, match="unknown action"):
            parse_overload_spec("bounce:8")

    def test_bad_number(self):
        with pytest.raises(ConfigurationError, match="bad number"):
            parse_overload_spec("shed:many")

    def test_wrong_field_count(self):
        with pytest.raises(ConfigurationError, match="wrong field count"):
            parse_overload_spec("shed:1:2:3")

    def test_validation_rejects_nonpositive_bounds(self):
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            OverloadControl(max_queue_depth=0)
        with pytest.raises(ConfigurationError, match="max_tokens_per_second"):
            OverloadControl(max_tokens_per_second=-1.0)

    def test_empty_control_is_empty(self):
        assert OverloadControl().is_empty
        assert not parse_overload_spec("shed:8").is_empty


class TestUnifiedSpecErrors:
    """Every serving spec parser reports malformed input the same way."""

    @pytest.mark.parametrize(
        "parse, spec",
        [
            (parse_overload_spec, "bogus:1"),
            (parse_autoscale_spec, "bogus:1"),
            (parse_fault_spec, "bogus:1"),
            (parse_arrival_spec, "bogus:1"),
            (parse_router_spec, "bogus"),
        ],
    )
    def test_error_shape(self, parse, spec):
        with pytest.raises(
            ConfigurationError, match=r"^malformed \w+ spec: expected .*, got "
        ):
            parse(spec)

    def test_router_error_keeps_legacy_phrase(self):
        with pytest.raises(ConfigurationError, match="unknown router"):
            parse_router_spec("bogus")

    @pytest.mark.parametrize(
        "parse, spec",
        [
            (parse_overload_spec, "shed:many"),
            (parse_autoscale_spec, "auto:1:4:deep"),
            (parse_fault_spec, "crash:soon:0"),
            (parse_arrival_spec, "poisson:fast"),
        ],
    )
    def test_bad_numbers_share_a_reason(self, parse, spec):
        with pytest.raises(ConfigurationError, match="bad number"):
            parse(spec)


class TestTokenRateThrottle:
    def test_burst_then_deficit(self):
        throttle = TokenRateThrottle(rate=10.0, burst=10.0)
        assert throttle.ready(0.0)
        throttle.take(30.0, 0.0)  # deficit bucket: level drops to -20
        assert not throttle.ready(0.0)
        assert throttle.seconds_until_ready(0.0) == pytest.approx(2.0)
        assert throttle.ready(2.0)

    def test_level_caps_at_burst(self):
        throttle = TokenRateThrottle(rate=10.0, burst=5.0)
        throttle.take(5.0, 0.0)
        # A long idle period refills to the burst cap, not beyond: one
        # over-burst take immediately drives the level negative again.
        assert throttle.seconds_until_ready(100.0) == 0.0
        throttle.take(6.0, 100.0)
        assert not throttle.ready(100.0)
        assert throttle.seconds_until_ready(100.0) == pytest.approx(0.1)

    def test_oversized_request_still_progresses(self):
        # A request larger than the burst drives the level negative but is
        # admitted whenever the level is non-negative, so it cannot starve.
        throttle = TokenRateThrottle(rate=1.0, burst=2.0)
        assert throttle.ready(0.0)
        throttle.take(100.0, 0.0)
        assert throttle.ready(98.0 + 0.5)

    def test_fleet_bucket_starts_with_one_burst_window_of_credit(self, system):
        # Every request arrives at zero, before any refill: with
        # BURST_SECONDS x rate = 2.5 requests' tokens of credit, the first
        # three are admitted (the third drives the level negative) and the
        # rest are shed on the token rate.
        rate = 2.5 * SHORT.total_tokens / BURST_SECONDS
        report = ClusterScheduler(
            make_nodes(system, 1),
            ContinuousBatching(4),
            overload=OverloadControl(action="shed", max_tokens_per_second=rate),
        ).drain([SHORT] * 6)
        assert report.completed == 3
        assert [s.request_id for s in report.sheds] == [3, 4, 5]
        assert {s.reason for s in report.sheds} == {"token-rate"}


class TestSheddingDrain:
    def test_graceful_degradation(self, system):
        report = drain(system, 2, parse_overload_spec("shed:2"))
        assert report.shed_requests > 0
        assert report.completed + report.shed_requests == report.n_requests
        assert report.all_accounted
        assert not report.all_completed
        # Structured outcomes, never silent drops.
        assert len(report.sheds) == report.shed_requests
        assert {s.reason for s in report.sheds} == {"queue-bound"}
        shed_ids = {s.request_id for s in report.sheds}
        for request in report.requests:
            if request.request_id in shed_ids:
                assert request.shed and request.shed_reason == "queue-bound"
                assert not request.finished
            else:
                assert request.finished and not request.shed

    def test_sheds_charged_to_exactly_one_node(self, system):
        report = drain(system, 2, parse_overload_spec("shed:2"))
        assert sum(n.shed_requests for n in report.node_reports) == (
            report.shed_requests
        )
        charged = [s.node for s in report.sheds]
        by_node = {n.node: n.shed_requests for n in report.node_reports}
        for node, count in by_node.items():
            assert charged.count(node) == count
        check_report_conservation(report)

    def test_throughput_counts_only_finished_work(self, system):
        report = drain(system, 2, parse_overload_spec("shed:2"))
        assert report.tokens_per_second == pytest.approx(
            report.generated_tokens / report.makespan_seconds
        )
        finished_tokens = sum(
            r.tokens_generated for r in report.requests if r.finished
        )
        assert report.generated_tokens == finished_tokens

    def test_token_rate_bound_sheds(self, system):
        report = drain(system, 2, parse_overload_spec("shed:-:50"), rate=4.0)
        assert report.shed_requests > 0
        assert {s.reason for s in report.sheds} == {"token-rate"}

    def test_deterministic_replay(self, system):
        first = drain(system, 2, parse_overload_spec("shed:2"))
        second = drain(system, 2, parse_overload_spec("shed:2"))
        assert report_bytes(first) == report_bytes(second)


class TestDisabledOverloadIdentity:
    """An empty control is normalised away: byte-identical drains."""

    @pytest.mark.parametrize("router", [RoundRobin, LeastOutstandingTokens])
    @pytest.mark.parametrize("admission", ["reserve", "optimistic"])
    def test_identity_across_routers_and_policies(self, system, router, admission):
        def once(overload):
            scheduler = ClusterScheduler(
                make_nodes(system, 2),
                ContinuousBatching(4, admission=admission),
                router=router(),
                overload=overload,
            )
            return scheduler.drain(
                sample_request_classes(24, seed=23),
                arrivals=PoissonArrivals(rate_per_second=0.5, seed=23),
            )

        assert report_bytes(once(None)) == report_bytes(once(OverloadControl()))

    def test_identity_under_faults(self, system):
        faults = parse_fault_spec("crash:40:1")

        def once(overload):
            scheduler = ClusterScheduler(
                make_nodes(system, 3),
                ContinuousBatching(4, admission="optimistic"),
                router=LeastOutstandingTokens(),
                faults=faults,
                overload=overload,
            )
            return scheduler.drain(
                sample_request_classes(24, seed=23),
                arrivals=PoissonArrivals(rate_per_second=0.5, seed=23),
            )

        assert report_bytes(once(None)) == report_bytes(once(OverloadControl()))

    def test_empty_control_keeps_single_node_fast_path(self, system):
        scheduler = ClusterScheduler(
            make_nodes(system, 1), overload=OverloadControl()
        )
        assert scheduler.overload is None


class TestRetryDrain:
    def test_backoff_retries_then_completes(self, system):
        report = drain(system, 2, parse_overload_spec("retry:4"), rate=1.0)
        assert report.all_accounted
        assert report.retry_attempts > 0
        assert sum(n.retry_attempts for n in report.node_reports) == (
            report.retry_attempts
        )
        check_report_conservation(report)

    def test_exhausted_retries_shed_at_the_boundary(self, system):
        report = drain(system, 2, parse_overload_spec("retry:1:-:1"), rate=4.0)
        assert report.shed_requests > 0
        assert "retry-exhausted" in {s.reason for s in report.sheds}
        # A request shed at the cap carries exactly max_attempts attempts.
        for shed in report.sheds:
            assert shed.attempts == 1

    def test_seeded_backoff_is_deterministic(self, system):
        spec = "retry:2:-:3:11"
        first = drain(system, 2, parse_overload_spec(spec), rate=2.0)
        second = drain(system, 2, parse_overload_spec(spec), rate=2.0)
        assert report_bytes(first) == report_bytes(second)

    @pytest.mark.parametrize("attempts", [1, 2, 3])
    def test_exhausted_request_waited_the_doubling_backoff(self, system, attempts):
        # Request 0 holds the only slot for 350 s and request 1 fills the
        # one-deep queue, so every later arrival is turned away.  Arrivals
        # 20 s apart find the front door free, so each backs off from its
        # own arrival: attempt k waits BACKOFF_SECONDS * 2**(k-1), jittered
        # by 0.5x-1.5x, and k attempts add up to 0.5x-1.5x of (2**k - 1)
        # base delays.
        report = ClusterScheduler(
            make_nodes(system, 1),
            ContinuousBatching(1),
            overload=OverloadControl(
                action="retry", max_queue_depth=1, max_attempts=attempts
            ),
        ).drain([MEDIUM] * 6, arrivals=FixedRateArrivals(0.05))
        assert [s.request_id for s in report.sheds] == [2, 3, 4, 5]
        span = BACKOFF_SECONDS * (2**attempts - 1)
        for shed in report.sheds:
            assert shed.reason == "retry-exhausted"
            assert shed.attempts == attempts
            waited = shed.time - report.requests[shed.request_id].arrival_time
            assert 0.5 * span <= waited <= 1.5 * span

    def test_queue_left_by_exhaustion_drains_again_identically(self, system):
        # A drain that sheds exhausted retries leaves its input alone: one
        # scheduler drains the same queue again to the same bytes.
        queue = [SHORT] * 40
        scheduler = ClusterScheduler(
            make_nodes(system, 1),
            ContinuousBatching(4),
            overload=OverloadControl(
                action="retry", max_queue_depth=1, max_attempts=1
            ),
        )
        first = scheduler.drain(queue)
        assert "retry-exhausted" in {s.reason for s in first.sheds}
        second = scheduler.drain(queue)
        assert queue == [SHORT] * 40
        assert report_bytes(second) == report_bytes(first)


class TestParkDrain:
    def test_unbounded_park_completes_everything(self, system):
        report = drain(system, 2, parse_overload_spec("park:2"), rate=1.0)
        assert report.all_completed
        assert report.shed_requests == 0

    def test_deadline_sheds_deterministically(self, system):
        report = drain(system, 2, parse_overload_spec("park:1:-:5"), rate=4.0)
        assert report.shed_requests > 0
        assert {s.reason for s in report.sheds} == {"park-deadline"}
        assert report.completed + report.shed_requests == report.n_requests
        again = drain(system, 2, parse_overload_spec("park:1:-:5"), rate=4.0)
        assert report_bytes(report) == report_bytes(again)

    def test_parked_requests_wait_at_least_their_deadline(self, system):
        report = drain(system, 2, parse_overload_spec("park:1:-:5"), rate=4.0)
        for request in report.requests:
            if request.shed:
                assert request.shed_time - request.arrival_time >= 5.0 - 1e-9


class TestRequestConservation:
    def test_lost_request_detected(self, system):
        report = drain(system, 2, parse_overload_spec("shed:2"))
        broken = dataclasses.replace(
            report, shed_requests=report.shed_requests - 1
        )
        with pytest.raises(SanitizerError, match="request-conservation|n_requests"):
            check_report_conservation(broken)

    def test_retry_sum_mismatch_detected(self, system):
        report = drain(system, 2, parse_overload_spec("retry:4"), rate=1.0)
        broken = dataclasses.replace(
            report, retry_attempts=report.retry_attempts + 1
        )
        with pytest.raises(SanitizerError) as excinfo:
            check_report_conservation(broken)
        assert excinfo.value.invariant == "request-conservation"


class TestUptimeBilling:
    def test_no_downtime_is_billed_in_full(self):
        cost, note = uptime_billing(100.0, 0.0, 50.0)
        assert cost == 100.0 and note is None

    def test_partial_downtime_scales_linearly(self):
        cost, note = uptime_billing(100.0, 25.0, 100.0)
        assert cost == pytest.approx(75.0) and note is None

    def test_zero_makespan_with_downtime_notes_and_bills_zero(self):
        cost, note = uptime_billing(100.0, 10.0, 0.0)
        assert cost == 0.0
        assert note is not None and "undefined" in note

    def test_downtime_past_makespan_clamps_and_notes(self):
        cost, note = uptime_billing(100.0, 120.0, 100.0)
        assert cost == 0.0
        assert note is not None and "exceeds" in note

    def test_zero_makespan_without_downtime_stays_silent(self):
        cost, note = uptime_billing(100.0, 0.0, 0.0)
        assert cost == 100.0 and note is None
