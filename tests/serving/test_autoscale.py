"""Elastic autoscaling: spec parsing and validation, burst-driven scale-up
through the fault layer's provisioning lifecycle, graceful scale-down,
uptime-only billing of offline spares, and deterministic replay."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError
from repro.serving import (
    AnalyticStepTime,
    AutoscalePolicy,
    ClusterScheduler,
    ContinuousBatching,
    LeastOutstandingTokens,
    Node,
    NodeEngine,
    PoissonArrivals,
    parse_autoscale_spec,
    parse_overload_spec,
)
from repro.serving.autoscale import DECISION_INTERVAL_SECONDS
from repro.serving.cluster import check_report_conservation
from repro.sim.engine import Simulator
from repro.workloads import sample_request_classes


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    return AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )


def make_nodes(system, n):
    return [
        Node(system, step_time=unit_steps(), name=f"node{i}") for i in range(n)
    ]


def drain(system, n_nodes, autoscale, n_requests=32, seed=23, rate=2.0, **kwargs):
    scheduler = ClusterScheduler(
        make_nodes(system, n_nodes),
        ContinuousBatching(4, admission="optimistic"),
        router=kwargs.pop("router", LeastOutstandingTokens()),
        autoscale=autoscale,
        **kwargs,
    )
    return scheduler.drain(
        sample_request_classes(n_requests, seed=seed),
        arrivals=PoissonArrivals(rate_per_second=rate, seed=seed),
    )


def report_bytes(report) -> bytes:
    return json.dumps(dataclasses.asdict(report), sort_keys=True).encode()


class TestParseAutoscaleSpec:
    @pytest.mark.parametrize("spec", [None, "none", "off"])
    def test_no_autoscale(self, spec):
        assert parse_autoscale_spec(spec) is None

    def test_minimal_form(self):
        policy = parse_autoscale_spec("auto:1:4:8")
        assert (policy.min_nodes, policy.max_nodes) == (1, 4)
        assert policy.target_queue_depth == 8.0
        assert policy.provision_seconds == 120.0
        assert policy.seed == 0

    def test_full_form(self):
        policy = parse_autoscale_spec("auto:2:6:4:30:9", seed=1)
        assert policy.provision_seconds == 30.0
        assert policy.seed == 9

    def test_seed_defaults_to_caller(self):
        assert parse_autoscale_spec("auto:1:4:8", seed=7).seed == 7

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="expected auto:"):
            parse_autoscale_spec("elastic:1:4:8")

    def test_wrong_field_count(self):
        with pytest.raises(ConfigurationError, match="wrong field count"):
            parse_autoscale_spec("auto:1:4")

    def test_min_nodes_below_one(self):
        with pytest.raises(ConfigurationError, match="min_nodes"):
            parse_autoscale_spec("auto:0:4:8")

    def test_max_below_min(self):
        with pytest.raises(ConfigurationError, match="max_nodes"):
            parse_autoscale_spec("auto:4:2:8")

    def test_nonpositive_target(self):
        with pytest.raises(ConfigurationError, match="target_queue_depth"):
            parse_autoscale_spec("auto:1:4:0")

    def test_policy_must_fit_the_built_fleet(self, system):
        with pytest.raises(ConfigurationError, match="exceeds the fleet"):
            ClusterScheduler(
                make_nodes(system, 2),
                autoscale=parse_autoscale_spec("auto:1:4:8"),
            )


class TestElasticLifecycle:
    """The engine-level scale operations the autoscaler drives."""

    def test_start_offline_is_provisionable_and_down(self, system):
        sim = Simulator()
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), sim)
        engine.start_offline()
        assert engine.state == "down"
        assert engine.provisionable
        assert not engine.routable

    def test_provision_recovers_after_the_delay(self, system):
        sim = Simulator()
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), sim)
        engine.start_offline()
        assert engine.provision(30.0)
        assert not engine.provision(30.0)  # already provisioning
        sim.run(until=29.0)
        assert engine.state != "up"
        sim.run(until=31.0)
        assert engine.state == "up" and engine.routable
        # The whole offline window is downtime, billed at zero later.
        assert engine.downtime_seconds == pytest.approx(30.0)

    def test_drain_gracefully_stops_routing_then_goes_down(self, system):
        sim = Simulator()
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), sim)
        sim.process(engine.run(), name="drain")
        assert engine.drain_gracefully()
        assert engine.scale_draining and not engine.routable
        sim.run(until=5.0)
        assert engine.state == "down"
        assert engine.provisionable

    def test_warm_cancel_reactivates_a_draining_node(self, system):
        sim = Simulator()
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), sim)
        sim.process(engine.run(), name="drain")
        engine.drain_gracefully()
        assert engine.provision(0.0)  # warm cancel, instant
        assert engine.routable and not engine.scale_draining


class TestAutoscaledDrain:
    def test_burst_scales_up_and_completes(self, system):
        report = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30"))
        assert report.all_completed
        assert report.tokens_per_second > 0
        ups = [e for e in report.scale_events if e.action == "scale-up"]
        assert ups, "a 2x burst against one warm node must scale up"
        for event in ups:
            assert event.reason.startswith("queue-depth")
        check_report_conservation(report)

    def test_idle_tail_scales_down(self, system):
        report = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30"))
        downs = [e for e in report.scale_events if e.action == "scale-down"]
        assert downs, "the drained tail should release the burst capacity"
        assert {e.reason for e in downs} == {"idle"}

    def test_spares_accrue_downtime_and_cost_less(self, system):
        report = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30"))
        node0 = report.node_reports[0]
        assert node0.downtime_seconds == 0.0
        for spare in report.node_reports[1:]:
            assert spare.downtime_seconds > 0
            assert spare.cost_usd < node0.cost_usd

    def test_min_nodes_never_drained(self, system):
        report = drain(system, 4, parse_autoscale_spec("auto:2:4:3:30"))
        drained = {e.node for e in report.scale_events if e.action == "scale-down"}
        assert {"node0", "node1"}.isdisjoint(drained)

    def test_deterministic_replay(self, system):
        first = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30:9"))
        second = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30:9"))
        assert report_bytes(first) == report_bytes(second)

    def test_decisions_fall_on_one_interval_grid(self, system):
        # After a seeded phase of 0.5x-1.5x the interval, the autoscaler
        # decides every DECISION_INTERVAL_SECONDS, so every recorded event
        # sits a whole number of intervals after the first one.
        report = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30:9"))
        times = [event.time for event in report.scale_events]
        assert len(times) >= 2
        assert times[0] >= 0.5 * DECISION_INTERVAL_SECONDS
        for time in times[1:]:
            ticks = (time - times[0]) / DECISION_INTERVAL_SECONDS
            assert ticks >= 1
            assert ticks == pytest.approx(round(ticks), abs=1e-9)

    def test_two_seeds_two_schedules(self, system):
        first = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30:1"))
        second = drain(system, 4, parse_autoscale_spec("auto:1:4:3:30:2"))
        assert [e.time for e in first.scale_events] != [
            e.time for e in second.scale_events
        ]

    def test_capacity_respects_max_nodes(self, system):
        report = drain(system, 4, parse_autoscale_spec("auto:1:2:1:10"), rate=4.0)
        provisioned = {e.node for e in report.scale_events if e.action == "scale-up"}
        assert provisioned <= {"node1"}
        assert report.node_reports[2].completed == 0
        assert report.node_reports[3].completed == 0

    def test_composes_with_overload_control(self, system):
        report = drain(
            system,
            4,
            parse_autoscale_spec("auto:1:4:2:30"),
            overload=parse_overload_spec("retry:6"),
            rate=4.0,
        )
        assert report.all_accounted
        check_report_conservation(report)

    def test_single_warm_node_without_pressure_stays_put(self, system):
        report = drain(
            system, 2, parse_autoscale_spec("auto:1:2:50"), n_requests=8, rate=0.2
        )
        assert report.all_completed
        assert report.scale_events == ()
        assert report.node_reports[1].completed == 0
