"""Fault injection: spec parsing, node lifecycle, migration drains,
degraded-mode parking, stranded-fleet errors, and the empty-schedule
identity with the fault-free drain path."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving import (
    AnalyticStepTime,
    BestFitKV,
    ClusterScheduler,
    ContinuousBatching,
    FaultSchedule,
    FCFSFixedBatch,
    LeastOutstandingTokens,
    LengthBucketedBatch,
    Node,
    NodeEngine,
    NodeFault,
    PoissonArrivals,
    RoundRobin,
    SpotPreemptions,
    make_request_queue,
    parse_fault_spec,
    parse_overload_spec,
)
from repro.serving.cluster import check_report_conservation
from repro.sim.engine import Simulator
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, SHORT


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


def drain(system, n_nodes, faults, n_requests=32, seed=23, rate=0.5, **sched_kwargs):
    scheduler = ClusterScheduler(
        make_nodes(system, n_nodes),
        ContinuousBatching(4, admission="optimistic"),
        router=sched_kwargs.pop("router", LeastOutstandingTokens()),
        faults=faults,
        **sched_kwargs,
    )
    return scheduler.drain(
        sample_request_classes(n_requests, seed=seed),
        arrivals=PoissonArrivals(rate_per_second=rate, seed=seed),
    )


def report_bytes(report) -> bytes:
    return json.dumps(dataclasses.asdict(report), sort_keys=True).encode()


class TestParseFaultSpec:
    @pytest.mark.parametrize("spec", [None, "none", "off"])
    def test_no_faults(self, spec):
        assert parse_fault_spec(spec) is None

    def test_spot_clause(self):
        schedule = parse_fault_spec("spot:900:60")
        assert schedule.spot == SpotPreemptions(
            mtbf_seconds=900.0, recovery_seconds=60.0, seed=0
        )
        assert schedule.faults == ()

    def test_spot_clause_with_seed(self):
        assert parse_fault_spec("spot:900:60:5").spot.seed == 5

    def test_spot_clause_inherits_default_seed(self):
        assert parse_fault_spec("spot:900:60", seed=11).spot.seed == 11

    def test_crash_clause(self):
        schedule = parse_fault_spec("crash:300:2")
        assert schedule.faults == (NodeFault(kind="crash", time=300.0, node=2),)

    def test_slow_clause(self):
        schedule = parse_fault_spec("slow:100:50:2.5:1")
        (fault,) = schedule.faults
        assert fault.kind == "slow"
        assert fault.time == 100.0
        assert fault.duration_seconds == 50.0
        assert fault.factor == 2.5
        assert fault.node == 1

    def test_combined_clauses_sorted_by_time(self):
        schedule = parse_fault_spec("crash:300:2,spot:900:60,slow:10:5:2:0")
        assert [f.kind for f in schedule.faults] == ["slow", "crash"]
        assert schedule.spot is not None

    def test_two_spot_streams_rejected(self):
        with pytest.raises(ConfigurationError, match="two spot streams"):
            parse_fault_spec("spot:900:60,spot:100:10")

    @pytest.mark.parametrize(
        "spec",
        ["spot:900", "crash:300", "slow:1:2:3", "crash:abc:0", "flood:1:2", ""],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)


class TestFaultValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            NodeFault(kind="meteor", time=1.0, node=0)

    def test_negative_time(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            NodeFault(kind="crash", time=-1.0, node=0)

    def test_spot_requires_recovery(self):
        with pytest.raises(ConfigurationError, match="recovery_seconds"):
            NodeFault(kind="spot", time=1.0, node=0)

    def test_crash_rejects_recovery(self):
        with pytest.raises(ConfigurationError, match="permanent"):
            NodeFault(kind="crash", time=1.0, node=0, recovery_seconds=5.0)

    def test_slow_requires_window(self):
        with pytest.raises(ConfigurationError, match="duration_seconds"):
            NodeFault(kind="slow", time=1.0, node=0)

    def test_negative_node(self):
        with pytest.raises(ConfigurationError, match="negative"):
            NodeFault(kind="crash", time=1.0, node=-1)

    def test_validate_for_rejects_out_of_fleet_index(self):
        schedule = FaultSchedule(faults=(NodeFault(kind="crash", time=1.0, node=3),))
        with pytest.raises(ConfigurationError, match="fleet has 2"):
            schedule.validate_for(2)

    def test_cluster_rejects_out_of_fleet_fault(self, system):
        schedule = FaultSchedule(faults=(NodeFault(kind="crash", time=1.0, node=9),))
        with pytest.raises(ConfigurationError, match="targets node 9"):
            ClusterScheduler(make_nodes(system, 2), faults=schedule)

    def test_negative_max_migrations(self):
        with pytest.raises(ConfigurationError, match="max_migrations"):
            FaultSchedule(max_migrations=-1)

    def test_empty_schedule(self):
        assert FaultSchedule().is_empty
        assert not FaultSchedule(spot=SpotPreemptions(1.0, 1.0)).is_empty


class TestEngineLifecycle:
    def test_inject_failure_is_idempotent_while_dying(self, system):
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), Simulator())
        assert engine.state == "up" and engine.routable
        assert engine.inject_failure(recovery_seconds=10.0)
        assert engine.state == "draining" and not engine.routable
        assert not engine.inject_failure()  # already dying: no-op

    def test_death_and_recovery_states(self, system):
        sim = Simulator()
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), sim)
        engine.inject_failure(recovery_seconds=10.0)
        engine._apply_death()
        assert engine.state == "recovering" and engine.recovery_pending
        sim.run(until=10.0)
        assert engine.state == "up" and engine.routable
        assert engine.downtime_seconds == pytest.approx(10.0)

    def test_spot_downtime_is_exactly_the_recovery_time(self, system):
        # (37.7 + 120.0) - 37.7 is 119.99999999999999 in floats: the
        # downtime must be the scheduled recovery, not a difference of
        # absolute times.
        sim = Simulator()
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), sim)
        sim.run(until=37.7)
        engine.inject_failure(recovery_seconds=120.0)
        engine._apply_death()
        sim.run(until=200.0)
        assert engine.state == "up"
        assert engine.downtime_seconds == 120.0

    def test_crash_is_permanent(self, system):
        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), Simulator())
        engine.inject_failure()  # no recovery: permanent
        engine._apply_death()
        assert engine.state == "down" and not engine.recovery_pending

    def test_enqueue_to_dead_node_raises(self, system):
        from repro.serving import make_request_queue
        from repro.workloads.requests import SHORT

        engine = NodeEngine(make_nodes(system, 1)[0], ContinuousBatching(4), Simulator())
        engine.inject_failure()
        engine._apply_death()
        (request,) = make_request_queue([SHORT])
        with pytest.raises(SchedulingError, match="state 'down'"):
            engine.enqueue(request)


class TestFaultDrains:
    def test_spot_preemption_drain_completes_with_conservation(self, system):
        faults = FaultSchedule(
            faults=(NodeFault(kind="spot", time=40.0, node=1, recovery_seconds=120.0),)
        )
        report = drain(system, 4, faults, n_requests=48)
        assert report.all_completed
        assert report.migrations > 0
        assert report.migrated_recompute_tokens > 0
        check_report_conservation(report)
        # Per-node failure totals sum to the fleet totals.
        assert sum(n.migrations for n in report.node_reports) == report.migrations
        assert sum(n.migrated_recompute_tokens for n in report.node_reports) == (
            report.migrated_recompute_tokens
        )
        assert sum(n.downtime_seconds for n in report.node_reports) == (
            pytest.approx(report.downtime_seconds)
        )
        dead = report.node_reports[1]
        assert dead.downtime_seconds == pytest.approx(120.0)
        assert dead.migrations == report.migrations

    def test_shed_requests_keep_their_migrations_in_the_report(self, system):
        # A request can migrate off a dying node and then be shed.  The
        # fleet tally merges the shed requests' tally with the nodes', so
        # those migrations still match the dying nodes' counters.
        report = drain(
            system,
            3,
            parse_fault_spec("spot:200:15:2"),
            n_requests=40,
            rate=2.0,
            overload=parse_overload_spec("shed:2"),
        )
        shed = [r for r in report.requests if r.shed]
        assert sum(r.migration_count for r in shed) > 0
        assert report.migrations == sum(r.migration_count for r in report.requests)
        assert report.migrations == sum(n.migrations for n in report.node_reports)
        assert report.migrated_recompute_tokens == sum(
            n.migrated_recompute_tokens for n in report.node_reports
        )
        check_report_conservation(report)

    def test_downtime_discounts_node_cost(self, system):
        faults = FaultSchedule(
            faults=(NodeFault(kind="spot", time=40.0, node=1, recovery_seconds=120.0),)
        )
        report = drain(system, 4, faults, n_requests=48)
        alive, dead = report.node_reports[0], report.node_reports[1]
        expected = alive.cost_usd * (
            1.0 - dead.downtime_seconds / report.makespan_seconds
        )
        assert dead.cost_usd == pytest.approx(expected)
        assert report.system_cost_usd == pytest.approx(
            sum(n.cost_usd for n in report.node_reports)
        )

    def test_all_permanent_crashes_raise_structured_stranded_error(self, system):
        faults = FaultSchedule(
            faults=tuple(
                NodeFault(kind="crash", time=10.0, node=i) for i in range(3)
            )
        )
        with pytest.raises(SchedulingError, match="stranded") as excinfo:
            drain(system, 3, faults, n_requests=24, seed=3)
        assert excinfo.value.stranded_request_ids  # names the stranded work

    def test_a_stranded_queue_drains_again_on_a_healthy_fleet(self, system):
        # The failed drain leaves its input alone: the stranded ids are
        # queue positions, and the same queue drains cleanly afterwards.
        queue = [SHORT] * 8
        with pytest.raises(SchedulingError, match="stranded") as excinfo:
            ClusterScheduler(
                make_nodes(system, 2),
                ContinuousBatching(1),
                router=RoundRobin(),
                faults=parse_fault_spec("crash:1:0,crash:1:1"),
            ).drain(queue)
        stranded = excinfo.value.stranded_request_ids
        assert stranded and set(stranded) <= set(range(8))
        assert queue == [SHORT] * 8
        report = ClusterScheduler(
            make_nodes(system, 2), ContinuousBatching(1), router=RoundRobin()
        ).drain(queue)
        assert report.all_completed
        assert report.migrations == 0
        assert [r.request_id for r in report.requests] == list(range(8))

    def test_single_crash_fleet_survives(self, system):
        faults = FaultSchedule(faults=(NodeFault(kind="crash", time=30.0, node=0),))
        report = drain(system, 3, faults, n_requests=24, seed=3)
        assert report.all_completed
        assert report.migrations > 0
        crashed = report.node_reports[0]
        assert crashed.downtime_seconds > 0
        assert crashed.migrations == report.migrations

    def test_crash_mid_prefill_migrates_the_computed_chunks(
        self, system, monkeypatch
    ):
        """A crash landing while every admitted request is still in chunked
        prefill drops each one's computed chunks: node0 dies at the end of
        its second 64-token round with four requests at 128 tokens each,
        which recompute elsewhere and complete."""
        deaths = []
        apply_death = NodeEngine._apply_death

        def recorded(engine):
            deaths.append(
                (
                    engine.node.name,
                    [r.prefill_tokens_done for r in engine.prefilling],
                    len(engine.running) + len(engine.waiting) + len(engine.pending),
                )
            )
            apply_death(engine)

        monkeypatch.setattr(NodeEngine, "_apply_death", recorded)
        report = ClusterScheduler(
            make_nodes(system, 2, prefill_chunk_tokens=64),
            ContinuousBatching(4),
            faults=parse_fault_spec("crash:0.1:0"),
        ).drain([LONG] * 4 + [SHORT] * 4)
        assert deaths == [("node0", [128] * 4, 0)]
        assert report.migrations == 4
        assert report.migrated_recompute_tokens == 512
        assert report.completed == report.n_requests == 8
        migrated = [r for r in report.requests if r.migration_count]
        assert [r.migrated_recompute_tokens for r in migrated] == [128] * 4

    def test_whole_fleet_down_parks_arrivals_until_recovery(self, system):
        faults = FaultSchedule(
            faults=tuple(
                NodeFault(kind="spot", time=5.0, node=i, recovery_seconds=80.0)
                for i in range(2)
            )
        )
        report = drain(system, 2, faults, n_requests=24, seed=3)
        assert report.all_completed
        assert all(n.downtime_seconds > 0 for n in report.node_reports)
        # Requests that arrived into a fully-down fleet waited for the
        # recovery; their queueing time covers the outage window.
        assert report.makespan_seconds > 85.0

    def test_bounded_retry_exhaustion_raises(self, system):
        faults = FaultSchedule(
            faults=(NodeFault(kind="crash", time=30.0, node=0),),
            max_migrations=0,
        )
        with pytest.raises(SchedulingError, match="max_migrations"):
            drain(system, 2, faults, n_requests=24, seed=3, router=RoundRobin())

    def test_migration_exactly_at_the_bound_is_delivered(self, system):
        # One crash migrates each stranded request exactly once: a bound of
        # 1 sits right on the boundary and must still complete the drain
        # (the redispatcher rejects only migration_count > max_migrations).
        faults = FaultSchedule(
            faults=(NodeFault(kind="crash", time=30.0, node=0),),
            max_migrations=1,
        )
        report = drain(system, 2, faults, n_requests=24, seed=3, router=RoundRobin())
        assert report.all_completed
        assert report.migrations > 0
        assert max(r.migration_count for r in report.requests) == 1

    def test_single_node_spot_recovery(self, system):
        faults = FaultSchedule(
            faults=(NodeFault(kind="spot", time=20.0, node=0, recovery_seconds=60.0),)
        )
        report = drain(system, 1, faults, n_requests=16, seed=3)
        assert report.all_completed
        assert report.downtime_seconds == pytest.approx(60.0)
        assert len(report.node_reports) == 1

    def test_slowdown_stretches_makespan_without_migration(self, system):
        baseline = drain(system, 2, None, n_requests=24, seed=3)
        faults = FaultSchedule(
            faults=(
                NodeFault(
                    kind="slow",
                    time=0.0,
                    node=0,
                    duration_seconds=1e6,
                    factor=4.0,
                ),
            )
        )
        slowed = drain(system, 2, faults, n_requests=24, seed=3)
        assert slowed.all_completed
        assert slowed.migrations == 0
        assert slowed.makespan_seconds > baseline.makespan_seconds

    def test_seeded_spot_stream_is_deterministic(self, system):
        faults = FaultSchedule(
            spot=SpotPreemptions(mtbf_seconds=400.0, recovery_seconds=60.0, seed=5)
        )
        first = drain(system, 4, faults, n_requests=48)
        second = drain(system, 4, faults, n_requests=48)
        assert first.migrations > 0
        assert report_bytes(first) == report_bytes(second)


class TestEmptyScheduleIdentity:
    """An empty ``FaultSchedule`` is byte-identical to no schedule at all,
    on one node and on a routed fleet, for every policy x router."""

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: FCFSFixedBatch(4),
            lambda: LengthBucketedBatch(4),
            lambda: ContinuousBatching(4),
            lambda: ContinuousBatching(4, admission="optimistic"),
        ],
        ids=["fcfs", "bucketed", "continuous", "optimistic"],
    )
    @pytest.mark.parametrize(
        "router_factory",
        [RoundRobin, LeastOutstandingTokens, BestFitKV],
        ids=["rr", "jsq", "bestfit"],
    )
    @pytest.mark.parametrize("n_nodes", [1, 3])
    def test_empty_schedule_matches_no_schedule(
        self, system, policy_factory, router_factory, n_nodes
    ):
        def run(faults):
            scheduler = ClusterScheduler(
                make_nodes(system, n_nodes),
                policy_factory(),
                router=router_factory(),
                faults=faults,
            )
            return scheduler.drain(
                sample_request_classes(24, seed=7),
                arrivals=PoissonArrivals(rate_per_second=0.5, seed=7),
            )

        assert report_bytes(run(FaultSchedule())) == report_bytes(run(None))
