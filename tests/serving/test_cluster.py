"""Cluster scheduler tests: 1-node bit-identity, report labels, fleet
drains, validation."""

from __future__ import annotations

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving import (
    AnalyticStepTime,
    BestFitKV,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    LeastOutstandingTokens,
    LengthBucketedBatch,
    Node,
    PoissonArrivals,
    RoundRobin,
)
from repro.serving.faults import parse_fault_spec
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG


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


class TestSingleNodeBitIdentity:
    """Two consecutive drains of one 1-node scheduler reproduce a freshly
    built scheduler's drain bit for bit, so no per-request, router or
    arrival state leaks from one drain into the next."""

    N_REQUESTS = 40

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
        "arrival_factory",
        [
            lambda seed: None,
            lambda seed: PoissonArrivals(rate_per_second=0.2, seed=seed),
        ],
        ids=["offline", "poisson"],
    )
    @pytest.mark.parametrize("chunk", [None, 128], ids=["whole", "chunked"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_consecutive_drains_match_a_fresh_scheduler(
        self, system, policy_factory, arrival_factory, chunk, seed
    ):
        queue = sample_request_classes(self.N_REQUESTS, seed=seed)
        # Two consecutive drains through one scheduler, one shared step
        # model and one arrival process.
        arrivals = arrival_factory(seed)
        node = Node(system, step_time=unit_steps(), prefill_chunk_tokens=chunk)
        scheduler = ClusterScheduler([node], policy_factory(), router=RoundRobin())
        drains = [scheduler.drain(queue, arrivals=arrivals) for _ in range(2)]
        fresh = ClusterScheduler(
            [Node(system, step_time=unit_steps(), prefill_chunk_tokens=chunk)],
            policy_factory(),
        ).drain(queue, arrivals=arrival_factory(seed))
        # Same per-request finish times, same report -- bit for bit.
        for report in drains:
            assert repr(report.requests) == repr(fresh.requests)
            assert [r.completion_time for r in report.requests] == [
                r.completion_time for r in fresh.requests
            ]
            assert report == fresh

    def test_default_policy_and_router(self, system):
        """The minimal spelling (default policy, explicit router) drains."""
        node = Node(system, step_time=unit_steps())
        report = ClusterScheduler([node], router=RoundRobin()).drain(
            sample_request_classes(8, seed=1)
        )
        assert report.all_completed
        assert report.router == ""  # single node: routing is trivial
        assert len(report.node_reports) == 1
        assert report.node_reports[0].completed == 8


class TestReportLabels:
    """``drain()`` decides the report labels once: a 1-node drain outside
    the fault driver reports as the single host (system name, no router, no
    fleet path unless it folded); every other drain reports as a fleet."""

    @pytest.mark.parametrize(
        "n_nodes, cluster_kwargs, expected",
        [
            pytest.param(1, {}, ("{name}", "", ""), id="one-node"),
            pytest.param(
                1,
                {"fleet_symmetry": "representative"},
                ("{name}", "", "representative"),
                id="one-node-representative",
            ),
            pytest.param(
                1,
                {"faults": parse_fault_spec("slow:5:10:2.0:0")},
                ("1x {name}", "round-robin", "full"),
                id="one-node-faults",
            ),
            pytest.param(
                3,
                {"fleet_symmetry": "full"},
                ("3x {name}", "round-robin", "full"),
                id="fleet-full",
            ),
            pytest.param(
                3,
                {"fleet_symmetry": "representative"},
                ("3x {name}", "round-robin", "representative"),
                id="fleet-folded",
            ),
        ],
    )
    def test_system_router_and_fleet_symmetry(
        self, system, n_nodes, cluster_kwargs, expected
    ):
        step = unit_steps()  # one shared instance, so the fleet can fold
        nodes = [
            Node(system, step_time=step, name=f"node{i}") for i in range(n_nodes)
        ]
        report = ClusterScheduler(
            nodes, ContinuousBatching(4), **cluster_kwargs
        ).drain(sample_request_classes(12, seed=3))
        label, router, symmetry = expected
        assert report.system == label.format(name=system.name)
        assert report.router == router
        assert report.fleet_symmetry == symmetry
        assert report.all_completed


class TestFleetDrains:
    def test_fleet_completes_and_partitions_the_queue(self, system):
        queue = sample_request_classes(48, seed=7)
        report = ClusterScheduler(
            make_nodes(system, 3),
            ContinuousBatching(4),
            router=RoundRobin(),
        ).drain(list(queue), arrivals=PoissonArrivals(0.2, seed=7))
        assert report.all_completed
        assert report.system == f"3x {system.name}"
        assert report.router == "round-robin"
        assert [n.node for n in report.node_reports] == ["node0", "node1", "node2"]
        # Round-robin partitions the stream evenly.
        assert [n.n_requests for n in report.node_reports] == [16, 16, 16]
        assert sum(n.completed for n in report.node_reports) == 48
        assert sum(n.generated_tokens for n in report.node_reports) == (
            report.generated_tokens
        )
        # Per-node rates are over the fleet makespan, so they sum to it.
        assert sum(n.tokens_per_second for n in report.node_reports) == (
            pytest.approx(report.tokens_per_second)
        )

    def test_fleet_cost_and_capacity_are_sums(self, system):
        nodes = make_nodes(system, 2)
        report = ClusterScheduler(nodes, ContinuousBatching(4)).drain(
            sample_request_classes(16, seed=4)
        )
        assert report.system_cost_usd == pytest.approx(
            sum(n.cost_usd for n in report.node_reports)
        )
        assert report.kv_capacity_bytes == pytest.approx(
            sum(node.budget.kv_capacity_bytes for node in nodes)
        )
        assert report.tokens_per_second_per_usd == pytest.approx(
            report.tokens_per_second / report.system_cost_usd
        )

    def test_more_nodes_shorten_the_makespan(self, system):
        queue = sample_request_classes(40, seed=9)
        one = ClusterScheduler(
            make_nodes(system, 1), ContinuousBatching(4)
        ).drain(list(queue))
        four = ClusterScheduler(
            make_nodes(system, 4), ContinuousBatching(4)
        ).drain(list(queue))
        assert four.makespan_seconds < one.makespan_seconds
        assert four.tokens_per_second > one.tokens_per_second

    def test_fleet_drain_is_deterministic(self, system):
        queue = sample_request_classes(32, seed=13)

        def run():
            return ClusterScheduler(
                make_nodes(system, 3),
                ContinuousBatching(4, admission="optimistic"),
                router=LeastOutstandingTokens(),
            ).drain(list(queue), arrivals=PoissonArrivals(0.3, seed=13))

        first, second = run(), run()
        assert repr(first.requests) == repr(second.requests)
        assert first == second

    def test_consecutive_drains_of_one_cluster_replay(self, system):
        """Stateful routers reset per drain, so one scheduler replays."""
        queue = sample_request_classes(24, seed=5)
        cluster = ClusterScheduler(
            make_nodes(system, 3), ContinuousBatching(4), router=RoundRobin()
        )
        first = cluster.drain(list(queue))
        second = cluster.drain(list(queue))
        assert first == second

    def test_idle_node_reports_zero_counters(self, system):
        # Best fit packs everything onto node0 when capacity abounds.
        report = ClusterScheduler(
            make_nodes(system, 2), ContinuousBatching(8), router=BestFitKV()
        ).drain(sample_request_classes(6, seed=6))
        idle = report.node_reports[1]
        assert idle.n_requests == idle.completed == idle.generated_tokens == 0
        assert idle.tokens_per_second == 0.0
        assert idle.mean_latency_seconds == 0.0

    def test_tight_budget_preemptions_roll_up_per_node(self, system, tiny_mha):
        growthy = sample_request_classes(24, seed=8)
        one_long = tiny_mha.kv_cache_bytes(1, LONG.total_tokens)
        budget = CapacityBudget(one_long * 2.5, "tight fleet slice")
        nodes = [
            Node(
                system,
                step_time=unit_steps(),
                budget=budget,
                prefill_chunk_tokens=256,
                name=f"node{i}",
            )
            for i in range(2)
        ]
        report = ClusterScheduler(
            nodes,
            ContinuousBatching(8, admission="optimistic"),
            router=LeastOutstandingTokens(),
        ).drain(list(growthy))
        assert report.all_completed
        assert report.preemptions == sum(
            n.preemptions for n in report.node_reports
        )
        assert report.wasted_prefill_tokens == sum(
            n.wasted_prefill_tokens for n in report.node_reports
        )
        for breakdown in report.node_reports:
            assert breakdown.peak_kv_reserved_bytes <= budget.kv_capacity_bytes


class TestClusterValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one node"):
            ClusterScheduler([])

    def test_duplicate_node_names_rejected(self, system):
        nodes = [Node(system, step_time=unit_steps()) for _ in range(2)]
        with pytest.raises(ConfigurationError, match="duplicate node names"):
            ClusterScheduler(nodes)

    def test_mixed_models_rejected(self, system, tiny_gqa):
        other = HilosSystem(tiny_gqa, HilosConfig(n_devices=2))
        nodes = [
            Node(system, step_time=unit_steps(), name="a"),
            Node(other, step_time=unit_steps(), name="b"),
        ]
        with pytest.raises(ConfigurationError, match="different models"):
            ClusterScheduler(nodes)

    def test_non_shape_element_rejected_with_index_and_type(self, system):
        from repro.serving import make_request_queue
        from repro.workloads.requests import SHORT

        cluster = ClusterScheduler(make_nodes(system, 2), ContinuousBatching(4))
        mixed = [SHORT, make_request_queue([SHORT])[0]]
        with pytest.raises(SchedulingError, match="element 1 .* is ServingRequest"):
            cluster.drain(mixed)

    def test_rogue_router_rejected(self, system):
        class Rogue(RoundRobin):
            def route(self, request, nodes):
                return object()

        cluster = ClusterScheduler(
            make_nodes(system, 2), ContinuousBatching(4), router=Rogue()
        )
        with pytest.raises(SchedulingError, match="not one of this cluster"):
            cluster.drain(sample_request_classes(4, seed=1))

    def test_router_returning_a_bare_node_rejected(self, system):
        """A router returns one of the engines it was offered; the node
        behind an engine is not one of them."""

        class NodeReturning(RoundRobin):
            def route(self, request, views):
                return views[0].node

        cluster = ClusterScheduler(
            make_nodes(system, 2), ContinuousBatching(4), router=NodeReturning()
        )
        with pytest.raises(SchedulingError, match="not one of this cluster"):
            cluster.drain(sample_request_classes(6, seed=2))

    def test_invalid_prefill_chunk_rejected(self, system):
        with pytest.raises(ConfigurationError):
            Node(system, step_time=unit_steps(), prefill_chunk_tokens=0)
