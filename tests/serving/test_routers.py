"""Router unit tests: JSQ load signals and KV-headroom best fit."""

from __future__ import annotations

from collections import deque

import pytest

from repro.analysis.sanitizer import SanitizerError
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving import (
    AnalyticStepTime,
    BestFitKV,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    KVTier,
    LeastOutstandingTokens,
    Node,
    NodeEngine,
    RoundRobin,
    Router,
    StaticSplit,
    TierStack,
    WeightedRoundRobin,
    make_request_queue,
    parse_router_spec,
)
from repro.serving.engine import Node as EngineNode
from repro.sim.engine import Simulator
from repro.workloads.requests import LONG, MEDIUM, SHORT, RequestClass


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    return AnalyticStepTime(1.0, 0.0, 0.0)


def engines(system, n, budget=None):
    sim = Simulator()
    return [
        NodeEngine(
            Node(system, step_time=unit_steps(), budget=budget, name=f"node{i}"),
            ContinuousBatching(4),
            sim,
        )
        for i in range(n)
    ]


def request(cls=SHORT, request_id=0):
    return make_request_queue([cls])[request_id]


class TestRoundRobin:
    def test_cycles_in_order(self, system):
        nodes = engines(system, 3)
        router = RoundRobin()
        picks = [router.route(request(), nodes) for _ in range(6)]
        assert picks == [nodes[0], nodes[1], nodes[2], nodes[0], nodes[1], nodes[2]]

    def test_reset_rewinds_the_cursor(self, system):
        nodes = engines(system, 2)
        router = RoundRobin()
        assert router.route(request(), nodes) is nodes[0]
        router.reset()
        assert router.route(request(), nodes) is nodes[0]


class TestPlace:
    """``Router.place`` hands back the routed engine only if it was one of
    the engines offered."""

    def test_returns_the_offered_engine_itself(self, system):
        nodes = engines(system, 2)
        assert RoundRobin().place(request(), nodes) is nodes[0]

    def test_engine_outside_the_offer_rejected(self, system):
        # The fault driver offers only live engines: a router that picks a
        # node it was not offered (here node0, as if it were down) fails.
        fleet = engines(system, 3)

        class Stale(RoundRobin):
            def route(self, request, views):
                return fleet[0]

        with pytest.raises(SchedulingError, match="not one of this cluster"):
            Stale().place(request(), fleet[1:])


class TestLoadObliviousness:
    """The fold-eligibility hook: a declared class attribute (no runtime
    probing) plus the static placement that folding partitions by."""

    def test_declared_on_the_router_base(self):
        # A declared attribute with a conservative default, not a getattr
        # probe: every Router subclass answers without hasattr games.
        assert isinstance(vars(Router).get("load_oblivious"), bool)
        assert Router.load_oblivious is False

    def test_round_robin_is_load_oblivious(self):
        assert RoundRobin.load_oblivious is True

    def test_load_dependent_routers_are_not(self):
        assert LeastOutstandingTokens.load_oblivious is False
        assert BestFitKV.load_oblivious is False

    def test_round_robin_static_assignments_match_the_cycle(self, system):
        router = RoundRobin()
        cycle = router.static_assignments(3)
        assert cycle == (0, 1, 2)
        # Position i lands on cycle[i % len(cycle)], exactly what route()
        # picks.
        nodes = engines(system, 3)
        router.reset()
        picks = [router.route(request(), nodes) for _ in range(7)]
        assert [nodes.index(pick) for pick in picks] == [
            cycle[i % len(cycle)] for i in range(7)
        ]

    def test_load_dependent_static_assignments_refuse(self):
        for router in (LeastOutstandingTokens(), BestFitKV()):
            with pytest.raises(SchedulingError, match="load_oblivious=False"):
                router.static_assignments(2)

    @pytest.mark.parametrize(
        "cycle, problem",
        [
            ((), "it is empty"),
            ((0, -1), "it names node -1"),
            ((1, 0, 2), "it names node 2"),
        ],
        ids=["empty", "negative-node", "node-past-the-fleet"],
    )
    def test_folded_drain_rejects_an_invalid_cycle(self, system, cycle, problem):
        # A custom load-oblivious router states its cycle; a folded drain
        # slices the queue by it, so a cycle that is empty or names a node
        # outside the fleet fails before anything is simulated.
        class Fixed(RoundRobin):
            name = "fixed-cycle"

            def static_assignments(self, n_nodes):
                return cycle

        step = unit_steps()
        nodes = [Node(system, step_time=step, name=f"node{i}") for i in range(2)]
        scheduler = ClusterScheduler(
            nodes,
            ContinuousBatching(4),
            router=Fixed(),
            fleet_symmetry="representative",
        )
        with pytest.raises(
            SchedulingError,
            match=(
                "router 'fixed-cycle' produced an invalid placement cycle for 2 "
                f"nodes: {problem}"
            ),
        ):
            scheduler.drain([SHORT] * 4)


class TestWeightedRoundRobin:
    def test_cycles_proportionally_to_weights(self, system):
        nodes = engines(system, 2)
        router = WeightedRoundRobin((2, 1))
        picks = [router.route(request(), nodes) for _ in range(6)]
        assert [nodes.index(pick) for pick in picks] == [0, 0, 1, 0, 0, 1]

    def test_reset_rewinds_the_cursor(self, system):
        nodes = engines(system, 2)
        router = WeightedRoundRobin((2, 1))
        assert router.route(request(), nodes) is nodes[0]
        router.route(request(), nodes)
        router.reset()
        assert router.route(request(), nodes) is nodes[0]

    def test_is_load_oblivious(self):
        assert WeightedRoundRobin.load_oblivious is True

    def test_static_assignments_match_the_cycle(self, system):
        router = WeightedRoundRobin((1, 3))
        cycle = router.static_assignments(2)
        assert cycle == (0, 1, 1, 1)
        nodes = engines(system, 2)
        router.reset()
        picks = [router.route(request(), nodes) for _ in range(9)]
        assert [nodes.index(pick) for pick in picks] == [
            cycle[i % len(cycle)] for i in range(9)
        ]

    def test_equal_weights_match_round_robin(self, system):
        assert WeightedRoundRobin((1, 1, 1)).static_assignments(3) == (
            RoundRobin().static_assignments(3)
        )

    def test_weight_count_must_match_the_fleet(self, system):
        router = WeightedRoundRobin((2, 1))
        with pytest.raises(SchedulingError, match="2 weights"):
            router.route(request(), engines(system, 3))
        with pytest.raises(SchedulingError, match="2 weights"):
            router.static_assignments(3)

    @pytest.mark.parametrize("weights", [(), (0, 1), (2, -1)])
    def test_rejects_non_positive_weights(self, weights):
        with pytest.raises(ConfigurationError, match="positive integer weight"):
            WeightedRoundRobin(weights)


class TestLeastOutstandingTokens:
    def test_picks_the_least_loaded_node(self, system):
        """ISSUE acceptance: JSQ picks the least-loaded node."""
        nodes = engines(system, 3)
        nodes[0].enqueue(request(LONG, 0))
        nodes[2].enqueue(request(SHORT, 0))
        assert LeastOutstandingTokens().route(request(), nodes) is nodes[1]

    def test_load_is_token_weighted_not_request_counted(self, system):
        nodes = engines(system, 2)
        # node0 holds one Long; node1 holds two Shorts.  Two requests but
        # fewer outstanding tokens -> node1 is the shorter queue.
        nodes[0].enqueue(request(LONG, 0))
        queue = make_request_queue([SHORT, SHORT])
        nodes[1].enqueue(queue[0])
        nodes[1].enqueue(queue[1])
        assert nodes[1].outstanding_tokens < nodes[0].outstanding_tokens
        assert LeastOutstandingTokens().route(request(), nodes) is nodes[1]

    def test_running_progress_reduces_load(self, system):
        nodes = engines(system, 2)
        first, second = make_request_queue([MEDIUM, MEDIUM])
        nodes[0].enqueue(first)
        nodes[1].enqueue(second)
        # Run only node0: its request prefills in 0 s and decodes one token
        # per simulated second, so halfway through the output it is
        # mid-decode while node1's request is still queued.
        sim = nodes[0].sim
        sim.process(nodes[0].run())
        sim.run(until=first.output_tokens // 2 - 0.5)
        assert first.prefill_tokens_done == first.input_tokens
        assert first.tokens_generated == first.output_tokens // 2
        assert second.tokens_generated == 0
        assert LeastOutstandingTokens().route(request(), nodes) is nodes[0]

    def test_ties_break_to_the_lowest_index(self, system):
        nodes = engines(system, 3)
        assert LeastOutstandingTokens().route(request(), nodes) is nodes[0]


class TestBestFitKV:
    def tight_budget(self, model, finals: float) -> CapacityBudget:
        return CapacityBudget(
            model.kv_cache_bytes(1, LONG.total_tokens) * finals, "test slice"
        )

    def test_never_routes_oversized_when_another_fits(self, system, tiny_mha):
        """ISSUE acceptance: BestFitKV never routes a request whose KV
        exceeds node headroom when another node fits it."""
        sim = Simulator()
        small = Node(
            system,
            step_time=unit_steps(),
            budget=self.tight_budget(tiny_mha, 0.5),
            name="small",
        )
        big = Node(
            system,
            step_time=unit_steps(),
            budget=self.tight_budget(tiny_mha, 4.0),
            name="big",
        )
        nodes = [
            NodeEngine(small, ContinuousBatching(4), sim),
            NodeEngine(big, ContinuousBatching(4), sim),
        ]
        long_request = request(LONG)
        assert not nodes[0].kv_fits(long_request)
        assert nodes[1].kv_fits(long_request)
        # Index order favours node0; fitting beats index.
        assert BestFitKV().route(long_request, nodes) is nodes[1]

    def test_prefers_the_tightest_fitting_node(self, system, tiny_mha):
        sim = Simulator()
        nodes = [
            NodeEngine(
                Node(
                    system,
                    step_time=unit_steps(),
                    budget=self.tight_budget(tiny_mha, finals),
                    name=f"n{finals}",
                ),
                ContinuousBatching(4),
                sim,
            )
            for finals in (8.0, 1.5, 3.0)
        ]
        # All three fit one Long; the 1.5-final node is the tightest hole.
        assert BestFitKV().route(request(LONG), nodes) is nodes[1]

    def test_queued_commitments_count_against_headroom(self, system, tiny_mha):
        nodes = engines(system, 2, budget=self.tight_budget(tiny_mha, 1.5))
        blocker, probe = make_request_queue([LONG, LONG])
        nodes[0].enqueue(blocker)  # commits node0's only Long slot
        assert not nodes[0].kv_fits(probe)
        assert BestFitKV().route(probe, nodes) is nodes[1]

    def test_falls_back_to_most_headroom_when_nothing_fits(self, system, tiny_mha):
        sim = Simulator()
        nodes = [
            NodeEngine(
                Node(
                    system,
                    step_time=unit_steps(),
                    budget=self.tight_budget(tiny_mha, finals),
                    name=f"n{finals}",
                ),
                ContinuousBatching(4),
                sim,
            )
            for finals in (0.3, 0.6)
        ]
        # Neither holds a Long: route to the least-bad (most headroom).
        assert BestFitKV().route(request(LONG), nodes) is nodes[1]


class TestParseRouterSpec:
    @pytest.mark.parametrize(
        "spec, cls",
        [
            ("rr", RoundRobin),
            ("round-robin", RoundRobin),
            ("jsq", LeastOutstandingTokens),
            ("least-outstanding", LeastOutstandingTokens),
            ("bestfit", BestFitKV),
            ("bestfit-kv", BestFitKV),
        ],
    )
    def test_known_specs(self, spec, cls):
        assert isinstance(parse_router_spec(spec), cls)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown router"):
            parse_router_spec("random")

    def test_wrr_spec_carries_its_weights(self):
        router = parse_router_spec("wrr:2,1")
        assert isinstance(router, WeightedRoundRobin)
        assert router.weights == (2, 1)
        assert router.name == "wrr:2,1"

    @pytest.mark.parametrize("spec", ["wrr", "wrr:", "wrr:0,1", "wrr:2,x"])
    def test_malformed_wrr_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="malformed router spec"):
            parse_router_spec(spec)


class TestEngineLoadViews:
    def test_outstanding_tokens_sums_remaining_work(self, system):
        [engine] = engines(system, 1)
        req = request(RequestClass("Tiny", input_tokens=10, output_tokens=5))
        engine.enqueue(req)
        assert engine.outstanding_tokens == 15
        # Prefill takes 0 s and emits the first token; one decode step at
        # t=1 s emits the second, so at t=1.5 s the request is mid-decode.
        engine.sim.process(engine.run())
        engine.sim.run(until=1.5)
        assert (req.prefill_tokens_done, req.tokens_generated) == (10, 2)
        assert engine.outstanding_tokens == (10 + 2 - 10) + (5 - 2)

    def test_headroom_shrinks_with_ledger_and_queue(self, system, tiny_mha):
        [engine] = engines(system, 1)
        full = engine.kv_headroom_bytes
        queued = request(SHORT, 0)
        engine.enqueue(queued)
        assert engine.kv_headroom_bytes == pytest.approx(
            full - queued.kv_reservation_bytes(tiny_mha)
        )

    def test_node_alias_export(self):
        # Node is exported from both repro.serving and the engine module.
        assert Node is EngineNode


class _Unscannable(deque):
    """A queue that refuses iteration; ``append`` and ``len`` still work."""

    def __iter__(self):
        raise AssertionError("a load view scanned an engine queue")


LOAD_VIEWS = (
    "outstanding_tokens",
    "kv_headroom_bytes",
    "top_tier_headroom_bytes",
    "queued_requests",
)


class TestLoadLedgers:
    """The load views read running ledgers; sanitized engines re-sum."""

    def _engine(self, system, tiny_mha, sanitize, tiered):
        tiers = None
        if tiered:
            final = tiny_mha.kv_cache_bytes(1, LONG.total_tokens)
            tiers = TierStack(
                (
                    KVTier("hbm", capacity_bytes=4.0 * final),
                    KVTier(
                        "ssd",
                        capacity_bytes=1e4 * final,
                        bandwidth_bytes_per_s=1e9,
                    ),
                )
            )
        node = Node(
            system,
            step_time=unit_steps(),
            kv_tiers=tiers,
            kv_policy=StaticSplit(0.25) if tiered else None,
            name="node0",
        )
        return NodeEngine(node, ContinuousBatching(4), Simulator(sanitize=sanitize))

    @pytest.mark.parametrize("tiered", [False, True], ids=["flat", "tiered"])
    def test_probes_never_scan(self, system, tiny_mha, tiered):
        classes = [SHORT, MEDIUM, LONG] * 100
        plain = self._engine(system, tiny_mha, sanitize=False, tiered=tiered)
        for name in ("pending", "waiting", "prefilling", "running"):
            setattr(plain, name, _Unscannable())
        twin = self._engine(system, tiny_mha, sanitize=True, tiered=tiered)
        for engine in (plain, twin):
            for queued in make_request_queue(classes):
                engine.enqueue(queued)
        # The sanitized twin re-sums its queues on every probe and raises
        # on any disagreement, so equal views mean exact ledgers.
        assert [getattr(plain, view) for view in LOAD_VIEWS] == [
            getattr(twin, view) for view in LOAD_VIEWS
        ]
        assert plain.outstanding_tokens == sum(c.total_tokens for c in classes)
        assert plain.queued_requests == len(classes)

    def test_hand_set_progress_trips_the_ledger_check(self, system, tiny_mha):
        engine = self._engine(system, tiny_mha, sanitize=True, tiered=False)
        queued = request(MEDIUM)
        engine.enqueue(queued)
        queued.prefill_tokens_done = 10  # behind the engine's back
        with pytest.raises(SanitizerError) as caught:
            _ = engine.outstanding_tokens
        assert caught.value.invariant == "load-ledger"

    def test_retirement_scans_only_when_the_countdown_runs_out(
        self, system, tiny_mha
    ):
        plain = self._engine(system, tiny_mha, sanitize=False, tiered=False)
        plain.running = _Unscannable()
        plain._until_finish = 2
        plain._retire_finished()  # no finisher due: running is not scanned
        twin = self._engine(system, tiny_mha, sanitize=True, tiered=False)
        done = request(SHORT)
        done.tokens_generated = done.output_tokens
        twin.running.append(done)
        twin._until_finish = 2  # wrong: the request already finished
        with pytest.raises(SanitizerError, match="finish countdown") as caught:
            twin._retire_finished()
        assert caught.value.invariant == "load-ledger"

    def test_drain_end_residue_is_caught(self, system, tiny_mha):
        engine = self._engine(system, tiny_mha, sanitize=True, tiered=False)
        engine.enqueue(request(SHORT))  # routed but never drained
        with pytest.raises(SanitizerError, match="residue") as caught:
            engine.assert_drained()
        assert caught.value.invariant == "load-ledger"
