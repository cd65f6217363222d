"""Tiered KV hierarchy tests: byte-identity, policies, tier conservation.

The acceptance property: a single-tier stack drains **byte-identically**
to the flat :class:`~repro.serving.budget.CapacityBudget` path -- every
per-request completion time and every report scalar exactly equal, not
approximately -- across scheduling policies x arrival processes x seeds
x tier policies.  Multi-tier behaviour is pinned at the tracker level
(placement splits, LRU vs attention-aware victim ordering, promotion,
movement billing) where the policies genuinely differ, and the
``tier-conservation`` sanitizer invariant is exercised on both the unit
and the fault-injected drain paths.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV, SanitizerError
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving import (
    AnalyticStepTime,
    AttentionAwareDemotion,
    BestFitKV,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    KVTier,
    LRUByRequest,
    Node,
    NodeEngine,
    PoissonArrivals,
    RoundRobin,
    StaticSplit,
    TieredBudgetTracker,
    TierStack,
    make_request_queue,
    parse_kv_policy_spec,
    parse_kv_tiers_spec,
)
from repro.serving.cluster import check_report_conservation
from repro.serving.faults import parse_fault_spec
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


def short_final(model) -> float:
    """One Short request's final-context KV bytes."""
    return float(model.kv_cache_bytes(1, SHORT.total_tokens))


def two_tier_stack(top_bytes, lower_bytes, bandwidth=1e9) -> TierStack:
    return TierStack(
        (
            KVTier("hbm", capacity_bytes=top_bytes),
            KVTier("ssd", capacity_bytes=lower_bytes, bandwidth_bytes_per_s=bandwidth),
        )
    )


def tracker_for(model, stack, policy=None) -> TieredBudgetTracker:
    return TieredBudgetTracker.for_stack(
        stack, model, policy=policy, sanitize=True, owner="node0"
    )


def admit(tracker, request, at):
    """Reserve a request stamped with its admission instant (victim order).

    Callers release through the tracker (or assert on the un-released
    state on purpose), so the helper itself holds no release.
    """
    request.last_admitted_time = at
    tracker.reserve(request)  # simlint: disable=SIM004
    return request


class TestParseTiersSpec:
    def test_single_tier(self):
        stack = parse_kv_tiers_spec("hbm:40g")
        assert [t.name for t in stack.tiers] == ["hbm"]
        assert stack.top.capacity_bytes == 40 * 1024.0**3

    def test_multi_tier_with_suffixes(self):
        stack = parse_kv_tiers_spec("hbm:40g,dram:200G:20g,ssd:2t:3g")
        assert [t.name for t in stack.tiers] == ["hbm", "dram", "ssd"]
        assert stack.tiers[1].capacity_bytes == 200 * 1024.0**3
        assert stack.tiers[1].bandwidth_bytes_per_s == 20 * 1024.0**3
        assert stack.tiers[2].capacity_bytes == 2 * 1024.0**4
        assert stack.total_capacity_bytes == sum(
            t.capacity_bytes for t in stack.tiers
        )

    def test_none_and_blank_pass_through(self):
        assert parse_kv_tiers_spec(None) is None
        assert parse_kv_tiers_spec("  ") is None

    @pytest.mark.parametrize(
        "spec",
        [
            "hbm:40g:5g",  # top tier takes no bandwidth
            "hbm:40g,ssd:2t",  # lower tier needs a bandwidth
            "hbm:40g,hbm:2t:3g",  # duplicate names
            "hbm:abc",  # malformed capacity
            "hbm:0",  # non-positive capacity
            "hbm:40g,ssd:2t:0",  # non-positive bandwidth
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="malformed kv-tiers spec"):
            parse_kv_tiers_spec(spec)


class TestParsePolicySpec:
    def test_known_specs(self):
        assert isinstance(parse_kv_policy_spec("lru"), LRUByRequest)
        attention = parse_kv_policy_spec("attention")
        assert isinstance(attention, AttentionAwareDemotion)
        assert attention.hot_fraction == 0.25
        assert parse_kv_policy_spec("attention:0.4").hot_fraction == 0.4
        static = parse_kv_policy_spec("static:0.5")
        assert isinstance(static, StaticSplit)
        assert static.alpha == 0.5
        assert parse_kv_policy_spec(None) is None

    @pytest.mark.parametrize(
        "spec", ["lru:3", "static", "attention:1.5", "static:1.5", "mru"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="malformed kv-policy spec"):
            parse_kv_policy_spec(spec)


class TestSingleTierByteIdentity:
    """ISSUE acceptance: a single-tier stack is byte-identical to the flat
    budget -- same schedule, same report, exactly -- for every policy."""

    N_REQUESTS = 24

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: FCFSFixedBatch(4),
            lambda: ContinuousBatching(4),
            lambda: ContinuousBatching(4, admission="optimistic"),
        ],
        ids=["fcfs", "continuous", "optimistic"],
    )
    @pytest.mark.parametrize(
        "arrival_factory",
        [
            lambda seed: None,
            lambda seed: PoissonArrivals(rate_per_second=0.2, seed=seed),
        ],
        ids=["offline", "poisson"],
    )
    @pytest.mark.parametrize(
        "tier_policy_factory",
        [LRUByRequest, lambda: AttentionAwareDemotion(0.3), lambda: StaticSplit(0.5)],
        ids=["lru", "attention", "static"],
    )
    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_flat_budget_exactly(
        self, system, tiny_mha, policy_factory, arrival_factory,
        tier_policy_factory, seed,
    ):
        capacity = tiny_mha.kv_cache_bytes(1, LONG.total_tokens) * 3.0
        queue = sample_request_classes(self.N_REQUESTS, seed=seed)
        flat = ClusterScheduler(
            [
                Node(
                    system,
                    step_time=unit_steps(),
                    budget=CapacityBudget(capacity, "flat slice"),
                )
            ],
            policy_factory(),
            router=RoundRobin(),
        ).drain(list(queue), arrivals=arrival_factory(seed))
        tiered = ClusterScheduler(
            [
                Node(
                    system,
                    step_time=unit_steps(),
                    kv_tiers=TierStack((KVTier("hbm", capacity),)),
                    kv_policy=tier_policy_factory(),
                )
            ],
            policy_factory(),
            router=RoundRobin(),
        ).drain(list(queue), arrivals=arrival_factory(seed))
        assert [r.completion_time for r in flat.requests] == [
            r.completion_time for r in tiered.requests
        ]
        assert flat.tokens_per_second == tiered.tokens_per_second
        assert flat.mean_latency_seconds == tiered.mean_latency_seconds
        assert flat.p95_latency_seconds == tiered.p95_latency_seconds
        assert flat.peak_kv_reserved_bytes == tiered.peak_kv_reserved_bytes
        assert flat.preemptions == tiered.preemptions
        assert flat.wasted_prefill_tokens == tiered.wasted_prefill_tokens
        # Nothing ever moved or spilled: there is nowhere to go.
        assert tiered.spilled_decode_seconds == 0.0
        (top,) = tiered.kv_tiers
        assert top.demoted_bytes == 0.0
        assert top.promoted_bytes == 0.0
        assert top.hit_rate == 1.0


class TestPlacement:
    def test_static_split_places_the_alpha_share_below(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), StaticSplit(0.25)
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        assert request.kv_residency["hbm"] == pytest.approx(0.75 * final)
        assert request.kv_residency["ssd"] == pytest.approx(0.25 * final)
        # Initial placement is bookkeeping, not billed movement.
        assert tracker.consume_transfer_seconds() == 0.0

    def test_single_tier_ignores_the_placement_fraction(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha,
            TierStack((KVTier("hbm", 10 * final),)),
            StaticSplit(0.9),
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        assert request.kv_residency == {"hbm": pytest.approx(final)}

    def test_overflow_past_the_top_cascades_unbilled(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(1.5 * final, 10 * final), LRUByRequest()
        )
        first, second = make_request_queue([SHORT, SHORT])
        admit(tracker, first, at=0.0)
        admit(tracker, second, at=1.0)
        # first demoted to make way, second takes the whole top; what still
        # does not fit cascades below.
        total_top = sum(
            r.kv_residency.get("hbm", 0.0) for r in (first, second)
        )
        total_ssd = sum(
            r.kv_residency.get("ssd", 0.0) for r in (first, second)
        )
        assert total_top == pytest.approx(1.5 * final)
        assert total_ssd == pytest.approx(0.5 * final)


class TestVictimOrdering:
    """LRU demotes whole victims oldest-first; attention-aware demotion
    keeps each victim's hot fraction resident."""

    def test_lru_demotes_the_least_recently_admitted_whole(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(2 * final, 10 * final), LRUByRequest()
        )
        oldest, newer, incoming = make_request_queue([SHORT, SHORT, SHORT])
        admit(tracker, oldest, at=0.0)
        admit(tracker, newer, at=1.0)
        admit(tracker, incoming, at=2.0)
        # The coldest request yields its entire top residency; the newer
        # one is untouched.
        assert oldest.kv_residency == {"ssd": pytest.approx(final)}
        assert newer.kv_residency == {"hbm": pytest.approx(final)}
        assert incoming.kv_residency == {"hbm": pytest.approx(final)}
        # Demotion is billed movement: bytes crossed at the ssd bandwidth.
        assert tracker.consume_transfer_seconds() == pytest.approx(final / 1e9)

    def test_attention_keeps_hot_fractions_across_victims(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha,
            two_tier_stack(2 * final, 10 * final),
            AttentionAwareDemotion(hot_fraction=0.25),
        )
        oldest, newer, incoming = make_request_queue([SHORT, SHORT, SHORT])
        admit(tracker, oldest, at=0.0)
        admit(tracker, newer, at=1.0)
        admit(tracker, incoming, at=2.0)
        # One pass takes 75% of the oldest victim, then 75% of the next is
        # capped by the remaining deficit -- both keep KV top-resident,
        # unlike LRU's whole-request eviction.
        assert oldest.kv_residency["hbm"] == pytest.approx(0.25 * final)
        assert newer.kv_residency["hbm"] == pytest.approx(0.75 * final)
        assert incoming.kv_residency["hbm"] == pytest.approx(final)

    def test_attention_second_pass_takes_hot_sets_under_pressure(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha,
            two_tier_stack(1.0 * final, 10 * final),
            AttentionAwareDemotion(hot_fraction=0.25),
        )
        victim, incoming = make_request_queue([SHORT, SHORT])
        admit(tracker, victim, at=0.0)
        admit(tracker, incoming, at=1.0)
        # Capacity beats locality: the hot share demotes too.
        assert victim.kv_residency == {"ssd": pytest.approx(final)}
        assert incoming.kv_residency == {"hbm": pytest.approx(final)}

    def test_victim_ties_break_by_request_id(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(2 * final, 10 * final), LRUByRequest()
        )
        first, second, incoming = make_request_queue([SHORT, SHORT, SHORT])
        admit(tracker, first, at=5.0)
        admit(tracker, second, at=5.0)
        admit(tracker, incoming, at=6.0)
        assert first.kv_residency == {"ssd": pytest.approx(final)}
        assert second.kv_residency == {"hbm": pytest.approx(final)}


class TestPromotion:
    def test_lru_promotes_spilled_bytes_into_freed_headroom(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(1.0 * final, 10 * final), LRUByRequest()
        )
        spilled, blocker = make_request_queue([SHORT, SHORT])
        admit(tracker, spilled, at=0.0)
        admit(tracker, blocker, at=1.0)
        assert spilled.kv_residency == {"ssd": pytest.approx(final)}
        tracker.consume_transfer_seconds()  # drop the demotion bill
        tracker.release(blocker)
        tracker.promote_for_decode([spilled])
        assert spilled.kv_residency == {"hbm": pytest.approx(final)}
        # Promotion bills the source (ssd) tier's bandwidth.
        assert tracker.consume_transfer_seconds() == pytest.approx(final / 1e9)
        reports = {report.tier: report for report in tracker.tier_reports()}
        assert reports["ssd"].promoted_bytes == pytest.approx(final)
        assert reports["ssd"].demoted_bytes == pytest.approx(final)

    def test_static_split_never_promotes(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), StaticSplit(0.5)
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        tracker.promote_for_decode([request])
        assert request.kv_residency["ssd"] == pytest.approx(0.5 * final)
        assert tracker.consume_transfer_seconds() == 0.0


class TestSpillReadSurcharge:
    def test_spilled_share_bills_the_lower_tier_bandwidth(self, tiny_mha):
        final = short_final(tiny_mha)
        bandwidth = 2e9
        tracker = tracker_for(
            tiny_mha,
            two_tier_stack(10 * final, 10 * final, bandwidth=bandwidth),
            StaticSplit(0.5),
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        request.prefill_tokens_done = request.input_tokens
        request.tokens_generated = 1
        current = float(tiny_mha.kv_cache_bytes(1, request.context_tokens))
        extra = tracker.spill_read_seconds([request], unit_steps())
        assert extra == pytest.approx(0.5 * current / bandwidth)
        assert request.spilled_decode_seconds == pytest.approx(extra)
        assert tracker.spilled_decode_seconds == pytest.approx(extra)
        reports = {report.tier: report for report in tracker.tier_reports()}
        # Both halves of the read are tallied; the hit rate splits 50/50.
        assert reports["hbm"].hit_rate == pytest.approx(0.5)
        assert reports["ssd"].hit_rate == pytest.approx(0.5)

    def test_fully_resident_batch_costs_nothing(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), LRUByRequest()
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        request.prefill_tokens_done = request.input_tokens
        request.tokens_generated = 1
        assert tracker.spill_read_seconds([request], unit_steps()) == 0.0
        reports = {report.tier: report for report in tracker.tier_reports()}
        assert reports["hbm"].hit_rate == 1.0


class TestTierConservation:
    """The tier-conservation sanitizer invariant, unit and drain level."""

    def test_release_drains_every_tier_the_request_touched(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), StaticSplit(0.5)
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        assert set(request.kv_residency) == {"hbm", "ssd"}
        tracker.release(request)
        assert request.kv_residency is None
        tracker.assert_drained("unit release")

    def test_migration_release_path_drains_all_tiers(self, tiny_mha):
        """The node-death migration path releases through ``release``;
        spilled victims must drain their lower-tier bytes too."""
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(1.0 * final, 10 * final), LRUByRequest()
        )
        spilled, resident = make_request_queue([SHORT, SHORT])
        admit(tracker, spilled, at=0.0)
        admit(tracker, resident, at=1.0)
        assert spilled.kv_residency == {"ssd": pytest.approx(final)}
        tracker.release(spilled)
        tracker.release(resident)
        tracker.assert_drained("migration release")

    def test_leftover_residency_is_caught_at_drain_end(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), LRUByRequest()
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        # Bypass the tier-aware override: the flat ledger drains but the
        # residency map leaks -- exactly what the invariant must catch.
        super(TieredBudgetTracker, tracker).release(request)
        with pytest.raises(SanitizerError, match="tier-conservation"):
            tracker.assert_drained("leak")

    def test_overfilled_tier_is_caught(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), LRUByRequest()
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        tracker._ledgers["hbm"].occupied_bytes = 100 * final
        with pytest.raises(SanitizerError, match="overfilled"):
            tracker._check_tier_occupancy()

    def test_residency_must_sum_to_the_flat_entry(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), LRUByRequest()
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        request.kv_residency["hbm"] *= 0.5
        with pytest.raises(SanitizerError, match="tier-conservation"):
            tracker._check_residency(request)

    def test_ledger_entries_may_only_grow(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), LRUByRequest()
        )
        (request,) = make_request_queue([SHORT])
        request.last_admitted_time = 0.0
        tracker.occupy(request)
        # occupy() holds the post-prefill context (prompt + first token);
        # updating before any token exists would shrink the entry.
        with pytest.raises(SchedulingError, match="shrank"):
            tracker.update(request)


class TestTieredDrains:
    """End-to-end tiered drains: pressure, faults, determinism, reports."""

    def _tiered_nodes(self, system, tiny_mha, n, policy_factory=LRUByRequest):
        final = float(tiny_mha.kv_cache_bytes(1, LONG.total_tokens))
        return [
            Node(
                system,
                step_time=unit_steps(),
                kv_tiers=two_tier_stack(0.25 * final, 8 * final),
                kv_policy=policy_factory(),
                name=f"node{i}",
            )
            for i in range(n)
        ]

    def test_pressured_drain_demotes_and_reports(self, system, tiny_mha):
        report = ClusterScheduler(
            self._tiered_nodes(system, tiny_mha, 1), ContinuousBatching(4)
        ).drain(sample_request_classes(16, seed=3))
        assert report.all_completed
        tiers = {t.tier: t for t in report.kv_tiers}
        assert tiers["ssd"].demoted_bytes > 0.0
        assert report.spilled_decode_seconds > 0.0
        assert 0.0 < tiers["hbm"].hit_rate < 1.0
        assert tiers["hbm"].hit_rate + tiers["ssd"].hit_rate == pytest.approx(1.0)
        check_report_conservation(report)

    def test_node_death_releases_every_tier(self, system, tiny_mha):
        """A crashed tiered node migrates its requests; the sanitized drain
        (autouse ``REPRO_SIM_SANITIZE=1``) checks the dead node's tier
        ledgers drained on the way out."""
        report = ClusterScheduler(
            self._tiered_nodes(system, tiny_mha, 2),
            ContinuousBatching(4),
            faults=parse_fault_spec("crash:40:0"),
        ).drain(sample_request_classes(12, seed=5))
        assert report.all_completed
        assert sum(n.migrations for n in report.node_reports) > 0
        check_report_conservation(report)

    def test_double_drain_is_deterministic(self, system, tiny_mha):
        scheduler = ClusterScheduler(
            self._tiered_nodes(system, tiny_mha, 2),
            ContinuousBatching(4),
            router=RoundRobin(),
        )
        queue = sample_request_classes(16, seed=7)
        first = scheduler.drain(list(queue))
        second = scheduler.drain(list(queue))
        assert [r.completion_time for r in first.requests] == [
            r.completion_time for r in second.requests
        ]
        assert first.kv_tiers == second.kv_tiers
        assert first.spilled_decode_seconds == second.spilled_decode_seconds

    def test_top_tier_headroom_prices_the_queued_hot_share(self, system, tiny_mha):
        """BestFitKV's ranking signal on a tiered node: top capacity minus
        top occupancy minus the placement fraction of the queued
        final-context bytes (prefilling/running bytes are already in the
        tier ledger)."""
        final = tiny_mha.kv_cache_bytes(1, LONG.total_tokens)
        node = Node(
            system,
            step_time=unit_steps(),
            kv_tiers=two_tier_stack(2.0 * final, 8.0 * final),
            kv_policy=StaticSplit(0.25),
            name="node0",
        )
        sim = Simulator()
        # One slot: the first Long is admitted and decoding, the rest queue.
        engine = NodeEngine(node, ContinuousBatching(1), sim)
        running, *queued = make_request_queue([LONG, SHORT, LONG])
        engine.enqueue(running)
        sim.process(engine.run())
        sim.run(until=20.0)
        assert running.tokens_generated > 1 and not running.finished
        for waiting in queued:
            engine.enqueue(waiting)
        occupied = running.kv_residency["hbm"]
        assert occupied == 0.75 * final  # reserve mode: the final footprint
        queued_bytes = sum(
            tiny_mha.kv_cache_bytes(1, r.final_context_tokens) for r in queued
        )
        assert engine.top_tier_headroom_bytes == (
            2.0 * final - occupied - 0.75 * queued_bytes
        )
        # Total headroom still charges every routed request in full.
        assert engine.kv_headroom_bytes == 10.0 * final - (
            final + queued_bytes
        )

    def test_sanitized_bestfit_drain_cross_checks_the_ledgers(
        self, system, tiny_mha, monkeypatch
    ):
        """A sanitized 3-node tiered BestFitKV drain under optimistic
        admission: every routing probe re-sums the queued-KV ledger, and
        the drain crosses admission, preemption, and tier movement."""
        monkeypatch.setenv(SANITIZE_ENV, "1")
        final = float(tiny_mha.kv_cache_bytes(1, LONG.total_tokens))
        nodes = [
            Node(
                system,
                step_time=unit_steps(),
                kv_tiers=two_tier_stack(0.25 * final, 1.0 * final),
                kv_policy=LRUByRequest(),
                name=f"node{i}",
            )
            for i in range(3)
        ]
        report = ClusterScheduler(
            nodes,
            ContinuousBatching(4, admission="optimistic"),
            router=BestFitKV(),
        ).drain(
            sample_request_classes(24, seed=3),
            arrivals=PoissonArrivals(rate_per_second=0.5, seed=3),
        )
        assert report.all_completed
        assert report.preemptions > 0
        assert sum(t.demoted_bytes for t in report.kv_tiers) > 0.0
        assert sum(t.promoted_bytes for t in report.kv_tiers) > 0.0
        assert sum(1 for n in report.node_reports if n.n_requests) > 1
        check_report_conservation(report)

    def test_tiered_fleets_refuse_to_fold(self, system, tiny_mha):
        with pytest.raises(ConfigurationError, match="tiered KV nodes"):
            ClusterScheduler(
                self._tiered_nodes(system, tiny_mha, 2),
                ContinuousBatching(4),
                router=RoundRobin(),
                fleet_symmetry="representative",
            )

    def test_node_refuses_budget_and_tiers_together(self, system, tiny_mha):
        final = float(tiny_mha.kv_cache_bytes(1, LONG.total_tokens))
        with pytest.raises(ConfigurationError, match="both a flat budget"):
            Node(
                system,
                step_time=unit_steps(),
                budget=CapacityBudget(final, "flat"),
                kv_tiers=two_tier_stack(final, final),
            )

    def test_policy_without_tiers_is_refused(self, system):
        with pytest.raises(ConfigurationError, match="without a tier stack"):
            Node(system, step_time=unit_steps(), kv_policy=LRUByRequest())
