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
from repro.workloads.requests import LONG, SHORT, RequestClass
from tests.test_golden import recorded_simulators


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

    def test_total_capacity_is_correctly_rounded(self):
        # The node's admission budget and its report's kv_capacity_bytes:
        # each tier rounds its fractional capacity down to a whole byte
        # (107374182.4 -> 107374182 and so on), so the total is the whole
        # bytes the tiers hold, not the 644245094.4 the fractions sum to.
        stack = parse_kv_tiers_spec("hbm:0.1G,dram:0.2G:1G,ssd:0.3G:1G")
        assert stack.total_capacity_bytes == 644245093.0
        assert stack.capacity_budget().kv_capacity_bytes == 644245093.0

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
            "hbm:0.5",  # sub-byte capacity
            "hbm:40g,ssd:2t:0",  # non-positive bandwidth
            "hbm:nan",  # NaN capacity
            "hbm:inf",  # infinite capacity
            "hbm:40g,ssd:nan:3g",  # NaN lower capacity
            "hbm:40g,ssd:2t:nan",  # NaN bandwidth
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="malformed kv-tiers spec"):
            parse_kv_tiers_spec(spec)


class TestTierValidation:
    """Capacities must be finite and at least one byte, bandwidths positive
    and not NaN: a NaN bandwidth compares false against zero, which would
    make every demotion, promotion and spilled read free."""

    @pytest.mark.parametrize(
        "capacity", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 0.5]
    )
    def test_bad_capacity_names_the_tier(self, capacity):
        with pytest.raises(ConfigurationError, match="'dram'.*capacity"):
            KVTier("dram", capacity_bytes=capacity, bandwidth_bytes_per_s=1e9)

    @pytest.mark.parametrize("capacity", [1000, 1000.0, 1000.7, 1000.9999])
    def test_fractional_capacity_rounds_down_to_a_whole_byte(self, capacity):
        tier = KVTier("dram", capacity_bytes=capacity, bandwidth_bytes_per_s=1e9)
        assert tier.capacity_bytes == 1000.0
        assert type(tier.capacity_bytes) is float

    @pytest.mark.parametrize("bandwidth", [float("nan"), 0.0, -1e9])
    def test_bad_bandwidth_names_the_tier(self, bandwidth):
        with pytest.raises(ConfigurationError, match="'ssd'.*bandwidth"):
            KVTier("ssd", capacity_bytes=1e9, bandwidth_bytes_per_s=bandwidth)

    def test_top_tier_keeps_its_infinite_bandwidth(self):
        assert KVTier("hbm", capacity_bytes=1e9).bandwidth_bytes_per_s == float("inf")


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
    """A single-tier stack is byte-identical to the flat budget -- same
    schedule, same report, exactly -- for every policy, and takes the same
    simulator events: it coasts wherever the flat ledger does, growing
    (optimistic) decode runs included."""

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

        def drain(**memory):
            with recorded_simulators() as sims:
                report = ClusterScheduler(
                    [Node(system, step_time=unit_steps(), **memory)],
                    policy_factory(),
                    router=RoundRobin(),
                ).drain(list(queue), arrivals=arrival_factory(seed))
            (sim,) = sims
            return report, sim.events_processed

        flat, flat_events = drain(budget=CapacityBudget(capacity, "flat slice"))
        tiered, tiered_events = drain(
            kv_tiers=TierStack((KVTier("hbm", capacity),)),
            kv_policy=tier_policy_factory(),
        )
        assert tiered_events == flat_events
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

    @pytest.mark.parametrize("admission", ["reserve", "optimistic"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bestfit_routes_one_tier_stacks_like_flat_budgets(
        self, system, tiny_mha, admission, seed
    ):
        # Best fit ranks nodes by top-tier headroom.  A one-tier stack's is
        # its committed final-context headroom, as a flat budget's is, so
        # an unequal pair of one-tier nodes splits the stream exactly like
        # the flat pair -- also under optimistic admission, where the live
        # occupancy runs below the commitments (seed 3 once split 18/6
        # against the flat 19/5).
        long_final = tiny_mha.kv_cache_bytes(1, LONG.total_tokens)

        def drain(tiered):
            nodes = []
            for index, finals in enumerate((1.5, 2.5)):
                capacity = long_final * finals
                if tiered:
                    memory = {
                        "kv_tiers": TierStack((KVTier("hbm", capacity),)),
                        "kv_policy": LRUByRequest(),
                    }
                else:
                    memory = {"budget": CapacityBudget(capacity, "flat slice")}
                nodes.append(
                    Node(system, step_time=unit_steps(), name=f"node{index}", **memory)
                )
            return ClusterScheduler(
                nodes, ContinuousBatching(4, admission=admission), router=BestFitKV()
            ).drain(
                sample_request_classes(24, seed=seed),
                arrivals=PoissonArrivals(rate_per_second=0.5, seed=seed),
            )

        flat, tiered = drain(False), drain(True)
        assert [n.n_requests for n in tiered.node_reports] == [
            n.n_requests for n in flat.node_reports
        ]
        assert tiered.makespan_seconds == flat.makespan_seconds
        assert [r.completion_time for r in tiered.requests] == [
            r.completion_time for r in flat.requests
        ]


class TestThreeTierExactFigures:
    """A 3-tier hbm/dram/ssd drain pinned exactly (``==``, not approx).

    A mixed Poisson queue under optimistic admission, with preemptions
    firing, through a stack whose middle (dram) tier takes both unbilled
    cascaded growth and billed demotion -- the cascade's non-bottom branch,
    which a 2-tier stack never reaches.  The figures come from the lazy
    tracker, which lands a decode step's growth in O(tiers) and prices its
    spilled reads once per tier for the whole batch.  The per-request
    reference tracker of ``test_kvtiers_lazy.py`` sums the same reads one
    request at a time (:attr:`PER_REQUEST_SPILLED`); the two must agree
    within 1e-12.
    """

    N_REQUESTS = 16
    SEED = 3

    EXPECTED = {
        "lru": {
            "preemptions": 2,
            "completion_times": (
                105.31710236761683,
                107.41259225561683,
                107.41259225561683,
                380.7571772156168,
                489.81268579161673,
                213.75171548761682,
                213.75171548761682,
                631.1750558396166,
                323.25587564761685,
                432.19136627161674,
                981.4100546876165,
                629.6906825276166,
                1091.7466593276172,
                762.3855441276165,
                1306.038165727617,
                1090.6187770876172,
            ),
            "makespan": 1306.038165727617,
            "spilled_decode_seconds": 0.4765047679999999,
            # tier: (demoted, promoted, decode-read) bytes
            "tiers": {
                "hbm": (0.0, 0.0, 548374400.0),
                "dram": (1307520.0, 752896.0, 447049984.0),
                "ssd": (264704.0, 0.0, 364742272.0),
            },
        },
        "attention": {
            "preemptions": 2,
            "completion_times": (
                105.31710236761683,
                107.41259225561683,
                107.41259225561683,
                380.7571641883668,
                489.8126762001167,
                213.7517024603668,
                213.7517024603668,
                631.1750462481166,
                323.2558626203668,
                432.1913566801167,
                981.4100450961165,
                629.6906729361166,
                1091.751574746367,
                762.3855345361166,
                1306.0430811463668,
                1090.623643344617,
            ),
            "makespan": 1306.0430811463668,
            "spilled_decode_seconds": 0.48139462925,
            # tier: (demoted, promoted, decode-read) bytes; each demotion
            # takes a victim's 70% share to the nearest byte.
            "tiers": {
                "hbm": (0.0, 0.0, 548374400.0),
                "dram": (1240307.0, 781999.0, 440530169.0),
                "ssd": (264704.0, 35085.0, 371262087.0),
            },
        },
        "static": {
            "preemptions": 2,
            "completion_times": (
                105.32333315161686,
                107.41882460761687,
                107.41882460761687,
                380.7696101116169,
                489.83000310361695,
                213.76238508761676,
                213.76238508761676,
                631.1922825276168,
                323.2679058556169,
                432.2059664316169,
                981.4169477436167,
                629.7079421116168,
                1091.7561915516167,
                762.3979245436166,
                1306.0554648316167,
                1090.6282926396166,
            ),
            "makespan": 1306.0554648316167,
            "spilled_decode_seconds": 0.49436902400000005,
            # tier: (demoted, promoted, decode-read) bytes
            "tiers": {
                "hbm": (0.0, 0.0, 404510336.0),
                "dram": (325120.0, 0.0, 615049728.0),
                "ssd": (133376.0, 0.0, 340606592.0),
            },
        },
    }

    #: ``spilled_decode_seconds`` as the per-request reference tracker of
    #: ``test_kvtiers_lazy.py`` (``PerRequestTracker``, no coasting) records
    #: it on this drain, one request's reads at a time.
    PER_REQUEST_SPILLED = {
        "lru": 0.4765047679999999,
        "attention": 0.48139462925,
        "static": 0.49436902400000005,
    }

    @pytest.mark.parametrize(
        "policy_id, tier_policy_factory",
        [
            ("lru", LRUByRequest),
            ("attention", lambda: AttentionAwareDemotion(0.3)),
            ("static", lambda: StaticSplit(0.5)),
        ],
        ids=["lru", "attention", "static"],
    )
    def test_drain_reproduces_the_recorded_figures(
        self, system, tiny_mha, policy_id, tier_policy_factory
    ):
        final = float(tiny_mha.kv_cache_bytes(1, LONG.total_tokens))
        stack = TierStack(
            (
                KVTier("hbm", capacity_bytes=0.25 * final),
                KVTier("dram", capacity_bytes=0.5 * final, bandwidth_bytes_per_s=4e9),
                KVTier("ssd", capacity_bytes=0.5 * final, bandwidth_bytes_per_s=1e9),
            )
        )
        report = ClusterScheduler(
            [
                Node(
                    system,
                    step_time=unit_steps(),
                    kv_tiers=stack,
                    kv_policy=tier_policy_factory(),
                )
            ],
            ContinuousBatching(4, admission="optimistic"),
        ).drain(
            sample_request_classes(self.N_REQUESTS, seed=self.SEED),
            arrivals=PoissonArrivals(rate_per_second=2.0, seed=self.SEED),
        )
        expected = self.EXPECTED[policy_id]
        assert report.all_completed
        assert report.preemptions == expected["preemptions"] > 0
        assert tuple(r.completion_time for r in report.requests) == (
            expected["completion_times"]
        )
        assert report.makespan_seconds == expected["makespan"]
        assert report.spilled_decode_seconds == expected["spilled_decode_seconds"]
        assert report.spilled_decode_seconds == pytest.approx(
            self.PER_REQUEST_SPILLED[policy_id], rel=1e-12, abs=0.0
        )
        assert {
            t.tier: (t.demoted_bytes, t.promoted_bytes, t.decode_read_bytes)
            for t in report.kv_tiers
        } == expected["tiers"]


class TestPlacement:
    def test_static_split_places_the_alpha_share_below(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), StaticSplit(0.25)
        )
        (request,) = make_request_queue([SHORT])
        admit(tracker, request, at=0.0)
        assert tracker.residency(request)["hbm"] == pytest.approx(0.75 * final)
        assert tracker.residency(request)["ssd"] == pytest.approx(0.25 * final)
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
        assert tracker.residency(request) == {"hbm": pytest.approx(final)}

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
            tracker.residency(r).get("hbm", 0.0) for r in (first, second)
        )
        total_ssd = sum(
            tracker.residency(r).get("ssd", 0.0) for r in (first, second)
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
        assert tracker.residency(oldest) == {"ssd": pytest.approx(final)}
        assert tracker.residency(newer) == {"hbm": pytest.approx(final)}
        assert tracker.residency(incoming) == {"hbm": pytest.approx(final)}
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
        assert tracker.residency(oldest)["hbm"] == pytest.approx(0.25 * final)
        assert tracker.residency(newer)["hbm"] == pytest.approx(0.75 * final)
        assert tracker.residency(incoming)["hbm"] == pytest.approx(final)

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
        assert tracker.residency(victim) == {"ssd": pytest.approx(final)}
        assert tracker.residency(incoming) == {"hbm": pytest.approx(final)}

    def test_victim_ties_break_by_request_id(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(2 * final, 10 * final), LRUByRequest()
        )
        first, second, incoming = make_request_queue([SHORT, SHORT, SHORT])
        admit(tracker, first, at=5.0)
        admit(tracker, second, at=5.0)
        admit(tracker, incoming, at=6.0)
        assert tracker.residency(first) == {"ssd": pytest.approx(final)}
        assert tracker.residency(second) == {"hbm": pytest.approx(final)}


class TestPromotion:
    def test_lru_promotes_spilled_bytes_into_freed_headroom(self, tiny_mha):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(1.0 * final, 10 * final), LRUByRequest()
        )
        spilled, blocker = make_request_queue([SHORT, SHORT])
        admit(tracker, spilled, at=0.0)
        admit(tracker, blocker, at=1.0)
        assert tracker.residency(spilled) == {"ssd": pytest.approx(final)}
        tracker.consume_transfer_seconds()  # drop the demotion bill
        tracker.release(blocker)
        tracker.promote_for_decode([spilled])
        assert tracker.residency(spilled) == {"hbm": pytest.approx(final)}
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
        assert tracker.residency(request)["ssd"] == pytest.approx(0.5 * final)
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
        extra = tracker.spill_read_seconds([request])
        assert extra == pytest.approx(0.5 * current / bandwidth)
        # The node total is billed every step.
        tracker.release(request)
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
        assert tracker.spill_read_seconds([request]) == 0.0
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
        assert set(tracker.residency(request)) == {"hbm", "ssd"}
        tracker.release(request)
        assert tracker.residency(request) is None
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
        assert tracker.residency(spilled) == {"ssd": pytest.approx(final)}
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
        # tier residency leaks -- exactly what the invariant must catch.
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
        tracker._entries[request.request_id].res[0] *= 0.5
        with pytest.raises(SanitizerError, match="tier-conservation"):
            tracker._check_residency(request)

    def test_residency_missing_its_growth_is_caught(self, tiny_mha, monkeypatch):
        final = short_final(tiny_mha)
        tracker = tracker_for(
            tiny_mha, two_tier_stack(10 * final, 10 * final), LRUByRequest()
        )
        batch = make_request_queue([SHORT, SHORT])
        for request in batch:
            request.last_admitted_time = 0.0
            tracker.occupy(request)
            request.tokens_generated = 1
        tracker.update(*batch)  # the first re-mark: the batch starts growing
        for request in batch:
            request.tokens_generated += 1
        # A decode step whose batch growth is dropped: the flat entries grow
        # by a token, the tier counters claim the step but never tick.
        monkeypatch.setattr(tracker, "_land", lambda moves: None)
        with pytest.raises(SanitizerError, match="residency sums") as excinfo:
            tracker.update(*batch)
        assert excinfo.value.invariant == "tier-conservation"
        assert excinfo.value.request_id == batch[0].request_id

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

    @pytest.mark.parametrize("admission", ["reserve", "optimistic"])
    def test_static_split_fills_the_top_once_the_lower_tiers_are_full(
        self, system, tiny_mha, admission
    ):
        """The stack total is the one admission gate: a static split whose
        spilled share outgrows the lower tiers keeps the rest on the top
        tier instead of refusing bytes the flat check admitted."""
        shape = RequestClass("R", input_tokens=100, output_tokens=10)
        final = tiny_mha.kv_cache_bytes(1, shape.total_tokens)
        node = Node(
            system,
            step_time=unit_steps(),
            kv_tiers=two_tier_stack(10 * final, 1 * final),
            kv_policy=StaticSplit(0.5),
            name="node0",
        )
        report = ClusterScheduler(
            [node], ContinuousBatching(8, admission=admission)
        ).drain([shape] * 8)
        assert report.all_completed
        hbm, ssd = report.kv_tiers
        assert ssd.peak_occupied_bytes == ssd.capacity_bytes
        assert hbm.peak_occupied_bytes > 4 * final
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
        # Decoding (possibly mid-coast, so its token count may lag).
        assert engine.running == [running] and not running.finished
        for waiting in queued:
            engine.enqueue(waiting)
        occupied = engine.tracker.residency(running)["hbm"]
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
