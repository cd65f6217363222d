"""Property tests: fleet folding is equivalent to full simulation.

The representative fleet drain must be *numerically indistinguishable*
from simulating every node of a symmetric fleet:

* every numeric ``ServingReport`` field (makespan, throughput, latency
  percentiles, preemption/waste totals) matches to 1e-9 relative
  tolerance across policies x arrival processes x seeds;
* every per-request outcome and every ``NodeBreakdown`` field matches the
  same way -- mirrored nodes carry figures identical to their
  representative's;
* ineligible configurations (heterogeneous fleets, load-dependent
  routers, faults/overload/autoscale) transparently fall back to the
  full-fleet path under ``fleet_symmetry="auto"`` and refuse
  ``"representative"`` with a :class:`~repro.errors.ConfigurationError`
  naming the blocker;
* the ``fold-conservation`` sanitizer invariant (the epilogue's
  mirrored-sum check) catches a representative outcome that was not
  mirrored onto its group.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError
from repro.serving import (
    AnalyticStepTime,
    BatchedArrivals,
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
    WeightedRoundRobin,
)
from repro.serving.autoscale import parse_autoscale_spec
from repro.serving.cluster import (
    FLEET_SYMMETRY_MODES,
    check_report_conservation,
)
from repro.serving.faults import parse_fault_spec
from repro.serving.overload import parse_overload_spec
from repro.workloads import sample_request_classes
from repro.workloads.requests import MEDIUM, SHORT

REL = 1e-9

#: Report fields that legitimately differ between the two paths (the mode
#: marker) or need structured comparison instead of scalar closeness.
REPORT_SKIP = {"fleet_symmetry", "requests", "node_reports"}

#: Per-request outcome fields the two paths must agree on.
REQUEST_FIELDS = (
    "arrival_time",
    "admitted_time",
    "last_admitted_time",
    "first_token_time",
    "completion_time",
    "tokens_generated",
    "prefill_tokens_done",
    "preemption_count",
    "wasted_prefill_tokens",
)


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    return AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )


def symmetric_fleet(system, n, budget=None, chunk=None):
    """N nodes sharing one system and one step-time instance (foldable)."""
    step = unit_steps()
    return [
        Node(
            system,
            step_time=step,
            budget=budget,
            prefill_chunk_tokens=chunk,
            name=f"node{i}",
        )
        for i in range(n)
    ]


def assert_rel_close(a, b, context):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a is None or b is None:
            assert a == b, f"{context}: {a!r} != {b!r}"
            return
        if a != b:
            rel = abs(a - b) / max(1e-12, abs(a))
            assert rel <= REL, f"{context}: {a!r} vs {b!r} (rel {rel:.3e})"
    else:
        assert a == b, f"{context}: {a!r} != {b!r}"


def assert_folded_matches_full(full, rep):
    """Every report, breakdown, and per-request field within 1e-9."""
    assert full.fleet_symmetry == "full"
    assert rep.fleet_symmetry == "representative"
    for f in dataclasses.fields(type(full)):
        if f.name in REPORT_SKIP:
            continue
        assert_rel_close(
            getattr(full, f.name), getattr(rep, f.name), f"report.{f.name}"
        )
    assert len(full.node_reports) == len(rep.node_reports)
    for fb, rb in zip(full.node_reports, rep.node_reports):
        for f in dataclasses.fields(type(fb)):
            assert_rel_close(
                getattr(fb, f.name),
                getattr(rb, f.name),
                f"node {fb.node}.{f.name}",
            )
    fa = sorted(full.requests, key=lambda r: r.request_id)
    fb = sorted(rep.requests, key=lambda r: r.request_id)
    assert [r.request_id for r in fa] == [r.request_id for r in fb]
    for x, y in zip(fa, fb):
        for name in REQUEST_FIELDS:
            assert_rel_close(
                getattr(x, name), getattr(y, name), f"request {x.request_id}.{name}"
            )


def drain_pair(system, n_nodes, policy_factory, classes, arrivals_factory,
               budget=None, chunk=None):
    full = ClusterScheduler(
        symmetric_fleet(system, n_nodes, budget, chunk),
        policy_factory(),
        router=RoundRobin(),
        fleet_symmetry="full",
    ).drain(list(classes), arrivals=arrivals_factory())
    rep = ClusterScheduler(
        symmetric_fleet(system, n_nodes, budget, chunk),
        policy_factory(),
        router=RoundRobin(),
        fleet_symmetry="representative",
    ).drain(list(classes), arrivals=arrivals_factory())
    return full, rep


POLICIES = [
    pytest.param(lambda: FCFSFixedBatch(4), id="fcfs"),
    pytest.param(lambda: LengthBucketedBatch(4), id="bucketed"),
    pytest.param(lambda: ContinuousBatching(4), id="continuous"),
    pytest.param(
        lambda: ContinuousBatching(4, admission="optimistic"), id="optimistic"
    ),
]

ARRIVALS = [
    pytest.param(lambda seed: None, id="offline"),
    pytest.param(
        lambda seed: PoissonArrivals(rate_per_second=2.0, seed=seed), id="poisson"
    ),
    pytest.param(
        lambda seed: BatchedArrivals(0.02, 16, seed=seed), id="burst"
    ),
]


class TestFoldedEquivalence:
    """ISSUE acceptance: folded vs unfolded within 1e-9 on every field."""

    N_REQUESTS = 48

    @pytest.mark.parametrize("policy_factory", POLICIES)
    @pytest.mark.parametrize("arrival_factory", ARRIVALS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_representative_matches_full(
        self, system, policy_factory, arrival_factory, seed
    ):
        classes = sample_request_classes(self.N_REQUESTS, seed=seed)
        full, rep = drain_pair(
            system, 4, policy_factory, classes, lambda: arrival_factory(seed)
        )
        assert_folded_matches_full(full, rep)

    def test_auto_folds_symmetric_rr_fleets(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 4), ContinuousBatching(4), router=RoundRobin()
        ).drain(sample_request_classes(16, seed=5))
        assert report.fleet_symmetry == "representative"
        assert report.all_completed

    def test_uniform_bursts_fold_maximally(self, system):
        """The bench shape: one class, 64-multiple bursts, deep folding."""
        full, rep = drain_pair(
            system,
            8,
            lambda: ContinuousBatching(8),
            [SHORT] * 128,
            lambda: BatchedArrivals(0.01, 32, seed=2),
        )
        assert_folded_matches_full(full, rep)

    def test_mirrored_nodes_share_identical_breakdowns(self, system):
        """Group members must carry byte-identical per-node figures."""
        report = ClusterScheduler(
            symmetric_fleet(system, 6),
            ContinuousBatching(4),
            router=RoundRobin(),
        ).drain([SHORT] * 36)
        assert report.fleet_symmetry == "representative"
        first = report.node_reports[0]
        for other in report.node_reports[1:]:
            for name in (
                "n_requests",
                "completed",
                "generated_tokens",
                "mean_latency_seconds",
                "p50_latency_seconds",
                "p95_latency_seconds",
                "p99_latency_seconds",
                "tokens_per_second",
            ):
                assert getattr(other, name) == getattr(first, name)

    # tiny_mha is a frozen model config; sharing it across examples is safe.
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_nodes=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
        burst=st.integers(min_value=1, max_value=24),
    )
    def test_equivalence_property(self, tiny_mha, n_nodes, seed, burst):
        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        classes = sample_request_classes(32, seed=seed)
        full, rep = drain_pair(
            system,
            n_nodes,
            lambda: ContinuousBatching(4),
            classes,
            lambda: BatchedArrivals(0.05, burst, seed=seed),
        )
        assert_folded_matches_full(full, rep)


class TestFoldedSplits:
    """Preemption and partial admission inside the representative engine
    must match the full fleet, where same-burst requests diverge."""

    def test_preemption_splits_match_full(self, system, tiny_mha):
        # Optimistic admission at prompt footprint; decode growth overflows
        # a budget sized for ~3 prompts, forcing youngest-first eviction.
        prompt_kv = tiny_mha.kv_cache_bytes(1, MEDIUM.input_tokens)
        budget = CapacityBudget(prompt_kv * 3.4, "overflowy")
        full, rep = drain_pair(
            system,
            4,
            lambda: ContinuousBatching(8, admission="optimistic"),
            [MEDIUM] * 96,
            lambda: BatchedArrivals(0.002, 16, seed=1),
            budget=budget,
            chunk=256,
        )
        assert full.preemptions > 0
        assert_folded_matches_full(full, rep)

    def test_partial_admission_splits_match_full(self, system, tiny_mha):
        # A budget that fits ~2.5 Shorts admits part of a burst and leaves
        # the rest at the queue head.
        budget = CapacityBudget(
            tiny_mha.kv_cache_bytes(1, SHORT.total_tokens) * 2.5, "tiny"
        )
        full, rep = drain_pair(
            system,
            4,
            lambda: ContinuousBatching(8),
            [SHORT] * 96,
            lambda: BatchedArrivals(0.005, 32, seed=4),
            budget=budget,
        )
        assert_folded_matches_full(full, rep)


class TestFoldFallback:
    """The auto-fallback matrix: every ineligible configuration takes the
    full path under "auto" and refuses "representative" at construction."""

    def _queue(self):
        return sample_request_classes(12, seed=3)

    def assert_falls_back(self, nodes, match, router=None, **cluster_kwargs):
        auto = ClusterScheduler(
            nodes, ContinuousBatching(4), router=router, **cluster_kwargs
        )
        report = auto.drain(self._queue())
        assert report.fleet_symmetry == "full"
        with pytest.raises(ConfigurationError, match=match):
            ClusterScheduler(
                nodes,
                ContinuousBatching(4),
                router=router,
                fleet_symmetry="representative",
                **cluster_kwargs,
            )

    def test_load_dependent_routers_fall_back(self, system):
        for router in (LeastOutstandingTokens(), BestFitKV()):
            self.assert_falls_back(
                symmetric_fleet(system, 3),
                match="routes on live node load",
                router=router,
            )

    def test_unshared_step_time_falls_back(self, system):
        nodes = [
            Node(system, step_time=unit_steps(), name=f"node{i}") for i in range(3)
        ]
        self.assert_falls_back(nodes, match="step-time instance")

    def test_unequal_budget_falls_back(self, system, tiny_mha):
        step = unit_steps()
        small = CapacityBudget(tiny_mha.kv_cache_bytes(1, 16384), "small")
        nodes = [
            Node(system, step_time=step, name="node0"),
            Node(system, step_time=step, budget=small, name="node1"),
        ]
        self.assert_falls_back(nodes, match="KV capacity")

    def test_unequal_prefill_chunk_falls_back(self, system):
        step = unit_steps()
        nodes = [
            Node(system, step_time=step, name="node0"),
            Node(system, step_time=step, prefill_chunk_tokens=128, name="node1"),
        ]
        self.assert_falls_back(nodes, match="prefill chunk")

    def test_faults_fall_back(self, system):
        self.assert_falls_back(
            symmetric_fleet(system, 2),
            match="liveness-aware",
            faults=parse_fault_spec("slow:5:10:2.0:1"),
        )

    def test_overload_falls_back(self, system):
        self.assert_falls_back(
            symmetric_fleet(system, 2),
            match="liveness-aware",
            overload=parse_overload_spec("shed:64"),
        )

    def test_autoscale_falls_back(self, system):
        self.assert_falls_back(
            symmetric_fleet(system, 3),
            match="liveness-aware",
            autoscale=parse_autoscale_spec("auto:1:3:8"),
        )

    def test_auto_single_node_keeps_the_legacy_path(self, system):
        """auto never folds one node: it keeps the preload feed."""
        report = ClusterScheduler(
            symmetric_fleet(system, 1), ContinuousBatching(4)
        ).drain(self._queue())
        assert report.fleet_symmetry == ""  # single-host report

    def test_representative_single_node_is_allowed(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 1),
            ContinuousBatching(4),
            fleet_symmetry="representative",
        ).drain(self._queue())
        assert report.fleet_symmetry == "representative"
        assert report.all_completed

    def test_full_mode_forces_every_node(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            fleet_symmetry="full",
        ).drain(self._queue())
        assert report.fleet_symmetry == "full"

    def test_unknown_mode_rejected(self, system):
        with pytest.raises(ConfigurationError, match="fleet_symmetry"):
            ClusterScheduler(
                symmetric_fleet(system, 2),
                ContinuousBatching(4),
                fleet_symmetry="mirrored",
            )
        assert FLEET_SYMMETRY_MODES == ("auto", "full", "representative")

    def test_ineligible_error_names_the_blocker_and_the_fallback(self, system):
        with pytest.raises(ConfigurationError, match="use 'auto' to fall back"):
            ClusterScheduler(
                symmetric_fleet(system, 2),
                ContinuousBatching(4),
                router=BestFitKV(),
                fleet_symmetry="representative",
            )


class TestFoldConservation:
    """The fold-conservation sanitizer invariant: mirrored representative
    totals must equal the summed node breakdowns."""

    def _report(self, system):
        return ClusterScheduler(
            symmetric_fleet(system, 2), ContinuousBatching(4), router=RoundRobin()
        ).drain(sample_request_classes(8, seed=1))

    def test_clean_report_passes(self, system):
        check_report_conservation(self._report(system))

    def test_sanitized_folded_drain_runs_the_invariant(self, system):
        # The folded drain under REPRO_SIM_SANITIZE=1 (the autouse test
        # default) runs the mirror + mirrored-sum cross-check end to end.
        report = ClusterScheduler(
            symmetric_fleet(system, 4),
            ContinuousBatching(4),
            fleet_symmetry="representative",
        ).drain([SHORT] * 24)
        assert report.fleet_symmetry == "representative"
        assert len(report.requests) == report.n_requests
        assert report.all_completed

    def test_unmirrored_group_is_caught(self, system, monkeypatch):
        # Without the mirror, the three mirrored nodes report no tokens,
        # so their breakdowns fall short of the representative's totals
        # times the group multiplicity.
        monkeypatch.setattr(
            ClusterScheduler, "_mirror", staticmethod(lambda slices, groups: None)
        )
        scheduler = ClusterScheduler(
            symmetric_fleet(system, 4),
            ContinuousBatching(4),
            fleet_symmetry="representative",
        )
        with pytest.raises(SanitizerError) as caught:
            scheduler.drain([SHORT] * 24)
        assert caught.value.invariant == "fold-conservation"


class TestWeightedRoundRobinFolding:
    """WRR's static placement is fold-eligible; nodes whose slices agree
    (equal weights) merge into one representative group."""

    def test_unequal_weights_fold_the_equal_weight_nodes(self, system):
        full = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=WeightedRoundRobin((2, 1, 1)),
            fleet_symmetry="full",
        ).drain([SHORT] * 24)
        rep = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=WeightedRoundRobin((2, 1, 1)),
            fleet_symmetry="representative",
        ).drain([SHORT] * 24)
        assert_folded_matches_full(full, rep)
        # The double-weight node takes twice the requests of the others.
        assert [n.n_requests for n in rep.node_reports] == [12, 6, 6]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_equal_weight_wrr_matches_round_robin_folded(self, system, seed):
        classes = sample_request_classes(24, seed=seed)
        rr = ClusterScheduler(
            symmetric_fleet(system, 2),
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry="representative",
        ).drain(list(classes))
        wrr = ClusterScheduler(
            symmetric_fleet(system, 2),
            ContinuousBatching(4),
            router=WeightedRoundRobin((1, 1)),
            fleet_symmetry="representative",
        ).drain(list(classes))
        assert [r.completion_time for r in rr.requests] == [
            r.completion_time for r in wrr.requests
        ]


class TestReportPercentiles:
    """p50/p99 latency percentiles on reports and node breakdowns."""

    def test_percentiles_present_and_ordered(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 2), ContinuousBatching(4), router=RoundRobin()
        ).drain(sample_request_classes(24, seed=7))
        assert 0 < report.p50_latency_seconds <= report.p99_latency_seconds
        assert report.p50_latency_seconds <= report.mean_latency_seconds * 2
        for node in report.node_reports:
            assert (
                0
                < node.p50_latency_seconds
                <= node.p95_latency_seconds
                <= node.p99_latency_seconds
            )

    def test_single_host_report_carries_percentiles(self, system):
        report = ClusterScheduler(
            symmetric_fleet(system, 1), ContinuousBatching(4)
        ).drain(sample_request_classes(16, seed=2))
        assert report.p50_latency_seconds > 0
        assert report.p99_latency_seconds >= report.p50_latency_seconds
