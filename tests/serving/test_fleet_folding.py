"""Property tests: fleet folding is equivalent to full simulation.

The representative fleet drain must be *bit-identical* to simulating
every node of a symmetric fleet:

* every ``ServingReport`` field (makespan, throughput, latency means and
  percentiles, preemption/waste totals) is equal across policies x
  arrival processes x seeds -- report means are correctly rounded
  ``math.fsum`` sums, so merging group tallies cannot move a bit;
* every per-request outcome and every ``NodeBreakdown`` field is equal
  too -- mirrored nodes carry figures identical to their
  representative's;
* ineligible configurations (heterogeneous fleets, load-dependent
  routers, faults/overload/autoscale) transparently fall back to the
  full-fleet path under ``fleet_symmetry="auto"`` and refuse
  ``"representative"`` with a :class:`~repro.errors.ConfigurationError`
  naming the blocker;
* the ``request-conservation`` sanitizer invariant (a re-tally of the
  lazy request view against the report the merged group tallies built)
  catches a representative outcome that was not mirrored onto its group;
* a folded drain builds only its representative slices' requests, so two
  fleets with the same per-node load build as many requests and run as
  many engine iterations whatever their node count.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SANITIZE_ENV, SanitizerError
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
    _Queue,
    check_report_conservation,
)
from repro.serving.faults import parse_fault_spec
from repro.serving.metrics import RequestTally, build_fleet_report
from repro.serving.overload import parse_overload_spec
from repro.serving.request import FoldedRequests, ServingRequest
from repro.workloads import sample_request_classes
from repro.workloads.requests import MEDIUM, SHORT

#: Report fields that legitimately differ between the two paths (the mode
#: marker) or need structured comparison field by field.
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


def assert_equal(a, b, context):
    assert a == b, f"{context}: {a!r} != {b!r}"


def assert_folded_matches_full(full, rep):
    """Every report, breakdown, and per-request field bit for bit."""
    assert full.fleet_symmetry == "full"
    assert rep.fleet_symmetry == "representative"
    for f in dataclasses.fields(type(full)):
        if f.name in REPORT_SKIP:
            continue
        assert_equal(getattr(full, f.name), getattr(rep, f.name), f"report.{f.name}")
    assert len(full.node_reports) == len(rep.node_reports)
    for fb, rb in zip(full.node_reports, rep.node_reports):
        for f in dataclasses.fields(type(fb)):
            assert_equal(
                getattr(fb, f.name),
                getattr(rb, f.name),
                f"node {fb.node}.{f.name}",
            )
    fa = sorted(full.requests, key=lambda r: r.request_id)
    fb = sorted(rep.requests, key=lambda r: r.request_id)
    assert [r.request_id for r in fa] == [r.request_id for r in fb]
    for x, y in zip(fa, fb):
        for name in REQUEST_FIELDS:
            assert_equal(
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
    """Folded vs unfolded: every field equal, bit for bit."""

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

    def test_auto_single_node_reports_as_a_single_host(self, system):
        """auto never folds one node, so a lone host keeps its single-host
        report labels."""
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
    """The request-conservation sanitizer invariant on folded drains: a
    full pass over the lazy request view must re-tally to the report's
    figures, which come from the merged group tallies."""

    def _report(self, system):
        return ClusterScheduler(
            symmetric_fleet(system, 2), ContinuousBatching(4), router=RoundRobin()
        ).drain(sample_request_classes(8, seed=1))

    def test_clean_report_passes(self, system):
        check_report_conservation(self._report(system))

    def test_sanitized_folded_drain_runs_the_invariant(self, system):
        # The folded drain under REPRO_SIM_SANITIZE=1 (the autouse test
        # default) runs the view re-tally end to end.
        report = ClusterScheduler(
            symmetric_fleet(system, 4),
            ContinuousBatching(4),
            fleet_symmetry="representative",
        ).drain([SHORT] * 24)
        assert report.fleet_symmetry == "representative"
        assert len(report.requests) == report.n_requests
        assert report.all_completed

    def test_unmirrored_group_is_caught(self, system, monkeypatch):
        # Without the mirror, the three mirrored nodes' requests come back
        # fresh and unfinished, so the view re-tallies short of the group
        # tallies times the group multiplicity.
        monkeypatch.setattr(
            FoldedRequests,
            "_mirror",
            staticmethod(lambda source, *identity: ServingRequest(*identity)),
        )
        scheduler = ClusterScheduler(
            symmetric_fleet(system, 4),
            ContinuousBatching(4),
            fleet_symmetry="representative",
        )
        with pytest.raises(SanitizerError) as caught:
            scheduler.drain([SHORT] * 24)
        assert caught.value.invariant == "request-conservation"


class TestExactReportSums:
    """Report means are correctly rounded sums, so they depend neither on
    request order nor on the Python version's builtin ``sum()``."""

    def test_ten_tenth_second_latencies_average_to_a_tenth(self):
        requests = [
            ServingRequest(
                i,
                SHORT,
                admitted_time=0.0,
                first_token_time=0.05,
                completion_time=0.1,
                tokens_generated=SHORT.output_tokens,
            )
            for i in range(10)
        ]
        report = build_fleet_report(
            fleet_name="fleet",
            policy_name="continuous",
            router_name="round-robin",
            requests=requests,
            makespan_seconds=1.0,
            node_reports=(),
            tally=RequestTally(requests),
        )
        assert report.mean_latency_seconds == 0.1

    def test_shuffled_requests_report_bit_identically(self, system):
        full = ClusterScheduler(
            symmetric_fleet(system, 4),
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry="full",
        ).drain(
            sample_request_classes(64, seed=3),
            arrivals=PoissonArrivals(rate_per_second=2.0, seed=3),
        )

        def rebuild(requests):
            return build_fleet_report(
                fleet_name=full.system,
                policy_name=full.policy,
                router_name=full.router,
                requests=requests,
                makespan_seconds=full.makespan_seconds,
                node_reports=full.node_reports,
                tally=RequestTally(requests),
            )

        reference = rebuild(list(full.requests))
        floats = [
            f.name
            for f in dataclasses.fields(reference)
            if isinstance(getattr(reference, f.name), float)
        ]
        assert "mean_latency_seconds" in floats
        for seed in range(8):
            shuffled = list(full.requests)
            random.Random(seed).shuffle(shuffled)
            report = rebuild(shuffled)
            for name in floats:
                assert getattr(report, name) == getattr(reference, name), (seed, name)

    @pytest.mark.parametrize("copies", [1, 7, 64, 1000])
    def test_merged_tally_equals_the_one_pass_tally(self, system, copies):
        # Every drain builds its fleet tally by merging node, group and
        # shed tallies, so a merge with multiplicities must give the
        # figures of one pass over the multiset it stands for, bit for bit.
        report = ClusterScheduler(
            symmetric_fleet(system, 2),
            ContinuousBatching(4, admission="optimistic"),
            overload=parse_overload_spec("shed:2"),
        ).drain(
            sample_request_classes(32, seed=2),
            arrivals=PoissonArrivals(rate_per_second=2.0, seed=2),
        )
        requests = list(report.requests)
        assert any(r.shed for r in requests) and any(r.finished for r in requests)
        parts = [requests[0::3], requests[1::3], requests[2::3]]
        # Seed 2's first part has latencies for which scaling their rounded
        # sum by 7 or 1,000 rounds away from the expanded sum, far enough to
        # move the mean; a power of two (1, 64) scales exactly.
        latencies = [
            r.completion_time - r.arrival_time for r in parts[0] if r.finished
        ]
        assert (
            copies * math.fsum(latencies) != math.fsum(latencies * copies)
        ) == (copies in (7, 1000))
        merged = RequestTally.merged(
            [
                (RequestTally(parts[0]), copies),
                (RequestTally(parts[1]), 3),
                (RequestTally(parts[2]), 1),
                (RequestTally(), 5),
            ]
        )
        one_pass = RequestTally(parts[0] * copies + parts[1] * 3 + parts[2])
        assert merged.figures(report.makespan_seconds) == one_pass.figures(
            report.makespan_seconds
        )


class TestFoldScaling:
    """A folded drain's work follows its representative slice: fleets with
    the same per-node load build as many requests and run as many engine
    iterations at 64 nodes as at 256."""

    PER_NODE = 24

    def drain(self, system, monkeypatch, n_nodes):
        built: list[int] = []
        mirrored: list[int] = []
        iterations: list[int] = []

        class CountingSteps(AnalyticStepTime):
            def step_seconds(self, batch_size, seq_len):
                iterations.append(batch_size)
                return super().step_seconds(batch_size, seq_len)

        step = CountingSteps(
            base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
        )
        nodes = [Node(system, step_time=step, name=f"node{i}") for i in range(n_nodes)]
        scheduler = ClusterScheduler(
            nodes,
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry="representative",
        )
        init, mirror = ServingRequest.__init__, FoldedRequests._mirror

        def counting_init(request, *args, **kwargs):
            built.append(1)
            init(request, *args, **kwargs)

        def counting_mirror(*args):
            mirrored.append(1)
            return mirror(*args)

        with monkeypatch.context() as patch:
            # Unsanitized, as in production: the sanitizer's re-tally walks
            # the whole view on purpose.
            patch.setenv(SANITIZE_ENV, "0")
            patch.setattr(ServingRequest, "__init__", counting_init)
            patch.setattr(FoldedRequests, "_mirror", staticmethod(counting_mirror))
            report = scheduler.drain(
                [SHORT] * (self.PER_NODE * n_nodes),
                arrivals=BatchedArrivals(0.05, 4 * n_nodes, seed=2),
            )
        assert report.fleet_symmetry == "representative"
        assert report.all_completed
        assert report.n_requests == len(report.requests) == self.PER_NODE * n_nodes
        assert len(report.node_reports) == n_nodes
        return len(built), len(mirrored), len(iterations)

    def test_drain_work_does_not_grow_with_the_fleet(self, system, monkeypatch):
        small = self.drain(system, monkeypatch, 64)
        large = self.drain(system, monkeypatch, 256)
        built, mirrored, iterations = small
        assert built == self.PER_NODE
        assert mirrored == 0
        assert iterations > 0
        assert large == small

    @staticmethod
    def line_events(system, monkeypatch, n_nodes, per_node):
        """Lines executed in ``repro/serving`` frames by one unsanitized
        folded drain of ``per_node`` requests per node."""
        step = unit_steps()
        nodes = [Node(system, step_time=step, name=f"node{i}") for i in range(n_nodes)]
        scheduler = ClusterScheduler(
            nodes,
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry="representative",
        )
        package = os.path.dirname(sys.modules[Node.__module__].__file__) + os.sep
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count_lines

        def serving_frames_only(frame, event, arg):
            return count_lines if frame.f_code.co_filename.startswith(package) else None

        with monkeypatch.context() as patch:
            patch.setenv(SANITIZE_ENV, "0")
            previous = sys.gettrace()
            sys.settrace(serving_frames_only)
            try:
                report = scheduler.drain(
                    [SHORT] * (per_node * n_nodes),
                    arrivals=BatchedArrivals(0.05, 4 * n_nodes, seed=2),
                )
            finally:
                sys.settrace(previous)
        assert report.fleet_symmetry == "representative"
        assert report.all_completed
        return lines

    def test_fleet_size_costs_no_per_request_python_work(self, system, monkeypatch):
        # Python lines the serving package executes, an exact count: going
        # from 64 to 256 nodes adds per-node work only, the same at 24 and
        # at 48 requests per node.  A per-request loop over the fleet's
        # queue would add four times as many lines at the doubled load.
        added = [
            self.line_events(system, monkeypatch, 256, per_node)
            - self.line_events(system, monkeypatch, 64, per_node)
            for per_node in (self.PER_NODE, 2 * self.PER_NODE)
        ]
        assert added[0] > 0
        assert added[0] == added[1]


class TestWeightedRoundRobinFolding:
    """WRR's static placement is fold-eligible; nodes whose slices agree
    (equal weights) merge into one representative group."""

    @pytest.mark.parametrize(
        "arrivals_factory, groups",
        [
            # Bursts of one cycle's length: nodes 1 and 2 see equal times.
            (lambda: BatchedArrivals(0.05, 4, seed=5), [[0], [1, 2]]),
            # Poisson times differ per position, so every node simulates.
            (lambda: PoissonArrivals(rate_per_second=0.5, seed=5), [[0], [1], [2]]),
        ],
        ids=["burst", "poisson"],
    )
    def test_unequal_weights_fold_the_equal_weight_nodes(
        self, system, arrivals_factory, groups
    ):
        # The double-weight node holds two cycle offsets, so its slice
        # interleaves two stride slices of the queue's times and classes.
        full = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=WeightedRoundRobin((2, 1, 1)),
            fleet_symmetry="full",
        ).drain([SHORT] * 24, arrivals=arrivals_factory())
        scheduler = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=WeightedRoundRobin((2, 1, 1)),
            fleet_symmetry="representative",
        )
        rep = scheduler.drain([SHORT] * 24, arrivals=arrivals_factory())
        assert_folded_matches_full(full, rep)
        # The double-weight node takes twice the requests of the others.
        assert [n.n_requests for n in rep.node_reports] == [12, 6, 6]
        period, offsets, plan_groups = scheduler._fold_plan(
            _Queue([SHORT] * 24, arrivals_factory())
        )
        assert (period, offsets, plan_groups) == (4, [[0, 1], [2], [3]], groups)

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


class TestFoldedRequestView:
    """A folded drain's ``requests`` is a read-only view in queue order:
    request ``i`` is the queue's element ``i``, whether it was simulated or
    mirrored."""

    N_REQUESTS = 30

    @pytest.fixture
    def drained(self, system):
        # Three-request bursts of one shape deal each of the three nodes an
        # identical slice, so node0 is simulated and nodes 1-2 mirror it.
        classes = [cls for cls in (SHORT, MEDIUM) * 5 for _ in range(3)]
        arrivals = BatchedArrivals(0.05, 3, seed=4)
        report = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry="representative",
        ).drain(classes, arrivals=arrivals)
        view = report.requests
        assert isinstance(view, FoldedRequests)
        assert view[0] is view[0]  # simulated: returned as it is
        assert view[1] is not view[1]  # mirrored: built on each access
        return classes, arrivals.checked_times(self.N_REQUESTS), view

    def test_a_second_drain_builds_its_own_requests(self, system):
        # The folded drain writes outcomes only into requests it built, so
        # one scheduler drains the same queue again to the same view and
        # leaves the first view's requests alone.
        classes = [SHORT] * 12
        scheduler = ClusterScheduler(
            symmetric_fleet(system, 3),
            ContinuousBatching(4),
            router=RoundRobin(),
            fleet_symmetry="representative",
        )
        first = scheduler.drain(classes).requests
        before = [repr(r) for r in first]
        second = scheduler.drain(classes).requests
        assert [repr(r) for r in second] == before
        assert [repr(r) for r in first] == before
        assert first[0] is not second[0]

    def test_request_i_is_queue_element_i(self, drained):
        classes, times, view = drained
        assert len(view) == self.N_REQUESTS
        assert [r.request_id for r in view] == list(range(self.N_REQUESTS))
        assert [r.request_class for r in view] == classes
        assert [r.arrival_time for r in view] == times

    def test_indexing_matches_iteration(self, drained):
        _, _, view = drained
        assert [repr(view[i]) for i in range(len(view))] == [
            repr(r) for r in view
        ]

    def test_negative_index_counts_back(self, drained):
        _, _, view = drained
        n = self.N_REQUESTS
        assert view[-1].request_id == n - 1
        assert view[-n].request_id == 0
        assert repr(view[-2]) == repr(view[n - 2])

    def test_out_of_range_index_raises(self, drained):
        _, _, view = drained
        for index in (self.N_REQUESTS, -self.N_REQUESTS - 1):
            with pytest.raises(IndexError):
                view[index]

    def test_slice_is_a_list_of_the_same_requests(self, drained):
        _, _, view = drained
        expected = [repr(r) for r in view]
        assert [repr(r) for r in view[4:17:3]] == expected[4:17:3]
        assert [repr(r) for r in view[::-1]] == expected[::-1]
