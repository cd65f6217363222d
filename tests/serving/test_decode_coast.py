"""Coasting decode is invisible: a drain equals its one-wake-per-step run.

A full batch runs to its next finisher in one simulator wake
(:meth:`~repro.serving.engine.NodeEngine._coast_steps`).  The reference
is the same drain with the coast length forced to 0, so every decode
iteration takes the per-step path.  Across policies (batch-synchronous,
continuous reserve, optimistic with chunked prefill, optimistic on a
budget tight enough to preempt mid-coast), feeds (the 1-node preload,
JSQ, BestFitKV, round-robin, weighted round-robin and a folded fleet)
and arrival processes (all at zero, Poisson, bursts) over three seeds:

* the report's plain form and every request's outcome are ``==``;
* the coasting drain processes fewer simulator events, while drains
  under the fault driver and on tiered nodes -- which never coast --
  process exactly as many;
* a countdown forged upward makes a coast overrun a finisher, which the
  sanitizer's ``load-ledger`` check catches at the wake.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV, SanitizerError
from repro.core.config import HilosConfig
from repro.errors import SchedulingError
from repro.core.runtime import HilosSystem
from repro.models.registry import tiny_model
from repro.serving import (
    AnalyticStepTime,
    BatchedArrivals,
    BestFitKV,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    KVTier,
    LeastOutstandingTokens,
    LengthBucketedBatch,
    LRUByRequest,
    Node,
    PoissonArrivals,
    RoundRobin,
    TierStack,
    WeightedRoundRobin,
    parse_fault_spec,
)
from repro.serving.budget import BudgetTracker
from repro.serving.engine import NodeEngine
from repro.serving.kvtiers import TieredBudgetTracker
from repro.serving.request import make_request_queue
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, MEDIUM, SHORT
from tests.test_golden import _plain, outcome_lines, recorded_simulators

MODEL = tiny_model(n_layers=2, hidden=32, intermediate=64, n_heads=4)
SYSTEM = HilosSystem(MODEL, HilosConfig(n_devices=2))
MEDIUM_BYTES = float(MODEL.kv_cache_bytes(1, MEDIUM.total_tokens))
LONG_BYTES = float(MODEL.kv_cache_bytes(1, LONG.total_tokens))
SEEDS = (1, 2, 3)

ARRIVALS = {
    "at-zero": lambda seed: None,
    "poisson": lambda seed: PoissonArrivals(rate_per_second=2.0, seed=seed),
    "bursts": lambda seed: BatchedArrivals(rate_per_second=0.05, burst_size=8, seed=seed),
}


def _mixed(n: int):
    return lambda seed: sample_request_classes(n, seed=seed)


def _short_medium(seed: int):
    """Shorts and Mediums only: every request fits the tight budget alone."""
    return random.Random(seed).choices([SHORT, MEDIUM], k=16)


def _foldable(seed: int):
    """Round-robin deals four nodes two groups of identical slices."""
    return [SHORT, MEDIUM] * 12


#: name -> (policy factory, node keyword arguments, request classes by seed).
POLICIES = {
    "fcfs": (lambda: FCFSFixedBatch(4), {}, _mixed(16)),
    "length-bucketed": (lambda: LengthBucketedBatch(4), {}, _mixed(16)),
    "continuous-reserve": (lambda: ContinuousBatching(4), {}, _mixed(16)),
    "optimistic-chunked": (
        lambda: ContinuousBatching(4, admission="optimistic"),
        {"prefill_chunk_tokens": 256},
        _mixed(16),
    ),
    # Two Mediums' final contexts: four admitted requests outgrow it
    # mid-decode, so coasts end early and the youngest is preempted.
    "optimistic-tight": (
        lambda: ContinuousBatching(4, admission="optimistic"),
        {"budget": CapacityBudget(2.0 * MEDIUM_BYTES, description="tight")},
        _short_medium,
    ),
}

#: name -> (node count, ClusterScheduler keyword arguments, classes by seed).
FLEETS = {
    "jsq": (3, {"router": LeastOutstandingTokens()}, _mixed(24)),
    "bestfit": (3, {"router": BestFitKV()}, _mixed(24)),
    "rr": (3, {"router": RoundRobin()}, _mixed(24)),
    "wrr": (3, {"router": WeightedRoundRobin((2, 1, 1))}, _mixed(24)),
    "folded": (
        4,
        {"router": RoundRobin(), "fleet_symmetry": "representative"},
        _foldable,
    ),
}


def _drain(monkeypatch, coast, policy, classes, arrivals, n_nodes=1, node=None, **kw):
    """Drain once; return the report and the simulator's event count.

    ``coast=False`` forces every decode iteration onto the per-step path.
    """
    steps = AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )
    nodes = [
        Node(SYSTEM, step_time=steps, name=f"node{i}", **(node or {}))
        for i in range(n_nodes)
    ]
    with recorded_simulators() as sims, monkeypatch.context() as patch:
        if not coast:
            patch.setattr(NodeEngine, "_coast_steps", lambda self: 0)
        report = ClusterScheduler(nodes, policy, **kw).drain(classes, arrivals=arrivals)
    (sim,) = sims
    return report, sim.events_processed


def _both(monkeypatch, *args, **kwargs):
    """The per-step reference and the coasting drain, checked equal."""
    reference, reference_events = _drain(monkeypatch, False, *args, **kwargs)
    coasted, events = _drain(monkeypatch, True, *args, **kwargs)
    assert _plain(coasted) == _plain(reference)
    assert outcome_lines(coasted) == outcome_lines(reference)
    return coasted, events, reference_events


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_one_node_drain_equals_per_step(monkeypatch, name, arrival, seed):
    policy, node, classes = POLICIES[name]
    report, events, reference = _both(
        monkeypatch, policy(), classes(seed), ARRIVALS[arrival](seed), node=node
    )
    assert report.completed == report.n_requests
    assert events < reference
    if name == "optimistic-tight":
        assert report.preemptions > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", ["fcfs", "continuous-reserve", "optimistic-chunked"])
@pytest.mark.parametrize(
    "fleet, arrival",
    [
        (fleet, arrival)
        for fleet in sorted(FLEETS)
        for arrival in sorted(ARRIVALS)
        # Poisson arrivals give every node its own slice: nothing folds.
        if (fleet, arrival) != ("folded", "poisson")
    ],
)
def test_fleet_drain_equals_per_step(monkeypatch, fleet, arrival, policy, seed):
    n_nodes, scheduler, classes = FLEETS[fleet]
    make_policy, node, _ = POLICIES[policy]
    report, events, reference = _both(
        monkeypatch,
        make_policy(),
        classes(seed),
        ARRIVALS[arrival](seed),
        n_nodes=n_nodes,
        node=node,
        **scheduler,
    )
    assert report.completed == report.n_requests
    assert events < reference


def test_tight_budget_coasts_stop_at_the_preempting_boundary(monkeypatch):
    """Some coast ends before the finisher because the next step's growth
    would not fit; the preemption then lands on the per-step path."""
    coast = NodeEngine._coast
    cut = []

    def spy(self, steps, optimistic):
        taken, wake = coast(self, steps, optimistic)
        cut.append(taken < steps)
        return taken, wake

    monkeypatch.setattr(NodeEngine, "_coast", spy)
    policy, node, classes = POLICIES["optimistic-tight"]
    report, _, _ = _both(monkeypatch, policy(), classes(1), None, node=node)
    assert report.preemptions > 0
    assert any(cut)


def _tiered_node():
    top = KVTier("hbm", capacity_bytes=0.25 * LONG_BYTES)
    ssd = KVTier("ssd", capacity_bytes=LONG_BYTES, bandwidth_bytes_per_s=1e9)
    return {"kv_tiers": TierStack((top, ssd)), "kv_policy": LRUByRequest()}


#: Drains that never coast: name -> (policy, node count, node, scheduler).
BYPASSED = {
    "faults": (
        ContinuousBatching(4),
        3,
        None,
        {
            "router": LeastOutstandingTokens(),
            "faults": parse_fault_spec("spot:200:15:2"),
        },
    ),
    "tiered": (ContinuousBatching(4, admission="optimistic"), 1, "tiered", {}),
    "tiered-fleet": (FCFSFixedBatch(4), 2, "tiered", {"router": BestFitKV()}),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BYPASSED))
def test_driver_and_tiered_drains_do_not_coast(monkeypatch, name, seed):
    policy, n_nodes, node, scheduler = BYPASSED[name]
    _, events, reference = _both(
        monkeypatch,
        policy,
        sample_request_classes(24, seed=seed),
        PoissonArrivals(rate_per_second=0.5, seed=seed),
        n_nodes=n_nodes,
        node=_tiered_node() if node == "tiered" else None,
        **scheduler,
    )
    assert events == reference


@pytest.mark.parametrize("coast", [True, False])
def test_forged_countdown_overruns_a_finisher(monkeypatch, coast):
    """A countdown raised past the true next finisher is caught: per step
    at the finishing step (3 steps still on the forged countdown), and in
    a coast at its wake, one step short of the forged finish -- after the
    coast ran the finisher past its last token."""
    retire = NodeEngine._retire_finished

    def forged(self):
        scanned = self._until_finish <= 0
        retire(self)
        if scanned and self.running:
            self._until_finish += 3

    monkeypatch.setattr(NodeEngine, "_retire_finished", forged)
    monkeypatch.setenv(SANITIZE_ENV, "1")
    policy, node, classes = POLICIES["continuous-reserve"]
    with pytest.raises(SanitizerError, match="skipped retiring") as excinfo:
        _drain(monkeypatch, coast, policy(), classes(1), None, node=node)
    assert excinfo.value.invariant == "load-ledger"
    left = 1 if coast else 3
    assert f"with {left} decode step(s) left" in str(excinfo.value)


def _decoding(tracker, classes):
    """Admit each request optimistically and complete its prefill."""
    batch = make_request_queue(classes)
    for request in batch:
        tracker.occupy(request)  # simlint: disable=SIM004
        request.tokens_generated = 1
        tracker.update(request)  # prefill completion's re-mark
    return batch


class TestMultiStepUpdate:
    def _tracker(self):
        return BudgetTracker(
            budget=CapacityBudget(100 * LONG_BYTES), model=MODEL, sanitize=True
        )

    def test_one_call_equals_single_steps_bit_for_bit(self):
        """A wake's ``update(*batch, steps=k)`` leaves the ledger exactly
        where k single-step calls leave it: total, peak, every entry."""
        classes = [SHORT, MEDIUM, LONG, MEDIUM]
        stepped, coasted = self._tracker(), self._tracker()
        one, many = _decoding(stepped, classes), _decoding(coasted, classes)
        for _ in range(37):
            for request in one:
                request.tokens_generated += 1
            stepped.update(*one)
        for request in many:
            request.tokens_generated += 37
        growth = coasted.update(*many, steps=37)
        assert growth == [37 * coasted.token_bytes] * len(many)
        assert coasted.reserved_bytes == stepped.reserved_bytes
        assert coasted.peak_reserved_bytes == stepped.peak_reserved_bytes
        assert [coasted._held_now(r.request_id) for r in many] == [
            stepped._held_now(r.request_id) for r in one
        ]
        for request in many:
            coasted.release(request)
        coasted.assert_drained()
        for request in one:
            stepped.release(request)

    def test_steps_need_the_whole_decode_batch(self):
        tracker = self._tracker()
        batch = _decoding(tracker, [SHORT, SHORT])
        with pytest.raises(SchedulingError, match="whole decode batch"):
            tracker.update(batch[0], steps=2)
        for request in batch:
            tracker.release(request)

    def test_tiered_ledger_takes_one_step_per_call(self):
        """Tiered nodes never coast; their ledger refuses a multi-step call."""
        stack = TierStack((KVTier("hbm", capacity_bytes=100 * LONG_BYTES),))
        tracker = TieredBudgetTracker.for_stack(stack, MODEL, sanitize=True)
        batch = _decoding(tracker, [SHORT])
        with pytest.raises(SchedulingError, match="one decode step per call"):
            tracker.update(*batch, steps=2)
        tracker.release(batch[0])
