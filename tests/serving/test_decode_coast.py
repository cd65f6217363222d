"""Coasting decode is invisible: a drain equals its one-wake-per-step run.

A full batch runs to its next finisher in one simulator wake
(:meth:`~repro.serving.engine.NodeEngine._coast_steps`).  The reference
is the same drain with the coast length forced to 0, so every decode
iteration takes the per-step path.  Across policies (batch-synchronous,
continuous reserve, optimistic with chunked prefill, optimistic on a
budget tight enough to preempt mid-coast), feeds (one node,
JSQ, BestFitKV, round-robin, weighted round-robin and a folded fleet)
and arrival processes (all at zero, Poisson, bursts) over three seeds,
and on tiered nodes (three tier policies × both admissions × 2- and
3-tier stacks, a BestFitKV fleet, a tight stack, a middle tier that
fills during a coast):

* the report's plain form and every request's outcome are ``==``;
* the coasting drain processes fewer simulator events -- on tiered
  nodes and full reserve batches exactly one fewer per iteration a coast
  priced, less its wake and, for a coast through its retiring step, the
  wake's relay -- while drains under the fault driver, which never
  coast, process exactly as many;
* an arrival on a retirement instant joins the freed batch, as it does
  per step, because the coast's wake is relayed from its last boundary;
* on a cold calibrated surrogate (continuous and padded batches,
  reserve, a tight optimistic budget whose coasts stop on it, a 2-tier
  optimistic node, a grid ending below the Long context), the clamp
  counters and the cells measured, in order, are ``==`` too;
* a tiered decode run that grows the top tier does not coast, because a
  BestFitKV arrival during it is routed on the top tier's headroom;
* a countdown forged upward makes a coast overrun a finisher, which the
  sanitizer's ``load-ledger`` check catches at the wake;
* a tiered wake lands exactly the growth its coast planned.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV, SanitizerError
from repro.core.config import HilosConfig
from repro.errors import SchedulingError
from repro.core.runtime import HilosSystem
from repro.models.registry import tiny_model
from repro.serving import (
    AnalyticStepTime,
    AttentionAwareDemotion,
    BatchedArrivals,
    BestFitKV,
    CalibratedStepTime,
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
    StaticSplit,
    TierStack,
    TraceReplay,
    WeightedRoundRobin,
    parse_fault_spec,
)
from repro.serving.budget import BudgetTracker
from repro.serving.engine import NodeEngine
from repro.serving.kvtiers import TieredBudgetTracker
from repro.serving.request import make_request_queue
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, MEDIUM, SHORT, RequestClass
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


def _drain(
    monkeypatch,
    coast,
    policy,
    classes,
    arrivals,
    n_nodes=1,
    node=None,
    step_time=None,
    **kw,
):
    """Drain once; return the report and the simulator's event count.

    ``coast=False`` forces every decode iteration onto the per-step path.
    ``node`` holds every node's keyword arguments, or is a list of them,
    one per node; every node shares ``step_time`` (by default 1 s plus
    1e-4 s per context token per step, and 1e-3 s per prefill token).
    """
    steps = step_time or AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )
    per_node = node if isinstance(node, list) else [node or {}] * n_nodes
    nodes = [
        Node(SYSTEM, step_time=steps, name=f"node{i}", **kwargs)
        for i, kwargs in enumerate(per_node)
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


def _coasts(monkeypatch) -> list[tuple[int, int]]:
    """Record every coast as (iterations offered, iterations priced)."""
    coast = NodeEngine._coast
    coasts = []

    def spy(self, steps, optimistic):
        taken, wake, last = coast(self, steps, optimistic)
        coasts.append((steps, taken))
        return taken, wake, last

    monkeypatch.setattr(NodeEngine, "_coast", spy)
    return coasts


def _saved_events(coasts) -> int:
    """Simulator events the coasts save: one per iteration priced, less
    the wake, and less its relay when the coast took its retiring step."""
    return sum(
        taken - (2 if taken == steps else 1) for steps, taken in coasts if taken
    )


def test_full_batches_coast_through_their_retiring_step(monkeypatch):
    """Every coast of a full reserve batch takes the whole countdown it is
    offered, the retiring step included, and saves what
    :func:`_saved_events` counts."""
    coasts = _coasts(monkeypatch)
    policy, node, classes = POLICIES["continuous-reserve"]
    _, events, reference = _both(monkeypatch, policy(), classes(1), None, node=node)
    assert coasts and all(taken == steps for steps, taken in coasts)
    assert reference - events == _saved_events(coasts)


def test_an_arrival_on_the_retirement_instant_joins_the_freed_batch(monkeypatch):
    """A coast's wake orders its ties at the retirement as the per-step
    loop does.

    Requests 0 and 1 decode from t=1 and retire at t=6, when request 3
    arrives; its delivery was scheduled at t=2.5, on request 2's arrival,
    after the coast began.  Per step, the engine schedules its retiring
    step at t=5, after that delivery, so request 3 is in the inbox when
    the batch retires and is admitted with request 2.  The coast's wake,
    relayed from t=5, keeps that order.  A wake pushed when the coast
    began would run first, and request 3 would wait for request 2's
    prefill and first decode step, to t=8.
    """
    report, _, _ = _both(
        monkeypatch,
        ContinuousBatching(2),
        [RequestClass("R", 4, 6)] * 4,
        TraceReplay([0.0, 0.0, 2.5, 6.0]),
        step_time=AnalyticStepTime(1.0, 0.0, 0.25),
    )
    first, second, third, last = report.requests
    assert first.completion_time == second.completion_time == 6.0
    assert third.admitted_time == last.admitted_time == 6.0


def test_tight_budget_coasts_stop_at_the_preempting_boundary(monkeypatch):
    """Some coast ends before the finisher because the next step's growth
    would not fit; the preemption then lands on the per-step path."""
    coasts = _coasts(monkeypatch)
    policy, node, classes = POLICIES["optimistic-tight"]
    report, _, _ = _both(monkeypatch, policy(), classes(1), None, node=node)
    assert report.preemptions > 0
    assert any(taken < steps for steps, taken in coasts)


#: Drains that never coast: name -> (policy, node count, scheduler).
BYPASSED = {
    "faults": (
        ContinuousBatching(4),
        3,
        {
            "router": LeastOutstandingTokens(),
            "faults": parse_fault_spec("spot:200:15:2"),
        },
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BYPASSED))
def test_driver_drains_do_not_coast(monkeypatch, name, seed):
    policy, n_nodes, scheduler = BYPASSED[name]
    _, events, reference = _both(
        monkeypatch,
        policy,
        sample_request_classes(24, seed=seed),
        PoissonArrivals(rate_per_second=0.5, seed=seed),
        n_nodes=n_nodes,
        **scheduler,
    )
    assert events == reference


# --- tiered nodes -----------------------------------------------------------------


def _stack(levels: int) -> TierStack:
    """A 2-tier hbm/ssd or 3-tier hbm/dram/ssd stack: a quarter of a
    Long's final context on top, one Long's final context below it."""
    hbm = KVTier("hbm", capacity_bytes=0.25 * LONG_BYTES)
    if levels == 2:
        return TierStack(
            (hbm, KVTier("ssd", capacity_bytes=LONG_BYTES, bandwidth_bytes_per_s=1e9))
        )
    dram = KVTier("dram", capacity_bytes=0.5 * LONG_BYTES, bandwidth_bytes_per_s=4e9)
    ssd = KVTier("ssd", capacity_bytes=0.5 * LONG_BYTES, bandwidth_bytes_per_s=1e9)
    return TierStack((hbm, dram, ssd))


TIER_POLICIES = {
    "lru": LRUByRequest,
    "attention": lambda: AttentionAwareDemotion(0.3),
    "static": lambda: StaticSplit(0.5),
}


def _tiered_both(monkeypatch, *args, **kwargs):
    """:func:`_both` on tiered nodes, which coast: the event counts differ
    by exactly what the coasts saved (:func:`_saved_events`)."""
    coasts = _coasts(monkeypatch)
    report, events, reference = _both(monkeypatch, *args, **kwargs)
    assert reference - events == _saved_events(coasts)
    assert events < reference
    return report, coasts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("admission", ["reserve", "optimistic"])
@pytest.mark.parametrize("tier_policy", sorted(TIER_POLICIES))
def test_tiered_drain_equals_per_step(monkeypatch, tier_policy, admission, levels, seed):
    report, _ = _tiered_both(
        monkeypatch,
        ContinuousBatching(4, admission=admission),
        sample_request_classes(24, seed=seed),
        PoissonArrivals(rate_per_second=0.5, seed=seed),
        node={"kv_tiers": _stack(levels), "kv_policy": TIER_POLICIES[tier_policy]()},
    )
    assert report.completed == report.n_requests
    # The drain demotes and reads spilled KV, which the coasts reproduce.
    assert report.spilled_decode_seconds > 0.0
    assert sum(tier.demoted_bytes for tier in report.kv_tiers) > 0.0


def test_growth_placed_below_an_unfilled_top_coasts(monkeypatch):
    """``static:1`` places every byte below the top tier and never
    promotes, so growing batches coast although the top stays empty."""
    stack = TierStack(
        (
            KVTier("hbm", capacity_bytes=0.25 * LONG_BYTES),
            KVTier("ssd", capacity_bytes=4 * LONG_BYTES, bandwidth_bytes_per_s=1e9),
        )
    )
    report, coasts = _tiered_both(
        monkeypatch,
        ContinuousBatching(4, admission="optimistic"),
        sample_request_classes(24, seed=1),
        PoissonArrivals(rate_per_second=0.5, seed=1),
        node={"kv_tiers": stack, "kv_policy": StaticSplit(1.0)},
    )
    hbm, ssd = report.kv_tiers
    assert hbm.peak_occupied_bytes == 0.0 and ssd.decode_read_bytes > 0.0
    assert report.completed == report.n_requests


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "policy",
    [FCFSFixedBatch(4), ContinuousBatching(4, admission="optimistic")],
    ids=["fcfs", "optimistic"],
)
def test_tiered_bestfit_fleet_equals_per_step(monkeypatch, policy, seed):
    report, _ = _tiered_both(
        monkeypatch,
        policy,
        sample_request_classes(24, seed=seed),
        PoissonArrivals(rate_per_second=0.5, seed=seed),
        n_nodes=2,
        node={"kv_tiers": _stack(2), "kv_policy": LRUByRequest()},
        router=BestFitKV(),
    )
    assert report.completed == report.n_requests
    assert all(node.n_requests for node in report.node_reports)


def test_tight_tiered_stack_preempts_where_a_coast_stops(monkeypatch):
    """A stack holding two Mediums' final contexts: coasts end before the
    step whose growth would overflow it, and the preemption lands on the
    per-step path."""
    stack = TierStack(
        (
            KVTier("hbm", capacity_bytes=0.5 * MEDIUM_BYTES),
            KVTier("ssd", capacity_bytes=1.5 * MEDIUM_BYTES, bandwidth_bytes_per_s=1e9),
        )
    )
    report, coasts = _tiered_both(
        monkeypatch,
        ContinuousBatching(4, admission="optimistic"),
        _short_medium(1),
        None,
        node={"kv_tiers": stack, "kv_policy": LRUByRequest()},
    )
    assert report.preemptions > 0
    assert any(0 < taken < steps for steps, taken in coasts)


@pytest.mark.parametrize("spare_tokens", [0, 2])
def test_coast_follows_a_middle_tier_that_fills(monkeypatch, spare_tokens):
    """Four Shorts fill the top tier exactly at admission, so each decode
    token lands below it, and the middle tier holds ten steps of the
    batch's growth plus ``spare_tokens``.  With none spare it fills exactly
    at a step boundary and one coast follows the growth down to the
    bottom tier.  With two spare, the eleventh step would fill it
    mid-batch: the coast stops before that step, which runs the
    per-request cascade on the per-step path (a coast of 0 iterations),
    and the next coast lands everything at the bottom."""
    token = float(MODEL.kv_cache_bytes(1, 1))
    top = 4 * float(MODEL.kv_cache_bytes(1, SHORT.input_tokens + 1))
    middle = (10 * 4 + spare_tokens) * token
    stack = TierStack(
        (
            KVTier("hbm", capacity_bytes=top),
            KVTier("dram", capacity_bytes=middle, bandwidth_bytes_per_s=4e9),
            KVTier("ssd", capacity_bytes=top, bandwidth_bytes_per_s=1e9),
        )
    )
    report, coasts = _tiered_both(
        monkeypatch,
        ContinuousBatching(4, admission="optimistic"),
        [SHORT] * 4,
        None,
        node={"kv_tiers": stack, "kv_policy": LRUByRequest()},
    )
    # Prefill emits the first token; all 99 decode steps can coast.
    assert coasts == (
        [(99, 99)] if not spare_tokens else [(99, 10), (89, 0), (88, 88)]
    )
    hbm, dram, ssd = report.kv_tiers
    assert (hbm.peak_occupied_bytes, dram.peak_occupied_bytes) == (top, middle)
    assert ssd.peak_occupied_bytes == (99 * 4 - 10 * 4 - spare_tokens) * token
    assert dram.decode_read_bytes > 0.0 and ssd.decode_read_bytes > 0.0


def test_top_growing_runs_do_not_coast_under_bestfit(monkeypatch):
    """Why a decode run that grows the top tier takes one wake per step.

    A Long can only fit node0, whose top tier takes half of each of its
    tokens; node1's top is smaller than node0's headroom when the Long's
    decode starts, and larger once about 108 of its steps have grown
    node0's top.  A Short arriving after 160 steps is routed by BestFitKV
    to the tighter top, node0 -- where it waits for the Long -- only if
    node0's top ledger has taken every step's growth.  A coast would show
    the router the top as the run began and send the Short to node1.
    """
    token = float(MODEL.kv_cache_bytes(1, 1))
    node0 = TierStack(
        (
            KVTier("hbm", capacity_bytes=4400 * token),
            KVTier("ssd", capacity_bytes=2 * LONG_BYTES, bandwidth_bytes_per_s=1e9),
        )
    )
    node1 = TierStack(
        (
            KVTier("hbm", capacity_bytes=250 * token),
            KVTier("ssd", capacity_bytes=2000 * token, bandwidth_bytes_per_s=1e9),
        )
    )
    report, _, _ = _both(
        monkeypatch,
        ContinuousBatching(1, admission="optimistic"),
        [LONG, SHORT],
        TraceReplay([0.0, 300.0]),
        node=[
            {"kv_tiers": node0, "kv_policy": StaticSplit(0.5)},
            {"kv_tiers": node1, "kv_policy": StaticSplit(0.5)},
        ],
        router=BestFitKV(),
    )
    assert [node.n_requests for node in report.node_reports] == [2, 0]
    short = report.requests[1]
    assert short.admitted_time == report.requests[0].completion_time


@pytest.mark.parametrize("coast", [True, False])
def test_forged_countdown_overruns_a_finisher(monkeypatch, coast):
    """A countdown raised past the true next finisher is caught: per step
    at the finishing step (3 steps still on the forged countdown), and in
    a coast at its wake on the forged finish, where the retirement pass
    finds the finisher 3 steps past its last token."""
    retire = NodeEngine._retire_finished

    def forged(self):
        scanned = self._until_finish <= 0
        retire(self)
        if scanned and self.running:
            self._until_finish += 3

    monkeypatch.setattr(NodeEngine, "_retire_finished", forged)
    monkeypatch.setenv(SANITIZE_ENV, "1")
    policy, node, classes = POLICIES["continuous-reserve"]
    with pytest.raises(SanitizerError) as excinfo:
        _drain(monkeypatch, coast, policy(), classes(1), None, node=node)
    assert excinfo.value.invariant == "load-ledger"
    if coast:
        assert "3 decode step(s) past its last token" in str(excinfo.value)
    else:
        assert "skipped retiring" in str(excinfo.value)
        assert "with 3 decode step(s) left" in str(excinfo.value)


# --- the calibrated surrogate -------------------------------------------------------

#: A batch grid that puts the policies' batch of 4 (and tail batches of 2)
#: between grid rows, so their steps blend two rows.
CALIBRATED_BATCH_GRID = (1, 3, 8)
#: A context grid ending below the Long class's final context (8,542).
SHORT_SEQ_GRID = (256, 1024, 4096)

#: name -> (policy factory, node keyword arguments, classes by seed,
#: arrivals by seed, context grid).
CALIBRATED = {
    "continuous-reserve": (
        lambda: ContinuousBatching(4),
        {},
        _mixed(16),
        ARRIVALS["poisson"],
        None,
    ),
    "padded": (lambda: FCFSFixedBatch(4), {}, _mixed(16), ARRIVALS["at-zero"], None),
    "optimistic-tight": (
        lambda: ContinuousBatching(4, admission="optimistic"),
        {"budget": CapacityBudget(2.0 * MEDIUM_BYTES, description="tight")},
        _short_medium,
        ARRIVALS["at-zero"],
        None,
    ),
    "tiered-optimistic": (
        lambda: ContinuousBatching(4, admission="optimistic"),
        {"kv_tiers": _stack(2), "kv_policy": LRUByRequest()},
        lambda seed: sample_request_classes(24, seed=seed),
        lambda seed: PoissonArrivals(rate_per_second=0.5, seed=seed),
        None,
    ),
    "clamped": (
        lambda: ContinuousBatching(4),
        {},
        lambda seed: [LONG, SHORT, MEDIUM, LONG] * 3,
        ARRIVALS["at-zero"],
        SHORT_SEQ_GRID,
    ),
}


def _calibrated_drain(monkeypatch, coast, name, seed):
    """Drain one node priced by a cold :class:`CalibratedStepTime` (its own
    system, since ``measure()`` moves state that prefill reads); return the
    report, the step-time model, the event count and the coasts taken."""
    make_policy, node, classes, arrivals, seq_grid = CALIBRATED[name]
    system = HilosSystem(MODEL, HilosConfig(n_devices=2))
    step_time = CalibratedStepTime(
        system, batch_grid=CALIBRATED_BATCH_GRID, seq_grid=seq_grid
    )
    engine = Node(system, step_time=step_time, name="node0", **node)
    with recorded_simulators() as sims, monkeypatch.context() as patch:
        coasts = _coasts(patch)
        if not coast:
            patch.setattr(NodeEngine, "_coast_steps", lambda self: 0)
        report = ClusterScheduler([engine], make_policy()).drain(
            classes(seed), arrivals=arrivals(seed)
        )
    (sim,) = sims
    return report, step_time, sim.events_processed, coasts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CALIBRATED))
def test_calibrated_drain_equals_per_step(monkeypatch, name, seed):
    """A coast priced from one calibrated step-time series makes the same
    queries as the per-step path: the report (clamp notes included), every
    outcome, the clamp counters, and the cells measured from a cold cache,
    in the same order, are ``==``."""
    reference, ref_model, ref_events, _ = _calibrated_drain(
        monkeypatch, False, name, seed
    )
    report, model, events, coasts = _calibrated_drain(monkeypatch, True, name, seed)
    assert _plain(report) == _plain(reference)
    assert report.step_time_notes == reference.step_time_notes
    assert outcome_lines(report) == outcome_lines(reference)
    assert model.clamp_counters() == ref_model.clamp_counters()
    assert model.measurement_count == ref_model.measurement_count > 0
    assert list(model._cache) == list(ref_model._cache)
    assert report.completed == report.n_requests
    assert events < ref_events
    if name == "optimistic-tight":
        # Some coast stopped on the budget before its last iteration.
        assert report.preemptions > 0
        assert any(taken < steps for steps, taken in coasts)
    if name == "tiered-optimistic":
        assert report.spilled_decode_seconds > 0.0
    if name == "clamped":
        assert report.step_time_notes["clamped_queries"] > 0
        assert report.step_time_notes["max_seq_seen"] > SHORT_SEQ_GRID[-1]


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

    @staticmethod
    def _tiered_pair(levels):
        """Two sanitized trackers over one stack, each decoding four Shorts."""
        token = float(MODEL.kv_cache_bytes(1, 1))
        admitted = 4 * (SHORT.input_tokens + 1) * token
        if levels == 1:
            tiers = [KVTier("hbm", capacity_bytes=4 * LONG_BYTES)]
        else:
            # The top takes ten steps of the batch's growth, then fills two
            # tokens into the 11th; a middle tier fills three into the 21st.
            tiers = [KVTier("hbm", capacity_bytes=admitted + (10 * 4 + 2) * token)]
            if levels == 3:
                tiers.append(
                    KVTier("dram", capacity_bytes=(10 * 4 + 1) * token,
                           bandwidth_bytes_per_s=4e9)
                )
            tiers.append(
                KVTier("ssd", capacity_bytes=LONG_BYTES, bandwidth_bytes_per_s=1e9)
            )
        stack = TierStack(tuple(tiers))
        trackers = [
            TieredBudgetTracker.for_stack(stack, MODEL, sanitize=True) for _ in "ab"
        ]
        return [(tracker, _decoding(tracker, [SHORT] * 4)) for tracker in trackers]

    @staticmethod
    def _wake(tracker, batch, steps):
        for request in batch:
            request.tokens_generated += steps
        return tracker.update(*batch, steps=steps)

    @pytest.mark.parametrize(
        "levels, coasts",
        [(1, [37]), (2, [10, 0, 26]), (3, [10, 0, 9, 0, 16])],
        ids=["1", "2", "3"],
    )
    def test_tiered_wakes_land_their_plans_as_single_steps(self, levels, coasts):
        """Coasts priced through ``coast_reads`` and landed by their wakes'
        ``update(*batch, steps=k)`` leave every ledger, counter, residency,
        aggregate and read tally exactly where 37 single steps leave them.
        A plan stops before each step in which a tier fills mid-batch (a
        coast of 0), which then runs the per-request cascade per step."""
        (stepped, one), (coasted, many) = self._tiered_pair(levels)
        for _ in range(37):
            stepped.spill_read_seconds(one)
            self._wake(stepped, one, 1)
        done, taken = 0, []
        while done < 37:
            reads = coasted.coast_reads(many, True)
            k = sum(1 for _ in itertools.islice(reads, 37 - done))
            taken.append(k)
            if k:
                assert self._wake(coasted, many, k) == [k * coasted.token_bytes] * 4
            else:
                coasted.spill_read_seconds(many)
                self._wake(coasted, many, 1)
            done += k or 1
        assert taken == coasts
        assert coasted.cascade_steps == stepped.cascade_steps == levels - 1
        for name in ("reserved_bytes", "peak_reserved_bytes", "settles",
                     "step_settles", "decode_steps", "spilled_decode_seconds",
                     "_counts", "_grown"):
            assert getattr(coasted, name) == getattr(stepped, name), name
        assert coasted.tier_reports() == stepped.tier_reports()
        assert [coasted.residency(r) for r in many] == [
            stepped.residency(r) for r in one
        ]
        for tracker, batch in ((coasted, many), (stepped, one)):
            for request in batch:
                tracker.release(request)
            tracker.assert_drained()

    def test_tiered_multi_step_update_needs_a_plan(self):
        """Only a coast's wake lands several steps on a tier stack."""
        ((tracker, batch), _) = self._tiered_pair(2)
        with pytest.raises(SchedulingError, match="no coast planned it"):
            self._wake(tracker, batch, 3)

    @pytest.mark.parametrize("landed", [2, 4])
    def test_wake_must_land_exactly_the_planned_steps(self, landed):
        ((tracker, batch), _) = self._tiered_pair(2)
        reads = tracker.coast_reads(batch, True)
        assert len(list(itertools.islice(reads, 3))) == 3
        with pytest.raises(SanitizerError, match="planned 3 decode step") as excinfo:
            self._wake(tracker, batch, landed)
        assert excinfo.value.invariant == "tier-conservation"

    def test_a_plan_left_unlanded_is_caught_at_the_wake(self):
        ((tracker, batch), _) = self._tiered_pair(2)
        next(tracker.coast_reads(batch, True))
        with pytest.raises(SanitizerError, match="outlived its wake"):
            tracker.check_coast(batch)

    def test_a_pass_that_prices_nothing_plans_nothing(self):
        """A coast that stops before its first step leaves the next
        per-step update to decide that step's growth itself."""
        ((tracker, batch), _) = self._tiered_pair(2)
        for _ in range(10):
            self._wake(tracker, batch, 1)
        # The 11th step fills the top mid-batch: the pass prices nothing.
        assert list(tracker.coast_reads(batch, True)) == []
        self._wake(tracker, batch, 1)
        assert tracker.cascade_steps == 1
