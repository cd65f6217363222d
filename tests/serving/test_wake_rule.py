"""One wake rule: a parked engine sees a same-time burst whole, on any feed.

Every drain delivers its requests through the dispatcher, and a delivery
to a parked engine wakes it at the same instant but after the delivering
process yields (:meth:`~repro.serving.engine.NodeEngine._wake_if_parked`),
so every request due then is in its inbox when it resumes.  Hence the
slice property: node ``i`` of an N-node round-robin fleet simulated in
full, fed ``BatchedArrivals``, takes queue positions ``i``, ``i + N``, ...
and drains exactly like a lone node fed that slice -- its classes, and a
``TraceReplay`` of its times.  Admission, first-token and completion
times and preemption counts are compared with ``==`` across the
batch-synchronous policies and continuous batching under both
admissions (optimistic on a budget that preempts), bursts of 3 and 6,
and 2- and 3-node fleets.  (Bursts of 3 on 3 nodes give each node one
request per burst, so that cell is left out.)
"""

from __future__ import annotations

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models.registry import tiny_model
from repro.serving import (
    AnalyticStepTime,
    BatchedArrivals,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    LengthBucketedBatch,
    Node,
    RoundRobin,
    TraceReplay,
)
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG

MODEL = tiny_model(n_layers=2, hidden=32, intermediate=64, n_heads=4)
SYSTEM = HilosSystem(MODEL, HilosConfig(n_devices=2))
STEPS = AnalyticStepTime(
    base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
)
N_REQUESTS = 24
#: One burst every 20 s on average: shorter than a batch's decode, so
#: bursts land on busy and on parked engines alike.
BURST_RATE = 0.05

#: name -> (policy factory, node keyword arguments).
POLICIES = {
    "fcfs": (lambda: FCFSFixedBatch(4), {}),
    "length-bucketed": (lambda: LengthBucketedBatch(4), {}),
    "continuous-reserve": (lambda: ContinuousBatching(4), {}),
    # A quarter more than one Long's final context: a mixed batch's decode
    # growth overflows it, so the youngest request is preempted.
    "continuous-optimistic": (
        lambda: ContinuousBatching(4, admission="optimistic"),
        {
            "budget": CapacityBudget(
                1.25 * MODEL.kv_cache_bytes(1, LONG.total_tokens), "tight"
            )
        },
    ),
}


def _nodes(n: int, node: dict) -> list[Node]:
    return [Node(SYSTEM, step_time=STEPS, name=f"node{i}", **node) for i in range(n)]


def _outcomes(requests) -> list[tuple]:
    return [
        (r.admitted_time, r.first_token_time, r.completion_time, r.preemption_count)
        for r in requests
    ]


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("n_nodes, burst", [(2, 3), (2, 6), (3, 6)])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_fleet_node_drains_like_a_lone_node_fed_its_slice(name, n_nodes, burst, seed):
    make_policy, node = POLICIES[name]
    classes = sample_request_classes(N_REQUESTS, seed=seed)
    arrivals = BatchedArrivals(BURST_RATE, burst, seed=seed)
    times = arrivals.arrival_times(N_REQUESTS)
    fleet = ClusterScheduler(
        _nodes(n_nodes, node),
        make_policy(),
        router=RoundRobin(),
        fleet_symmetry="full",
    ).drain(classes, arrivals=arrivals)
    assert fleet.fleet_symmetry == "full"
    for index in range(n_nodes):
        lone = ClusterScheduler(_nodes(1, node), make_policy()).drain(
            classes[index::n_nodes], arrivals=TraceReplay(times[index::n_nodes])
        )
        assert _outcomes(fleet.requests[index::n_nodes]) == _outcomes(lone.requests)


def test_optimistic_slices_preempt():
    """The optimistic budget above is tight enough to exercise preemption."""
    make_policy, node = POLICIES["continuous-optimistic"]
    report = ClusterScheduler(
        _nodes(2, node), make_policy(), router=RoundRobin(), fleet_symmetry="full"
    ).drain(
        sample_request_classes(N_REQUESTS, seed=3),
        arrivals=BatchedArrivals(BURST_RATE, 6, seed=3),
    )
    assert report.preemptions > 0


@pytest.mark.parametrize("n_nodes", (1, 2))
def test_a_burst_reaching_parked_engines_is_admitted_together(n_nodes):
    """Every engine is parked before the first burst, so each admits its
    whole share of it at the burst's instant."""
    arrivals = BatchedArrivals(BURST_RATE, 4 * n_nodes, seed=1)
    first = arrivals.arrival_times(1)[0]
    report = ClusterScheduler(
        _nodes(n_nodes, {}), FCFSFixedBatch(4), router=RoundRobin()
    ).drain(sample_request_classes(8 * n_nodes, seed=1), arrivals=arrivals)
    burst = report.requests[: 4 * n_nodes]
    assert [r.admitted_time for r in burst] == [first] * len(burst)
