"""Fleet-drain determinism: the same seeded workload drained twice in one
process must produce byte-identical reports.

This is the regression net under SIM002 (the static determinism-hazard
rule) and the sanitizer: any set-ordered container, shared global RNG, or
id()-keyed tiebreak sneaking into the serving stack shows up here as a
diff between two drains that should be indistinguishable."""

import dataclasses
import json

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.serving import (
    AnalyticStepTime,
    ClusterScheduler,
    ContinuousBatching,
    FaultSchedule,
    LeastOutstandingTokens,
    Node,
    PoissonArrivals,
    SpotPreemptions,
)
from repro.workloads import sample_request_classes

N_NODES = 4
N_REQUESTS = 48
SEED = 23


def build_scheduler(tiny_mha, faults=None):
    system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
    nodes = [
        Node(
            system,
            step_time=AnalyticStepTime(
                base_seconds=1.0,
                per_token_seconds=1e-4,
                prefill_per_token_seconds=1e-3,
            ),
            name=f"node{i}",
        )
        for i in range(N_NODES)
    ]
    return ClusterScheduler(
        nodes,
        ContinuousBatching(4, admission="optimistic"),
        router=LeastOutstandingTokens(),
        faults=faults,
    )


def drain_once(tiny_mha, faults=None):
    return build_scheduler(tiny_mha, faults).drain(
        sample_request_classes(N_REQUESTS, seed=SEED),
        arrivals=PoissonArrivals(rate_per_second=0.5, seed=SEED),
    )


def report_bytes(report) -> bytes:
    """Canonical JSON encoding of the full report, breakdowns included."""
    payload = dataclasses.asdict(report)
    return json.dumps(payload, sort_keys=True).encode()


def test_double_drain_is_byte_identical(tiny_mha):
    first = drain_once(tiny_mha)
    second = drain_once(tiny_mha)
    assert first.all_completed
    # The JSON round-trip flattens every nested dataclass -- per-request
    # timelines and per-node breakdowns included -- so any nondeterminism
    # anywhere in the drain shows up as a byte diff here.
    assert report_bytes(first) == report_bytes(second)


def test_spot_preemption_double_drain_is_byte_identical(tiny_mha):
    """The seeded spot streams (one Random per node, derived from the
    schedule seed) make fault-injected drains exactly as replayable as
    fault-free ones: kills land at the same instants, the same requests
    migrate, and both reports byte-match."""
    faults = FaultSchedule(
        spot=SpotPreemptions(mtbf_seconds=400.0, recovery_seconds=60.0, seed=5)
    )
    first = drain_once(tiny_mha, faults=faults)
    second = drain_once(tiny_mha, faults=faults)
    assert first.all_completed
    assert first.migrations > 0  # the schedule actually disturbed the drain
    assert report_bytes(first) == report_bytes(second)


def test_one_scheduler_redrains_its_queue_byte_identically(tiny_mha):
    """A drain builds its requests from the queue's shapes, so one
    scheduler drains the same queue and arrival process again to the same
    bytes as a fresh scheduler, spot preemptions included."""
    faults = FaultSchedule(
        spot=SpotPreemptions(mtbf_seconds=400.0, recovery_seconds=60.0, seed=5)
    )
    scheduler = build_scheduler(tiny_mha, faults=faults)
    queue = sample_request_classes(N_REQUESTS, seed=SEED)
    arrivals = PoissonArrivals(rate_per_second=0.5, seed=SEED)
    first = scheduler.drain(queue, arrivals=arrivals)
    second = scheduler.drain(queue, arrivals=arrivals)
    assert first.migrations > 0
    assert report_bytes(second) == report_bytes(first)
    assert report_bytes(first) == report_bytes(drain_once(tiny_mha, faults=faults))


def test_node_breakdowns_survive_round_trip(tiny_mha):
    report = drain_once(tiny_mha)
    decoded = json.loads(report_bytes(report))
    assert [n["node"] for n in decoded["node_reports"]] == [
        f"node{i}" for i in range(N_NODES)
    ]
    assert sum(n["generated_tokens"] for n in decoded["node_reports"]) == (
        decoded["generated_tokens"]
    )
