"""Serving demo: offline drain, a bursty online scenario, then a fleet.

Act one samples the Azure-derived Short/Medium/Long request mix and drains
the same 200-request queue through HILOS (8 SmartSSDs) and the FLEX(SSD)
baseline under FCFS fixed-batch, length-bucketed, and capacity-aware
continuous batching, printing per-policy tokens/s, mean/p95 request
latency, and tokens/s/$.

Act two replays the queue as a seeded Poisson arrival stream against a
deliberately tightened KV budget and compares reserve-mode continuous
batching with optimistic admission (chunked prefill, youngest-first
recompute-on-readmit preemption) -- the admission policy, not the device,
sets the throughput under pressure.

Act three shards the same Poisson stream across a 4-node HILOS fleet with
a :class:`~repro.serving.cluster.ClusterScheduler`, comparing round-robin
against join-shortest-queue placement: one queue, four simulated hosts,
fleet tokens/s/$ and a per-node breakdown.

Act four preempts a spot node mid-drain: the fleet drains the same
stream while one node dies and recovers, its requests migrate
recompute-on-migrate, and reserve vs optimistic admission shows how the
recompute bill and the uptime-only cost discount interact.

Act five overloads a 2-node fleet with a hot stream and bounds admission:
shed-on-arrival drops the overflow as structured outcomes (every request
still accounted), and retry-with-backoff re-delivers it.

Act six hands the same hot stream to an elastic 1..4-node fleet: a
reactive autoscaler provisions offline spares on queue pressure (through
the fault layer's RECOVERING lifecycle), drains them when the burst
passes, and the unused capacity is billed only for its uptime.

Run with::

    python examples/offline_serving.py
"""

from __future__ import annotations

from collections import Counter

from repro import HilosConfig, HilosSystem, get_model
from repro.baselines.flexgen import FlexGenSSD
from repro.serving import (
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FaultSchedule,
    LeastOutstandingTokens,
    Node,
    NodeFault,
    PoissonArrivals,
    RoundRobin,
    default_policies,
    parse_autoscale_spec,
    parse_overload_spec,
)
from repro.serving.steptime import CalibratedStepTime
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG

MODEL = "OPT-66B"
N_REQUESTS = 200
BATCH_SLOTS = 16
SEED = 7


def main() -> None:
    model = get_model(MODEL)
    queue = sample_request_classes(N_REQUESTS, seed=SEED)
    mix = Counter(cls.name for cls in queue)
    print(f"model: {model.name}; queue: {N_REQUESTS} requests "
          f"({', '.join(f'{n} {name}' for name, n in mix.items())})")
    print(f"policies share {BATCH_SLOTS} batch slots; "
          "continuous batching admits against the KV capacity budget\n")

    header = (f"{'system':22s} {'policy':16s} {'done':>9s} {'tok/s':>8s} "
              f"{'mean lat':>10s} {'p95 lat':>10s} {'tok/s/$':>10s}")
    throughput: dict[tuple[str, str], float] = {}
    for system in (
        HilosSystem(model, HilosConfig(n_devices=8)),
        FlexGenSSD(model),
    ):
        print(header)
        # One node per system: its calibrated step-time model is measured
        # once and shared by every policy's drain.
        node = Node(system)
        for policy in default_policies(BATCH_SLOTS):
            report = ClusterScheduler([node], policy).drain(queue)
            throughput[(report.system, report.policy)] = report.tokens_per_second
            print(
                f"{report.system:22s} {report.policy:16s} "
                f"{report.completed:4d}/{report.n_requests:<4d} "
                f"{report.tokens_per_second:8.3f} "
                f"{report.mean_latency_seconds / 3600:9.2f}h "
                f"{report.p95_latency_seconds / 3600:9.2f}h "
                f"{report.tokens_per_second_per_usd:10.2e}"
            )
        print()

    for system_name in sorted({name for name, _ in throughput}):
        speedup = (
            throughput[(system_name, "continuous")]
            / throughput[(system_name, "fcfs-fixed")]
        )
        print(f"{system_name}: continuous batching sustains {speedup:.2f}x the "
              "throughput of FCFS fixed batches on the mixed queue")
        assert speedup > 1.0, (
            f"{system_name}: continuous batching should beat FCFS fixed-batch "
            "on a heterogeneous queue"
        )

    online_act(model, queue)
    fleet_act(model, queue)
    fault_act(model, queue)
    overload_act(model, queue)
    autoscale_act(model, queue)


def online_act(model, queue) -> None:
    """Bursty Poisson arrivals against a tight KV budget: reserve vs
    optimistic admission on HILOS."""
    system = HilosSystem(model, HilosConfig(n_devices=8))
    step_time = CalibratedStepTime(system)
    # Tighten the budget to ~6 Long final contexts so admission accounting
    # actually matters (the default flash-array budget swallows the queue).
    one_long = model.kv_cache_bytes(1, LONG.total_tokens)
    budget = CapacityBudget(one_long * 6.0, "six long slots (demo)")
    arrivals = PoissonArrivals(rate_per_second=0.02, seed=SEED)

    print("\nbursty Poisson arrivals (0.02 req/s, seeded), KV budget capped "
          "at six Long contexts, prefill chunked at 512 tokens:")
    print(f"{'policy':24s} {'tok/s':>8s} {'p95 lat':>10s} {'preempt':>8s} "
          f"{'wasted tok':>11s}")
    node = Node(system, step_time=step_time, budget=budget, prefill_chunk_tokens=512)
    results = {}
    for admission in ("reserve", "optimistic"):
        scheduler = ClusterScheduler(
            [node], ContinuousBatching(BATCH_SLOTS, admission=admission)
        )
        report = scheduler.drain(queue, arrivals=arrivals)
        results[admission] = report
        print(
            f"{report.policy:24s} {report.tokens_per_second:8.3f} "
            f"{report.p95_latency_seconds / 3600:9.2f}h "
            f"{report.preemptions:8d} {report.wasted_prefill_tokens:11d}"
        )
    gain = (
        results["optimistic"].tokens_per_second
        / results["reserve"].tokens_per_second
    )
    if gain >= 1.0:
        print(f"optimistic admission sustains {gain:.2f}x reserve-mode "
              "throughput under the tightened budget")
    else:
        # Possible when recompute waste exceeds the packing gain (e.g.
        # after tweaking the budget/rate/seed above): that trade-off is
        # the point of the comparison, not an error.
        print(f"preemption thrash cost optimistic admission {1 / gain:.2f}x "
              "here -- wasted recompute outweighed the denser packing")


def fleet_act(model, queue) -> None:
    """One Poisson stream sharded across a 4-node HILOS fleet: round-robin
    vs join-shortest-queue placement."""
    n_nodes = 4
    arrivals = PoissonArrivals(rate_per_second=0.1, seed=SEED)
    # The symmetric fleet shares one system instance and one calibrated
    # step-time model: four hosts, one measurement cost.
    system = HilosSystem(model, HilosConfig(n_devices=8))
    step_time = CalibratedStepTime(system)

    print(f"\n{n_nodes}-node HILOS (8 SmartSSDs) fleet, one Poisson stream "
          "(0.1 req/s), continuous batching per node:")
    print(f"{'router':14s} {'tok/s':>8s} {'p95 lat':>10s} {'fleet tok/s/$':>14s} "
          f"{'per-node requests':>20s}")
    results = {}
    for router in (RoundRobin(), LeastOutstandingTokens()):
        nodes = [
            Node(system, step_time=step_time, name=f"node{i}")
            for i in range(n_nodes)
        ]
        fleet = ClusterScheduler(
            nodes, ContinuousBatching(BATCH_SLOTS), router=router
        )
        report = fleet.drain(queue, arrivals=arrivals)
        results[router.name] = report
        shares = "/".join(str(n.n_requests) for n in report.node_reports)
        print(
            f"{router.name:14s} {report.tokens_per_second:8.3f} "
            f"{report.p95_latency_seconds / 3600:9.2f}h "
            f"{report.tokens_per_second_per_usd:14.2e} {shares:>20s}"
        )
        assert report.all_completed
        assert len(report.node_reports) == n_nodes
    jsq, rr = results["jsq"], results["round-robin"]
    print(f"jsq p95 latency is {rr.p95_latency_seconds / jsq.p95_latency_seconds:.2f}x "
          "better than blind round-robin on the bursty stream"
          if jsq.p95_latency_seconds <= rr.p95_latency_seconds
          else "round-robin edged out jsq on this seed -- load was even enough "
          "that routing overhead dominated")


def fault_act(model, queue) -> None:
    """Spot preemption mid-drain: one node of four dies and recovers,
    reserve vs optimistic admission under node loss."""
    n_nodes = 4
    arrivals = PoissonArrivals(rate_per_second=0.1, seed=SEED)
    system = HilosSystem(model, HilosConfig(n_devices=8))
    step_time = CalibratedStepTime(system)
    # One deterministic spot kill: node1 is preempted a few minutes into
    # the drain and comes back after a 10-minute provisioning delay.
    faults = FaultSchedule(
        faults=(NodeFault(kind="spot", time=300.0, node=1, recovery_seconds=600.0),)
    )
    # Tighten each node's KV budget (as in the online act) so the surge of
    # migrated work onto the three survivors actually stresses admission.
    one_long = model.kv_cache_bytes(1, LONG.total_tokens)
    budget = CapacityBudget(one_long * 6.0, "six long slots (demo)")

    print(f"\n{n_nodes}-node fleet again, but node1 is spot-preempted at "
          "t=300s and recovers 600s later (requests migrate, emitted "
          "tokens survive, dropped context recomputes elsewhere):")
    print(f"{'admission':14s} {'tok/s':>8s} {'migrated':>9s} "
          f"{'recompute tok':>14s} {'preempt':>8s} {'downtime':>9s} "
          f"{'fleet tok/s/$':>14s}")
    results = {}
    for admission in ("reserve", "optimistic"):
        nodes = [
            Node(system, step_time=step_time, budget=budget, name=f"node{i}")
            for i in range(n_nodes)
        ]
        fleet = ClusterScheduler(
            nodes,
            ContinuousBatching(BATCH_SLOTS, admission=admission),
            router=LeastOutstandingTokens(),
            faults=faults,
        )
        report = fleet.drain(queue, arrivals=arrivals)
        results[admission] = report
        print(
            f"{admission:14s} {report.tokens_per_second:8.3f} "
            f"{report.migrations:9d} {report.migrated_recompute_tokens:14d} "
            f"{report.preemptions:8d} {report.downtime_seconds:8.0f}s "
            f"{report.tokens_per_second_per_usd:14.2e}"
        )
        assert report.all_completed
        assert report.node_reports[1].downtime_seconds > 0
    # The dead node is billed only for its uptime, so the fleet cost
    # drops; the price is the recomputed prefill work and a longer tail.
    for admission, report in results.items():
        dead = report.node_reports[1]
        print(f"  {admission}: node1 was down {dead.downtime_seconds:.0f}s of a "
              f"{report.makespan_seconds:.0f}s drain and is billed "
              f"{dead.cost_usd / report.node_reports[0].cost_usd:.0%} of a "
              "full node")


def overload_act(model, queue) -> None:
    """A hot stream into a 2-node fleet with bounded waiting queues:
    shed-on-arrival vs retry-with-backoff admission control."""
    arrivals = PoissonArrivals(rate_per_second=0.2, seed=SEED)
    system = HilosSystem(model, HilosConfig(n_devices=8))
    step_time = CalibratedStepTime(system)

    print("\n2-node fleet under a hot stream (0.2 req/s), waiting queues "
          "bounded at 8 requests per node:")
    print(f"{'overload':16s} {'done':>9s} {'shed':>5s} {'retries':>8s} "
          f"{'p95 lat':>10s}")
    for spec in ("shed:8", "retry:8:-:6"):
        nodes = [
            Node(system, step_time=step_time, name=f"node{i}") for i in range(2)
        ]
        fleet = ClusterScheduler(
            nodes,
            ContinuousBatching(BATCH_SLOTS),
            router=LeastOutstandingTokens(),
            overload=parse_overload_spec(spec, seed=SEED),
        )
        report = fleet.drain(queue, arrivals=arrivals)
        print(
            f"{spec:16s} {report.completed:4d}/{report.n_requests:<4d} "
            f"{report.shed_requests:5d} {report.retry_attempts:8d} "
            f"{report.p95_latency_seconds / 3600:9.2f}h"
        )
        # Nothing vanishes: every arrival either completed on a node or
        # was shed as a structured outcome charged to one.
        assert report.all_accounted
        assert report.completed + report.shed_requests == report.n_requests
    print("shedding keeps latency flat by refusing the overflow; "
          "retry-with-backoff completes more at the price of a longer tail")


def autoscale_act(model, queue) -> None:
    """The same hot stream against an elastic 1..4-node fleet: a reactive
    autoscaler provisions spares on queue pressure and drains them after."""
    arrivals = PoissonArrivals(rate_per_second=0.2, seed=SEED)
    system = HilosSystem(model, HilosConfig(n_devices=8))
    step_time = CalibratedStepTime(system)
    nodes = [
        Node(system, step_time=step_time, name=f"node{i}") for i in range(4)
    ]
    fleet = ClusterScheduler(
        nodes,
        ContinuousBatching(BATCH_SLOTS),
        router=LeastOutstandingTokens(),
        autoscale=parse_autoscale_spec("auto:1:4:8:600", seed=SEED),
    )
    report = fleet.drain(queue, arrivals=arrivals)

    print("\nelastic fleet (1 node warm, 3 offline spares, target queue "
          "depth 8, 600s provisioning) on the same hot stream:")
    print(f"completed {report.completed}/{report.n_requests} at "
          f"{report.tokens_per_second:.3f} tok/s; "
          f"{len(report.scale_events)} scale events:")
    for event in report.scale_events:
        print(f"  t={event.time:7.0f}s {event.action:10s} {event.node:6s} "
              f"({event.reason}; queue depth {event.queue_depth:.1f} across "
              f"{event.active_nodes} active)")
    assert report.all_completed
    assert report.scale_events, "the hot stream should trigger scaling"
    # Spares are billed uptime-only: a node that spent the drain offline
    # costs a fraction of the always-on node0.
    for breakdown in report.node_reports[1:]:
        share = breakdown.cost_usd / report.node_reports[0].cost_usd
        print(f"  {breakdown.node}: down {breakdown.downtime_seconds:.0f}s of "
              f"{report.makespan_seconds:.0f}s, billed {share:.0%} of node0")
        assert breakdown.cost_usd <= report.node_reports[0].cost_usd


if __name__ == "__main__":
    main()
