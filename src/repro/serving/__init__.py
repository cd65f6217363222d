"""Multi-request serving on top of the HILOS simulator.

This package turns the single-point ``measure()`` surface into a serving
scenario: a heterogeneous queue of Short/Medium/Long requests (the
Azure-derived mix of :mod:`repro.workloads.requests`) is drained through any
evaluated system under a scheduling policy, and the drain reports
per-request latency plus aggregate tokens/s and tokens/s/$.  Beyond the
classic offline all-at-time-zero drain, arrival processes (Poisson,
fixed-rate, JSONL trace replay) feed the queue over simulated time,
continuous batching can admit optimistically with recompute-on-readmit
preemption, and prefill can be chunked so admissions stop stalling
running decodes.

Serving scales past one host: a :class:`~repro.serving.cluster.ClusterScheduler`
drains one queue across N :class:`~repro.serving.engine.Node`\\ s on a
shared discrete-event simulation, with a pluggable
:class:`~repro.serving.routers.Router` (round-robin, join-shortest-queue,
KV-headroom best fit) placing each request at its arrival time.  A single
host is a 1-node cluster, fed by the same dispatcher, so node ``i`` of a
round-robin fleet drains exactly like a lone host fed its slice of the
queue, same-time bursts included.  Symmetric fleets under a
load-oblivious router fold to one representative engine per homogeneous
node group (``fleet_symmetry="auto"``) -- a 1000-node drain simulates at
roughly the cost of one node, with per-field 1e-9 agreement against the
full simulation.  Fleets can drain under fault injection
(:mod:`repro.serving.faults`): seeded spot preemptions, permanent
crashes, and transient slowdowns take nodes down mid-drain, in-flight
requests migrate recompute-on-migrate, and the report prices downtime --
``ClusterScheduler(nodes, policy, router=..., faults=parse_fault_spec(
"spot:900:60"))``.

Nodes can mount a tiered KV hierarchy (:mod:`repro.serving.kvtiers`):
``Node(system, kv_tiers=parse_kv_tiers_spec("hbm:40g,ssd:2t:8g"),
kv_policy=parse_kv_policy_spec("lru"))`` splits the cache home into an
HBM/DRAM/CXL/SmartSSD stack with byte capacities and movement
bandwidths.  Admission still sees one flat budget (the stack total --
single-tier stacks price byte-identically to the flat tracker), but a
:class:`~repro.serving.kvtiers.TierPolicy` (LRU-by-request,
attention-aware partial-KV demotion, or a static offload split) decides
which requests' KV spills below the top tier; demotion/promotion traffic
is billed through the simulation at tier bandwidths and decode steps pay
a spilled-KV read surcharge.  Reports grow per-tier
:class:`~repro.serving.kvtiers.TierReport` traffic/hit-rate lines.

Overload control bounds admission at the dispatcher
(:mod:`repro.serving.overload`): ``overload=parse_overload_spec(
"retry:32")`` parks, retries with seeded backoff, or sheds over-limit
arrivals as structured :class:`ShedRequest` outcomes, and the report
grows shed/retry accounting.  Elastic fleets hand scaling to a
reactive autoscaler (:mod:`repro.serving.autoscale`):
``autoscale=parse_autoscale_spec("auto:1:4:8")`` provisions offline
spares on queue-depth pressure (through the fault layer's
RECOVERING lifecycle and uptime-only billing) and gracefully drains idle
nodes, recording every decision as a :class:`ScaleEvent`.

Single host::

    from repro import HilosConfig, HilosSystem, get_model
    from repro.serving import (
        ClusterScheduler, ContinuousBatching, Node, PoissonArrivals,
    )
    from repro.workloads import sample_request_classes

    system = HilosSystem(get_model("OPT-66B"), HilosConfig(n_devices=8))
    scheduler = ClusterScheduler(
        [Node(system, prefill_chunk_tokens=512)],
        ContinuousBatching(16, admission="optimistic"),
    )
    report = scheduler.drain(
        sample_request_classes(200, seed=7),
        arrivals=PoissonArrivals(rate_per_second=0.05, seed=7),
    )
    print(report.tokens_per_second, report.p95_latency_seconds,
          report.preemptions)

Two-node fleet, one queue, join-shortest-queue placement::

    from repro.serving import (
        ClusterScheduler, ContinuousBatching, LeastOutstandingTokens, Node,
    )

    nodes = [
        Node(HilosSystem(get_model("OPT-66B"), HilosConfig(n_devices=8)),
             name="node0"),
        Node(HilosSystem(get_model("OPT-66B"), HilosConfig(n_devices=8)),
             name="node1"),
    ]
    fleet = ClusterScheduler(
        nodes, ContinuousBatching(16), router=LeastOutstandingTokens(),
    )
    report = fleet.drain(
        sample_request_classes(200, seed=7),
        arrivals=PoissonArrivals(rate_per_second=0.05, seed=7),
    )
    print(report.tokens_per_second_per_usd)          # fleet tokens/s/$
    for node in report.node_reports:                 # per-node breakdown
        print(node.node, node.completed, node.tokens_per_second)
"""

from repro.serving.arrivals import (
    AllAtOnce,
    ArrivalProcess,
    BatchedArrivals,
    FixedRateArrivals,
    PoissonArrivals,
    TraceReplay,
    parse_arrival_spec,
)
from repro.serving.autoscale import (
    Autoscaler,
    AutoscalePolicy,
    ScaleEvent,
    parse_autoscale_spec,
)
from repro.serving.budget import (
    BudgetTracker,
    CapacityBudget,
    capacity_budget_for,
)
from repro.serving.cluster import (
    FLEET_SYMMETRY_MODES,
    ClusterScheduler,
    build_fleet,
)
from repro.serving.engine import Node, NodeEngine
from repro.serving.faults import (
    FaultSchedule,
    NodeFault,
    SpotPreemptions,
    parse_fault_spec,
)
from repro.serving.kvtiers import (
    AttentionAwareDemotion,
    KVTier,
    LRUByRequest,
    StaticSplit,
    TieredBudgetTracker,
    TierPolicy,
    TierStack,
    parse_kv_policy_spec,
    parse_kv_tiers_spec,
)
from repro.serving.metrics import (
    NodeBreakdown,
    ServingReport,
    TierReport,
    uptime_billing,
)
from repro.serving.overload import (
    OverloadControl,
    ShedRequest,
    TokenRateThrottle,
    parse_overload_spec,
)
from repro.serving.policies import (
    ContinuousBatching,
    FCFSFixedBatch,
    LengthBucketedBatch,
    SchedulingPolicy,
    default_policies,
)
from repro.serving.request import ServingRequest, make_request_queue
from repro.serving.routers import (
    BestFitKV,
    LeastOutstandingTokens,
    RoundRobin,
    Router,
    WeightedRoundRobin,
    parse_router_spec,
)
from repro.serving.steptime import (
    AnalyticStepTime,
    CalibratedStepTime,
    StepTimeModel,
)

__all__ = [
    "AllAtOnce",
    "AnalyticStepTime",
    "ArrivalProcess",
    "AttentionAwareDemotion",
    "AutoscalePolicy",
    "Autoscaler",
    "BatchedArrivals",
    "BestFitKV",
    "BudgetTracker",
    "CalibratedStepTime",
    "CapacityBudget",
    "ClusterScheduler",
    "ContinuousBatching",
    "FCFSFixedBatch",
    "FLEET_SYMMETRY_MODES",
    "FaultSchedule",
    "FixedRateArrivals",
    "KVTier",
    "LRUByRequest",
    "LeastOutstandingTokens",
    "LengthBucketedBatch",
    "Node",
    "NodeBreakdown",
    "NodeEngine",
    "NodeFault",
    "OverloadControl",
    "PoissonArrivals",
    "RoundRobin",
    "Router",
    "ScaleEvent",
    "SchedulingPolicy",
    "ServingReport",
    "ServingRequest",
    "ShedRequest",
    "SpotPreemptions",
    "StaticSplit",
    "StepTimeModel",
    "TierPolicy",
    "TierReport",
    "TierStack",
    "TieredBudgetTracker",
    "TokenRateThrottle",
    "TraceReplay",
    "WeightedRoundRobin",
    "build_fleet",
    "capacity_budget_for",
    "default_policies",
    "make_request_queue",
    "parse_arrival_spec",
    "parse_autoscale_spec",
    "parse_fault_spec",
    "parse_kv_policy_spec",
    "parse_kv_tiers_spec",
    "parse_overload_spec",
    "parse_router_spec",
    "uptime_billing",
]
