"""Aggregate serving metrics: throughput, latency percentiles, cost.

The tokens/s/$ figure reuses the Figure 16a capital-cost model, deriving the
priced configuration directly from the measured system's hardware config so
serving reports stay consistent with the paper's cost analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from repro.analysis.cost import CostModel
from repro.baselines.base import InferenceSystem
from repro.errors import SchedulingError
from repro.serving.request import FoldedRequests, ServingRequest


def _nearest_ranks(
    runs: list[tuple[list[float], int]], fractions: tuple[float, ...]
) -> tuple[float, ...]:
    """Nearest-rank percentiles of a multiset given as ``(samples,
    multiplicity)`` runs: one sort of the runs' samples, then a walk of the
    cumulative multiplicities up to each (ascending) fraction's rank."""
    ordered = sorted((value, times) for values, times in runs for value in values)
    total = sum(times for _, times in ordered)
    picks = []
    seen, index = 0, -1
    for fraction in fractions:
        rank = max(1, math.ceil(fraction * total))
        while seen < rank:
            index += 1
            seen += ordered[index][1]
        picks.append(ordered[index][0])
    return tuple(picks)


def _mean(runs: list[tuple[list[float], int]], count: int) -> float:
    """Mean of a ``count``-sample multiset given as ``(samples,
    multiplicity)`` runs: one correctly rounded :func:`math.fsum`.

    A run of multiplicity ``m`` enters the sum as its samples scaled by
    each power of two set in ``m``.  Scaling by a power of two is exact, so
    the terms add up to exactly the ``m``-fold expansion's total and the
    sum rounds once, to the same bits as over the expansion (``m`` times
    the samples' rounded sum would round twice).
    """
    if not count:
        return 0.0
    terms = []
    for samples, times in runs:
        scale = 1.0
        while times:
            if times & 1:
                terms.append(samples if scale == 1.0 else map(scale.__mul__, samples))
            times >>= 1
            scale *= 2.0
    return math.fsum(chain.from_iterable(terms)) / count


def system_cost_model(system: InferenceSystem) -> CostModel:
    """Price a system from its hardware config (host, GPU, drives, chassis)."""
    hardware = system.hardware_config()
    return CostModel(
        label=system.name,
        gpu=system.gpu,
        n_conventional_ssds=hardware.n_conventional_ssds,
        n_smartssds=hardware.n_smartssds,
        needs_expansion=hardware.n_smartssds > 0,
    )


def uptime_billing(
    cost_usd: float, downtime_seconds: float, makespan_seconds: float
) -> tuple[float, str | None]:
    """Bill a node only for its uptime fraction of the drain.

    Returns ``(billed_cost, note)``.  The note is ``None`` on the normal
    path and a structured explanation on the degenerate ones: a
    zero-length drain with downtime, or downtime exceeding the makespan
    (both bill $0 rather than full price or a negative cost).
    """
    if downtime_seconds <= 0.0:
        return cost_usd, None
    if makespan_seconds <= 0:
        return 0.0, (
            f"zero-length drain with {downtime_seconds:g}s downtime; "
            "uptime fraction undefined, billed $0"
        )
    fraction = 1.0 - downtime_seconds / makespan_seconds
    if fraction < 0.0:
        return 0.0, (
            f"downtime {downtime_seconds:g}s exceeds the {makespan_seconds:g}s "
            "makespan; uptime fraction clamped to 0, billed $0"
        )
    return cost_usd * fraction, None


@dataclass(frozen=True)
class TierReport:
    """One KV tier's share of a drain (tiered nodes only).

    ``hit_rate`` is this tier's fraction of the decode-iteration KV read
    bytes -- every running request re-reads its current KV each iteration,
    and the share resident below the top tier is what the offloaded-
    attention surcharge billed (``spilled_decode_seconds`` on the owning
    breakdown).  ``demoted_bytes`` counts pressure-driven movement *into*
    the tier, ``promoted_bytes`` movement *out of* it back to the top.
    """

    tier: str
    capacity_bytes: float
    peak_occupied_bytes: float
    demoted_bytes: float
    promoted_bytes: float
    decode_read_bytes: float
    hit_rate: float


def merge_tier_reports(
    node_reports: tuple["NodeBreakdown", ...],
) -> tuple[TierReport, ...]:
    """Merge per-node tier shares into fleet-wide per-tier totals.

    Tiers merge by name in first-seen stack order; hit rates are
    recomputed over the fleet-wide read bytes.  Flat nodes contribute
    nothing, so a mixed flat/tiered fleet reports only the tiered share.
    Every total is a correctly rounded :func:`math.fsum`.
    """
    by_name: dict[str, list[TierReport]] = {}
    for node in node_reports:
        for tier in node.kv_tiers:
            by_name.setdefault(tier.tier, []).append(tier)
    total_reads = math.fsum(
        tier.decode_read_bytes for tiers in by_name.values() for tier in tiers
    )
    merged = []
    for name, tiers in by_name.items():
        reads = math.fsum(tier.decode_read_bytes for tier in tiers)
        merged.append(
            TierReport(
                tier=name,
                capacity_bytes=math.fsum(tier.capacity_bytes for tier in tiers),
                peak_occupied_bytes=math.fsum(
                    tier.peak_occupied_bytes for tier in tiers
                ),
                demoted_bytes=math.fsum(tier.demoted_bytes for tier in tiers),
                promoted_bytes=math.fsum(tier.promoted_bytes for tier in tiers),
                decode_read_bytes=reads,
                hit_rate=reads / total_reads if total_reads > 0.0 else 0.0,
            )
        )
    return tuple(merged)


@dataclass(frozen=True, kw_only=True)
class DrainFigures:
    """The figures a node's share of a drain and a whole drain both report.

    :class:`NodeBreakdown` carries them for one node and
    :class:`ServingReport` for the drain; :meth:`RequestTally.figures`
    fills the request-derived ones for both.  Where the two differ in
    meaning, the field says how.
    """

    system: str
    n_requests: int
    completed: int
    generated_tokens: int
    #: Generated tokens over the *fleet* makespan, so the per-node rates
    #: sum to the fleet rate.
    tokens_per_second: float
    mean_latency_seconds: float
    #: Nearest-rank latency percentiles over completed requests (zero when
    #: nothing finished).
    p50_latency_seconds: float = 0.0
    p95_latency_seconds: float = 0.0
    p99_latency_seconds: float = 0.0
    peak_kv_reserved_bytes: float
    kv_capacity_bytes: float
    #: Evictions (optimistic admission only; zero under reserve-mode
    #: accounting), charged to the node the request completed on.
    preemptions: int = 0
    #: Context tokens whose KV preemptions dropped and readmission prefills
    #: had to recompute -- the work optimistic admission gambled away
    #: (includes the migration share counted in
    #: ``migrated_recompute_tokens``).
    wasted_prefill_tokens: int = 0
    #: Requests re-routed off dying nodes (fault-injected drains only): a
    #: breakdown counts them from its engine, charged to the node that
    #: *died*; the report from the requests' own counters.
    migrations: int = 0
    #: Context tokens dropped by node deaths and recomputed elsewhere,
    #: attributed like ``migrations``.
    migrated_recompute_tokens: int = 0
    #: Time spent DOWN (summed over the nodes for the report); the cost
    #: figures bill only uptime.
    downtime_seconds: float = 0.0
    #: Requests admission control shed (structured, never silent; see
    #: :class:`~repro.serving.overload.ShedRequest`), each charged to the
    #: node whose backlog turned it away.
    shed_requests: int = 0
    #: Admission-control backoff re-deliveries; a node counts those of the
    #: requests that ended on it or were shed against it.
    retry_attempts: int = 0
    #: Per-tier occupancy/movement/hit-rate shares (tiered nodes only; see
    #: :class:`TierReport`), merged by tier name for the report.
    kv_tiers: tuple = ()
    #: Extra decode seconds spilled-attention reads cost (near-storage
    #: rate for KV resident below the top tier), summed for the report.
    spilled_decode_seconds: float = 0.0


@dataclass(frozen=True, kw_only=True)
class NodeBreakdown(DrainFigures):
    """One node's share of a fleet drain (see :mod:`repro.serving.cluster`).

    A node that was routed nothing contributes all-zero counters (and no
    latency figure).  ``cost_usd`` is billed only for UP time -- a
    preempted spot node costs its uptime fraction of the capital price,
    which is exactly the discount the spot-vs-recompute trade prices.
    """

    node: str
    cost_usd: float
    #: Structured uptime-billing caveat (degenerate drains only).
    billing_note: str | None = None


@dataclass(frozen=True, kw_only=True)
class ServingReport(DrainFigures):
    """Outcome of draining one request queue under one policy.

    Fleet drains (:class:`~repro.serving.cluster.ClusterScheduler` with
    more than one node) fill ``router`` and ``node_reports``; single-node
    drains leave ``router`` empty and carry exactly one breakdown, so the
    legacy single-system report shape is a special case of the fleet one.
    """

    policy: str
    makespan_seconds: float
    mean_queueing_seconds: float
    #: Summed node capital costs, each billed for its uptime only, so
    #: tokens/s/$ prices spot capacity honestly.
    system_cost_usd: float
    tokens_per_second_per_usd: float
    #: Which fleet path produced this report: ``"representative"`` when the
    #: drain folded symmetric node groups to representative engines,
    #: ``"full"`` when every node was simulated, ``""`` for single-node
    #: legacy-shape reports.
    fleet_symmetry: str = ""
    #: Every request of the queue, in queue order: a list, or for a folded
    #: drain a read-only :class:`~repro.serving.request.FoldedRequests`
    #: view that builds each mirrored request when it is accessed.
    requests: Sequence[ServingRequest] = field(default_factory=list, repr=False)
    #: Structured warnings from the step-time model (e.g. queries clamped to
    #: the calibration grid edge); empty when the drain stayed on-grid.
    step_time_notes: dict = field(default_factory=dict)
    #: Placement policy that sharded the queue across nodes (fleet drains
    #: only; empty for single-node drains, where routing is trivial).
    router: str = ""
    #: Per-node share of a fleet drain (one entry per node, in node order).
    node_reports: tuple[NodeBreakdown, ...] = field(default=(), repr=False)
    #: Structured shed outcomes, in shed order (overloaded drains only).
    sheds: tuple = field(default=(), repr=False)
    #: Autoscaler decision timeline (autoscaled drains only; see
    #: :class:`~repro.serving.autoscale.ScaleEvent`).
    scale_events: tuple = field(default=(), repr=False)
    #: Per-node uptime-billing caveats, as ``"node: note"`` strings.
    billing_notes: tuple = ()

    @property
    def all_completed(self) -> bool:
        """Whether the drain finished every request (no starvation)."""
        return self.completed == self.n_requests

    @property
    def all_accounted(self) -> bool:
        """Whether every request either completed or was explicitly shed."""
        return self.completed + self.shed_requests == self.n_requests


class RequestTally:
    """Report figures over a multiset of requests.

    One pass over a list of requests builds it; :meth:`merged` combines
    tallies with multiplicities -- a folded drain's group tallies, each
    counted once per group member -- without visiting a request again.
    Every report figure that sums over requests comes from here, so node
    breakdowns, drain reports and folded fleets aggregate identically.
    Integer counters add, latency and queueing samples stay as
    ``(samples, multiplicity)`` runs, means are one correctly rounded
    :func:`math.fsum` over the multiset, and percentiles are weighted
    nearest-rank over one sort.  No figure depends on request order or on
    how the multiset was split, so a merged tally equals the one-pass
    tally of the requests it stands for bit for bit, on every Python
    version (3.12's builtin ``sum()`` is compensated, 3.10's and 3.11's is
    not).
    """

    #: Integer counters, summed over requests (times their multiplicity).
    COUNTERS = (
        "n_requests",
        "completed",
        "generated_tokens",
        "preemptions",
        "wasted_prefill_tokens",
        "migrations",
        "migrated_recompute_tokens",
        "retry_attempts",
    )

    def __init__(self, requests: Sequence[ServingRequest] = ()) -> None:
        latencies: list[float] = []
        queueing: list[float] = []
        generated = preemptions = wasted = migrations = migrated = retries = 0
        for request in requests:
            if request.completion_time is not None:
                latencies.append(request.completion_time - request.arrival_time)
                queueing.append(request.admitted_time - request.arrival_time)
                generated += request.tokens_generated
            preemptions += request.preemption_count
            wasted += request.wasted_prefill_tokens
            migrations += request.migration_count
            migrated += request.migrated_recompute_tokens
            retries += request.retry_attempts
        self.n_requests = len(requests)
        self.completed = len(latencies)
        self.generated_tokens = generated
        self.preemptions = preemptions
        self.wasted_prefill_tokens = wasted
        self.migrations = migrations
        self.migrated_recompute_tokens = migrated
        self.retry_attempts = retries
        #: Completed requests' latency and queueing samples, as
        #: ``(samples, multiplicity)`` runs.
        self.latency_runs = [(latencies, 1)]
        self.queueing_runs = [(queueing, 1)]
        self._summarise()

    @classmethod
    def merged(cls, parts: Iterable[tuple["RequestTally", int]]) -> "RequestTally":
        """The tally of every ``(tally, multiplicity)`` part's requests,
        each counted ``multiplicity`` times."""
        tally = cls()
        tally.latency_runs, tally.queueing_runs = [], []
        for part, copies in parts:
            for name in cls.COUNTERS:
                total = getattr(tally, name) + copies * getattr(part, name)
                setattr(tally, name, total)
            tally.latency_runs += [(s, m * copies) for s, m in part.latency_runs]
            tally.queueing_runs += [(s, m * copies) for s, m in part.queueing_runs]
        tally._summarise()
        return tally

    def _summarise(self) -> None:
        self.mean_latency_seconds = _mean(self.latency_runs, self.completed)
        self.mean_queueing_seconds = _mean(self.queueing_runs, self.completed)
        #: Nearest-rank p50, p95 and p99 latency (zeros when none finished).
        self.percentiles = (
            _nearest_ranks(self.latency_runs, (0.50, 0.95, 0.99))
            if self.completed
            else (0.0, 0.0, 0.0)
        )

    def figures(self, makespan_seconds: float) -> dict[str, object]:
        """Every report figure this tally determines, by field name: the
        counters, the latency and queueing means, the p50/p95/p99 latency,
        and the throughput over ``makespan_seconds``."""
        figures: dict[str, object] = {
            name: getattr(self, name) for name in self.COUNTERS
        }
        p50, p95, p99 = self.percentiles
        figures.update(
            tokens_per_second=(
                self.generated_tokens / makespan_seconds
                if makespan_seconds > 0
                else 0.0
            ),
            mean_latency_seconds=self.mean_latency_seconds,
            mean_queueing_seconds=self.mean_queueing_seconds,
            p50_latency_seconds=p50,
            p95_latency_seconds=p95,
            p99_latency_seconds=p99,
        )
        return figures


def node_breakdown(
    node_name: str,
    system: InferenceSystem,
    tally: RequestTally,
    makespan_seconds: float,
    peak_kv_reserved_bytes: float,
    kv_capacity_bytes: float,
    migrations: int = 0,
    migrated_recompute_tokens: int = 0,
    downtime_seconds: float = 0.0,
    shed_requests: int = 0,
    shed_retry_attempts: int = 0,
    kv_tiers: tuple = (),
    spilled_decode_seconds: float = 0.0,
) -> NodeBreakdown:
    """Summarise one node's share of a drain into a :class:`NodeBreakdown`.

    ``tally`` is the :class:`RequestTally` of the requests the node
    served.  ``migrations``/``migrated_recompute_tokens``/
    ``downtime_seconds`` come from the engine's fault counters (zero on
    fault-free drains), and ``shed_requests``/``shed_retry_attempts`` from
    its overload counters (sheds charge the node whose backlog turned the
    request away; retry attempts of requests that landed here travel with
    the requests).  A node that was down part of the drain is billed only
    its uptime fraction of the capital cost (see :func:`uptime_billing`).
    """
    figures = tally.figures(makespan_seconds)
    del figures["mean_queueing_seconds"]  # a report-only figure
    figures.update(
        migrations=migrations,
        migrated_recompute_tokens=migrated_recompute_tokens,
        retry_attempts=tally.retry_attempts + shed_retry_attempts,
    )
    cost_usd, billing_note = uptime_billing(
        system_cost_model(system).total_usd(), downtime_seconds, makespan_seconds
    )
    return NodeBreakdown(
        node=node_name,
        system=system.name,
        **figures,
        peak_kv_reserved_bytes=peak_kv_reserved_bytes,
        kv_capacity_bytes=kv_capacity_bytes,
        downtime_seconds=downtime_seconds,
        shed_requests=shed_requests,
        kv_tiers=tuple(kv_tiers),
        spilled_decode_seconds=spilled_decode_seconds,
        cost_usd=cost_usd,
        billing_note=billing_note,
    )


def build_fleet_report(
    fleet_name: str,
    policy_name: str,
    router_name: str,
    requests: Sequence[ServingRequest],
    makespan_seconds: float,
    node_reports: tuple[NodeBreakdown, ...],
    tally: RequestTally,
    step_time_notes: dict | None = None,
    sheds: tuple = (),
    scale_events: tuple = (),
    fleet_symmetry: str = "full",
) -> ServingReport:
    """Merge per-node shares of a cluster drain into one fleet report.

    ``tally`` is the :class:`RequestTally` of ``requests``, and every
    request-derived figure comes from it; a drain merges it from its node
    tallies and the tally of the requests it shed.  Every other figure
    sums the breakdowns: the fleet tokens/s/$ divides the fleet throughput
    by the *sum* of the nodes' capital costs -- the Section 6.6
    comparison's unit of account (the 2-node vLLM deployment is priced as
    a fleet, not per host) -- and capacity/peak figures are fleet-wide
    sums for the same reason.  ``sheds`` / ``scale_events`` carry the
    overload and autoscale timelines; a drain that shed *everything* still
    reports (with zeroed latency figures) -- structured degradation, not an
    exception.
    """
    if not tally.completed and not sheds:
        raise SchedulingError("drain completed no requests; nothing to report")
    if makespan_seconds <= 0:
        raise SchedulingError("drain makespan must be positive")
    figures = tally.figures(makespan_seconds)
    fleet_cost_usd = math.fsum(node.cost_usd for node in node_reports)
    return ServingReport(
        system=fleet_name,
        policy=policy_name,
        makespan_seconds=makespan_seconds,
        **figures,
        peak_kv_reserved_bytes=math.fsum(
            n.peak_kv_reserved_bytes for n in node_reports
        ),
        kv_capacity_bytes=math.fsum(n.kv_capacity_bytes for n in node_reports),
        downtime_seconds=math.fsum(n.downtime_seconds for n in node_reports),
        shed_requests=len(sheds),
        kv_tiers=merge_tier_reports(node_reports),
        spilled_decode_seconds=math.fsum(
            n.spilled_decode_seconds for n in node_reports
        ),
        system_cost_usd=fleet_cost_usd,
        tokens_per_second_per_usd=(
            figures["tokens_per_second"] / fleet_cost_usd
            if fleet_cost_usd > 0
            else 0.0
        ),
        fleet_symmetry=fleet_symmetry,
        # A folded drain's read-only view is kept as is; a list is copied.
        requests=(
            requests if isinstance(requests, FoldedRequests) else list(requests)
        ),
        step_time_notes=dict(step_time_notes or {}),
        router=router_name,
        node_reports=node_reports,
        sheds=tuple(sheds),
        scale_events=tuple(scale_events),
        billing_notes=tuple(
            f"{n.node}: {n.billing_note}"
            for n in node_reports
            if n.billing_note is not None
        ),
    )


def build_report(
    system: InferenceSystem,
    policy_name: str,
    requests: Sequence[ServingRequest],
    makespan_seconds: float,
    node_reports: tuple[NodeBreakdown, ...],
    tally: RequestTally,
    step_time_notes: dict | None = None,
    fleet_symmetry: str = "",
) -> ServingReport:
    """The single-host report: the fleet report under single-node labels.

    ``system`` names the report and ``router`` stays empty.  A single host
    outside the fault driver has no downtime, so its one breakdown bills
    the system's full capital price and the fleet sums are its own figures.
    """
    return build_fleet_report(
        system.name,
        policy_name,
        "",
        requests,
        makespan_seconds,
        node_reports,
        tally,
        step_time_notes,
        fleet_symmetry=fleet_symmetry,
    )
