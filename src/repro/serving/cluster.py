"""Cluster serving: drain one request queue across a simulated fleet.

The paper's Section 6.6 comparison treats the 2-node vLLM deployment as a
cost line; this module makes multi-host serving a *scheduling target*.  A
:class:`ClusterScheduler` owns N :class:`~repro.serving.engine.Node`\\ s
and one :class:`~repro.serving.routers.Router`; a single-host drain is
just ``ClusterScheduler([Node(system, ...)], policy)``.

**One drain body.**  ``drain()`` plans the engines -- one
:class:`~repro.serving.engine.NodeEngine` per node, or one per fold group
(below) -- runs them as processes on one shared discrete-event
simulator, and closes with one epilogue: the sanitizer's drain-end
checks, the step-time clamp notes, one
:class:`~repro.serving.metrics.NodeBreakdown` per node, and the
:class:`~repro.serving.metrics.ServingReport`.  Work reaches the engines
through one feed, a single host's included: the **dispatcher** process
walks the arrival-ordered queue and, at each request's arrival time,
takes one per-request step -- the router's placement, the fault driver's
liveness-aware delivery, or the fold plan's static placement.

A delivery wakes a parked engine at the same instant but after the
dispatcher yields (:meth:`~repro.serving.engine.NodeEngine._wake_if_parked`,
the one wake rule), so a same-time burst reaches the engine whole and is
admitted together.  Hence the slice property: node ``i`` of a
round-robin fleet simulated in full drains exactly like a lone node fed
its slice of the queue.  An arrival that ties exactly with an iteration
boundary resolves in deterministic heap order.

**Fault injection.** ``ClusterScheduler(..., faults=FaultSchedule(...))``
runs the drain under a seeded fault schedule (:mod:`repro.serving.faults`):
nodes die and recover mid-drain, their requests migrate
recompute-on-migrate through the router (bounded retry), a fully-down
fleet parks arrivals until a recovery, and an unrecoverable fleet raises
a structured :class:`~repro.errors.SchedulingError` naming the stranded
requests.  :func:`check_report_conservation` checks that the migrations
the requests counted are the ones the dying nodes counted.

**Overload control & elasticity.** ``overload=OverloadControl(...)``
bounds admission at the dispatcher (queue depth and/or fleet token rate;
over-limit arrivals shed, retry with seeded backoff, or park with a
deadline -- see :mod:`repro.serving.overload`), and
``autoscale=AutoscalePolicy(...)`` runs a reactive
:class:`~repro.serving.autoscale.Autoscaler` that provisions offline
spares and gracefully drains idle nodes on the fault layer's lifecycle.
Faults, overload control and autoscaling all make the fault driver the
dispatcher's step; the driver, not the dispatcher, releases the engines
once every request has completed or been shed.

**Fleet folding.** ``fleet_symmetry="auto"`` (the default) carries the
device-level representative-symmetry fast path up to hosts: when the
fleet is symmetric (nodes sharing one system instance and one calibrated
step-time grid, with equal flat KV budgets and chunking) and the
router is load-oblivious (:attr:`~repro.serving.routers.Router.load_oblivious`),
the drain cuts the arrival stream into stride slices by the router's
placement cycle, groups nodes receiving identical slices, and simulates
**one** representative :class:`~repro.serving.engine.NodeEngine` per
group.  It builds requests only for the representative slices.  The
report follows the groups: one breakdown per group, relabelled for each
member, and fleet figures from the group tallies times the group sizes;
its ``requests`` are a :class:`~repro.serving.request.FoldedRequests`
view that builds a mirrored node's request, with its representative's
outcome, when it is accessed -- a 1000-node drain at the cost of one
node, plus Python work per node and C-level passes over the queue's
lists (its checks, copies and stride slices).  Heterogeneous fleets,
load-dependent routers (JSQ, BestFitKV), faults, overload control, and
autoscaling all auto-fall back to full-fleet simulation; ``"full"``
forces the fallback and ``"representative"`` demands folding (raising a
:class:`~repro.errors.ConfigurationError` naming the blocker when the
fleet cannot fold), mirroring the device-array ``symmetry`` modes.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, repeat
from typing import Sequence

from repro.analysis.sanitizer import SanitizerError
from repro.errors import ConfigurationError, SchedulingError
from repro.models.config import ModelConfig
from repro.serving.arrivals import ArrivalProcess
from repro.serving.autoscale import Autoscaler, AutoscalePolicy
from repro.serving.engine import Node, NodeEngine
from repro.serving.faults import FaultDriver, FaultSchedule
from repro.serving.metrics import (
    RequestTally,
    ServingReport,
    build_fleet_report,
    build_report,
    node_breakdown,
)
from repro.serving.overload import OverloadControl
from repro.serving.policies import ContinuousBatching, SchedulingPolicy
from repro.serving.request import FoldedRequests, ServingRequest
from repro.serving.routers import Router, RoundRobin
from repro.serving.steptime import CalibratedStepTime
from repro.sim.engine import Simulator
from repro.workloads.requests import RequestClass

#: Slot count of the default policy when a cluster is built without one.
DEFAULT_BATCH_SLOTS = 16

#: Valid ``ClusterScheduler(fleet_symmetry=...)`` modes, mirroring the
#: device-array ``symmetry`` grammar.
FLEET_SYMMETRY_MODES = ("auto", "full", "representative")


def _strided(items: Sequence, offsets: Sequence[int], period: int) -> Sequence:
    """One node's elements of ``items``, in queue order, under a placement
    cycle of ``period`` slots of which the node holds ``offsets``.

    The node takes positions ``o``, ``o + period``, ... for each of its
    offsets ``o``, so each offset is one stride slice.  Several (ascending)
    offsets interleave: offset ``j``'s slice is every ``len(offsets)``-th
    element from ``j`` of the node's merged order, since no later offset's
    slice is longer than an earlier one's.  A ``range`` of positions gives
    the node's positions (a ``range`` itself for one offset).
    """
    if len(offsets) == 1:
        return items[offsets[0] :: period]
    runs = [items[offset::period] for offset in offsets]
    merged: list = [None] * sum(map(len, runs))
    for j, run in enumerate(runs):
        merged[j :: len(runs)] = run
    return merged


class _Queue:
    """A drain's validated input queue, described without building it.

    ``classes`` and ``times`` give every request's shape and arrival time
    in queue order, which is also arrival order: a request's id is its
    queue position and the arrival process's times never decrease.
    ``requests`` holds each position's :class:`ServingRequest` once it
    exists -- a folded drain builds just the requests it simulates.
    """

    def __init__(
        self, requests: Sequence[RequestClass], arrivals: ArrivalProcess | None
    ) -> None:
        if not requests:
            raise SchedulingError("cannot drain an empty request queue")
        if not all(map(isinstance, requests, repeat(RequestClass))):
            index, request = next(
                (i, r)
                for i, r in enumerate(requests)
                if not isinstance(r, RequestClass)
            )
            raise SchedulingError(
                f"element {index} of the request queue is "
                f"{type(request).__name__}, expected RequestClass (a drain "
                "takes request shapes and builds the requests itself)"
            )
        n = len(requests)
        self.classes = list(requests)
        self.times = arrivals.checked_times(n) if arrivals is not None else [0.0] * n
        self.requests: list = [None] * n

    def request(self, position: int) -> ServingRequest:
        """The request at queue ``position``, built on first use."""
        request = self.requests[position]
        if request is None:
            request = self.requests[position] = ServingRequest(
                position, self.classes[position], self.times[position]
            )
        return request


def check_report_conservation(
    report: ServingReport, sim_time: float | None = None
) -> None:
    """Check a drain report against the figures it has two sources for.

    * ``request-conservation``: one re-tally of ``report.requests`` must
      give every request-derived figure of the report (counts, tokens,
      latency and queueing figures, migration and retry counters), and
      every request must have completed or been shed;
    * ``migration-conservation``: the migrations the requests counted must
      be the ones the dying nodes' engines counted;
    * ``tier-conservation``: no node reports a tier peak above the tier's
      capacity (the tracker enforces this live; the check catches
      hand-built reports).

    The fleet's other figures are sums of its breakdowns by construction
    and need no check.  Sanitized drains run this automatically; it is
    exported so tests can aim it at deliberately inconsistent reports.
    """
    expected = RequestTally(report.requests).figures(report.makespan_seconds)
    for name, value in expected.items():
        if getattr(report, name) != value:
            raise SanitizerError(
                f"report carries {name}={getattr(report, name)!r} but its "
                f"requests tally to {value!r}",
                invariant="request-conservation",
                sim_time=sim_time,
            )
    if report.completed + report.shed_requests != report.n_requests:
        raise SanitizerError(
            f"report loses requests: {report.completed} completed + "
            f"{report.shed_requests} shed != {report.n_requests} arrived",
            invariant="request-conservation",
            sim_time=sim_time,
        )
    for field_name in ("migrations", "migrated_recompute_tokens"):
        node_total = sum(getattr(node, field_name) for node in report.node_reports)
        if node_total != getattr(report, field_name):
            raise SanitizerError(
                f"requests count {getattr(report, field_name)} {field_name} "
                f"but the dying nodes count {node_total}",
                invariant="migration-conservation",
                sim_time=sim_time,
            )
    for node in report.node_reports:
        for tier in node.kv_tiers:
            if tier.peak_occupied_bytes > tier.capacity_bytes:
                raise SanitizerError(
                    f"node {node.node!r} tier {tier.tier!r} peaked at "
                    f"{tier.peak_occupied_bytes} bytes over its "
                    f"{tier.capacity_bytes}-byte capacity",
                    invariant="tier-conservation",
                    sim_time=sim_time,
                )


class ClusterScheduler:
    """Drains one request queue across N nodes on a shared simulator.

    ``policy`` is shared by every node's admission loop (policies are
    consulted with per-node queues and ledgers, so one instance serves the
    whole fleet); it defaults to iteration-level continuous batching at
    :data:`DEFAULT_BATCH_SLOTS` slots.  ``router`` picks the placement
    policy (default round-robin).  All nodes must serve the same model --
    one queue means one tokenizer and one KV-per-token arithmetic.

    ``faults`` injects a :class:`~repro.serving.faults.FaultSchedule` into
    the drain: nodes die (and maybe recover) mid-drain, their requests
    migrate recompute-on-migrate through the router, and the report grows
    migration/downtime accounting with uptime-only cost billing.  An empty
    schedule is normalised to ``None``, so faults-off drains never build
    the fault driver.

    ``overload`` bounds admission at the dispatcher (shed / retry / park,
    see :mod:`repro.serving.overload`); an empty control is normalised to
    ``None`` the same way.  ``autoscale`` hands the fleet to a reactive
    :class:`~repro.serving.autoscale.Autoscaler`: the cluster is built at
    ``max_nodes`` size, nodes past ``min_nodes`` start offline (billed
    zero until provisioned), and scale decisions land on the fleet
    report's scale-event timeline.

    ``fleet_symmetry`` selects the folding mode (see the module docstring):
    ``"auto"`` folds symmetric multi-node fleets under load-oblivious
    routers and silently falls back otherwise; ``"full"`` always simulates
    every node; and ``"representative"`` demands folding, raising a
    :class:`~repro.errors.ConfigurationError` at construction when the
    fleet cannot fold.  ``"auto"`` never folds a single-node cluster, so
    by default a lone host reports as the single host it is.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        policy: SchedulingPolicy | None = None,
        router: Router | None = None,
        faults: FaultSchedule | None = None,
        overload: OverloadControl | None = None,
        autoscale: AutoscalePolicy | None = None,
        fleet_symmetry: str = "auto",
    ) -> None:
        self.nodes = list(nodes)
        if not self.nodes:
            raise ConfigurationError("a cluster needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"duplicate node names in cluster: {', '.join(dupes)} "
                "(name= disambiguates nodes sharing a system label)"
            )
        models = {id(node.system.model): node.system.model for node in self.nodes}
        if len({m.name for m in models.values()}) > 1:
            raise ConfigurationError(
                "cluster nodes serve different models ("
                + ", ".join(sorted({m.name for m in models.values()}))
                + "); one queue requires one model"
            )
        self.policy = policy or ContinuousBatching(DEFAULT_BATCH_SLOTS)
        self.router = router or RoundRobin()
        if faults is not None and not faults.is_empty:
            faults.validate_for(len(self.nodes))
            self.faults: FaultSchedule | None = faults
        else:
            self.faults = None
        # An OverloadControl with no bound set is a no-op; normalise it to
        # None (mirroring the empty-FaultSchedule rule) so overload-off
        # drains never build the fault driver.
        if overload is not None and not overload.is_empty:
            self.overload: OverloadControl | None = overload
        else:
            self.overload = None
        if autoscale is not None:
            autoscale.validate_for(len(self.nodes))
        self.autoscale = autoscale
        if fleet_symmetry not in FLEET_SYMMETRY_MODES:
            raise ConfigurationError(
                f"unknown fleet_symmetry {fleet_symmetry!r}; expected one of "
                + ", ".join(FLEET_SYMMETRY_MODES)
            )
        self.fleet_symmetry = fleet_symmetry
        if fleet_symmetry == "representative":
            reason = self._fold_ineligibility()
            if reason is not None:
                raise ConfigurationError(
                    "fleet_symmetry='representative' requires a foldable "
                    f"fleet, but {reason}; use 'auto' to fall back to "
                    "full-fleet simulation"
                )

    @property
    def _needs_driver(self) -> bool:
        """Whether drains run under the liveness-aware fault driver."""
        return (
            self.faults is not None
            or self.overload is not None
            or self.autoscale is not None
        )

    def _fold_ineligibility(self) -> str | None:
        """Why this cluster cannot run a folded drain (``None`` if it can).

        Folding needs a placement that is a pure function of the arrival
        sequence (a load-oblivious router, no liveness-aware driver
        dispatcher) over a symmetric fleet: representative outcomes are
        only transferable to nodes that would have simulated identically.
        Sharing is checked by *instance*, matching how
        :func:`build_fleet` shares one system and one calibrated grid per
        label -- two separately-calibrated step-time models are not
        interchangeable even when configured alike.
        """
        if self._needs_driver:
            return (
                "faults/overload/autoscale drains need the liveness-aware "
                "full-fleet dispatcher"
            )
        if not self.router.load_oblivious:
            return f"router {self.router.name!r} routes on live node load"
        if any(node.kv_tiers is not None for node in self.nodes):
            return (
                "tiered KV nodes are not covered by the symmetry check, "
                "which compares systems, step-time models, flat budgets and "
                "chunk sizes but not tier stacks or tier policies"
            )
        first = self.nodes[0]
        for node in self.nodes[1:]:
            if node.system is not first.system:
                return f"node {node.name!r} does not share the fleet's system instance"
            if node.step_time is not first.step_time:
                return (
                    f"node {node.name!r} does not share the fleet's "
                    "calibrated step-time instance"
                )
            if node.budget.kv_capacity_bytes != first.budget.kv_capacity_bytes:
                return f"node {node.name!r} has a different KV capacity budget"
            if node.prefill_chunk_tokens != first.prefill_chunk_tokens:
                return f"node {node.name!r} has a different prefill chunk size"
        return None

    # --- the drain -------------------------------------------------------------

    def drain(
        self,
        requests: Sequence[RequestClass],
        arrivals: ArrivalProcess | None = None,
    ) -> ServingReport:
        """Run the queue to empty across the fleet; return the fleet report.

        ``requests`` are :class:`RequestClass` shapes; the drain builds
        every request itself, with its queue position as its id, so a
        queue can be drained any number of times.  Any other element
        raises a :class:`~repro.errors.SchedulingError` naming its index
        and type.  ``arrivals`` gives request ``i`` the ``i``-th arrival
        time; without it every request arrives at zero (the classic
        offline drain).  Outcomes are read back through the report's
        ``requests``.
        """
        queue = _Queue(requests, arrivals)
        self.router.reset()
        fold = self._fold_plan(queue)
        sim = Simulator()
        # Snapshot the (shared, monotonic) clamp counters so this drain's
        # report covers only its own off-grid queries; distinct models only,
        # since symmetric fleets legitimately share one step-time instance.
        step_times = {id(n.step_time): n.step_time for n in self.nodes}
        counters_before = {
            key: model.clamp_counters() for key, model in step_times.items()
        }

        # The engine plan: one engine per node group, led by the node it
        # simulates -- every node alone, or the fold plan's groups.
        positions = range(len(queue.classes))
        if fold is None:
            groups = [[index] for index in range(len(self.nodes))]
            ordered = list(map(queue.request, positions))
        else:
            period, offsets, groups = fold
            # Only representative slices are simulated, so only they are
            # built; queue order is arrival order.
            simulated = [
                _strided(positions, offsets[members[0]], period) for members in groups
            ]
            ordered = list(map(queue.request, sorted(chain.from_iterable(simulated))))
        engines = [
            NodeEngine(self.nodes[members[0]], self.policy, sim) for members in groups
        ]

        # The feed: the dispatcher, with one per-request step.
        driver: FaultDriver | None = None
        autoscaler: Autoscaler | None = None
        if fold is not None:
            # The plan places each representative request on its group's
            # engine.
            target = {
                position: engine
                for engine, slice_positions in zip(engines, simulated)
                for position in slice_positions
            }

            def step(request: ServingRequest) -> None:
                target[request.request_id].enqueue(request)

        elif self._needs_driver:
            driver = FaultDriver(
                sim,
                engines,
                self.router,
                self.faults or FaultSchedule(),
                total_requests=len(ordered),
                overload=self.overload,
            )
            for engine in engines:
                engine.driver = driver
            if self.autoscale is not None:
                # Nodes past min_nodes start as unbilled offline spares the
                # autoscaler can provision.
                for engine in engines[self.autoscale.min_nodes :]:
                    engine.start_offline()
                autoscaler = Autoscaler(sim, engines, self.autoscale, driver)
            step = driver.deliver
        else:

            def step(request: ServingRequest) -> None:
                self.router.place(request, engines).enqueue(request)

        processes = [
            sim.process(
                # Under the fault driver migrated requests may still be in
                # flight when the feed ends; the driver releases the engines
                # once the last request completes or sheds.
                self._dispatch(sim, ordered, step, engines if driver is None else []),
                name="cluster.route",
            )
        ]
        if driver is not None:
            processes.append(
                sim.process(driver.redispatch(), name="cluster.redispatch")
            )
        processes.extend(
            sim.process(engine.run(), name=f"{engine.node.name}.drain")
            for engine in engines
        )
        if driver is not None:
            # Injectors (and the autoscaler's tick) are fire-and-forget: a
            # spot stream's next draw or decision timer past the drain's
            # end must not hold the conjunction open.
            driver.start_injectors()
            if autoscaler is not None:
                autoscaler.start()
        sim.run(sim.all_of(processes))

        # The epilogue.
        if sim.sanitizer is not None:
            # Drain-end invariants: every engine's KV ledger fully released
            # and its load ledgers back at zero, and nothing still parked on
            # an untriggered event.
            for engine in engines:
                engine.assert_drained()
            sim.sanitize_check_drained()
        notes = self._step_time_notes(step_times, counters_before)
        # One tally and one breakdown per group; the other members report
        # the representative's breakdown under their own names.
        tallies = [RequestTally(engine.assigned) for engine in engines]
        breakdowns: list = [None] * len(self.nodes)
        for engine, members, tally in zip(engines, groups, tallies):
            node = engine.node
            breakdown = node_breakdown(
                node.name,
                node.system,
                tally,
                makespan_seconds=sim.now,
                # A float in the report, like every byte figure there.
                peak_kv_reserved_bytes=float(engine.tracker.peak_reserved_bytes),
                kv_capacity_bytes=node.budget.kv_capacity_bytes,
                migrations=engine.migrations,
                migrated_recompute_tokens=engine.migrated_recompute_tokens,
                downtime_seconds=engine.downtime_seconds,
                shed_requests=engine.shed_requests,
                shed_retry_attempts=engine.shed_retry_attempts,
                kv_tiers=engine.tracker.tier_reports(),
                spilled_decode_seconds=engine.tracker.spilled_decode_seconds,
            )
            breakdowns[members[0]] = breakdown
            for index in members[1:]:
                breakdowns[index] = replace(breakdown, node=self.nodes[index].name)
        # The fleet tally: the group tallies, each counted once per member,
        # and the tally of the requests the driver shed.
        shed = driver.sheds if driver is not None else []
        fleet_tally = RequestTally.merged(
            [
                *zip(tallies, map(len, groups)),
                (RequestTally([request for _, request in shed]), 1),
            ]
        )
        if fold is None:
            reported = queue.requests
        else:
            reported = self._folded_view(queue, period, offsets, groups)
        # The label decision: a 1-node drain outside the fault driver
        # reports as the single host it is (the system's name, no router,
        # no fleet path unless it folded); every other drain as a fleet.
        single = len(self.nodes) == 1 and driver is None
        symmetry = "representative" if fold is not None else "" if single else "full"
        if single:
            report = build_report(
                self.nodes[0].system,
                self.policy.name,
                reported,
                sim.now,
                tuple(breakdowns),
                fleet_tally,
                step_time_notes=notes,
                fleet_symmetry=symmetry,
            )
        else:
            report = build_fleet_report(
                fleet_name=self.fleet_name,
                policy_name=self.policy.name,
                router_name=self.router.name,
                requests=reported,
                makespan_seconds=sim.now,
                node_reports=tuple(breakdowns),
                tally=fleet_tally,
                step_time_notes=notes,
                sheds=tuple(record for record, _ in shed),
                scale_events=(
                    tuple(autoscaler.events) if autoscaler is not None else ()
                ),
                fleet_symmetry=symmetry,
            )
        if sim.sanitizer is not None:
            check_report_conservation(report, sim_time=sim.now)
        return report

    @property
    def fleet_name(self) -> str:
        """Display label: ``"4x HILOS (8 SmartSSDs)"`` or ``"fleet(3 nodes)"``."""
        systems = [node.system.name for node in self.nodes]
        if len(set(systems)) == 1:
            return f"{len(systems)}x {systems[0]}"
        return f"fleet({len(systems)} nodes)"

    def _dispatch(self, sim: Simulator, feed, step, release):
        """Dispatcher process: take ``step`` for each request at its arrival.

        ``step`` places the request; the fault driver's step is itself a
        generator (a delivery may park on a down fleet or a full queue)
        and is run inline.  Exhausting the feed releases the ``release``
        engines.
        """
        for request in feed:
            if request.arrival_time > sim.now:
                yield sim.timeout(request.arrival_time - sim.now)
            parked = step(request)
            if parked is not None:
                yield from parked
        for engine in release:
            engine.finish_arrivals()

    # --- folding ----------------------------------------------------------------

    def _fold_plan(
        self, queue: _Queue
    ) -> tuple[int, list[list[int]], list[list[int]]] | None:
        """Cut the stream by the router's placement cycle and group the nodes.

        Returns ``None`` when this drain must simulate every node:
        ``fleet_symmetry="full"``, an ineligible fleet under ``"auto"``, or
        a single node under ``"auto"`` (folding one node saves nothing,
        and the lone host keeps its single-host report labels).
        Otherwise returns ``(period, offsets, groups)``: the length of the
        cycle from :meth:`~repro.serving.routers.Router.static_assignments`,
        every node's cycle offsets (ascending) -- node ``i`` takes queue
        positions ``o``, ``o + period``, ... for each of its offsets ``o``
        -- and the node groups whose slices agree position by position in
        request class and arrival time, each led by its representative,
        the lowest node index and the one node simulated.  The plan takes
        each node's classes and times as stride slices of the queue's
        lists (:func:`_strided`) and builds no request, so its Python work
        is per node and per cycle slot.
        """
        if self.fleet_symmetry == "full":
            return None
        if self.fleet_symmetry == "auto" and (
            len(self.nodes) == 1 or self._fold_ineligibility() is not None
        ):
            return None
        n_nodes = len(self.nodes)
        cycle = self.router.static_assignments(n_nodes)
        valid = range(n_nodes)
        stray = [node for node in cycle if node not in valid]
        if not cycle or stray:
            raise SchedulingError(
                f"router {self.router.name!r} produced an invalid placement "
                f"cycle for {n_nodes} nodes: "
                + (f"it names node {stray[0]!r}" if stray else "it is empty")
            )
        period = len(cycle)
        offsets: list[list[int]] = [[] for _ in valid]
        for offset, node in enumerate(cycle):
            offsets[node].append(offset)
        # Bucket on slice length and end times, then compare the time and
        # class lists by value (C-level list equality, no float hashing).
        groups: list[list[int]] = []
        buckets: dict[tuple, list[tuple[Sequence, Sequence, list[int]]]] = {}
        for index, node_offsets in enumerate(offsets):
            times = _strided(queue.times, node_offsets, period)
            shapes = _strided(queue.classes, node_offsets, period)
            key = (len(times), times[0], times[-1]) if times else (0,)
            candidates = buckets.setdefault(key, [])
            for group_times, group_shapes, members in candidates:
                if group_times == times and group_shapes == shapes:
                    members.append(index)
                    break
            else:
                groups.append([index])
                candidates.append((times, shapes, groups[-1]))
        return period, offsets, groups

    @staticmethod
    def _folded_view(
        queue: _Queue, period: int, offsets: list[list[int]], groups: list[list[int]]
    ) -> FoldedRequests:
        """A folded drain's requests: each group member's slice position
        carries the outcome of the representative's request at the same
        position, stored one stride slice per member offset."""
        sources: list = [None] * len(queue.requests)
        for members in groups:
            simulated = _strided(queue.requests, offsets[members[0]], period)
            for index in members:
                step = len(offsets[index])
                for j, offset in enumerate(offsets[index]):
                    sources[offset::period] = simulated[j::step]
        return FoldedRequests(queue.classes, queue.times, sources)

    def _step_time_notes(self, step_times: dict, counters_before: dict) -> dict:
        """Per-drain clamp summaries, merged across the fleet's models.

        Single-node drains embed the summary directly; fleets key each
        distinct model's summary by the names of the nodes sharing it,
        dropping empty summaries.
        """
        if len(self.nodes) == 1:
            model = self.nodes[0].step_time
            return model.grid_clamp_summary(since=counters_before[id(model)])
        notes = {}
        for key, model in step_times.items():
            summary = model.grid_clamp_summary(since=counters_before[key])
            if summary:
                users = [n.name for n in self.nodes if id(n.step_time) == key]
                notes[",".join(users)] = summary
        return notes


def build_fleet(
    model: ModelConfig,
    labels: Sequence[str],
    store=None,
    batch_grid: tuple[int, ...] | None = None,
    seq_grid: tuple[int, ...] | None = None,
    symmetry: str = "auto",
    prefill_chunk_tokens: int | None = None,
    kv_tiers=None,
    kv_policy=None,
) -> list[Node]:
    """Build a fleet from system labels, one node per label entry.

    Repeat a label for a symmetric fleet (``["HILOS (8 SmartSSDs)"] * 4``)
    or mix labels for a heterogeneous one.  Nodes sharing a label share
    **one** system instance and **one**
    :class:`~repro.serving.steptime.CalibratedStepTime` resolved through
    ``store`` (and the optional grid overrides), so a fleet's calibration
    cost is per distinct label, not per node -- and warm stores make even
    heterogeneous fleets start measurement-free.  Nodes are named
    ``node0`` .. ``nodeN-1`` in label order.

    ``kv_tiers`` (a :class:`~repro.serving.kvtiers.TierStack`) gives every
    node that tier stack instead of the flat system budget, with
    ``kv_policy`` selecting the eviction/offload policy; the frozen stack
    and the (stateless) policy are shared across nodes -- each engine
    still builds its own per-drain tier ledgers.
    """
    from repro.baselines.registry import build_inference_system

    if not labels:
        raise ConfigurationError("build_fleet needs at least one system label")
    shared: dict[str, tuple] = {}
    nodes = []
    for index, label in enumerate(labels):
        if label not in shared:
            system = build_inference_system(label, model)
            system.symmetry = symmetry
            shared[label] = (
                system,
                CalibratedStepTime(
                    system, batch_grid=batch_grid, seq_grid=seq_grid, store=store
                ),
            )
        system, step_time = shared[label]
        nodes.append(
            Node(
                system,
                step_time=step_time,
                prefill_chunk_tokens=prefill_chunk_tokens,
                name=f"node{index}",
                kv_tiers=kv_tiers,
                kv_policy=kv_policy,
            )
        )
    return nodes

