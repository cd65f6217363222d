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
through one of two feeds:

* the **dispatcher** process walks the arrival-ordered queue and, at each
  request's arrival time, takes one per-request step: the router's
  placement, the fault driver's liveness-aware delivery, or the fold
  plan's static placement;
* the **preload** feed, used by 1-node drains with no fault driver and no
  fold, installs the whole queue in the engine up front, and the engine
  sleeps until each next arrival itself.

The preload feed stays because it alone lets an idle engine admit a
same-time burst together: a dispatched delivery wakes a parked engine
synchronously, so it admits the burst's first request before the rest
reach its queue.  On one 64-request ``BatchedArrivals`` stream, a 1-node
drain admits a burst at t=27.18 s, while node0 of a 2-node round-robin
fleet, dispatched the same requests, admits them at 27.18 / 28.46 /
28.46 / 28.46 s, and every completion time differs.  A multi-node drain
resolves an arrival that ties exactly with an iteration boundary in
deterministic heap order.

**Fault injection.** ``ClusterScheduler(..., faults=FaultSchedule(...))``
runs the drain under a seeded fault schedule (:mod:`repro.serving.faults`):
nodes die and recover mid-drain, their requests migrate
recompute-on-migrate through the router (bounded retry), a fully-down
fleet parks arrivals until a recovery, and an unrecoverable fleet raises
a structured :class:`~repro.errors.SchedulingError` naming the stranded
requests.  :func:`check_report_conservation` extends to migration and
downtime accounting so every request is still accounted by exactly one
node.

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
the drain partitions the arrival stream per the router's deterministic
cycle, groups nodes receiving identical slices, simulates **one**
representative :class:`~repro.serving.engine.NodeEngine` per group, and
reconstructs the fleet report by mirroring each representative's
request outcomes onto its group -- a 1000-node drain at the cost of one
node.  Heterogeneous fleets, load-dependent
routers (JSQ, BestFitKV), faults, overload control, and autoscaling all
auto-fall back to full-fleet simulation; ``"full"`` forces the fallback
and ``"representative"`` demands folding (raising a
:class:`~repro.errors.ConfigurationError` naming the blocker when the
fleet cannot fold), mirroring the device-array ``symmetry`` modes.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, Sequence

from repro.analysis.sanitizer import SanitizerError
from repro.baselines.base import InferenceSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.models.config import ModelConfig
from repro.serving.arrivals import ArrivalProcess
from repro.serving.autoscale import Autoscaler, AutoscalePolicy
from repro.serving.engine import Node, NodeEngine
from repro.serving.faults import FaultDriver, FaultSchedule
from repro.serving.metrics import (
    ServingReport,
    build_fleet_report,
    build_report,
    node_breakdown,
)
from repro.serving.overload import OverloadControl
from repro.serving.policies import ContinuousBatching, SchedulingPolicy
from repro.serving.request import ServingRequest, make_request_queue
from repro.serving.routers import Router, RoundRobin
from repro.serving.steptime import CalibratedStepTime, StepTimeModel
from repro.sim.engine import Simulator
from repro.sim.metrics import mirrored_sum
from repro.workloads.requests import RequestClass

#: Slot count of the default policy when a cluster is built without one.
DEFAULT_BATCH_SLOTS = 16

#: Valid ``ClusterScheduler(fleet_symmetry=...)`` modes, mirroring the
#: device-array ``symmetry`` grammar.
FLEET_SYMMETRY_MODES = ("auto", "full", "representative")

#: A fresh request's outcome: each ``OUTCOME_FIELDS`` name -> its default.
_FRESH_OUTCOME = {
    f.name: f.default
    for f in fields(ServingRequest)
    if f.name in ServingRequest.OUTCOME_FIELDS
}


def as_request_queue(
    requests: Sequence[RequestClass] | Sequence[ServingRequest],
) -> list[ServingRequest]:
    """Validate and normalise a drain's input queue.

    Every element is type-checked (mixed queues raise with the offending
    index); bare :class:`RequestClass` shapes are wrapped as an id-ordered
    all-at-time-zero queue.  A :class:`ServingRequest` must be fresh --
    every :attr:`~ServingRequest.OUTCOME_FIELDS` entry at its default: one
    that already carries state from an earlier drain raises with its index
    and the first stale field, since a drain mutates its requests in place
    and every report shares them.
    """
    if not requests:
        raise SchedulingError("cannot drain an empty request queue")
    expected: type = (
        ServingRequest if isinstance(requests[0], ServingRequest) else RequestClass
    )
    for index, request in enumerate(requests):
        if not isinstance(request, expected):
            raise SchedulingError(
                f"mixed request queue: element {index} is "
                f"{type(request).__name__}, expected {expected.__name__} "
                "(queues must be all RequestClass or all ServingRequest)"
            )
        if expected is not ServingRequest:
            continue
        for name, fresh in _FRESH_OUTCOME.items():
            value = getattr(request, name)
            if value != fresh:
                raise SchedulingError(
                    f"element {index} (request {request.request_id}) already "
                    f"carries state from an earlier drain ({name}={value!r}); "
                    "build a fresh queue per drain"
                )
    if expected is ServingRequest:
        return list(requests)  # type: ignore[arg-type]
    return make_request_queue(list(requests))  # type: ignore[arg-type]


def check_report_conservation(
    report: ServingReport, sim_time: float | None = None
) -> None:
    """Token/request conservation between node outcomes and the fleet report.

    Every generated token and every arrived request must be accounted for
    by exactly one node breakdown -- completed on it, or shed and charged
    to it -- and the fleet's shed/retry totals must equal the per-node
    sums.  A mismatch means an engine's outcome was dropped or
    double-counted on the way into the fleet report.  Sanitized drains run
    this automatically; it is exported so tests can aim it at deliberately
    inconsistent reports.
    """
    if not report.node_reports:
        return
    node_tokens = sum(node.generated_tokens for node in report.node_reports)
    if node_tokens != report.generated_tokens:
        raise SanitizerError(
            f"fleet report counts {report.generated_tokens} generated tokens "
            f"but the node breakdowns sum to {node_tokens}",
            invariant="token-conservation",
            sim_time=sim_time,
        )
    # Shed requests never join a node's assigned list, so the node
    # n_requests sums cover only the routed share of the queue.
    node_routed = sum(node.n_requests for node in report.node_reports)
    if node_routed + report.shed_requests != report.n_requests:
        raise SanitizerError(
            f"fleet report counts {report.n_requests} n_requests but the "
            f"node breakdowns sum to {node_routed} routed plus "
            f"{report.shed_requests} shed",
            invariant="token-conservation",
            sim_time=sim_time,
        )
    node_completed = sum(node.completed for node in report.node_reports)
    if node_completed != report.completed:
        raise SanitizerError(
            f"fleet report counts {report.completed} completed but the "
            f"node breakdowns sum to {node_completed}",
            invariant="token-conservation",
            sim_time=sim_time,
        )
    # Request conservation under overload control: every request either
    # completed on exactly one node or was shed (and charged to exactly
    # one node); retry attempts conserve the same way.
    if report.completed + report.shed_requests != report.n_requests:
        raise SanitizerError(
            f"fleet report loses requests: {report.completed} completed + "
            f"{report.shed_requests} shed != {report.n_requests} arrived",
            invariant="request-conservation",
            sim_time=sim_time,
        )
    for field_name in ("shed_requests", "retry_attempts"):
        node_total = sum(getattr(node, field_name) for node in report.node_reports)
        if node_total != getattr(report, field_name):
            raise SanitizerError(
                f"fleet report counts {getattr(report, field_name)} "
                f"{field_name} but the node breakdowns sum to {node_total}",
                invariant="request-conservation",
                sim_time=sim_time,
            )
    # Conservation across migrations: the fleet totals come from per-request
    # counters, the node figures from the dying engines' counters; every
    # migration must be charged to exactly one node death.
    for field_name in ("migrations", "migrated_recompute_tokens"):
        node_total = sum(getattr(node, field_name) for node in report.node_reports)
        if node_total != getattr(report, field_name):
            raise SanitizerError(
                f"fleet report counts {getattr(report, field_name)} "
                f"{field_name} but the node breakdowns sum to {node_total}",
                invariant="migration-conservation",
                sim_time=sim_time,
            )
    node_downtime = sum(node.downtime_seconds for node in report.node_reports)
    if abs(node_downtime - report.downtime_seconds) > 1e-6:
        raise SanitizerError(
            f"fleet report carries {report.downtime_seconds} downtime "
            f"seconds but the node breakdowns sum to {node_downtime}",
            invariant="migration-conservation",
            sim_time=sim_time,
        )
    # Tier conservation at the report boundary: the fleet's spilled-decode
    # total and merged per-tier shares must equal the per-node sums, and no
    # node may report a tier peak above the tier's capacity (the tracker
    # enforces this live; the report check catches hand-built reports).
    node_spilled = sum(node.spilled_decode_seconds for node in report.node_reports)
    if abs(node_spilled - report.spilled_decode_seconds) > 1e-6:
        raise SanitizerError(
            f"fleet report carries {report.spilled_decode_seconds} spilled "
            f"decode seconds but the node breakdowns sum to {node_spilled}",
            invariant="tier-conservation",
            sim_time=sim_time,
        )
    for node in report.node_reports:
        for tier in node.kv_tiers:
            if tier.peak_occupied_bytes > tier.capacity_bytes * (1 + 1e-9) + 1e-6:
                raise SanitizerError(
                    f"node {node.node!r} tier {tier.tier!r} peaked at "
                    f"{tier.peak_occupied_bytes} bytes over its "
                    f"{tier.capacity_bytes}-byte capacity",
                    invariant="tier-conservation",
                    sim_time=sim_time,
                )


def _arrival_order(request: ServingRequest) -> tuple[float, int]:
    return request.arrival_time, request.request_id


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
    the fault driver (and a 1-node drain keeps the preload feed).

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
    1-node drains keep the preload feed by default.
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
        requests: Sequence[RequestClass] | Sequence[ServingRequest],
        arrivals: ArrivalProcess | None = None,
    ) -> ServingReport:
        """Run the queue to empty across the fleet; return the fleet report.

        ``arrivals`` stamps the queue with an arrival schedule before the
        simulation starts; without it requests keep the arrival times they
        carry (zero for queues built from bare :class:`RequestClass`
        shapes -- the classic offline drain).
        """
        queue = as_request_queue(requests)
        if arrivals is not None:
            arrivals.assign(queue)
        self.router.reset()
        ordered = sorted(queue, key=_arrival_order)
        fold = self._fold_plan(ordered)
        sim = Simulator()
        # Snapshot the (shared, monotonic) clamp counters so this drain's
        # report covers only its own off-grid queries; distinct models only,
        # since symmetric fleets legitimately share one step-time instance.
        step_times = {id(n.step_time): n.step_time for n in self.nodes}
        counters_before = {
            key: model.clamp_counters() for key, model in step_times.items()
        }

        # The engine plan: ``engines`` are simulated, ``backing[i]`` is the
        # engine whose outcome node i reports.
        if fold is None:
            engines = [NodeEngine(node, self.policy, sim) for node in self.nodes]
            backing = engines
        else:
            slices, groups = fold
            engines, backing = [], [None] * len(self.nodes)
            for members in groups:
                engine = NodeEngine(self.nodes[members[0]], self.policy, sim)
                engines.append(engine)
                for index in members:
                    backing[index] = engine

        # The feed: the dispatcher with one per-request step, or (one node,
        # no driver, no fold) the preload.
        driver: FaultDriver | None = None
        autoscaler: Autoscaler | None = None
        feed: list[ServingRequest] | None = ordered
        if fold is not None:
            # Only representative slices are simulated; the plan places
            # each of their requests on its group's engine.
            target = {
                id(request): engine
                for engine, members in zip(engines, groups)
                for request in slices[members[0]]
            }
            feed = sorted(
                (r for members in groups for r in slices[members[0]]),
                key=_arrival_order,
            )

            def step(request: ServingRequest) -> None:
                target[id(request)].enqueue(request)

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
        elif len(engines) == 1:
            engines[0].preload(ordered)
            engines[0].finish_arrivals()
            feed = None
        else:

            def step(request: ServingRequest) -> None:
                self.router.place(request, engines).enqueue(request)

        processes = []
        if feed is not None:
            processes.append(
                sim.process(
                    # Under the fault driver migrated requests may still be
                    # in flight when the feed ends; the driver releases the
                    # engines once the last request completes or sheds.
                    self._dispatch(sim, feed, step, engines if driver is None else []),
                    name="cluster.route",
                )
            )
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
        sim.run(processes[0] if len(processes) == 1 else sim.all_of(processes))

        # The epilogue.
        if sim.sanitizer is not None:
            # Drain-end invariants: every engine's KV ledger fully released
            # and its load ledgers back at zero, and nothing still parked on
            # an untriggered event.
            for engine in engines:
                engine.assert_drained()
            sim.sanitize_check_drained()
        notes = self._step_time_notes(step_times, counters_before)
        if fold is None:
            assigned = [engine.assigned for engine in engines]
        else:
            assigned = slices
            self._mirror(slices, groups)
        breakdowns = tuple(
            node_breakdown(
                node.name,
                node.system,
                share,
                makespan_seconds=sim.now,
                peak_kv_reserved_bytes=engine.tracker.peak_reserved_bytes,
                kv_capacity_bytes=node.budget.kv_capacity_bytes,
                migrations=engine.migrations,
                migrated_recompute_tokens=engine.migrated_recompute_tokens,
                downtime_seconds=engine.downtime_seconds,
                shed_requests=engine.shed_requests,
                shed_retry_attempts=engine.shed_retry_attempts,
                kv_tiers=engine.tier_reports(),
                spilled_decode_seconds=engine.spilled_decode_seconds,
            )
            for node, engine, share in zip(self.nodes, backing, assigned)
        )
        if fold is not None and sim.sanitizer is not None:
            # Mirroring invariant: the summed breakdowns must equal each
            # representative's totals scaled by its group multiplicity --
            # the same mirrored-sum arithmetic device-level symmetry uses.
            mirrored_tokens = sum(
                mirrored_sum(
                    [slices[members[0]]],
                    lambda rep_slice: sum(
                        r.tokens_generated for r in rep_slice if r.finished
                    ),
                    multiplier=len(members),
                )
                for members in groups
            )
            breakdown_tokens = sum(b.generated_tokens for b in breakdowns)
            if mirrored_tokens != breakdown_tokens:
                raise SanitizerError(
                    f"mirrored representative totals ({mirrored_tokens} "
                    f"tokens) disagree with the summed node breakdowns "
                    f"({breakdown_tokens})",
                    invariant="fold-conservation",
                    sim_time=sim.now,
                )
        # The label decision: a 1-node drain outside the fault driver
        # reports as the single host it is (the system's name, no router,
        # no fleet path unless it folded); every other drain as a fleet.
        single = len(self.nodes) == 1 and driver is None
        symmetry = "representative" if fold is not None else "" if single else "full"
        if single:
            report = build_report(
                self.nodes[0].system,
                self.policy.name,
                queue,
                sim.now,
                breakdowns,
                step_time_notes=notes,
                fleet_symmetry=symmetry,
            )
        else:
            report = build_fleet_report(
                fleet_name=self.fleet_name,
                policy_name=self.policy.name,
                router_name=self.router.name,
                requests=queue,
                makespan_seconds=sim.now,
                node_reports=breakdowns,
                step_time_notes=notes,
                sheds=tuple(driver.sheds) if driver is not None else (),
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
        self, ordered: list[ServingRequest]
    ) -> tuple[list[list[ServingRequest]], list[list[int]]] | None:
        """Partition the stream per the router's cycle and group the nodes.

        Returns ``None`` when this drain must simulate every node:
        ``fleet_symmetry="full"``, an ineligible fleet under ``"auto"``, or
        a single node under ``"auto"`` (which keeps the preload feed).
        Otherwise returns ``(slices, groups)``: every node's slice of the
        arrival stream (FCFS order, from
        :meth:`~repro.serving.routers.Router.static_assignments`), and the
        node groups whose slices are identical position by position (same
        request classes and arrival times), each led by its
        representative -- the lowest node index, the one node simulated.
        """
        if self.fleet_symmetry == "full":
            return None
        if self.fleet_symmetry == "auto" and (
            len(self.nodes) == 1 or self._fold_ineligibility() is not None
        ):
            return None
        assignments = self.router.static_assignments(len(ordered), len(self.nodes))
        if len(assignments) != len(ordered) or any(
            not 0 <= index < len(self.nodes) for index in assignments
        ):
            raise SchedulingError(
                f"router {self.router.name!r} produced an invalid static "
                f"assignment for {len(ordered)} requests over "
                f"{len(self.nodes)} nodes"
            )
        slices: list[list[ServingRequest]] = [[] for _ in self.nodes]
        for request, node_index in zip(ordered, assignments):
            slices[node_index].append(request)
        groups: dict[tuple, list[int]] = {}
        for index, piece in enumerate(slices):
            signature = tuple((r.request_class, r.arrival_time) for r in piece)
            groups.setdefault(signature, []).append(index)
        return slices, list(groups.values())

    @staticmethod
    def _mirror(
        slices: list[list[ServingRequest]], groups: list[list[int]]
    ) -> None:
        """Mirror each representative slice onto the rest of its group.

        Every other member node's slice copies the representative slice's
        outcomes positionally.  The queue shares these request objects, so
        the report sees fully populated requests.
        """
        for representative, *mirrors in groups:
            rep_slice = slices[representative]
            for index in mirrors:
                for mirror, original in zip(slices[index], rep_slice):
                    mirror.copy_outcome_from(original)

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


def drain_queue(
    system: InferenceSystem,
    policies: Iterable[SchedulingPolicy],
    requests: Sequence[RequestClass],
    step_time: StepTimeModel | None = None,
    store=None,
    batch_grid: tuple[int, ...] | None = None,
    seq_grid: tuple[int, ...] | None = None,
    arrivals: ArrivalProcess | None = None,
    prefill_chunk_tokens: int | None = None,
) -> list[ServingReport]:
    """Drain the same queue under several policies on one system.

    The step-time model (and its calibration cache) is shared across
    policies; each policy gets a fresh copy of the queue so per-request
    state never leaks between drains.  ``store`` (plus optional grid
    overrides) builds the default :class:`CalibratedStepTime` against a
    persistent calibration cache so repeated sweeps skip re-measuring.
    ``arrivals`` and ``prefill_chunk_tokens`` pass through to every drain;
    seeded arrival processes replay the identical schedule per policy.
    """
    if step_time is None:
        step_time = CalibratedStepTime(
            system, batch_grid=batch_grid, seq_grid=seq_grid, store=store
        )
    elif store is not None or batch_grid is not None or seq_grid is not None:
        raise ConfigurationError(
            "drain_queue: store/batch_grid/seq_grid configure the default "
            "CalibratedStepTime and conflict with an explicit step_time"
        )
    node = Node(system, step_time=step_time, prefill_chunk_tokens=prefill_chunk_tokens)
    reports = [
        ClusterScheduler([node], policy).drain(list(requests), arrivals=arrivals)
        for policy in policies
    ]
    step_time.flush()
    return reports
