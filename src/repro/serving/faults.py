"""Fault injection and recovery for cluster serving drains.

The ROADMAP's cloud-elasticity item treats whole-node spot preemption as
"an arrival-process-style event stream"; this module is that stream.  A
:class:`FaultSchedule` -- explicit timed :class:`NodeFault` events, an
optional seeded :class:`SpotPreemptions` process, or both -- is handed to
a :class:`~repro.serving.cluster.ClusterScheduler`, whose drain then runs
a :class:`FaultDriver` alongside the dispatcher on the shared
discrete-event simulator:

* **injector processes** fire each fault at its simulated time.  A
  ``spot`` or ``crash`` fault marks the target
  :class:`~repro.serving.engine.NodeEngine` for death; the engine applies
  it at its next scheduling-round boundary (the spot "preemption notice"
  window: the in-flight iteration completes, then the node goes DOWN,
  evicting every admitted request recompute-on-migrate and returning its
  whole queue to the driver).  A ``slow`` fault multiplies the node's step
  times for a window (thermal throttling, a noisy neighbour).
* the **redispatcher process** re-routes returned requests through the
  cluster's router, which only ever sees live engines -- liveness-aware
  routing is enforced centrally, so every router skips dead nodes.
  Re-routing is bounded: a request migrated more than
  :attr:`FaultSchedule.max_migrations` times fails the drain instead of
  ping-ponging between dying nodes forever.
* **graceful degradation**: with every node down, deliveries park until a
  recovery event; if no recovery is pending either, the drain raises a
  structured :class:`~repro.errors.SchedulingError` naming the stranded
  requests instead of deadlocking.
* **admission control** (optional, :mod:`repro.serving.overload`): an
  :class:`~repro.serving.overload.OverloadControl` bounds per-node queue
  depth and fleet token rate at the same front door; over-limit arrivals
  are shed as structured outcomes, retried with seeded exponential
  backoff, or parked with a deadline.  Without one, delivery places each
  request at once.

Everything is deterministic under fixed seeds: :class:`SpotPreemptions`
draws inter-failure gaps from a private per-node ``random.Random``, so two
drains of one schedule are byte-identical, and an *empty* schedule is
normalised away by the cluster -- the no-fault path is the exact pre-fault
code path, not a faults-disabled variant of it.

CLI grammar (see :func:`parse_fault_spec`)::

    spot:MTBF:RECOVERY[:SEED]       seeded fleet-wide spot preemptions
    crash:TIME:NODE                 permanent node death at TIME
    slow:TIME:DURATION:FACTOR:NODE  step-time multiplier for a window

Clauses combine comma-separated: ``spot:900:60,crash:300:2``.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError, SchedulingError
from repro.serving.overload import (
    BACKOFF_SECONDS,
    BURST_SECONDS,
    OverloadControl,
    ShedRequest,
    TokenRateThrottle,
)
from repro.serving.request import ServingRequest
from repro.serving.specs import spec_error, spec_fields, spec_float, spec_int

#: Fault kinds a :class:`NodeFault` can carry.
FAULT_KINDS = ("spot", "crash", "slow")

#: Default bound on per-request re-routing before the drain fails.
DEFAULT_MAX_MIGRATIONS = 32


def _require_positive_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{what} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class NodeFault:
    """One timed fault event aimed at one node of the fleet.

    ``kind`` selects the failure mode: ``"spot"`` (node dies, recovers
    after ``recovery_seconds`` of re-provisioning), ``"crash"`` (node dies
    permanently), ``"slow"`` (step times multiply by ``factor`` for
    ``duration_seconds``).  ``time`` is simulated seconds from drain start;
    ``node`` is the fleet index the fault targets.
    """

    kind: str
    time: float
    node: int
    recovery_seconds: float | None = None
    duration_seconds: float | None = None
    factor: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of: "
                + ", ".join(FAULT_KINDS)
            )
        if not math.isfinite(self.time) or self.time < 0:
            raise ConfigurationError(
                f"fault time must be non-negative and finite, got {self.time!r}"
            )
        if self.node < 0:
            raise ConfigurationError(f"fault node index {self.node} is negative")
        if self.kind == "spot":
            if self.recovery_seconds is None:
                raise ConfigurationError(
                    "spot faults need recovery_seconds (use kind='crash' for "
                    "a permanent death)"
                )
            _require_positive_finite(self.recovery_seconds, "spot recovery_seconds")
        if self.kind == "crash" and self.recovery_seconds is not None:
            raise ConfigurationError(
                "crash faults are permanent; recovery_seconds makes no sense "
                "(use kind='spot')"
            )
        if self.kind == "slow":
            if self.duration_seconds is None or self.factor is None:
                raise ConfigurationError(
                    "slow faults need duration_seconds and factor"
                )
            _require_positive_finite(self.duration_seconds, "slow duration_seconds")
            _require_positive_finite(self.factor, "slow factor")


@dataclass(frozen=True)
class SpotPreemptions:
    """Seeded stochastic spot-preemption stream over the whole fleet.

    Each node independently draws exponential gaps with mean
    ``mtbf_seconds`` from a private ``random.Random`` derived from
    ``(seed, node index)``; every preemption takes the node down for
    ``recovery_seconds`` of re-provisioning.  Deterministic: the failure
    schedule is a pure function of ``(mtbf, recovery, seed, fleet size)``.
    """

    mtbf_seconds: float
    recovery_seconds: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_positive_finite(self.mtbf_seconds, "spot mtbf_seconds")
        _require_positive_finite(self.recovery_seconds, "spot recovery_seconds")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong during one drain.

    ``faults`` are explicit timed events (applied in time order, ties by
    node index); ``spot`` adds the seeded stochastic preemption stream on
    top.  ``max_migrations`` bounds per-request re-routing.  An empty
    schedule (no faults, no spot process) is normalised away by
    :class:`~repro.serving.cluster.ClusterScheduler` -- passing it is
    byte-identical to passing no schedule at all.
    """

    faults: tuple[NodeFault, ...] = ()
    spot: SpotPreemptions | None = None
    max_migrations: int = DEFAULT_MAX_MIGRATIONS

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda fault: (fault.time, fault.node))
        )
        object.__setattr__(self, "faults", ordered)
        if self.max_migrations < 0:
            raise ConfigurationError(
                f"max_migrations must be >= 0, got {self.max_migrations}"
            )

    @property
    def is_empty(self) -> bool:
        """Whether this schedule injects nothing at all."""
        return not self.faults and self.spot is None

    def validate_for(self, n_nodes: int) -> None:
        """Check every targeted node index exists in an ``n_nodes`` fleet."""
        for fault in self.faults:
            if fault.node >= n_nodes:
                raise ConfigurationError(
                    f"fault {fault.kind!r} at t={fault.time} targets node "
                    f"{fault.node} but the fleet has {n_nodes} node(s)"
                )


#: The fault CLI grammar, shared by the parser and its error messages.
FAULT_GRAMMAR = (
    "comma-separated spot:MTBF:RECOVERY[:SEED], crash:TIME:NODE, "
    "slow:TIME:DURATION:FACTOR:NODE, or none"
)


def parse_fault_spec(spec: str | None, seed: int = 0) -> FaultSchedule | None:
    """Parse a CLI fault spec into a :class:`FaultSchedule`.

    Accepted clauses (comma-separated): ``spot:MTBF:RECOVERY[:SEED]`` (at
    most one; ``SEED`` defaults to ``seed``), ``crash:TIME:NODE``, and
    ``slow:TIME:DURATION:FACTOR:NODE``.  ``None`` / ``"none"`` / ``"off"``
    return ``None`` so callers keep the fault-free drain path.
    """
    if spec is None or spec in ("none", "off"):
        return None
    what, grammar = "fault", FAULT_GRAMMAR
    faults: list[NodeFault] = []
    spot: SpotPreemptions | None = None
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            raise spec_error(what, grammar, spec, reason="empty clause")
        kind, _, rest = clause.partition(":")
        if kind == "spot":
            if spot is not None:
                raise ConfigurationError(
                    f"fault spec {spec!r} names two spot streams; merge "
                    "them into one spot:MTBF:RECOVERY[:SEED] clause"
                )
            parts = spec_fields(rest, (2, 3), what, grammar, spec)
            spot = SpotPreemptions(
                mtbf_seconds=spec_float(parts[0], what, grammar, spec),
                recovery_seconds=spec_float(parts[1], what, grammar, spec),
                seed=(
                    spec_int(parts[2], what, grammar, spec)
                    if len(parts) == 3
                    else seed
                ),
            )
        elif kind == "crash":
            parts = spec_fields(rest, (2,), what, grammar, spec)
            faults.append(
                NodeFault(
                    kind="crash",
                    time=spec_float(parts[0], what, grammar, spec),
                    node=spec_int(parts[1], what, grammar, spec),
                )
            )
        elif kind == "slow":
            parts = spec_fields(rest, (4,), what, grammar, spec)
            faults.append(
                NodeFault(
                    kind="slow",
                    time=spec_float(parts[0], what, grammar, spec),
                    node=spec_int(parts[3], what, grammar, spec),
                    duration_seconds=spec_float(parts[1], what, grammar, spec),
                    factor=spec_float(parts[2], what, grammar, spec),
                )
            )
        else:
            raise spec_error(
                what, grammar, spec, reason=f"unknown clause {clause!r}"
            )
    return FaultSchedule(faults=tuple(faults), spot=spot)


class FaultDriver:
    """Runs one drain's fault schedule and the resulting request migration.

    Owned by a fault-mode :class:`~repro.serving.cluster.ClusterScheduler`
    drain; every engine holds a reference back (``engine.driver``) and
    notifies it of deaths, recoveries, and completions.  The driver's
    redispatcher process re-routes returned requests, and its injector
    processes fire the schedule.  Injectors are fire-and-forget (never
    awaited): a spot stream whose next failure falls past the drain's end
    simply leaves a dead timer on the heap.
    """

    def __init__(
        self,
        sim,
        engines: Sequence,
        router,
        schedule: FaultSchedule,
        total_requests: int,
        overload: OverloadControl | None = None,
    ) -> None:
        self.sim = sim
        self.engines = list(engines)
        self.router = router
        self.schedule = schedule
        self.total_requests = total_requests
        self.overload = overload
        self.finished = 0
        self.done = False
        self._returned: deque[ServingRequest] = deque()
        self._return_wake = None
        self._recovery_waiters: list = []
        #: Structured load-shedding outcomes, in shed order, each next to
        #: the request it shed.
        self.sheds: list[tuple[ShedRequest, ServingRequest]] = []
        #: Deliveries parked on a full queue / throttle deficit, woken by
        #: the next admission (queue depth dropped) or recovery.
        self._capacity_waiters: list = []
        self._throttle = None
        if overload is not None and overload.max_tokens_per_second is not None:
            self._throttle = TokenRateThrottle(
                rate=overload.max_tokens_per_second,
                burst=overload.max_tokens_per_second * BURST_SECONDS,
            )

    # --- engine notifications ---------------------------------------------------

    def note_death(self, engine, migrated: Sequence[ServingRequest]) -> None:
        """A node died; its queued and evicted requests need new homes."""
        self._returned.extend(migrated)
        self._wake_redispatcher()

    def note_recovery(self, engine) -> None:
        """A node came back up; retry every delivery parked on a dead fleet.

        Park-deadline timers can race the recovery, so a waiter may
        already be triggered -- guard instead of double-firing it.
        """
        waiters, self._recovery_waiters = self._recovery_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def note_admission(self) -> None:
        """An engine admitted work; retry deliveries parked on capacity."""
        if not self._capacity_waiters:
            return
        waiters, self._capacity_waiters = self._capacity_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def note_finished(self, request: ServingRequest) -> None:
        """One request completed; at the last outcome, release every engine."""
        self.finished += 1
        self._maybe_release()

    def _maybe_release(self) -> None:
        """Declare the drain done once every request completed or was shed."""
        if not self.done and self.finished + len(self.sheds) >= self.total_requests:
            self.done = True
            for engine in self.engines:
                engine.finish_arrivals()
            self._wake_redispatcher()

    def _wake_redispatcher(self) -> None:
        if self._return_wake is not None and not self._return_wake.triggered:
            wake, self._return_wake = self._return_wake, None
            wake.succeed()

    # --- routing with liveness + degradation ------------------------------------

    def deliver(self, request: ServingRequest):
        """Route one request to a live engine (a generator sub-process).

        Only routable engines are offered to the router, so liveness
        awareness holds for every router implementation.  With the whole
        fleet down, parks until a recovery event; with no recovery pending
        either, raises the structured stranded-fleet error.  Without
        admission control the request is placed at once; under it
        (``overload``) delivery also enforces queue-depth and token-rate
        limits, and sheds, retries or parks an over-limit request.

        Delivery stays a single sequential front door (head-of-line
        blocking by design): requests are admitted, backed off, or shed
        in arrival order, which keeps the drain deterministic and FIFO-
        fair -- a parked head request is exactly the backpressure signal
        an upstream client would see.
        """
        control = self.overload
        attempts = 0
        park_deadline: float | None = None
        while True:
            now = self.sim.now
            alive = [engine for engine in self.engines if engine.routable]
            if not alive:
                # Whole fleet down: fault-layer degradation, except that a
                # park deadline still bounds how long the request waits.
                # Without overload only a scale-draining node admits while
                # none is routable, so an early wake just parks again.
                if not any(engine.recovery_pending for engine in self.engines):
                    raise self.stranded_error(request)
                if (
                    control is not None
                    and control.action == "park"
                    and control.park_deadline_seconds is not None
                ):
                    if park_deadline is None:
                        park_deadline = now + control.park_deadline_seconds
                    if now >= park_deadline:
                        self._shed(request, "park-deadline", attempts)
                        return
                    yield from self._park(park_deadline - now, recovery=True)
                else:
                    yield from self._park(None, recovery=True)
                continue
            if control is None:
                self.router.place(request, alive).enqueue(request)
                return
            if self._throttle is not None and not self._throttle.ready(now):
                reason = "token-rate"
                wait = self._throttle.seconds_until_ready(now)
            else:
                eligible = alive
                if control.max_queue_depth is not None:
                    eligible = [
                        engine
                        for engine in alive
                        if engine.queued_requests < control.max_queue_depth
                    ]
                if eligible:
                    chosen = self.router.place(request, eligible)
                    if self._throttle is not None:
                        self._throttle.take(
                            request.request_class.total_tokens, now
                        )
                    chosen.enqueue(request)
                    return
                reason = "queue-bound"
                wait = None  # no timer: the next admission is the signal
            if control.action == "shed":
                self._shed(request, reason, attempts)
                return
            if control.action == "retry":
                if attempts >= control.max_attempts:
                    self._shed(request, "retry-exhausted", attempts)
                    return
                attempts += 1
                request.retry_attempts += 1
                rng = random.Random(
                    f"backoff:{control.backoff_seed}:"
                    f"{request.request_id}:{attempts}"
                )
                delay = BACKOFF_SECONDS * (2 ** (attempts - 1)) * rng.uniform(0.5, 1.5)
                yield self.sim.timeout(delay)
                continue
            # action == "park": hold at the front door until capacity.
            if park_deadline is None:
                park_deadline = (
                    math.inf
                    if control.park_deadline_seconds is None
                    else now + control.park_deadline_seconds
                )
            remaining = park_deadline - now
            if remaining <= 0:
                self._shed(request, "park-deadline", attempts)
                return
            bound = remaining if wait is None else min(wait, remaining)
            yield from self._park(None if math.isinf(bound) else bound)

    def _park(self, max_wait: float | None, recovery: bool = False):
        """Park this delivery until capacity frees (or ``max_wait`` passes).

        The waiter is woken by the next admission (queue depth dropped),
        by a recovery when ``recovery`` is set, or by the bounding timer;
        every wake source guards ``triggered`` since they race.
        """
        waiter = self.sim.event("faults.capacity-wake")
        self._capacity_waiters.append(waiter)
        if recovery:
            self._recovery_waiters.append(waiter)
        handle = None
        if max_wait is not None:
            handle = self.sim.schedule_cancellable(
                max_wait,
                lambda: None if waiter.triggered else waiter.succeed(),
            )
        yield waiter
        if handle is not None:
            handle.cancel()
        if waiter in self._capacity_waiters:
            self._capacity_waiters.remove(waiter)
        if recovery and waiter in self._recovery_waiters:
            self._recovery_waiters.remove(waiter)

    # --- load shedding ----------------------------------------------------------

    def _shed(self, request: ServingRequest, reason: str, attempts: int) -> None:
        """Reject ``request`` as a structured outcome (never a silent drop)."""
        request.shed_time = self.sim.now
        request.shed_reason = reason
        engine = self._charge_node()
        engine.shed_requests += 1
        engine.shed_retry_attempts += request.retry_attempts
        record = ShedRequest(
            request_id=request.request_id,
            time=self.sim.now,
            reason=reason,
            attempts=attempts,
            node=engine.node.name,
        )
        self.sheds.append((record, request))
        self._maybe_release()

    def _charge_node(self):
        """The node a shed is charged to: deepest routable queue (the
        backlog that turned the request away), ties to the lowest index,
        falling back to node 0 on an all-down fleet."""
        best = None
        for engine in self.engines:
            if engine.routable and (
                best is None or engine.queued_requests > best.queued_requests
            ):
                best = engine
        return best if best is not None else self.engines[0]

    def stranded_error(self, request: ServingRequest | None = None) -> SchedulingError:
        """Build the unrecoverable-fleet error naming the stranded requests."""
        stranded = sorted(
            {r.request_id for r in self._returned}
            | ({request.request_id} if request is not None else set())
        )
        shown = ", ".join(str(i) for i in stranded[:8])
        if len(stranded) > 8:
            shown += f", ... ({len(stranded) - 8} more)"
        error = SchedulingError(
            f"every node is permanently down with {len(stranded)} request(s) "
            f"stranded (ids {shown}) and "
            f"{self.total_requests - self.finished - len(self.sheds) - len(stranded)} more still "
            "expected from the arrival stream; the fleet cannot finish this "
            "drain"
        )
        error.stranded_request_ids = stranded
        return error

    # --- the redispatcher process ----------------------------------------------

    def redispatch(self):
        """Re-route every returned request; exits at global completion."""
        while True:
            while self._returned:
                request = self._returned.popleft()
                if request.migration_count > self.schedule.max_migrations:
                    raise SchedulingError(
                        f"request {request.request_id} migrated "
                        f"{request.migration_count} times, past the "
                        f"max_migrations bound of "
                        f"{self.schedule.max_migrations}; the fleet is "
                        "losing nodes faster than it can finish work"
                    )
                yield from self.deliver(request)
            if self.done:
                return
            self._return_wake = self.sim.event("faults.return-wake")
            yield self._return_wake

    # --- injector processes -----------------------------------------------------

    def start_injectors(self) -> None:
        """Spawn the schedule's injector processes (fire-and-forget)."""
        if self.schedule.faults:
            self.sim.process(self._timed_injector(), name="faults.timed")
        if self.schedule.spot is not None:
            for index, engine in enumerate(self.engines):
                self.sim.process(
                    self._spot_injector(index, engine),
                    name=f"faults.spot.{engine.node.name}",
                )

    def _timed_injector(self):
        """Apply the explicit timed faults in (time, node) order."""
        for fault in self.schedule.faults:
            if fault.time > self.sim.now:
                yield self.sim.timeout(fault.time - self.sim.now)
            if self.done:
                return
            engine = self.engines[fault.node]
            if fault.kind == "slow":
                engine.apply_slowdown(fault.factor, fault.duration_seconds)
            else:
                engine.inject_failure(
                    fault.recovery_seconds if fault.kind == "spot" else None
                )

    def _spot_injector(self, index: int, engine):
        """One node's seeded spot-preemption stream (runs until drain end)."""
        spot = self.schedule.spot
        rng = random.Random(f"spot:{spot.seed}:{index}")
        while True:
            yield self.sim.timeout(rng.expovariate(1.0 / spot.mtbf_seconds))
            if self.done:
                return
            # A node already down (or crashed) just rides out this draw.
            engine.inject_failure(spot.recovery_seconds)
