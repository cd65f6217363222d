"""Per-node serving engine: one host's admission/preemption state machine.

:class:`Node` bundles what one simulated host brings to a fleet -- an
:class:`~repro.baselines.base.InferenceSystem`, a calibrated
:class:`~repro.serving.steptime.StepTimeModel`, a KV
:class:`~repro.serving.budget.CapacityBudget`, and an optional prefill
chunk size.  :class:`NodeEngine` is the node's *runtime*: the
admission/preemption state machine, instantiated once per node per drain
on a **shared** discrete-event simulator so a
:class:`~repro.serving.cluster.ClusterScheduler` can drain one queue
across many hosts (a single host is a 1-node cluster).

Request lifecycle::

    pending --arrival--> waiting --admit--> prefilling --chunks done-->
    running --last token--> finished
                  ^                                |
                  +------- preempt (optimistic) ---+

The engine receives work through one of the cluster drain's two feeds:

* :meth:`NodeEngine.preload` installs a whole arrival-stamped queue up
  front (1-node drains without the fault driver or fleet folding): the engine
  sleeps until each next arrival itself, so every request of a
  same-time burst is waiting when it wakes and is admitted with it;
* :meth:`NodeEngine.enqueue` delivers one request at its arrival time
  (the cluster dispatcher's feed); an idle engine parks on a wake event
  that ``enqueue`` (or :meth:`NodeEngine.finish_arrivals`) triggers, and
  since the wake is synchronous it admits a burst's first request before
  the rest are delivered.

The engine also exposes the live load views routers, overload control
and the autoscaler read: :attr:`outstanding_tokens` (JSQ),
:attr:`kv_headroom_bytes` / :meth:`kv_fits` and
:attr:`top_tier_headroom_bytes` (KV-aware best fit), and
:attr:`queued_requests` (queue depth, the length of the pending and
waiting queues).  The token and byte views read a running integer *load
ledger* in O(1) instead of re-summing the queues per probe; the decode
step reads one more (the running requests' summed context) for its mean
context.  The four ledgers move only at transitions the engine already
owns:

=====================  ===================================================
transition             ledgers moved
=====================  ===================================================
enqueue / preload      outstanding, committed KV, queued KV
admission              queued KV
prefill chunk          outstanding (completion: running context)
decode step            running context
preemption             outstanding, queued KV (running context when the
                       victim was decoding)
retirement             outstanding, committed KV, running context
death                  all cleared (the whole queue leaves the node)
=====================  ===================================================

The re-summing code survives as the sanitizer's reference: a sanitized
engine recomputes every ledger at each load probe (queue-depth probes
included), and the running context at each decode step, and raises
``SanitizerError(invariant="load-ledger")`` on any difference, and
:meth:`NodeEngine.assert_drained` demands every ledger back at zero at
drain end.

Under fault injection (:mod:`repro.serving.faults`) the engine carries a
node lifecycle::

    UP --inject_failure--> DRAINING --next round--> DOWN
                                                      |  (recovery_seconds)
    UP <------------------- RECOVERING <--------------+

``inject_failure`` marks the node for death; the death lands at the next
scheduling-round boundary (the in-flight iteration finishes first -- the
spot "preemption notice" model), where every admitted request is evicted
recompute-on-migrate, the KV ledger is fully released, and the node's
whole queue flows back to the cluster's :class:`~repro.serving.faults.FaultDriver`
for re-routing.  A DOWN node accrues :attr:`downtime_seconds` until it
recovers (or until the drain ends); ``apply_slowdown`` multiplies step
times for a window without killing the node.  Fault-free drains never
touch any of this -- every hook is a single attribute test on the hot
path, and the no-fault schedule is byte-identical to the pre-fault code.

Autoscaled drains (:mod:`repro.serving.autoscale`) reuse the same
lifecycle for *elasticity*: :meth:`NodeEngine.start_offline` begins a
spare node DOWN (downtime from t=0, so the uptime-only cost path bills
only its provisioned window), :meth:`NodeEngine.provision` re-runs the
RECOVERING path with a provisioning delay, and
:meth:`NodeEngine.drain_gracefully` scales a node down without killing
in-flight work -- routing stops, admitted and queued requests complete,
then the node goes DOWN as a provisionable spare.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.analysis.sanitizer import SanitizerError
from repro.baselines.base import InferenceSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving.budget import BudgetTracker, CapacityBudget, capacity_budget_for
from repro.serving.kvtiers import TieredBudgetTracker, TierPolicy, TierStack
from repro.serving.policies import SchedulingPolicy
from repro.serving.request import ServingRequest
from repro.serving.steptime import CalibratedStepTime, StepTimeModel
from repro.sim.engine import Simulator

#: The engine's running load ledgers (all integers), by attribute name.
#: Sums run over every routed, unfinished request (pending, waiting,
#: prefilling and running) unless the name says ``queued`` (pending and
#: waiting) or ``running``.
_LOAD_LEDGERS = (
    # input + output - prefill_tokens_done: the JSQ signal.
    "_outstanding_tokens",
    # Final-context KV bytes (model.kv_cache_bytes at total_tokens).
    "_committed_kv_bytes",
    "_queued_kv_bytes",
    # Current context tokens (input + tokens_generated).
    "_running_context_tokens",
)


class Node:
    """One simulated host of a serving fleet.

    Holds only per-host *configuration*; all per-drain state (queues,
    budget ledger) lives in the :class:`NodeEngine` a drain builds, so one
    ``Node`` can back any number of sequential drains.  The default step
    time is a :class:`~repro.serving.steptime.CalibratedStepTime` over the
    node's system -- pass one wired to a
    :class:`~repro.calibration.CalibrationStore` (or share one instance
    across the symmetric nodes of a homogeneous fleet) so fleets
    warm-start from persisted grids instead of measuring per node.
    """

    def __init__(
        self,
        system: InferenceSystem,
        step_time: StepTimeModel | None = None,
        budget: CapacityBudget | None = None,
        prefill_chunk_tokens: int | None = None,
        name: str | None = None,
        kv_tiers: TierStack | None = None,
        kv_policy: TierPolicy | None = None,
    ) -> None:
        if prefill_chunk_tokens is not None and prefill_chunk_tokens < 1:
            raise ConfigurationError("prefill chunk size must be >= 1 token")
        self.system = system
        self.step_time = step_time or CalibratedStepTime(system)
        self.name = name or system.name
        if kv_tiers is not None:
            if budget is not None:
                raise ConfigurationError(
                    f"node {self.name!r} got both a flat budget and a KV tier "
                    "stack; a tiered node's budget is the stack's total "
                    "capacity"
                )
            self.budget = kv_tiers.capacity_budget(self.name)
        else:
            if kv_policy is not None:
                raise ConfigurationError(
                    f"node {self.name!r} got a KV policy without a tier "
                    "stack; pass kv_tiers alongside kv_policy"
                )
            self.budget = budget or capacity_budget_for(system)
        self.kv_tiers = kv_tiers
        self.kv_policy = kv_policy
        self.prefill_chunk_tokens = prefill_chunk_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name!r}, system={self.system.name!r})"


class NodeEngine:
    """Drives one node's drain loop as a process on a shared simulator.

    The loop surfaces arrivals, runs policy admission, (chunked) prefill,
    decode iterations and optimistic-overflow preemption, and parks when
    idle: with no work and no known future arrival it waits on a wake
    event instead of exiting, because the cluster dispatcher may still
    route more requests its way.  :meth:`finish_arrivals` marks the
    stream exhausted so a drained engine can terminate.
    """

    def __init__(self, node: Node, policy: SchedulingPolicy, sim: Simulator) -> None:
        self.node = node
        self.policy = policy
        self.sim = sim
        if node.kv_tiers is not None:
            self.tracker: BudgetTracker = TieredBudgetTracker.for_stack(
                stack=node.kv_tiers,
                model=node.system.model,
                policy=node.kv_policy,
                sanitize=sim.sanitizer is not None,
                owner=node.name,
            )
        else:
            self.tracker = BudgetTracker(
                budget=node.budget,
                model=node.system.model,
                sanitize=sim.sanitizer is not None,
                owner=node.name,
            )
        #: Whether this node tracks a KV tier stack.  Declared once so the
        #: hot-loop hooks are single attribute tests (the ``_slow_factor``
        #: pattern) and flat drains stay byte-identical.
        self.tiered = node.kv_tiers is not None
        #: Requests routed here whose arrival time has not been reached
        #: (preloaded single-node queues only; dispatched requests arrive
        #: due and go straight through to ``waiting`` at the next loop top).
        self.pending: deque[ServingRequest] = deque()
        self.waiting: deque[ServingRequest] = deque()
        self.prefilling: list[ServingRequest] = []
        self.running: list[ServingRequest] = []
        #: Every request ever routed to this node, in routing order (the
        #: per-node report is built from this).
        self.assigned: list[ServingRequest] = []
        self._model = node.system.model
        self._sanitize = sim.sanitizer is not None
        self._clear_load_ledgers()
        self._batch_slots = 0
        self._wake = None
        self._arrivals_done = False
        #: Fault driver of a fault-mode cluster drain (None otherwise).
        self.driver = None
        # --- fault-injection lifecycle (inert on fault-free drains) ---
        self._state = "up"  # up | draining | down | done
        self._death_pending = False
        self._pending_recovery_seconds: float | None = None
        self._will_recover = False
        self._slow_factor = 1.0
        self._slow_token = 0
        self._down_since = 0.0
        #: Seconds this node spent DOWN during the drain.
        self.downtime_seconds = 0.0
        #: Requests this node's deaths pushed back to the dispatcher.
        self.migrations = 0
        #: Context tokens this node's deaths dropped (recomputed elsewhere).
        self.migrated_recompute_tokens = 0
        # --- overload / autoscale lifecycle (inert otherwise) ---
        #: True while the autoscaler drains this node gracefully: no new
        #: routing, in-flight work completes, then the node goes DOWN.
        self._scale_down = False
        #: Whether an offline (scaled-down or never-started) node may be
        #: provisioned back up by the autoscaler.
        self.provisionable = False
        #: Requests admission control shed and charged to this node.
        self.shed_requests = 0
        #: Backoff attempts carried by requests shed against this node.
        self.shed_retry_attempts = 0

    # --- lifecycle --------------------------------------------------------------

    @property
    def state(self) -> str:
        """Lifecycle state: ``up``/``draining``/``down``/``recovering``/``done``.

        ``recovering`` is a reporting view of ``down`` with a provisioning
        timer armed; the loop itself only distinguishes down from up.
        """
        if self._state == "down" and self._will_recover:
            return "recovering"
        return self._state

    @property
    def routable(self) -> bool:
        """Whether the dispatcher may still route new work here."""
        return self._state == "up" and not self._death_pending and not self._scale_down

    @property
    def recovery_pending(self) -> bool:
        """Whether a dead (or dying) node has a provisioning timer armed."""
        return self._will_recover

    @property
    def scale_draining(self) -> bool:
        """Whether the autoscaler is gracefully draining this node."""
        return self._scale_down and self._state == "up" and not self._death_pending

    @property
    def queued_requests(self) -> int:
        """Requests routed here but not yet admitted (the overload signal)."""
        if self._sanitize:
            self._check_load_ledgers()
        return len(self.pending) + len(self.waiting)

    def inject_failure(self, recovery_seconds: float | None = None) -> bool:
        """Mark the node for death at its next scheduling-round boundary.

        ``recovery_seconds`` arms a re-provisioning timer (spot
        preemption); ``None`` is a permanent crash.  Returns ``False``
        without effect when the node is already dead or dying -- repeated
        spot draws against a down node are no-ops.  (A gracefully
        scale-draining node is still UP hardware: faults can kill it.)
        """
        if self._state != "up" or self._death_pending:
            return False
        self._death_pending = True
        self._pending_recovery_seconds = recovery_seconds
        self._will_recover = recovery_seconds is not None
        self._state = "draining"
        self._wake_if_parked()
        return True

    def apply_slowdown(self, factor: float, duration_seconds: float) -> None:
        """Multiply step times by ``factor`` for ``duration_seconds``.

        Windows do not compose: a later slowdown replaces the current one,
        and each window clears only itself (token-guarded), so an expired
        early window can never cancel a longer later one.
        """
        self._slow_factor = factor
        self._slow_token += 1
        token = self._slow_token
        self.sim.schedule(duration_seconds, lambda: self._clear_slowdown(token))

    def _clear_slowdown(self, token: int) -> None:
        if token == self._slow_token:
            self._slow_factor = 1.0

    def _wake_if_parked(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            wake, self._wake = self._wake, None
            wake.succeed()

    def _apply_death(self) -> None:
        """Take the node DOWN: evict, release all KV, return the queue.

        Eviction order is admitted seniority first (running, then
        prefilling, then queued), which is also the order the dispatcher
        re-routes in -- migrated decodes resume before never-started work.
        Every evicted request's ledger entry is released *here*, before any
        re-admission elsewhere (the sanitizer's ``migration-kv-release``
        invariant), and the requests leave :attr:`assigned` so each request
        is accounted by exactly one node's breakdown.  On tiered nodes the
        release drains every tier the request's KV touched (the
        ``tier-conservation`` invariant) -- migration never strands spilled
        bytes.
        """
        self._death_pending = False
        self._scale_down = False
        self._state = "down"
        self._down_since = self.sim.now
        recovery = self._pending_recovery_seconds
        self._pending_recovery_seconds = None
        migrated: list[ServingRequest] = []
        dropped_total = 0
        for request in self.running:
            self.tracker.release(request)
            request.record_migration(request.context_tokens)
            dropped_total += request.context_tokens
            migrated.append(request)
        for request in self.prefilling:
            self.tracker.release(request)
            dropped = request.prefill_tokens_done
            request.record_migration(dropped)
            dropped_total += dropped
            migrated.append(request)
        for request in list(self.waiting) + list(self.pending):
            request.record_migration(0)
            migrated.append(request)
        self.running.clear()
        self.prefilling.clear()
        self.waiting.clear()
        self.pending.clear()
        self._clear_load_ledgers()
        self._batch_slots = 0
        if migrated:
            gone = {request.request_id for request in migrated}
            self.assigned = [r for r in self.assigned if r.request_id not in gone]
            self.migrations += len(migrated)
            self.migrated_recompute_tokens += dropped_total
        if recovery is not None:
            self.sim.schedule(recovery, self._recover)
        if self.driver is not None:
            self.driver.note_death(self, migrated)

    def _recover(self) -> None:
        """Provisioning finished: the node is UP again (spot recovery)."""
        if self._state != "down":
            return  # the drain already finalized this engine
        self.downtime_seconds += self.sim.now - self._down_since
        self._state = "up"
        self._will_recover = False
        if self.driver is not None:
            self.driver.note_recovery(self)

    def _finalize(self) -> None:
        """Close the lifecycle at loop exit (bill any open downtime)."""
        if self._state == "down":
            self.downtime_seconds += self.sim.now - self._down_since
        self._state = "done"

    # --- elastic lifecycle (autoscaled drains only) -----------------------------

    def start_offline(self) -> None:
        """Begin the drain DOWN as an unprovisioned spare (autoscale pool).

        The node accrues downtime from t=0 until the autoscaler
        provisions it, so the uptime-only cost path bills exactly the
        provisioned window -- a spare never scaled up costs nothing.
        Call before the drain starts running.
        """
        self._state = "down"
        self._down_since = 0.0
        self.provisionable = True

    def provision(self, provision_seconds: float) -> bool:
        """Bring capacity (back) online: the autoscaler's scale-up hook.

        A gracefully-draining node is reactivated instantly (warm
        cancel: it never went down).  An offline provisionable spare
        arms the fault layer's RECOVERING timer -- the node is UP after
        ``provision_seconds``, via the same :meth:`_recover` path a spot
        preemption uses.  Returns ``False`` when the node is neither.
        """
        if self._scale_down:
            self._scale_down = False
            return True
        if self._state == "down" and self.provisionable and not self._will_recover:
            self.provisionable = False
            self._will_recover = True
            self.sim.schedule(provision_seconds, self._recover)
            return True
        return False

    def drain_gracefully(self) -> bool:
        """Scale this node down without killing in-flight work.

        The node stops being routable immediately; its admitted and
        queued requests run to completion, after which the run loop
        takes it DOWN (accruing unbilled downtime) and marks it
        provisionable for a later scale-up.
        """
        if self._state != "up" or self._death_pending:
            return False
        self._scale_down = True
        self._wake_if_parked()
        return True

    def _complete_scale_down(self) -> None:
        """The graceful drain emptied: go DOWN as a provisionable spare."""
        self._scale_down = False
        self._state = "down"
        self._down_since = self.sim.now
        self.provisionable = True

    # --- router-facing load views ----------------------------------------------

    @property
    def outstanding_tokens(self) -> int:
        """The join-the-shortest-queue load signal, in tokens.

        Exactly ``sum(input + output - prefill_tokens_done)``
        over every routed, unfinished request.  A queued request counts
        its whole prompt and output; a prefilling one drops the prefill
        tokens already computed.  A running request counts its output
        length minus the tokens it had emitted when its latest prefill
        completed -- for a fresh request, its *whole* output -- until it
        retires: decode progress does not lower the signal.  (A preempted
        request's dropped prefill credit returns to it.)
        """
        if self._sanitize:
            self._check_load_ledgers()
        return self._outstanding_tokens

    @property
    def kv_headroom_bytes(self) -> float:
        """KV bytes still unclaimed once everything routed here has grown.

        Every assigned-and-unfinished request -- queued, prefilling, or
        running -- is priced at its **final**-context reservation, not the
        admission ledger: under optimistic admission the ledger holds only
        current footprints, which would overstate headroom and steer
        KV-aware routing onto nodes guaranteed to preempt once decode
        growth lands.  (Under reserve accounting this sum equals the
        ledger plus queued commitments, so the two modes share one
        conservative routing signal.)
        """
        if self._sanitize:
            self._check_load_ledgers()
        return self.node.budget.kv_capacity_bytes - self._committed_kv_bytes

    def kv_fits(self, request: ServingRequest) -> bool:
        """Whether ``request``'s final-context KV fits the current headroom."""
        return (
            request.kv_reservation_bytes(self.node.system.model)
            <= self.kv_headroom_bytes
        )

    @property
    def top_tier_headroom_bytes(self) -> float:
        """Compute-tier headroom -- the tier-aware best-fit ranking signal.

        Flat nodes have a single implicit tier, so this equals
        :attr:`kv_headroom_bytes` and tier-aware routing ranks exactly as
        before.  Tiered nodes report the *top* tier's capacity minus its
        live occupancy minus the hot share of queued commitments -- the
        bytes that will actually contend for the compute tier, so best-fit
        packs hot sets instead of total stack bytes.
        """
        if not self.tiered:
            return self.kv_headroom_bytes
        if self._sanitize:
            self._check_load_ledgers()
        return self.tracker.top_headroom_for_routing(self._queued_kv_bytes)

    # --- load ledgers ------------------------------------------------------------

    def _clear_load_ledgers(self) -> None:
        for name in _LOAD_LEDGERS:
            setattr(self, name, 0)

    def _final_kv_bytes(self, request: ServingRequest) -> int:
        """Final-context KV bytes (the reservation, as an int)."""
        return self._model.kv_cache_bytes(1, request.final_context_tokens)

    def _note_routed(self, request: ServingRequest) -> None:
        """Ledger a request arriving in this node's queue."""
        kv = self._final_kv_bytes(request)
        self._outstanding_tokens += (
            request.final_context_tokens - request.prefill_tokens_done
        )
        self._committed_kv_bytes += kv
        self._queued_kv_bytes += kv

    def _recount_load_ledgers(self, running_only: bool) -> dict[str, int]:
        """Ledgers re-summed from the queues (the sanitizer's reference).

        ``running_only`` recounts just the decode batch's running context --
        one pass over the batch instead of over everything routed here.
        """
        counts = {
            "_running_context_tokens": sum(r.context_tokens for r in self.running)
        }
        if running_only:
            return counts
        model = self._model
        queued = list(self.pending) + list(self.waiting)
        live = queued + self.prefilling + self.running
        counts["_outstanding_tokens"] = sum(
            r.prefill_remaining_tokens + (r.output_tokens - r.tokens_generated)
            for r in live
        )
        counts["_committed_kv_bytes"] = sum(
            model.kv_cache_bytes(1, r.final_context_tokens) for r in live
        )
        counts["_queued_kv_bytes"] = sum(
            model.kv_cache_bytes(1, r.final_context_tokens) for r in queued
        )
        return counts

    def _check_load_ledgers(self, running_only: bool = False) -> None:
        """load-ledger: each load ledger equals its re-summed reference."""
        for name, expected in self._recount_load_ledgers(running_only).items():
            held = getattr(self, name)
            if held != expected:
                raise SanitizerError(
                    f"node {self.node.name!r} load ledger {name.lstrip('_')} "
                    f"holds {held} but its queues sum to {expected}",
                    invariant="load-ledger",
                    sim_time=self.sim.now,
                )

    def assert_drained(self) -> None:
        """Drain-end conservation: KV ledger released, load ledgers at zero."""
        context = f"node {self.node.name!r}"
        self.tracker.assert_drained(context=context)
        residue = {
            name.lstrip("_"): getattr(self, name)
            for name in _LOAD_LEDGERS
            if getattr(self, name) != 0
        }
        if residue:
            raise SanitizerError(
                f"load ledger residue on {context} after the drain: {residue}",
                invariant="load-ledger",
                sim_time=self.sim.now,
            )

    # --- tier reporting views ----------------------------------------------------

    def tier_reports(self) -> tuple:
        """Per-tier occupancy/movement shares (empty for flat nodes)."""
        if not self.tiered:
            return ()
        return self.tracker.tier_reports()

    @property
    def spilled_decode_seconds(self) -> float:
        """Extra decode seconds spilled-attention reads cost this node."""
        if not self.tiered:
            return 0.0
        return self.tracker.spilled_decode_seconds

    # --- work delivery ---------------------------------------------------------

    def preload(self, requests: Iterable[ServingRequest]) -> None:
        """Install a whole arrival-ordered queue (single-node drains)."""
        requests = list(requests)
        self.pending.extend(requests)
        self.assigned.extend(requests)
        for request in requests:
            self._note_routed(request)

    def enqueue(self, request: ServingRequest) -> None:
        """Deliver one routed request (cluster dispatch, at arrival time)."""
        if self._state != "up":
            raise SchedulingError(
                f"request {request.request_id} routed to node "
                f"{self.node.name!r} in state {self.state!r}; the dispatcher "
                "must only deliver to routable nodes"
            )
        self.assigned.append(request)
        self.pending.append(request)
        self._note_routed(request)
        self._wake_if_parked()

    def finish_arrivals(self) -> None:
        """Mark the arrival stream exhausted so an idle engine can exit."""
        self._arrivals_done = True
        self._wake_if_parked()

    # --- the drain loop --------------------------------------------------------

    def run(self):
        """The node's drain process (a generator for ``sim.process``)."""
        sim = self.sim
        optimistic = self.policy.admission == "optimistic"
        while True:
            if self._death_pending:
                self._apply_death()
            if self._state == "down":
                # Dead node: nothing to do until provisioning finishes (the
                # wake is the next enqueue after recovery) or the fleet
                # declares the drain over.
                if self._arrivals_done:
                    self._finalize()
                    return
                self._wake = sim.event(f"{self.node.name}.wake")
                yield self._wake
                continue
            while self.pending and self.pending[0].arrival_time <= sim.now:
                self.waiting.append(self.pending.popleft())
            admitted = self.policy.admit(
                self.waiting, self.running + self.prefilling, self.tracker
            )
            for request in admitted:
                if optimistic:
                    self.tracker.occupy(request)
                else:
                    self.tracker.reserve(request)
                if request.admitted_time is None:
                    request.admitted_time = sim.now
                request.last_admitted_time = sim.now
                self._queued_kv_bytes -= self._final_kv_bytes(request)
            self.prefilling.extend(admitted)
            if admitted and self.driver is not None:
                # Queue depth just dropped: wake any delivery parked on a
                # full waiting queue (overload park/backpressure).
                self.driver.note_admission()
            if self.policy.padded and admitted:
                # Slot count of the formed batch, captured before any
                # prefill-completers retire: their slots idle (and are
                # billed) until the whole batch drains.
                self._batch_slots = len(self.running) + len(self.prefilling)
            progressed = bool(admitted)
            if self.tiered:
                # Admission placement may have demoted resident KV to make
                # top-tier room; bill that movement before prefill starts.
                # Zero movement yields nothing, so a single-tier stack adds
                # no events and stays byte-identical to the flat path.
                yield from self._bill_kv_movement()
            if self.prefilling:
                yield sim.timeout(self._prefill_chunk_seconds())
                self._advance_prefill(optimistic)
                self._retire_finished()
                progressed = True
            if self.running:
                if optimistic:
                    self._resolve_overflow()
                if self.running:
                    if self.tiered:
                        # Pull spilled KV back into top-tier headroom (the
                        # policy may decline) and bill the promotions before
                        # the iteration they accelerate.
                        self.tracker.promote_for_decode(self.running)
                        yield from self._bill_kv_movement()
                    yield sim.timeout(self._iteration_seconds())
                    for request in self.running:
                        request.tokens_generated += 1
                        if optimistic:
                            self.tracker.update(request)
                    # Every running request grew by one token.
                    self._running_context_tokens += len(self.running)
                    self._retire_finished()
                progressed = True
            if progressed:
                continue
            # Nothing active and nothing admitted: either the engine is
            # genuinely idle until the next arrival, or admission is stuck.
            if self.waiting:
                raise SchedulingError(
                    f"policy {self.policy.name!r} admitted nothing with "
                    f"{len(self.waiting)} requests waiting on node "
                    f"{self.node.name!r} (starvation)"
                )
            if self.pending:
                yield sim.timeout(self.pending[0].arrival_time - sim.now)
                continue
            if self._scale_down:
                # The graceful drain just emptied: nothing admitted, queued,
                # or pending -- go DOWN as a spare instead of exiting.
                self._complete_scale_down()
                continue
            if self._arrivals_done:
                self._finalize()
                return
            # Idle with the arrival stream still open: park until the
            # dispatcher routes us work (or declares the stream done).
            self._wake = sim.event(f"{self.node.name}.wake")
            yield self._wake

    # --- chunked prefill -------------------------------------------------------

    def _chunk_tokens(self, request: ServingRequest) -> int:
        """Prefill tokens ``request`` processes in the current round."""
        remaining = request.prefill_remaining_tokens
        if self.node.prefill_chunk_tokens is None:
            return remaining
        return min(self.node.prefill_chunk_tokens, remaining)

    def _prefill_chunk_seconds(self) -> float:
        longest = max(self._chunk_tokens(r) for r in self.prefilling)
        # The slowdown multiplier is 1.0 outside a slow-fault window, and
        # x * 1.0 is bitwise x, so the fault-free schedule is unchanged.
        return (
            self.node.step_time.prefill_seconds(len(self.prefilling), longest)
            * self._slow_factor
        )

    def _advance_prefill(self, optimistic: bool) -> None:
        """Credit one chunk to every prefilling request; promote completers.

        Completing a prefill emits the request's next output token (the
        forward pass over the context produces the following token's
        logits): the first token for a fresh admission, the resumption
        token for a preempted readmission.  Under optimistic accounting
        the emitted token is re-marked immediately, so the overflow check
        before the next decode iteration sees the true ledger, not one
        stale by a token per promotion.
        """
        for request in list(self.prefilling):
            chunk = self._chunk_tokens(request)
            request.prefill_tokens_done += chunk
            self._outstanding_tokens -= chunk
            if request.prefill_remaining_tokens == 0:
                if request.first_token_time is None:
                    request.first_token_time = self.sim.now
                request.tokens_generated += 1
                if optimistic:
                    self.tracker.update(request)
                self.prefilling.remove(request)
                self.running.append(request)
                self._running_context_tokens += request.context_tokens

    # --- preemption ------------------------------------------------------------

    def _resolve_overflow(self) -> None:
        """Preempt until the next decode iteration's KV growth fits.

        The next iteration appends one token per running request; while
        that projected growth overflows the budget, the youngest admitted
        request (latest *re*admission, ties broken by id -- prefilling
        admissions are the youngest of all) is evicted
        recompute-on-readmit: its reservation is released, its KV and
        partial prefill progress are dropped, and it rejoins the *front*
        of the waiting queue so it resumes before never-admitted work.
        Evicting youngest-first keeps the oldest requests' caches intact,
        bounding the recompute loss to the work least progressed.
        """
        while True:
            growth = sum(self.tracker.growth_bytes(r) for r in self.running)
            if self.tracker.fits_bytes(growth):
                return
            candidates = self.running + self.prefilling
            if len(candidates) <= 1:
                raise SchedulingError(
                    f"KV budget ({self.node.budget.description}) cannot absorb "
                    "one decode token of the sole admitted request; preemption "
                    "cannot help -- the budget is too small for this workload"
                )
            victim = max(
                candidates, key=lambda r: (r.last_admitted_time, r.request_id)
            )
            in_running = victim in self.running
            (self.running if in_running else self.prefilling).remove(victim)
            self.tracker.release(victim)
            if in_running:
                dropped = victim.context_tokens
                self._running_context_tokens -= dropped
            else:
                dropped = victim.prefill_tokens_done
            # The dropped prefill credit is owed again; the victim rejoins
            # the queue at its final-context commitment.
            self._outstanding_tokens += victim.prefill_tokens_done
            self._queued_kv_bytes += self._final_kv_bytes(victim)
            victim.record_preemption(dropped)
            self.waiting.appendleft(victim)

    # --- timing helpers --------------------------------------------------------

    def _iteration_seconds(self) -> float:
        if self._sanitize:
            self._check_load_ledgers(running_only=True)
        running = self.running
        if self.policy.padded:
            # Padded execution: every slot of the formed batch pays for the
            # longest live context, even after its own request finished.
            batch = max(self._batch_slots, len(running))
            context = max(r.context_tokens for r in running)
        else:
            batch = len(running)
            context = round(self._running_context_tokens / batch)
        seconds = (
            self.node.step_time.step_seconds(batch, max(1, context))
            * self._slow_factor
        )
        if self.tiered:
            # Offloaded attention: KV resident below the compute tier is
            # re-read at the holding tier's near-storage rate.  Zero spill
            # adds nothing, so fully-resident batches are untouched.
            extra = self.tracker.spill_read_seconds(running, self.node.step_time)
            if extra > 0.0:
                seconds += extra * self._slow_factor
        return seconds

    def _bill_kv_movement(self):
        """Yield one timeout for accumulated tier transfers (tiered only).

        Demotions and promotions accumulate seconds on the tracker; this
        drains the bill into a single simulated wait so all KV movement is
        paid through the DES.  No movement yields nothing, keeping the
        event sequence identical to a flat drain.
        """
        seconds = self.tracker.consume_transfer_seconds()
        if seconds > 0.0:
            yield self.sim.timeout(seconds * self._slow_factor)

    def _retire_finished(self) -> None:
        for request in [
            r for r in self.running if r.tokens_generated >= r.output_tokens
        ]:
            request.completion_time = self.sim.now
            self.tracker.release(request)
            self.running.remove(request)
            self._outstanding_tokens -= (
                request.final_context_tokens - request.prefill_tokens_done
            )
            self._committed_kv_bytes -= self._final_kv_bytes(request)
            self._running_context_tokens -= request.context_tokens
            if self.driver is not None:
                self.driver.note_finished(request)
