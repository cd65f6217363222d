"""Runtime simulation sanitizer: cheap invariant checks for the DES.

The repo's history names the bug classes that corrupt serving numbers
silently: lost wakeups (a process parked on an event nobody triggers),
event-heap time travel, and KV-ledger drift (an ``occupy()`` whose
``release()`` never lands).  The sanitizer turns each of these from a
"numbers look odd" investigation into a structured
:class:`SanitizerError` raised at the offending simulated time.

Enable it per simulator (``Simulator(sanitize=True)``) or process-wide via
the ``REPRO_SIM_SANITIZE=1`` environment variable (the test suite runs
with it on; the benchmark gates run with it off, and the ``off`` path is a
single predicate check per hook site so the gates stay honest).  The
checks are:

* **finite-delay** -- no callback may be scheduled a NaN/infinite delay
  away (a NaN timestamp silently corrupts the heap order invariant);
* **heap-monotonicity** -- the batch sweep may never produce a timestamp
  behind the simulated clock (the engine always rejects gross violations;
  the sanitizer makes the check exact);
* **callback-drain** -- a triggered event's callback list must be fully
  consumed by the trigger (nothing may re-arm waiters on a fired event);
* **lost-wakeup** -- when a drain exhausts the heap, no untriggered event
  may still hold registered waiters (the PR-1 deadlock class, caught even
  when the waiter is not a process the engine would fail);
* **budget-conservation** -- enforced by
  :class:`~repro.serving.budget.BudgetTracker`, whose ledger counts whole
  bytes, so every comparison is exact (occupied bytes never go negative;
  after a re-mark the running total equals the sum of the entries --
  each re-marked entry derived from the decode-step counter -- and every
  re-marked entry its request's ``kv_current_bytes``; every reservation
  is released by drain end, leaving a total of zero);
* **request-conservation** -- enforced at the end of every
  :class:`~repro.serving.cluster.ClusterScheduler` drain: one re-tally of
  the report's requests must give every request-derived figure of the
  report, and every request must have completed or been shed;
* **migration-conservation** -- at the same point: the migrations the
  requests counted must be the ones the dying nodes' engines counted;
* **tier-conservation** -- enforced by
  :class:`~repro.serving.kvtiers.TieredBudgetTracker` on tiered nodes,
  exactly on its whole-byte ledgers: per-tier occupancy never exceeds
  the tier's capacity and never goes negative; every request's tier
  residency (settled or accrued from the growth counters) sums to its
  flat-ledger entry; after each decode step every tier ledger equals its
  requests' summed residency and the decoding aggregate its growing
  requests' share; each step's per-tier spilled reads equal the
  per-request reference loop over the running batch, which must be
  exactly the decoding set (the one check with a float bound: a reserve
  entry reads a float share of its bytes); and releases -- including
  node-death migrations -- drain every tier the request touched;
* **load-ledger** -- enforced by
  :class:`~repro.serving.engine.NodeEngine`: every running load ledger
  the router-facing views and the decode step read (outstanding tokens,
  committed and queued KV bytes, running context) equals the sum
  re-computed from the engine's queues -- all four at each load probe,
  the running context at each decode step and coast start -- and is
  zero at drain end; a decode step or coast the retirement countdown
  skips has no finished request.

This module sits below the simulation layers on purpose: it imports only
:mod:`repro.errors`, so :mod:`repro.sim.engine` and
:mod:`repro.serving.budget` can both hook into it without cycles.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Event, Simulator

#: Environment variable that enables the sanitizer process-wide.
SANITIZE_ENV = "REPRO_SIM_SANITIZE"


def sanitize_enabled_by_env() -> bool:
    """Whether ``REPRO_SIM_SANITIZE`` asks for sanitized simulators."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in {"1", "true", "yes", "on"}


class SanitizerError(SimulationError):
    """A simulation invariant was violated.

    Carries the violated ``invariant`` name plus -- where the check knows
    them -- the offending simulated time and serving request id, so a
    failure inside a million-event drain points at the culprit instead of
    the symptom.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str,
        sim_time: float | None = None,
        request_id: int | None = None,
    ) -> None:
        context = [f"invariant={invariant}"]
        if sim_time is not None:
            context.append(f"sim_time={sim_time!r}")
        if request_id is not None:
            context.append(f"request_id={request_id}")
        super().__init__(f"[sanitizer] {message} ({', '.join(context)})")
        self.invariant = invariant
        self.sim_time = sim_time
        self.request_id = request_id


class SimSanitizer:
    """Per-simulator invariant state; installed by ``Simulator(sanitize=True)``.

    Holds strong references to every untriggered event that has waiters:
    those are exactly the events a drain-end check must be able to name,
    and they are removed the moment they trigger, so steady-state memory
    tracks the (small) set of genuinely pending waits.
    """

    __slots__ = ("_waiting",)

    def __init__(self) -> None:
        self._waiting: dict[int, "Event"] = {}

    # --- engine hooks -----------------------------------------------------------

    def check_schedule(self, now: float, delay: float) -> None:
        """finite-delay: reject NaN/inf delays before they enter the heap."""
        if not math.isfinite(delay):
            raise SanitizerError(
                f"scheduled a callback with non-finite delay {delay!r}",
                invariant="finite-delay",
                sim_time=now,
            )

    def check_batch_time(self, now: float, batch_time: float) -> None:
        """heap-monotonicity: the next batch may never run behind the clock."""
        if batch_time < now:
            raise SanitizerError(
                f"event heap produced batch time {batch_time!r} behind the "
                f"simulated clock",
                invariant="heap-monotonicity",
                sim_time=now,
            )

    def note_waiter(self, event: "Event") -> None:
        """Track an untriggered event that just gained a waiter."""
        self._waiting[id(event)] = event

    def note_triggered(self, event: "Event") -> None:
        """Drop a fired event from tracking; verify its callbacks drained."""
        self._waiting.pop(id(event), None)
        if event._callbacks is not None:
            raise SanitizerError(
                f"event {event.name!r} still holds registered callbacks "
                "after triggering",
                invariant="callback-drain",
                sim_time=event.sim.now,
            )

    def check_drained(self, sim: "Simulator") -> None:
        """lost-wakeup: after a full drain, nobody may still be waiting.

        Only conclusive when the heap holds no live entries -- an event
        with waiters *and* a pending trigger is simply not due yet, so the
        check skips itself while live work remains.
        """
        if not self._waiting:
            return
        for entry in sim._heap:
            callback = entry[2]
            if not getattr(callback, "cancelled", False):
                return
        names = sorted(
            event.name or type(event).__name__ for event in self._waiting.values()
        )
        shown = ", ".join(repr(n) for n in names[:5])
        if len(names) > 5:
            shown += f", ... ({len(names) - 5} more)"
        raise SanitizerError(
            f"{len(names)} event(s) still have registered waiters after the "
            f"drain exhausted the heap: {shown}",
            invariant="lost-wakeup",
            sim_time=sim.now,
        )
