"""Batch-formation policies for the serving scheduler.

The scheduler consults its policy at every scheduling point (drain start and
each iteration boundary) with the waiting queue, the active set (running
plus still-prefilling requests), and the admission ledger; the policy
returns the requests to admit *now*.  Two families exist:

batch-synchronous (``padded = True``)
    :class:`FCFSFixedBatch` and :class:`LengthBucketedBatch` admit a whole
    batch only when the engine is idle and keep its slots (and its padded
    maximum context) occupied until the batch's last request finishes --
    the FlexGen-style fixed-batch execution the paper evaluates.

iteration-level (``padded = False``)
    :class:`ContinuousBatching` tops the active set back up at every
    iteration boundary, admitting FCFS while the slot cap and the KV
    capacity budget allow -- vLLM-style continuous batching.  Its
    ``admission`` mode picks the budget accounting: ``"reserve"`` holds
    each request's final-context KV up front (no preemption ever needed),
    ``"optimistic"`` charges only the current footprint and lets the
    scheduler preempt the youngest request when decode growth overflows.

Every policy also answers :meth:`SchedulingPolicy.full`: whether its
``admit`` would return nothing for the given active set whatever is
waiting.  Admission starts with that test, so the two cannot drift, and
the engine relies on it: while the policy is full and no request can
retire, a decode iteration boundary changes nothing an admission could
see, so the engine runs a full batch to its next finisher in one
simulator wake instead of one wake per iteration.  The base answer is
``False`` -- a custom policy never lets the engine skip its boundaries.
"""

from __future__ import annotations

import abc
from collections import deque

from repro.errors import ConfigurationError
from repro.serving.budget import BudgetTracker
from repro.serving.request import ServingRequest

#: Valid admission accountings for iteration-level policies.
ADMISSION_MODES = ("reserve", "optimistic")


class SchedulingPolicy(abc.ABC):
    """Decides which waiting requests join the engine at a scheduling point."""

    name: str = "abstract"
    #: Batch-synchronous policies pad every iteration to the formed batch's
    #: size and maximum context; iteration-level policies pay only for live
    #: requests and their mean context.
    padded: bool = True
    #: Budget accounting the scheduler applies to this policy's admissions;
    #: only iteration-level policies support ``"optimistic"``.
    admission: str = "reserve"

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ConfigurationError("policy batch size must be >= 1")
        self.batch_size = batch_size

    def full(self, active: list[ServingRequest]) -> bool:
        """Whether :meth:`admit` returns nothing for ``active``, whatever waits.

        Only the active set may decide it (not the waiting queue or the
        ledger): the engine asks once and then skips every iteration
        boundary up to the batch's next retirement, during which the active
        set cannot change.  ``False`` is always safe; a policy that
        overrides this must begin :meth:`admit` with the same test.
        """
        return False

    @abc.abstractmethod
    def admit(
        self,
        waiting: "deque[ServingRequest]",
        active: list[ServingRequest],
        tracker: BudgetTracker,
    ) -> list[ServingRequest]:
        """Pop and return the requests to admit now (possibly none).

        ``active`` is every admitted-and-unfinished request (running
        decodes plus still-prefilling admissions).  Implementations must
        remove admitted requests from ``waiting`` and only return requests
        the ``tracker`` says fit.
        """

    def _admission_bytes(self, request: ServingRequest, tracker: BudgetTracker) -> int:
        """Bytes an admission must fit under this policy's accounting."""
        if self.admission == "optimistic":
            return request.kv_admission_bytes(tracker.model)
        return request.kv_reservation_bytes(tracker.model)

    def _take_fitting(
        self,
        waiting: "deque[ServingRequest]",
        tracker: BudgetTracker,
        limit: int,
    ) -> list[ServingRequest]:
        """FCFS-pop up to ``limit`` head requests that fit the budget.

        Stops at the first request that does not fit (head-of-line order is
        preserved; skipping ahead would starve large requests forever).
        """
        admitted: list[ServingRequest] = []
        ahead = 0
        while waiting and len(admitted) < limit:
            need = self._admission_bytes(waiting[0], tracker)
            if not tracker.fits_bytes(need, extra_bytes=ahead):
                break
            admitted.append(waiting.popleft())
            ahead += need
        return admitted


class FCFSFixedBatch(SchedulingPolicy):
    """Arrival-order fixed batches, run to completion before the next forms.

    Heterogeneous batches pay for their longest member twice over: every
    iteration is padded to the longest context, and short requests' slots
    stay occupied (idle) until the longest request finishes.
    """

    name = "fcfs-fixed"
    padded = True

    def full(self, active):
        return bool(active)

    def admit(self, waiting, active, tracker):
        if self.full(active):
            return []
        return self._take_fitting(waiting, tracker, self.batch_size)


class LengthBucketedBatch(SchedulingPolicy):
    """Fixed batches drawn from a single request class at a time.

    Batches are homogeneous in shape (one Short/Medium/Long bucket), which
    removes padding waste and straggling inside a batch, but execution is
    still batch-synchronous.  Buckets are served in the order of their
    oldest waiting member's arrival time (ties broken by request id, then
    bucket name), so no class starves even when arrival processes or
    preemption re-queueing leave the waiting queue out of id order.
    """

    name = "length-bucketed"
    padded = True

    def full(self, active):
        return bool(active)

    def admit(self, waiting, active, tracker):
        if self.full(active) or not waiting:
            return []
        # Pick the bucket whose oldest member has waited longest.  Keyed on
        # arrival time (not request id): with online arrival processes, ids
        # are assigned at queue build time and need not be arrival-ordered.
        oldest: dict[str, tuple[float, int]] = {}
        for req in waiting:
            age = (req.arrival_time, req.request_id)
            name = req.request_class.name
            if name not in oldest or age < oldest[name]:
                oldest[name] = age
        bucket = min(oldest.items(), key=lambda item: (item[1], item[0]))[0]
        admitted: list[ServingRequest] = []
        ahead = 0
        kept: deque[ServingRequest] = deque()
        while waiting:
            req = waiting.popleft()
            if req.request_class.name == bucket and len(admitted) < self.batch_size:
                need = req.kv_reservation_bytes(tracker.model)
                if tracker.fits_bytes(need, extra_bytes=ahead):
                    admitted.append(req)
                    ahead += need
                    continue
            kept.append(req)
        waiting.extend(kept)
        return admitted


class ContinuousBatching(SchedulingPolicy):
    """Iteration-level admission with capacity-aware backpressure.

    At every iteration boundary the active set is topped back up to
    ``batch_size`` slots, admitting FCFS while each candidate fits the
    device budget under the selected accounting:

    ``admission="reserve"`` (default)
        A candidate must fit at its **final** KV footprint.  Admitted work
        is never given back, so the engine can run an offline drain with no
        preemption machinery -- at the cost of rejecting requests the
        device could actually have served for most of their lifetime.

    ``admission="optimistic"``
        A candidate must fit only at its **current** footprint.  The engine
        packs more concurrent requests, and when decode growth overflows
        the budget the scheduler evicts the youngest request
        (recompute-on-readmit); the preemption and wasted-prefill columns
        of the report price that gamble.
    """

    padded = False

    def __init__(self, batch_size: int, admission: str = "reserve") -> None:
        super().__init__(batch_size)
        if admission not in ADMISSION_MODES:
            raise ConfigurationError(
                f"unknown admission mode {admission!r}; "
                f"expected one of {', '.join(ADMISSION_MODES)}"
            )
        self.admission = admission
        self.name = (
            "continuous" if admission == "reserve" else "continuous-optimistic"
        )

    def full(self, active):
        return len(active) >= self.batch_size

    def admit(self, waiting, active, tracker):
        if self.full(active):
            return []
        return self._take_fitting(waiting, tracker, self.batch_size - len(active))


def default_policies(
    batch_size: int = 16, admission: str = "reserve"
) -> list[SchedulingPolicy]:
    """The three evaluated policies at a common slot count.

    ``admission`` selects the continuous-batching accounting (the
    batch-synchronous policies always reserve).
    """
    return [
        FCFSFixedBatch(batch_size),
        LengthBucketedBatch(batch_size),
        ContinuousBatching(batch_size, admission=admission),
    ]
