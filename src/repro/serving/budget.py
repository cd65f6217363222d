"""KV-capacity budgets for admission control.

Reserve-mode admission takes a request only when the KV cache it will have
grown by its final token still fits the serving system's cache home;
optimistic admission charges just the current footprint and relies on
preemption (see :mod:`repro.serving.engine`) to resolve overflow.  The
budget is derived from the same placement rules
:mod:`repro.analysis.capacity` applies to single measurements:

* DRAM-resident caches (``FLEX(DRAM)``-style) get the usable host DRAM left
  after the OS reserve and DRAM-resident weights, deflated by the pinned
  staging/double-buffering overhead factor;
* storage- and NSP-resident caches get the aggregate flash capacity of the
  drive array, minus weights for >100B models whose weights live on flash.

The :class:`BudgetTracker` ledger here is *flat*: one capacity number, no
distinction between where within the cache home a request's bytes live.
It counts whole bytes: the total, its peak and every entry are integers
(a request's KV is its context times the model's per-token KV size, an
integer), so every sum is exact and the sanitizer compares the ledger
with ``==``.  The configured capacity stays a ``float``; the tracker
compares the ledger with its floor, which decides exactly as the float
would.  Under optimistic admission the engine
makes one ledger call per decode iteration (or per coast of several),
and it costs O(1) whatever the batch size: :meth:`BudgetTracker.update`
over the whole running batch adds the steps times the batch size times
the per-token KV size (computed once, since ``kv_cache_bytes`` is linear
in context) to the running total and advances a decode-step counter, and
each re-marked entry is derived from that counter -- its bytes at its
last explicit re-mark plus one token per step since, which is its
context's bytes.

Nodes configured with a KV tier stack swap in
:class:`~repro.serving.kvtiers.TieredBudgetTracker`, which keeps this
ledger's arithmetic byte-for-byte (the flat budget becomes the stack
total) while additionally tracking per-tier residency, demotion/promotion
traffic, and spilled-decode read time.  The engine never asks which one
it holds: this ledger answers the tier interface as the one tier it is,
with nothing to move, promote, read below the top or report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

from repro.analysis.capacity import (
    DRAM_RESERVE_FRACTION,
    KV_OVERHEAD_FACTOR,
    KVPlacement,
    WeightPlacement,
)
from repro.analysis.sanitizer import SanitizerError
from repro.baselines.base import InferenceSystem
from repro.errors import SchedulingError
from repro.models.config import ModelConfig
from repro.serving.request import ServingRequest

#: Fraction of the raw cache home kept free for metadata, page-alignment
#: padding, and (on flash) over-provisioning headroom.
CAPACITY_HEADROOM_FRACTION = 0.10


@dataclass(frozen=True)
class CapacityBudget:
    """Byte budget the sum of admitted requests' final KV caches must fit."""

    kv_capacity_bytes: float
    description: str = ""

    def __post_init__(self) -> None:
        # A NaN fails both comparisons, so it is refused with infinities.
        if not 0 < self.kv_capacity_bytes < math.inf:
            raise SchedulingError(
                f"KV budget ({self.description or 'unspecified home'}) of "
                f"{self.kv_capacity_bytes!r} bytes: the cache home needs a "
                "finite, positive capacity to hold any request"
            )


def capacity_budget_for(system: InferenceSystem) -> CapacityBudget:
    """Derive the admission budget from a system's placement and hardware."""
    hardware = system.hardware_config()
    model = system.model
    if system.kv_placement is KVPlacement.DRAM:
        usable = hardware.host_dram_bytes * (1.0 - DRAM_RESERVE_FRACTION)
        if system.weight_placement() is WeightPlacement.DRAM:
            usable -= model.weight_bytes() * 1.1  # same pinning slack as planning
        usable /= KV_OVERHEAD_FACTOR
        home = "host DRAM"
    else:
        usable = (
            hardware.n_conventional_ssds
            * hardware.conventional_ssd_spec.capacity_bytes
            + hardware.n_smartssds * hardware.smartssd_flash_spec.capacity_bytes
        )
        if system.weight_placement() is WeightPlacement.STORAGE:
            usable -= model.weight_bytes()
        home = "flash array"
    usable *= 1.0 - CAPACITY_HEADROOM_FRACTION
    return CapacityBudget(
        kv_capacity_bytes=usable,
        description=f"{system.name} KV cache in {home}",
    )


@dataclass
class BudgetTracker:
    """Running reservation ledger against a :class:`CapacityBudget`.

    Two admission accountings share the ledger:

    * *reserve* -- requests hold their **final**-context KV bytes from
      admission to completion (:meth:`reserve`), so in-flight growth can
      never burst past the budget;
    * *optimistic* -- requests hold only their **current**-context bytes
      (:meth:`occupy`), re-marked once per decode iteration (or coast) by
      one O(1) :meth:`update` call over the whole running batch; overflow is
      possible by construction and the scheduler resolves it by
      preempting the youngest request before the step that would burst
      (the batch size times :attr:`token_bytes` prices that check).

    ``peak_reserved_bytes`` lets tests assert the budget invariant held
    for a whole drain under either accounting.

    With ``sanitize`` on (sanitized drains set it from their simulator)
    every ledger movement is conservation-checked, exactly (the ledger
    counts whole bytes): occupied bytes may never go negative, the
    running total must equal the sum of the entries and every re-marked
    entry its request's
    :meth:`~repro.serving.request.ServingRequest.kv_current_bytes` (the
    per-request reference the step counter stands in for), and
    :meth:`assert_drained` verifies the ledger is empty -- every
    reservation released, the total back at zero -- at drain end.
    Sanitized trackers also stamp each admitted request's
    :attr:`~repro.serving.request.ServingRequest.kv_holder` with ``owner``
    (the node name, for per-node trackers) so a migrated request admitted
    elsewhere before the dead node released its bytes is caught as a
    ``migration-kv-release`` violation instead of silently double-counting
    KV across the fleet.
    """

    #: Whether routers read the top tier apart from the whole ledger (never
    #: here: they read one tier's headroom as the committed headroom).
    routers_read_top_tier = False
    #: Extra decode seconds spilled-attention reads cost (none here).
    spilled_decode_seconds = 0.0

    budget: CapacityBudget
    model: ModelConfig
    reserved_bytes: int = 0
    peak_reserved_bytes: int = 0
    #: Entry bytes per request as of its admission or last explicit re-mark.
    _held: dict[int, int] = field(default_factory=dict)
    #: Re-marked (growing) entries: the decode-step count at their last
    #: explicit re-mark; each such entry holds ``_held`` plus
    #: :attr:`token_bytes` per decode step since (see :meth:`update`).
    _marks: dict[int, int] = field(default_factory=dict)
    #: Decode steps :meth:`update` has applied to the whole re-marked set.
    _steps: int = 0
    sanitize: bool = False
    #: Display name of the ledger's owner (node name in cluster drains);
    #: used only for kv-holder provenance and error messages.
    owner: str = ""
    #: KV bytes one token of context holds.  ``kv_cache_bytes`` is linear
    #: in context, so a request's current bytes are its context times this
    #: and every generated token appends exactly this much.
    token_bytes: int = field(init=False, repr=False, default=0)
    #: The budget in whole bytes.  The ledger is an integer, and an integer
    #: is at most the capacity exactly when it is at most its floor, so
    #: every check compares two integers.
    capacity_bytes: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        self.token_bytes = self.model.kv_cache_bytes(1, 1)
        self.capacity_bytes = math.floor(self.budget.kv_capacity_bytes)

    def fits(self, request: ServingRequest, extra_bytes: int = 0) -> bool:
        """Whether a final-context reservation stays within budget.

        ``extra_bytes`` accounts for co-admitted requests whose reservations
        are decided but not yet recorded (the policies' admission loops).
        """
        return self.fits_bytes(request.kv_reservation_bytes(self.model), extra_bytes)

    def fits_bytes(self, need: int, extra_bytes: int = 0) -> bool:
        """Whether holding ``need`` more bytes stays within budget."""
        return self.reserved_bytes + extra_bytes + need <= self.capacity_bytes

    def _record(self, request: ServingRequest, need: int) -> None:
        if self.reserved_bytes + need > self.capacity_bytes:
            raise SchedulingError(
                f"request {request.request_id} overcommits the KV budget "
                f"({self.budget.description})"
            )
        if request.request_id in self._held:
            raise SchedulingError(f"request {request.request_id} reserved twice")
        if self.sanitize:
            if request.kv_holder is not None:
                raise SanitizerError(
                    f"request {request.request_id} admitted on "
                    f"{self.owner or self.budget.description!r} while its KV "
                    f"bytes are still held on {request.kv_holder!r}; a "
                    "migration must release the dead node's ledger before "
                    "re-admission",
                    invariant="migration-kv-release",
                    request_id=request.request_id,
                )
            request.kv_holder = self.owner or self.budget.description
        self._held[request.request_id] = need
        self.reserved_bytes += need
        self.peak_reserved_bytes = max(self.peak_reserved_bytes, self.reserved_bytes)

    def reserve(self, request: ServingRequest) -> None:
        """Record a final-context admission; refuses to overcommit."""
        self._record(request, request.kv_reservation_bytes(self.model))

    def occupy(self, request: ServingRequest) -> None:
        """Record an optimistic admission at the post-prefill footprint.

        The held figure covers the context the prefill pass is about to
        build (prompt plus any previously generated tokens for a preempted
        readmission) *and* the token it emits on completion, so promotion
        out of prefill never moves the ledger past what admission checked;
        decode growth is re-marked by :meth:`update`.
        """
        self._record(request, request.kv_admission_bytes(self.model))

    def update(self, *requests: ServingRequest, steps: int = 1) -> list[int]:
        """Re-mark occupied requests at their (grown) current contexts.

        The decode step passes its whole running batch.  When the
        arguments are exactly the ledger's re-marked entries -- as many of
        them, and a lone argument one of them -- the call is a decode step:
        every re-marked entry is one token longer than at its previous
        re-mark, so the running total moves by the batch size times
        :attr:`token_bytes` and a step counter ticks, in O(1); each entry
        is derived from the counter (:meth:`_held_now`).  ``steps`` lands
        that many decode steps in the one call (a coasting engine's wake):
        the counter moves by ``steps`` and the total by ``steps`` times the
        step's growth.  Any other call -- prefill completion's one request,
        a first re-mark after admission -- re-marks each request explicitly
        at ``context_tokens * token_bytes``, in argument order, and takes
        no ``steps``.  The figures are whole bytes, so either way the
        running total and its peak equal re-marking one request, one step,
        at a time (the total only grows, so the peak is its last value).
        Returns how many bytes each entry grew by, in argument order.
        """
        if self._is_step(requests):
            n = len(requests)
            self._steps += steps
            grown = steps * self.token_bytes
            reserved = self.reserved_bytes + n * grown
            self.reserved_bytes = reserved
            if reserved > self.peak_reserved_bytes:
                self.peak_reserved_bytes = reserved
            growth = [grown] * n
        elif steps != 1:
            raise SchedulingError(
                f"a {steps}-step re-mark must name the whole decode batch"
            )
        else:
            growth = self._remark_each(requests)
        if self.sanitize and requests:
            self._check_remarked(requests)
        return growth

    def _is_step(self, requests: tuple[ServingRequest, ...]) -> bool:
        """Whether an :meth:`update` call is a decode step: it names as many
        requests as there are re-marked entries, and a lone request is one."""
        n = len(requests)
        marks = self._marks
        return bool(n) and n == len(marks) and (
            n > 1 or requests[0].request_id in marks
        )

    def _remark_each(self, requests: tuple[ServingRequest, ...]) -> list[int]:
        """Explicitly re-mark each request at its current context, in order."""
        held = self._held
        marks = self._marks
        steps = self._steps
        token_bytes = self.token_bytes
        reserved = self.reserved_bytes
        peak = self.peak_reserved_bytes
        growth = []
        for request in requests:
            request_id = request.request_id
            try:
                before = held[request_id]
            except KeyError:
                self.reserved_bytes, self.peak_reserved_bytes = reserved, peak
                raise SchedulingError(
                    f"request {request_id} updated without a reservation"
                ) from None
            mark = marks.get(request_id)
            if mark is not None:
                before += token_bytes * (steps - mark)
            now = request.context_tokens * token_bytes
            held[request_id] = now
            marks[request_id] = steps
            delta = now - before
            reserved += delta
            if reserved > peak:
                peak = reserved
            growth.append(delta)
        self.reserved_bytes = reserved
        self.peak_reserved_bytes = peak
        return growth

    def _held_now(self, request_id: int) -> int:
        """Bytes ``request_id``'s entry holds now (``KeyError`` if none)."""
        held = self._held[request_id]
        mark = self._marks.get(request_id)
        if mark is not None:
            held += self.token_bytes * (self._steps - mark)
        return held

    def release_share(self, request: ServingRequest, members: int = 1) -> None:
        """Retired: every ledger entry is one request, so there is no share.

        Kept only because perfbench's tracer looks this name up in the
        class body; it goes once the tracer stops wrapping it.
        """
        raise SchedulingError("KV ledger entries are whole requests; use release()")

    def growth_bytes(self, request: ServingRequest) -> int:
        """Bytes the next generated token appends to ``request``'s cache.

        Constant: ``kv_cache_bytes`` is linear in context, so every token of
        every request appends :attr:`token_bytes`, and a decode step's
        growth is the batch size times that.
        """
        return self.token_bytes

    def release(self, request: ServingRequest) -> None:
        """Return a completed request's reservation to the pool."""
        try:
            need = self._held_now(request.request_id)
        except KeyError:
            raise SchedulingError(
                f"request {request.request_id} released without a reservation"
            ) from None
        del self._held[request.request_id]
        self._marks.pop(request.request_id, None)
        self.reserved_bytes -= need
        if self.sanitize:
            request.kv_holder = None
            self._check_occupancy(request.request_id)

    # --- the tier interface, answered as one tier -------------------------------

    def promote_for_decode(self, running: list[ServingRequest]) -> None:
        """Nothing to promote: no byte lives below the one tier."""

    def consume_transfer_seconds(self) -> float:
        """No movement to bill."""
        return 0.0

    def spill_read_seconds(self, running: list[ServingRequest]) -> float:
        """No spilled reads to bill for a decode step."""
        return 0.0

    def coast_reads(self, running, grows: bool) -> Iterator[float]:
        """No spilled reads for any coasted step: only the budget stops it."""
        return repeat(0.0)

    def decode_leaves_top_alone(self, grows: bool) -> bool:
        """Always: routers never read the one tier apart from the ledger."""
        return True

    def check_coast(self, running: list[ServingRequest]) -> None:
        """Nothing past :meth:`update`'s own checks: no tier could move."""

    def tier_reports(self) -> tuple:
        """No per-tier reports: a flat node reports ``kv_tiers == ()``."""
        return ()

    # --- sanitizer invariants ---------------------------------------------------

    def _check_occupancy(self, request_id: int) -> None:
        """Occupied bytes may never go negative."""
        if self.reserved_bytes < 0:
            raise SanitizerError(
                f"KV ledger went negative ({self.reserved_bytes} bytes, "
                f"budget {self.budget.description!r})",
                invariant="budget-conservation",
                request_id=request_id,
            )

    def _check_remarked(self, requests: tuple[ServingRequest, ...]) -> None:
        """After a re-mark, the running total equals the sum of every entry
        and each re-marked entry its request's
        :meth:`~repro.serving.request.ServingRequest.kv_current_bytes`."""
        entries = sum(self._held_now(request_id) for request_id in self._held)
        if self.reserved_bytes != entries:
            raise SanitizerError(
                f"KV ledger total of {self.reserved_bytes} bytes differs "
                f"from its entries' sum of {entries} after a re-mark "
                f"(budget {self.budget.description!r})",
                invariant="budget-conservation",
            )
        for request in requests:
            held = self._held_now(request.request_id)
            expected = request.kv_current_bytes(self.model)
            if held != expected:
                raise SanitizerError(
                    f"request {request.request_id} re-marked at {held} "
                    f"bytes but its context holds {expected}",
                    invariant="budget-conservation",
                    request_id=request.request_id,
                )
        self._check_occupancy(requests[-1].request_id)

    def assert_drained(self, context: str = "") -> None:
        """Conservation at drain end: no entry left, the total at zero."""
        where = f" on {context}" if context else ""
        if self._held:
            ids = sorted(self._held)
            shown = ", ".join(str(i) for i in ids[:5])
            if len(ids) > 5:
                shown += f", ... ({len(ids) - 5} more)"
            raise SanitizerError(
                f"{len(ids)} KV reservation(s) never released{where}: "
                f"request(s) {shown}",
                invariant="budget-conservation",
                request_id=ids[0],
            )
        if self.reserved_bytes:
            raise SanitizerError(
                f"KV ledger residue of {self.reserved_bytes} bytes after "
                f"all reservations were released{where}",
                invariant="budget-conservation",
            )
