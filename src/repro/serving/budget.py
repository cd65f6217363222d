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
Nodes configured with a KV tier stack swap in
:class:`~repro.serving.kvtiers.TieredBudgetTracker`, which keeps this
ledger's arithmetic byte-for-byte (the flat budget becomes the stack
total) while additionally tracking per-tier residency, demotion/promotion
traffic, and spilled-decode read time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.kv_capacity_bytes <= 0:
            raise SchedulingError(
                f"empty KV budget ({self.description or 'unspecified home'}); "
                "the cache home cannot hold any request"
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
      (:meth:`occupy`), re-marked after every generated token
      (:meth:`update`); overflow is possible by construction and the
      scheduler resolves it by preempting the youngest request before the
      step that would burst (:meth:`growth_bytes` prices that check).

    ``peak_reserved_bytes`` lets tests assert the budget invariant held
    for a whole drain under either accounting.

    With ``sanitize`` on (sanitized drains set it from their simulator)
    every ledger movement is conservation-checked: occupied bytes may
    never go negative, and :meth:`assert_drained` verifies the ledger is
    empty -- every reservation released, residue within float tolerance --
    at drain end.  Sanitized trackers also stamp each admitted request's
    :attr:`~repro.serving.request.ServingRequest.kv_holder` with ``owner``
    (the node name, for per-node trackers) so a migrated request admitted
    elsewhere before the dead node released its bytes is caught as a
    ``migration-kv-release`` violation instead of silently double-counting
    KV across the fleet.
    """

    budget: CapacityBudget
    model: ModelConfig
    reserved_bytes: float = 0.0
    peak_reserved_bytes: float = 0.0
    _held: dict[int, float] = field(default_factory=dict)
    sanitize: bool = False
    #: Display name of the ledger's owner (node name in cluster drains);
    #: used only for kv-holder provenance and error messages.
    owner: str = ""

    def _conservation_tolerance(self) -> float:
        """Float-accumulation slack: ledger adds/removes large byte figures."""
        return 1e-9 * self.budget.kv_capacity_bytes + 1e-6

    def fits(self, request: ServingRequest, extra_bytes: float = 0.0) -> bool:
        """Whether a final-context reservation stays within budget.

        ``extra_bytes`` accounts for co-admitted requests whose reservations
        are decided but not yet recorded (the policies' admission loops).
        """
        return self.fits_bytes(request.kv_reservation_bytes(self.model), extra_bytes)

    def fits_bytes(self, need: float, extra_bytes: float = 0.0) -> bool:
        """Whether holding ``need`` more bytes stays within budget."""
        return (
            self.reserved_bytes + extra_bytes + need
            <= self.budget.kv_capacity_bytes
        )

    def _record(self, request: ServingRequest, need: float) -> None:
        if self.reserved_bytes + need > self.budget.kv_capacity_bytes:
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

    def update(self, request: ServingRequest) -> None:
        """Re-mark an occupied request at its (grown) current context."""
        try:
            held = self._held[request.request_id]
        except KeyError:
            raise SchedulingError(
                f"request {request.request_id} updated without a reservation"
            ) from None
        now = request.kv_current_bytes(self.model)
        self._held[request.request_id] = now
        self.reserved_bytes += now - held
        self.peak_reserved_bytes = max(self.peak_reserved_bytes, self.reserved_bytes)
        if self.sanitize:
            self._check_occupancy(request.request_id)

    def release_share(self, request: ServingRequest, members: int = 1) -> None:
        """Retired: every ledger entry is one request, so there is no share.

        Kept only because perfbench's tracer looks this name up in the
        class body; it goes once the tracer stops wrapping it.
        """
        raise SchedulingError("KV ledger entries are whole requests; use release()")

    def growth_bytes(self, request: ServingRequest) -> float:
        """Bytes the next generated token appends to ``request``'s cache."""
        return float(
            self.model.kv_cache_bytes(1, request.context_tokens + 1)
            - self.model.kv_cache_bytes(1, request.context_tokens)
        )

    def release(self, request: ServingRequest) -> None:
        """Return a completed request's reservation to the pool."""
        try:
            need = self._held.pop(request.request_id)
        except KeyError:
            raise SchedulingError(
                f"request {request.request_id} released without a reservation"
            ) from None
        self.reserved_bytes -= need
        if self.sanitize:
            request.kv_holder = None
            self._check_occupancy(request.request_id)

    # --- sanitizer invariants ---------------------------------------------------

    def _check_occupancy(self, request_id: int) -> None:
        """Occupied bytes may never go meaningfully negative."""
        if self.reserved_bytes < -self._conservation_tolerance():
            raise SanitizerError(
                f"KV ledger went negative ({self.reserved_bytes:.3f} bytes, "
                f"budget {self.budget.description!r})",
                invariant="budget-conservation",
                request_id=request_id,
            )

    def assert_drained(self, context: str = "") -> None:
        """Conservation at drain end: ledger empty, residue within tolerance."""
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
        if abs(self.reserved_bytes) > self._conservation_tolerance():
            raise SanitizerError(
                f"KV ledger residue of {self.reserved_bytes:.3f} bytes after "
                f"all reservations were released{where}",
                invariant="budget-conservation",
            )
