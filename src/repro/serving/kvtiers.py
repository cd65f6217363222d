"""Per-node KV tier stacks: capacities, bandwidths, and offload policies.

The flat :class:`~repro.serving.budget.CapacityBudget` models one byte cap
per node, but the systems the ROADMAP names (InstInfer, HillInfer, the
CXL-PNM 1M-token work) all contend for a KV *hierarchy*: a small fast
compute tier (HBM) backed by progressively larger and slower homes (DRAM,
CXL, SmartSSD flash).  This module generalises the paper's spill-alpha --
one knob over one GPU<->SmartSSD boundary -- into a policy space over an
arbitrary tier stack:

:class:`KVTier` / :class:`TierStack`
    An ordered (top first) stack of tiers, each with a byte capacity and,
    below the top, the bandwidth KV bytes pay to cross into or out of the
    tier.  The stack's total capacity is the node's admission budget, so a
    single-tier stack is *byte-identical* to the flat budget (property-
    tested in ``tests/serving/test_kvtiers.py``).

:class:`TieredBudgetTracker`
    A :class:`~repro.serving.budget.BudgetTracker` whose total-byte ledger
    arithmetic is unchanged (admission, overflow, preemption, and release
    all see the flat figures) but which additionally keeps a per-tier
    occupancy ledger and a per-request residency map.  Demotion under
    top-tier admission pressure, promotion before decode, and the
    offloaded-attention read surcharge all bill through the engine's
    discrete-event simulation; initial placement is bookkeeping only (the
    prefill pass produces each tier's bytes in place).

Policies (:class:`TierPolicy`):

``lru`` -- :class:`LRUByRequest`
    Whole-request demotion, least-recently-admitted victim first: the
    requests that have sat in the batch longest yield their entire
    top-tier residency to incoming hot work, and spilled requests promote
    back before decoding when top-tier headroom allows.

``attention`` -- :class:`AttentionAwareDemotion`
    HillInfer-style partial demotion: each victim keeps a hot fraction of
    its KV (the recent window plus attention sinks, which dominate
    attention mass) top-resident and demotes only the cold remainder; a
    second pass takes the hot share too if pressure persists.

``static:ALPHA`` -- :class:`StaticSplit`
    The spill-alpha equivalent: every request statically places ``ALPHA``
    of its KV bytes below the top tier and never promotes -- decode pays
    the near-storage read rate for the spilled share on every iteration
    (via :meth:`~repro.serving.steptime.StepTimeModel.spill_read_seconds`),
    exactly the fig13 offloaded-attention regime.  ``static:0`` on a
    single-tier stack is the flat budget.

Spec grammars (CLI)::

    --kv-tiers hbm:40G,dram:200G:20G,ssd:3T:3G
    --kv-policy lru | attention[:HOT_FRACTION] | static:ALPHA

Capacities and bandwidths take optional K/M/G/T suffixes (powers of
1024); the first tier is the compute (top) tier and carries no bandwidth
-- movement bills at the *crossed* tier's bandwidth.

**Tier-conservation invariant** (sanitized drains): per-tier occupancy
never exceeds the tier's capacity and never goes negative, a request's
residency always sums to its flat-ledger entry, and releases -- including
node-death migrations -- drain every tier the request touched.  Violations
raise :class:`~repro.analysis.sanitizer.SanitizerError` with
``invariant="tier-conservation"``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.sanitizer import SanitizerError
from repro.errors import ConfigurationError, SchedulingError
from repro.serving.budget import BudgetTracker, CapacityBudget
from repro.serving.metrics import TierReport
from repro.serving.request import ServingRequest
from repro.serving.specs import spec_error, spec_float

KV_TIERS_GRAMMAR = (
    "NAME:CAP[,NAME:CAP:BW ...] (top tier first; K/M/G/T suffixes allowed)"
)
KV_POLICY_GRAMMAR = "lru | attention[:HOT_FRACTION] | static:ALPHA"

_UNIT_SUFFIXES = {
    "k": 1024.0,
    "m": 1024.0**2,
    "g": 1024.0**3,
    "t": 1024.0**4,
}


@dataclass(frozen=True)
class KVTier:
    """One tier of a node's KV hierarchy.

    ``bandwidth_bytes_per_s`` prices KV bytes crossing this tier's
    boundary -- demotion into it, promotion out of it, and the spilled
    attention reads decode pays while bytes live here.  The top (compute)
    tier is where attention runs, so it carries no crossing cost
    (``inf``).
    """

    name: str
    capacity_bytes: float
    bandwidth_bytes_per_s: float = math.inf

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("KV tier needs a name")
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"KV tier {self.name!r} needs a positive capacity "
                f"(got {self.capacity_bytes!r})"
            )
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError(
                f"KV tier {self.name!r} needs a positive bandwidth "
                f"(got {self.bandwidth_bytes_per_s!r})"
            )


@dataclass(frozen=True)
class TierStack:
    """An ordered KV tier hierarchy, top (compute) tier first."""

    tiers: tuple[KVTier, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        if not self.tiers:
            raise ConfigurationError("a KV tier stack needs at least one tier")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"duplicate KV tier names: {', '.join(dupes)}"
            )
        for tier in self.tiers[1:]:
            if math.isinf(tier.bandwidth_bytes_per_s):
                raise ConfigurationError(
                    f"KV tier {tier.name!r} sits below the compute tier and "
                    "needs a finite bandwidth to bill movement against"
                )

    @property
    def top(self) -> KVTier:
        """The compute tier attention reads from at full speed."""
        return self.tiers[0]

    @property
    def total_capacity_bytes(self) -> float:
        """Aggregate byte capacity -- the node's admission budget."""
        return sum(tier.capacity_bytes for tier in self.tiers)

    def capacity_budget(self, owner: str = "") -> CapacityBudget:
        """The flat admission budget this stack presents to the scheduler."""
        names = "/".join(tier.name for tier in self.tiers)
        where = f"{owner} " if owner else ""
        return CapacityBudget(
            kv_capacity_bytes=self.total_capacity_bytes,
            description=f"{where}KV tier stack [{names}]",
        )


def _spec_bytes(raw: str, what: str, spec: str) -> float:
    """Parse one byte figure of a tier spec, honouring K/M/G/T suffixes."""
    scale = 1.0
    if raw and raw[-1].lower() in _UNIT_SUFFIXES:
        scale = _UNIT_SUFFIXES[raw[-1].lower()]
        raw = raw[:-1]
    return spec_float(raw, what, KV_TIERS_GRAMMAR, spec) * scale


def parse_kv_tiers_spec(spec: str | None) -> TierStack | None:
    """Build a :class:`TierStack` from a CLI spec (``None`` passes through).

    Grammar: ``NAME:CAP[,NAME:CAP:BW ...]`` -- the first clause is the top
    (compute) tier and takes no bandwidth; every lower tier requires one.
    """
    if spec is None or not spec.strip():
        return None
    tiers: list[KVTier] = []
    for index, clause in enumerate(spec.split(",")):
        parts = clause.strip().split(":")
        if index == 0:
            if len(parts) != 2:
                raise spec_error(
                    "kv-tiers", KV_TIERS_GRAMMAR, spec,
                    reason="the top (compute) tier is NAME:CAP, no bandwidth",
                )
            name, cap = parts
            try:
                tiers.append(KVTier(name, _spec_bytes(cap, "kv-tiers", spec)))
            except ConfigurationError as exc:
                raise spec_error(
                    "kv-tiers", KV_TIERS_GRAMMAR, spec, reason=str(exc)
                ) from None
            continue
        if len(parts) != 3:
            raise spec_error(
                "kv-tiers", KV_TIERS_GRAMMAR, spec,
                reason="tiers below the top are NAME:CAP:BW",
            )
        name, cap, bandwidth = parts
        try:
            tiers.append(
                KVTier(
                    name,
                    _spec_bytes(cap, "kv-tiers", spec),
                    _spec_bytes(bandwidth, "kv-tiers", spec),
                )
            )
        except ConfigurationError as exc:
            raise spec_error(
                "kv-tiers", KV_TIERS_GRAMMAR, spec, reason=str(exc)
            ) from None
    try:
        return TierStack(tuple(tiers))
    except ConfigurationError as exc:
        raise spec_error(
            "kv-tiers", KV_TIERS_GRAMMAR, spec, reason=str(exc)
        ) from None


# --- policies ---------------------------------------------------------------------


class TierPolicy(abc.ABC):
    """Decides where KV bytes live in the stack and which bytes demote.

    The tracker owns the movement mechanics; a policy supplies three
    declared decisions (no runtime capability probing):

    * :meth:`placement_fraction` -- the share of an admission's (and each
      decode token's) bytes placed in the top tier, the rest cascading
      into lower tiers;
    * :meth:`demotion_fraction` -- the share of a victim's top-resident
      bytes one demotion pass takes (a second pass takes the rest when
      pressure persists);
    * :attr:`promotes` -- whether spilled bytes promote back into top-tier
      headroom before decode (static splits stay put and pay the
      near-storage read rate instead).

    Victim order is shared by every policy: least recently (re)admitted
    first, ties broken by request id -- the requests whose next tokens are
    furthest in the past are the coldest.
    """

    name: str = "abstract"
    #: Whether spilled bytes move back into top-tier headroom before decode.
    promotes: bool = True

    def placement_fraction(self) -> float:
        """Share of newly admitted/grown bytes placed in the top tier."""
        return 1.0

    def demotion_fraction(self) -> float:
        """Share of a victim's top-resident bytes one demotion pass takes."""
        return 1.0


class LRUByRequest(TierPolicy):
    """Whole-request demotion, least-recently-admitted victim first."""

    name = "lru"


class AttentionAwareDemotion(TierPolicy):
    """HillInfer-style partial demotion keeping a hot KV fraction resident.

    Attention mass concentrates on the recent token window and the prompt's
    attention sinks; a victim therefore keeps ``hot_fraction`` of its KV
    bytes (the hot set) in the top tier and demotes only the cold
    remainder, so a demoted request keeps decoding at near-full speed while
    its cold pages spill.  Under sustained pressure a second pass demotes
    the hot share too -- capacity beats locality.
    """

    def __init__(self, hot_fraction: float = 0.25) -> None:
        if not 0.0 < hot_fraction < 1.0:
            raise ConfigurationError(
                f"attention-aware hot fraction must be in (0, 1), "
                f"got {hot_fraction!r}"
            )
        self.hot_fraction = hot_fraction
        self.name = f"attention:{hot_fraction:g}"

    def demotion_fraction(self) -> float:
        return 1.0 - self.hot_fraction


class StaticSplit(TierPolicy):
    """Spill-alpha equivalent: a static placement split, never promoted.

    ``alpha`` is the spilled share -- the fraction of every request's KV
    placed below the top tier at admission (and of every decode token's
    growth thereafter).  Spilled bytes never promote; decode pays the
    near-storage read rate for them on every iteration, which is exactly
    the paper's fig13 offloaded-attention model with the X-cache ratio as
    ``alpha``.  On a single-tier stack any ``alpha`` degenerates to the
    flat budget (there is nowhere to spill to).
    """

    promotes = False

    def __init__(self, alpha: float) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(
                f"static split alpha must be in [0, 1], got {alpha!r}"
            )
        self.alpha = alpha
        self.name = f"static:{alpha:g}"

    def placement_fraction(self) -> float:
        return 1.0 - self.alpha


def parse_kv_policy_spec(spec: str | None) -> TierPolicy | None:
    """Build a :class:`TierPolicy` from a CLI spec (``None`` passes through)."""
    if spec is None or not spec.strip():
        return None
    head, _, rest = spec.strip().partition(":")
    if head == "lru":
        if rest:
            raise spec_error(
                "kv-policy", KV_POLICY_GRAMMAR, spec,
                reason="lru takes no parameters",
            )
        return LRUByRequest()
    if head == "attention":
        if not rest:
            return AttentionAwareDemotion()
        hot = spec_float(rest, "kv-policy", KV_POLICY_GRAMMAR, spec)
        try:
            return AttentionAwareDemotion(hot)
        except ConfigurationError as exc:
            raise spec_error(
                "kv-policy", KV_POLICY_GRAMMAR, spec, reason=str(exc)
            ) from None
    if head == "static":
        if not rest:
            raise spec_error(
                "kv-policy", KV_POLICY_GRAMMAR, spec,
                reason="static needs an ALPHA",
            )
        alpha = spec_float(rest, "kv-policy", KV_POLICY_GRAMMAR, spec)
        try:
            return StaticSplit(alpha)
        except ConfigurationError as exc:
            raise spec_error(
                "kv-policy", KV_POLICY_GRAMMAR, spec, reason=str(exc)
            ) from None
    raise spec_error(
        "kv-policy", KV_POLICY_GRAMMAR, spec, reason="unknown policy"
    )


# --- the tier-aware ledger --------------------------------------------------------


@dataclass
class TierLedger:
    """Running per-tier occupancy and movement counters."""

    tier: KVTier
    occupied_bytes: float = 0.0
    peak_occupied_bytes: float = 0.0
    #: Bytes demoted *into* this tier (pressure-driven, billed movement).
    demoted_in_bytes: float = 0.0
    #: Bytes promoted *out of* this tier back to the top (billed movement).
    promoted_out_bytes: float = 0.0
    #: Decode-iteration KV read bytes served from this tier (hit-rate base).
    decode_read_bytes: float = 0.0


@dataclass
class TieredBudgetTracker(BudgetTracker):
    """A :class:`BudgetTracker` over a tier stack instead of one flat cap.

    The inherited flat ledger (``budget`` = the stack's *total* capacity)
    carries every admission/overflow/release decision unchanged, which is
    what makes a single-tier stack byte-identical to the flat path.  On
    top of it this tracker keeps

    * a per-tier :class:`TierLedger` (occupancy, peaks, movement and
      decode-read counters),
    * a per-request residency map (tier name -> bytes; mirrored onto
      :attr:`~repro.serving.request.ServingRequest.kv_residency`), and
    * an accumulator of pending transfer seconds the engine bills as one
      simulated timeout per scheduling point
      (:meth:`consume_transfer_seconds`).
    """

    stack: TierStack | None = None
    policy: TierPolicy | None = None
    #: Total extra decode seconds spilled-attention reads cost this node
    #: (at the nominal, un-slowed rate; slowdown windows scale the billed
    #: iteration, not the counter).
    spilled_decode_seconds: float = 0.0
    _ledgers: dict = field(default_factory=dict)
    _residency: dict = field(default_factory=dict)
    _requests: dict = field(default_factory=dict)
    _pending_transfer_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.stack is None:
            raise ConfigurationError("TieredBudgetTracker needs a TierStack")
        super().__post_init__()
        if self.policy is None:
            self.policy = LRUByRequest()
        self._ledgers = {
            tier.name: TierLedger(tier=tier) for tier in self.stack.tiers
        }

    @classmethod
    def for_stack(
        cls,
        stack: TierStack,
        model,
        policy: TierPolicy | None = None,
        sanitize: bool = False,
        owner: str = "",
    ) -> "TieredBudgetTracker":
        """Build a tracker whose flat budget is the stack's total capacity."""
        return cls(
            budget=stack.capacity_budget(owner),
            model=model,
            sanitize=sanitize,
            owner=owner,
            stack=stack,
            policy=policy,
        )

    # --- flat-ledger overrides (placement piggybacks on the base arithmetic) ---

    def _record(self, request: ServingRequest, need: float) -> None:
        super()._record(request, need)
        request_id = request.request_id
        self._requests[request_id] = request
        self._residency[request_id] = request.kv_residency = {}
        if len(self.stack.tiers) > 1:
            want_top = self.policy.placement_fraction() * need
            if want_top > 0.0:
                self._demote_for(want_top, exclude=request_id)
        self._place((request,), (need,))
        if self.sanitize:
            self._check_residency(request)
            self._check_tier_occupancy(request_id)

    def update(self, *requests: ServingRequest) -> list[float]:
        """Re-mark the requests on the flat ledger, then place their growth.

        One call per decode iteration: the whole batch's growth lands in
        one :meth:`_place` pass.
        """
        growth = super().update(*requests)
        self._place(requests, growth)
        if self.sanitize:
            for request in requests:
                self._check_residency(request)
        return growth

    def release(self, request: ServingRequest) -> None:
        super().release(request)
        residency = self._residency.pop(request.request_id, None)
        self._requests.pop(request.request_id, None)
        request.kv_residency = None
        if residency:
            # Every tier the request touched drains here -- including on the
            # node-death migration path, which releases through this method
            # before the dispatcher re-routes the request elsewhere.
            for name, held in residency.items():
                self._ledgers[name].occupied_bytes -= held
        if self.sanitize:
            self._check_tier_occupancy(request.request_id)

    def release_share(self, request: ServingRequest, members: int = 1) -> None:
        """Retired like :meth:`BudgetTracker.release_share`; kept only
        because perfbench's tracer looks this name up in the class body."""
        raise SchedulingError("KV ledger entries are whole requests; use release()")

    # --- placement, demotion, promotion -----------------------------------------

    def _occupy_tier(self, name: str, request_id: int, amount: float) -> None:
        ledger = self._ledgers[name]
        ledger.occupied_bytes += amount
        ledger.peak_occupied_bytes = max(
            ledger.peak_occupied_bytes, ledger.occupied_bytes
        )
        residency = self._residency[request_id]
        residency[name] = residency.get(name, 0.0) + amount

    def _vacate_tier(self, name: str, request_id: int, amount: float) -> None:
        ledger = self._ledgers[name]
        ledger.occupied_bytes -= amount
        residency = self._residency[request_id]
        remaining = residency.get(name, 0.0) - amount
        if remaining <= 0.0:
            # Vacated the whole holding; reclaim any float dust so the
            # ledger and the residency map move in lockstep.
            residency.pop(name, None)
            ledger.occupied_bytes -= remaining
        else:
            residency[name] = remaining

    def _place(
        self, requests: tuple[ServingRequest, ...], amounts: Sequence[float]
    ) -> None:
        """Place bytes the requests newly hold: an admission, or decode growth.

        The one placement path, unbilled (the prefill or decode pass writes
        these bytes where they land).  Per request, in order, the policy's
        top share of ``amounts[i]`` goes into top-tier headroom and the rest
        cascades top-down through the lower tiers, the bottom tier
        absorbing the float residue; a single-tier stack takes everything
        in its one tier.  Tiers and ledgers are looked up once per call and
        each request's float operations run in the order a one-request call
        would run them, so placing a batch moves exactly the bytes placing
        its requests one by one would.  A negative amount is an entry that
        shrank mid-flight, which residency cannot follow.
        """
        residencies = self._residency
        single = len(self.stack.tiers) == 1
        fraction = self.policy.placement_fraction()
        tolerance = self._conservation_tolerance()
        tiers = [
            (tier.name, tier.capacity_bytes, self._ledgers[tier.name])
            for tier in self.stack.tiers
        ]
        top_name, top_capacity, top_ledger = tiers[0]
        bottom_name, bottom_capacity, bottom_ledger = tiers[-1]
        middle = tiers[1:-1]
        for request, amount in zip(requests, amounts):
            if amount <= 0.0:
                if amount < 0.0:
                    raise SchedulingError(
                        f"request {request.request_id} shrank its KV ledger "
                        "entry mid-flight; tiered residency only grows "
                        "between admission and release"
                    )
                continue
            request_id = request.request_id
            residency = residencies[request_id]
            remaining = amount
            if not single:
                # min(want, max(0.0, free)) spelled out: this runs once per
                # running request per decode step, where the builtins' call
                # cost shows.
                want = fraction * amount
                free = top_capacity - top_ledger.occupied_bytes
                if not free > 0.0:
                    free = 0.0
                placed = free if free < want else want
                if placed > 0.0:
                    occupied = top_ledger.occupied_bytes + placed
                    top_ledger.occupied_bytes = occupied
                    if occupied > top_ledger.peak_occupied_bytes:
                        top_ledger.peak_occupied_bytes = occupied
                    residency[top_name] = residency.get(top_name, 0.0) + placed
                remaining = amount - placed
                if remaining <= 0.0:
                    continue
                for name, capacity, ledger in middle:
                    take = min(remaining, max(0.0, capacity - ledger.occupied_bytes))
                    if take <= 0.0:
                        continue
                    self._occupy_tier(name, request_id, take)
                    remaining -= take
                    if remaining <= 0.0:
                        break
                if remaining <= 0.0:
                    continue
                if (
                    remaining
                    > bottom_capacity - bottom_ledger.occupied_bytes + tolerance
                ):
                    raise self._lower_tiers_full(remaining)
            # The bottom tier (the only one, on a single-tier stack) absorbs
            # the rest, float residue included.
            occupied = bottom_ledger.occupied_bytes + remaining
            bottom_ledger.occupied_bytes = occupied
            if occupied > bottom_ledger.peak_occupied_bytes:
                bottom_ledger.peak_occupied_bytes = occupied
            residency[bottom_name] = residency.get(bottom_name, 0.0) + remaining

    def _push_into_lower(self, request_id: int, amount: float) -> None:
        """Demote ``amount`` bytes into the lower tiers, top-down (billed).

        Pressure-driven movement: each tier's take pays that (destination)
        tier's bandwidth and lands in its demoted counter.
        """
        if amount <= 0.0:
            return
        remaining = amount
        lower = self.stack.tiers[1:]
        for index, tier in enumerate(lower):
            ledger = self._ledgers[tier.name]
            free = tier.capacity_bytes - ledger.occupied_bytes
            if index == len(lower) - 1:
                take = remaining  # bottom tier absorbs the float residue
                if remaining > free + self._conservation_tolerance():
                    raise self._lower_tiers_full(remaining)
            else:
                take = min(remaining, max(0.0, free))
            if take <= 0.0:
                continue
            self._occupy_tier(tier.name, request_id, take)
            ledger.demoted_in_bytes += take
            self._pending_transfer_seconds += take / tier.bandwidth_bytes_per_s
            remaining -= take
            if remaining <= 0.0:
                return

    def _lower_tiers_full(self, remaining: float) -> SchedulingError:
        return SchedulingError(
            f"KV tier stack cannot place {remaining:.0f} bytes below the top "
            f"tier ({self.budget.description}); the flat admission check "
            "should have refused this"
        )

    def _victims(self, exclude: int) -> list[ServingRequest]:
        """Demotion candidates, least recently (re)admitted first."""
        top_name = self.stack.top.name
        return sorted(
            (
                request
                for request_id, request in self._requests.items()
                if request_id != exclude
                and self._residency[request_id].get(top_name, 0.0) > 0.0
            ),
            key=lambda r: (
                r.last_admitted_time if r.last_admitted_time is not None else -1.0,
                r.request_id,
            ),
        )

    def _demote_for(self, want_bytes: float, exclude: int) -> None:
        """Demote resident victims until ``want_bytes`` fits the top tier.

        Two passes: the first takes each victim's policy share
        (:meth:`TierPolicy.demotion_fraction` of its top residency), the
        second takes whatever is left -- so ``lru`` empties victims in one
        pass while ``attention`` keeps hot sets resident unless pressure
        forces the second pass.
        """
        top = self.stack.top
        ledger = self._ledgers[top.name]
        deficit = want_bytes - (top.capacity_bytes - ledger.occupied_bytes)
        if deficit <= 0.0:
            return
        for fraction in (self.policy.demotion_fraction(), 1.0):
            if fraction <= 0.0:
                continue
            for victim in self._victims(exclude):
                if deficit <= 0.0:
                    return
                have = self._residency[victim.request_id].get(top.name, 0.0)
                give = min(have * fraction, deficit, self._lower_free_bytes())
                if give <= 0.0:
                    continue
                self._vacate_tier(top.name, victim.request_id, give)
                self._push_into_lower(victim.request_id, give)
                deficit -= give
                if self.sanitize:
                    self._check_residency(victim)

    def _lower_free_bytes(self) -> float:
        return sum(
            tier.capacity_bytes - self._ledgers[tier.name].occupied_bytes
            for tier in self.stack.tiers[1:]
        )

    def promote_for_decode(self, running: list[ServingRequest]) -> None:
        """Promote spilled bytes back to the top tier before decoding.

        Walks the running batch in admission order (the engine's list
        order) and, per request, the lower tiers fastest first, pulling
        bytes into top-tier headroom until it runs out.  Each promotion
        bills the *source* tier's bandwidth.  Static-split policies skip
        promotion entirely -- their spilled share pays the read surcharge
        instead.
        """
        if not self.policy.promotes or len(self.stack.tiers) == 1:
            return
        top = self.stack.top
        top_ledger = self._ledgers[top.name]
        for request in running:
            residency = self._residency.get(request.request_id)
            if not residency:
                continue
            for tier in self.stack.tiers[1:]:
                have = residency.get(tier.name, 0.0)
                if have <= 0.0:
                    continue
                free = top.capacity_bytes - top_ledger.occupied_bytes
                if free <= 0.0:
                    return
                take = min(have, free)
                self._vacate_tier(tier.name, request.request_id, take)
                self._occupy_tier(top.name, request.request_id, take)
                self._ledgers[tier.name].promoted_out_bytes += take
                self._pending_transfer_seconds += (
                    take / tier.bandwidth_bytes_per_s
                )
            if self.sanitize:
                self._check_residency(request)

    def consume_transfer_seconds(self) -> float:
        """Drain the accumulated movement bill (the engine yields it)."""
        seconds = self._pending_transfer_seconds
        self._pending_transfer_seconds = 0.0
        return seconds

    def spill_read_seconds(self, running: list[ServingRequest], step_time) -> float:
        """Offloaded-attention surcharge for one decode iteration.

        Every running request re-reads its current KV; the share resident
        below the top tier is billed at that tier's bandwidth through
        :meth:`~repro.serving.steptime.StepTimeModel.spill_read_seconds`.
        Reads are tallied per tier (the hit-rate base) whether or not they
        cost anything, so a fully-resident drain still reports a 100%
        top-tier hit rate.  Current bytes are context times
        :attr:`token_bytes`, and every accumulator adds its terms in
        request order, as a per-request call would.
        """
        residencies = self._residency
        token_bytes = self.token_bytes
        spill = step_time.spill_read_seconds
        top_name = self.stack.top.name
        top_ledger = self._ledgers[top_name]
        lower = [
            (tier.name, self._ledgers[tier.name], tier.bandwidth_bytes_per_s)
            for tier in self.stack.tiers[1:]
        ]
        top_reads = top_ledger.decode_read_bytes
        spilled = self.spilled_decode_seconds
        total_extra = 0.0
        for request in running:
            residency = residencies.get(request.request_id)
            if not residency:
                continue
            resident_total = sum(residency.values())
            if resident_total <= 0.0:
                continue
            current = request.context_tokens * token_bytes
            top_reads += current * (residency.get(top_name, 0.0) / resident_total)
            extra = 0.0
            for name, ledger, bandwidth in lower:
                held = residency.get(name, 0.0)
                if held <= 0.0:
                    continue
                read = current * (held / resident_total)
                ledger.decode_read_bytes += read
                extra += spill(read, bandwidth)
            if extra > 0.0:
                request.spilled_decode_seconds += extra
                spilled += extra
                total_extra += extra
        top_ledger.decode_read_bytes = top_reads
        self.spilled_decode_seconds = spilled
        return total_extra

    # --- router / reporting views -----------------------------------------------

    def top_headroom_for_routing(self, queued_bytes: int) -> float:
        """Top-tier bytes left once queued commitments take their hot share.

        Prefilling/running requests are already in the tier ledgers;
        ``queued_bytes`` is the final-context KV of the node's queued
        (routed, unadmitted) requests -- the engine keeps it as a running
        ledger -- scaled here by the policy's placement fraction, the share
        that will actually contend for the compute tier.
        """
        top = self.stack.top
        fraction = (
            self.policy.placement_fraction() if len(self.stack.tiers) > 1 else 1.0
        )
        return (
            top.capacity_bytes
            - self._ledgers[top.name].occupied_bytes
            - fraction * queued_bytes
        )

    def tier_reports(self) -> tuple[TierReport, ...]:
        """Per-tier occupancy/movement/hit-rate snapshot for the report."""
        total_reads = sum(
            ledger.decode_read_bytes for ledger in self._ledgers.values()
        )
        return tuple(
            TierReport(
                tier=tier.name,
                capacity_bytes=tier.capacity_bytes,
                peak_occupied_bytes=self._ledgers[tier.name].peak_occupied_bytes,
                demoted_bytes=self._ledgers[tier.name].demoted_in_bytes,
                promoted_bytes=self._ledgers[tier.name].promoted_out_bytes,
                decode_read_bytes=self._ledgers[tier.name].decode_read_bytes,
                hit_rate=(
                    self._ledgers[tier.name].decode_read_bytes / total_reads
                    if total_reads > 0.0
                    else 0.0
                ),
            )
            for tier in self.stack.tiers
        )

    # --- sanitizer invariants ----------------------------------------------------

    def _check_tier_occupancy(self, request_id: int | None = None) -> None:
        """Per-tier occupancy stays within [0, capacity]."""
        tolerance = self._conservation_tolerance()
        for name, ledger in self._ledgers.items():
            if ledger.occupied_bytes < -tolerance:
                raise SanitizerError(
                    f"KV tier {name!r} went negative "
                    f"({ledger.occupied_bytes:.3f} bytes, "
                    f"{self.budget.description!r})",
                    invariant="tier-conservation",
                    request_id=request_id,
                )
            if ledger.occupied_bytes > ledger.tier.capacity_bytes + tolerance:
                raise SanitizerError(
                    f"KV tier {name!r} overfilled: {ledger.occupied_bytes:.3f} "
                    f"of {ledger.tier.capacity_bytes:.0f} bytes "
                    f"({self.budget.description!r})",
                    invariant="tier-conservation",
                    request_id=request_id,
                )

    def _check_residency(self, request: ServingRequest) -> None:
        """A request's residency map sums to its flat-ledger entry."""
        held = self._held.get(request.request_id)
        if held is None:
            return
        total = sum(self._residency.get(request.request_id, {}).values())
        if abs(total - held) > self._conservation_tolerance():
            raise SanitizerError(
                f"request {request.request_id} holds {held:.3f} flat bytes "
                f"but its tier residency sums to {total:.3f}",
                invariant="tier-conservation",
                request_id=request.request_id,
            )

    def assert_drained(self, context: str = "") -> None:
        super().assert_drained(context)
        where = f" on {context}" if context else ""
        if self._residency:
            ids = sorted(self._residency)
            raise SanitizerError(
                f"{len(ids)} tier residency map(s) never drained{where}: "
                f"request(s) {', '.join(str(i) for i in ids[:5])}",
                invariant="tier-conservation",
                request_id=ids[0],
            )
        tolerance = self._conservation_tolerance()
        for name, ledger in self._ledgers.items():
            if abs(ledger.occupied_bytes) > tolerance:
                raise SanitizerError(
                    f"KV tier {name!r} holds a residue of "
                    f"{ledger.occupied_bytes:.3f} bytes after every "
                    f"reservation was released{where}",
                    invariant="tier-conservation",
                )
