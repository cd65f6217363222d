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
    occupancy ledger and each request's residency
    (:meth:`TieredBudgetTracker.residency`).  Demotion under top-tier
    admission pressure, promotion before decode, and the
    offloaded-attention read surcharge all bill through the engine's
    discrete-event simulation; initial placement is bookkeeping only (the
    prefill pass produces each tier's bytes in place).

Every tier ledger counts whole bytes, as the flat ledger does: a tier's
occupancy, peak and movement counters, each request's residency and the
growth units are integers, and a tier's capacity is a whole number of
bytes (:class:`KVTier` rounds a fractional one down), so the stack total
the flat budget gates on is exactly what the tiers can hold.  A policy's
top-tier share is one integer per-token unit, the placement fraction of
a token's bytes rounded to the nearest byte (the whole token on a
one-tier stack): an admission of ``t`` tokens places ``t`` units on top,
and every decode step grows every running request by one unit there and
the rest of the token below.  A demotion takes a victim's share rounded
to the nearest byte.  What stays float is what is float by nature: a
reserve entry's reads (``context × held / total``), hit rates, transfer
seconds and the configured flat budgets.

A decode step costs the tracker O(tiers), not O(batch).  Every running
request gains one token per step, and unless a tier fills mid-batch they
all gain it in the same tiers, so the step ticks an integer per-tier
growth-step counter and moves the tier ledgers by the batch size times the
per-request bytes.  The step's spilled reads come from per-tier aggregates
over the decoding set: the summed bytes of growing (optimistic) entries,
and a share-weighted context sum ``context × held / total`` for fixed
(reserve) entries, updated at residency events; the node's spilled seconds
are billed from them once per step.  A request's own residency settles in
closed form from the counters only when a residency event touches it:
demotion, promotion, release, or a step where a tier fills mid-batch,
which settles the batch and runs the per-request cascade one request at a
time, as before.  The per-request read loop survives as the sanitizer's
reference.  The figures match the per-request model within float
reassociation (property-tested at 1e-12 relative in
``tests/serving/test_kvtiers_lazy.py``).

A run of decode steps that leaves the top tier's ledger alone -- the
only tier figure anything outside the node reads -- can coast (see
:mod:`repro.serving.engine`): :meth:`TieredBudgetTracker.coast_reads`
bills each step's reads as the per-step path would, from the aggregates
as the earlier steps' growth leaves them, and decides each step's growth
once: the wake's ``update(..., steps=k)`` lands the k steps' planned
growth one after another.

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

**Tier-conservation invariant** (sanitized drains, compared exactly
except the reads): per-tier occupancy never exceeds the tier's capacity
and never goes negative, a request's residency always sums to its
flat-ledger entry, each tier ledger equals its requests' summed
residency after a decode step or coast, a step's per-tier reads equal
the per-request reference (a coast's first step) within a float bound,
a coast leaves the top tier's ledger where it found it, its wake lands
exactly the steps its pricing planned (no plan outlives it), and
releases -- including node-death migrations -- drain every tier the
request touched.
Violations raise :class:`~repro.analysis.sanitizer.SanitizerError` with
``invariant="tier-conservation"``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

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
    (``inf``).  The tier ledgers count whole bytes, so a fractional
    ``capacity_bytes`` rounds down to a whole byte (it stays a ``float``)
    and a capacity under one byte is refused.
    """

    name: str
    capacity_bytes: float
    bandwidth_bytes_per_s: float = math.inf

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("KV tier needs a name")
        if not 1.0 <= self.capacity_bytes < math.inf:
            raise ConfigurationError(
                f"KV tier {self.name!r} needs a finite capacity of at least "
                f"one byte (got {self.capacity_bytes!r})"
            )
        object.__setattr__(
            self, "capacity_bytes", float(math.floor(self.capacity_bytes))
        )
        if not self.bandwidth_bytes_per_s > 0.0:
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
        """Aggregate byte capacity -- the node's admission budget: the
        tiers' whole-byte capacities, so exactly what the tiers hold."""
        return math.fsum(tier.capacity_bytes for tier in self.tiers)

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

    * :meth:`placement_fraction` -- the share of each token's bytes an
      admission (and each decode step) places in the top tier, to the
      nearest byte, the rest cascading into lower tiers;
    * :meth:`demotion_fraction` -- the share of a victim's top-resident
      bytes one demotion pass takes, to the nearest byte (a second pass
      takes the rest when pressure persists);
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
    """Running per-tier occupancy and movement counters (whole bytes,
    except the reads, which a reserve entry takes by its share)."""

    tier: KVTier
    occupied_bytes: int = 0
    peak_occupied_bytes: int = 0
    #: Bytes demoted *into* this tier (pressure-driven, billed movement).
    demoted_in_bytes: int = 0
    #: Bytes promoted *out of* this tier back to the top (billed movement).
    promoted_out_bytes: int = 0
    #: Decode-iteration KV read bytes served from this tier (hit-rate base).
    decode_read_bytes: float = 0.0


class _Entry:
    """One admitted request's tier residency, settled lazily.

    ``res`` holds the request's whole bytes per tier, in stack order, as
    of its last settle.  A *growing* entry (an optimistic entry re-marked since
    admission) also gains every uniform decode step's growth, counted by
    the tracker's integer growth-step counters; ``counts`` snapshots them
    at the last settle.  A *decoding* entry (one the engine runs) reads
    its KV every decode step: a growing entry its held bytes, a fixed one
    ``context × held / total`` per tier, with ``ratios`` its
    ``held / total`` shares while it decodes.
    """

    __slots__ = ("request", "res", "growing", "decoding", "counts", "ratios")

    def __init__(self, request: ServingRequest, n_tiers: int) -> None:
        self.request = request
        self.res = [0] * n_tiers
        self.growing = False
        self.decoding = False
        self.counts: list[int] = []
        self.ratios: list[float] = []


@dataclass
class TieredBudgetTracker(BudgetTracker):
    """A :class:`BudgetTracker` over a tier stack instead of one flat cap.

    The inherited flat ledger (``budget`` = the stack's *total* capacity)
    carries every admission/overflow/release decision unchanged, which is
    what makes a single-tier stack byte-identical to the flat path.  On
    top of it this tracker keeps

    * a per-tier :class:`TierLedger` (occupancy, peaks, movement and
      decode-read counters), kept current at every step;
    * a per-request residency (tier -> bytes, read through
      :meth:`residency`), settled lazily: a decode step's growth reaches
      a request only when a residency event -- demotion, promotion,
      release, or a step where a tier fills mid-batch -- touches it, in
      closed form from integer counters;
    * per-tier aggregates over the decoding set that price a step's
      spilled reads in O(tiers); and
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
    #: Decode iterations whose spilled reads were billed
    #: (:meth:`spill_read_seconds` calls and coasted steps).
    decode_steps: int = 0
    #: Growing requests settled (lazy growth brought current).
    settles: int = 0
    #: Settles made by the decode-iteration passes (:meth:`update`'s
    #: per-request cascade on steps where a tier fills mid-batch) rather
    #: than by a residency event.
    step_settles: int = 0
    #: Decode steps that fell back to the per-request cascade.
    cascade_steps: int = 0
    _ledgers: dict = field(default_factory=dict)
    _entries: dict = field(default_factory=dict)
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
        #: (whole-byte capacity, ledger, bandwidth) per tier, in stack order.
        self._tiers = [
            (
                int(tier.capacity_bytes),
                self._ledgers[tier.name],
                tier.bandwidth_bytes_per_s,
            )
            for tier in self.stack.tiers
        ]
        self._lower = self._tiers[1:]
        n_tiers = len(self._tiers)
        token_bytes = self.token_bytes
        #: Bytes of each token the policy places on the top tier: its
        #: placement fraction of a token, to the nearest byte (a one-tier
        #: stack has nowhere else to put any).
        self._top_unit = (
            round(self.policy.placement_fraction() * token_bytes)
            if n_tiers > 1
            else token_bytes
        )
        # Growth-step counters: slot 2t counts uniform steps in which every
        # growing entry gained ``_units[2t]`` bytes in tier t (the top's
        # unit, or below the top what is left of a token after it), slot
        # 2t + 1 steps in which it gained ``_units[2t + 1]`` (a whole
        # token, below a full top).
        self._units = [self._top_unit, 0]
        for _ in range(n_tiers - 1):
            self._units += [token_bytes - self._top_unit, token_bytes]
        self._counts = [0] * (2 * n_tiers)
        # Aggregates over the decoding set.  Growing entries: their current
        # bytes per tier.  Fixed entries: their bytes, their held/total
        # shares, and the shares times their context at read ``_fixed_at``
        # (a share-weighted context that grows by the share sum per read).
        self._grown = [0] * n_tiers
        self._fixed_bytes = [0] * n_tiers
        self._ratio_sum = [0.0] * n_tiers
        self._ratio_context = [0.0] * n_tiers
        self._fixed_at = 0
        self._n_growing = 0
        self._n_fixed = 0
        #: The top tier's occupancy when the latest coast began.
        self._coast_top = 0
        #: The moves of each decode step the live coast has priced (see
        #: :meth:`coast_reads`), which its wake's :meth:`update` lands.
        self._plan: list | None = None

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

    def residency(self, request: ServingRequest) -> dict[str, int] | None:
        """``request``'s bytes per tier now (tiers it holds nothing in are
        left out), or ``None`` when it holds no reservation here."""
        entry = self._entries.get(request.request_id)
        if entry is None:
            return None
        return {
            tier.name: held
            for tier, held in zip(self.stack.tiers, self._current(entry))
            if held
        }

    # --- flat-ledger overrides (placement piggybacks on the base arithmetic) ---

    def _record(self, request: ServingRequest, need: int) -> None:
        super()._record(request, need)
        request_id = request.request_id
        entry = _Entry(request, len(self._tiers))
        self._entries[request_id] = entry
        self._demote_for(self._top_share(need), exclude=request_id)
        self._cascade(entry, need)
        if self.sanitize:
            self._check_residency(request)
            self._check_tier_occupancy(request_id)

    def update(self, *requests: ServingRequest, steps: int = 1) -> list[int]:
        """Re-mark the requests on the flat ledger, then place their growth.

        A decode step (see :meth:`BudgetTracker.update`) lands the whole
        batch's growth in O(tiers): every running request gains the same
        bytes in the same tiers, so a counter ticks and the tier ledgers
        move by the batch size times the per-request bytes, unless a tier
        fills mid-batch -- then the step settles the batch and runs the
        per-request cascade, as placing one request at a time would.  A
        coast's wake lands the ``steps`` moves :meth:`coast_reads` planned
        while pricing them, one step after another, exactly as that many
        single-step calls would; a multi-step call without such a plan is
        refused.  Any other call re-marks and places each request in
        argument order.
        """
        step = self._is_step(requests)
        plan, self._plan = self._plan, None
        if self.sanitize and plan is not None and (not step or len(plan) != steps):
            raise SanitizerError(
                f"a coast planned {len(plan)} decode step(s) but its wake "
                f"landed {steps if step else 0} ({self.budget.description!r})",
                invariant="tier-conservation",
                request_id=requests[-1].request_id if requests else None,
            )
        if step and plan is None:
            if steps != 1:
                raise SchedulingError(
                    f"a {steps}-step decode update lands a coast's planned "
                    "growth, and no coast planned it (see coast_reads)"
                )
            occupied = [ledger.occupied_bytes for _, ledger, _ in self._tiers]
            plan = (self._uniform_step(len(requests), occupied),)
        growth = super().update(*requests, steps=steps)
        if not step:
            for request, amount in zip(requests, growth):
                self._remark(request, amount)
        else:
            for moves in plan:
                if moves is None:
                    self._cascade_step(requests)
                else:
                    self._land(moves)
        if self.sanitize and requests:
            self._check_step(requests)
        return growth

    def release(self, request: ServingRequest) -> None:
        super().release(request)
        entry = self._entries.pop(request.request_id, None)
        if entry is not None:
            # Every tier the request touched drains here -- including on the
            # node-death migration path, which releases through this method
            # before the dispatcher re-routes the request elsewhere.
            self._settle(entry)
            self._detach(entry)
            for (_, ledger, _), held in zip(self._tiers, entry.res):
                if held:
                    ledger.occupied_bytes -= held
        if self.sanitize:
            self._check_tier_occupancy(request.request_id)

    def release_share(self, request: ServingRequest, members: int = 1) -> None:
        """Retired like :meth:`BudgetTracker.release_share`; kept only
        because perfbench's tracer looks this name up in the class body."""
        raise SchedulingError("KV ledger entries are whole requests; use release()")

    # --- lazy residency -----------------------------------------------------------

    def _current(self, entry: _Entry) -> list[int]:
        """``entry``'s bytes per tier now, without settling it."""
        res = entry.res
        if not entry.growing:
            return list(res)
        current = list(res)
        counts, snapshot, units = self._counts, entry.counts, self._units
        for slot, count in enumerate(counts):
            moved = count - snapshot[slot]
            if moved:
                current[slot >> 1] += units[slot] * moved
        return current

    def _settle(self, entry: _Entry) -> None:
        """Bring a growing entry current: its bytes per tier become
        :meth:`_current`'s, and it grows from the counters' ticks now."""
        if not entry.growing:
            return
        self.settles += 1
        entry.res[:] = self._current(entry)
        entry.counts = self._counts.copy()

    def _attach(self, entry: _Entry) -> None:
        """Add a settled decoding entry to the decoding-set aggregates."""
        if not entry.decoding:
            return
        if entry.growing:
            self._n_growing += 1
            for tier, held in enumerate(entry.res):
                self._grown[tier] += held
            return
        self._advance_fixed()
        self._n_fixed += 1
        total = sum(entry.res)
        entry.ratios = [held / total if total else 0.0 for held in entry.res]
        context = entry.request.context_tokens
        for tier, (held, ratio) in enumerate(zip(entry.res, entry.ratios)):
            self._fixed_bytes[tier] += held
            self._ratio_sum[tier] += ratio
            self._ratio_context[tier] += ratio * context

    def _detach(self, entry: _Entry) -> None:
        """Take a settled decoding entry out of the aggregates (the inverse
        of :meth:`_attach`; the float share sums are cleared of their
        rounding dust when the fixed set empties)."""
        if not entry.decoding:
            return
        if entry.growing:
            self._n_growing -= 1
            for tier, held in enumerate(entry.res):
                self._grown[tier] -= held
            return
        self._advance_fixed()
        self._n_fixed -= 1
        for tier, held in enumerate(entry.res):
            self._fixed_bytes[tier] -= held
        if not self._n_fixed:
            n_tiers = len(self._tiers)
            self._ratio_sum = [0.0] * n_tiers
            self._ratio_context = [0.0] * n_tiers
            return
        context = entry.request.context_tokens
        for tier, ratio in enumerate(entry.ratios):
            self._ratio_sum[tier] -= ratio
            self._ratio_context[tier] -= ratio * context

    def _advance_fixed(self) -> None:
        """Move the fixed entries' share-weighted context to the current
        read index (each read adds one token to every context)."""
        reads = self.decode_steps - self._fixed_at
        if reads:
            self._fixed_at = self.decode_steps
            for tier, ratio in enumerate(self._ratio_sum):
                self._ratio_context[tier] += reads * ratio

    def _sync_decoding(self, running: list[ServingRequest]) -> None:
        """Join requests the engine started decoding since the last call.

        Optimistic entries join at their first re-mark (prefill completion);
        the rest join here.  The engine appends prefill completers to the
        running list and every request leaves it through :meth:`release`,
        so the newcomers are the list's tail beyond the decoding count.
        """
        joining = len(running) - self._n_growing - self._n_fixed
        if joining <= 0:
            return
        for request in running[-joining:]:
            entry = self._entries.get(request.request_id)
            if entry is None or entry.decoding:
                continue
            entry.decoding = True
            self._attach(entry)

    # --- placement, demotion, promotion -----------------------------------------

    def _fill(self, ledger: TierLedger, amount: int) -> None:
        occupied = ledger.occupied_bytes + amount
        ledger.occupied_bytes = occupied
        if occupied > ledger.peak_occupied_bytes:
            ledger.peak_occupied_bytes = occupied

    def _vacate(self, entry: _Entry, tier: int, amount: int) -> None:
        self._tiers[tier][1].occupied_bytes -= amount
        entry.res[tier] -= amount

    def _top_share(self, amount: int) -> int:
        """The policy's top-tier share of ``amount`` bytes of whole tokens:
        one top unit per token."""
        return amount // self.token_bytes * self._top_unit

    def _cascade(self, entry: _Entry, amount: int) -> None:
        """Place bytes one settled entry newly holds: an admission, or growth.

        The per-request placement, unbilled (the prefill or decode pass
        writes these bytes where they land): the policy's top share of
        ``amount`` goes into top-tier headroom, the rest cascades top-down
        through the lower tiers, each taking what fits, and what the lower
        tiers cannot take lands on the top tier after all.  The flat
        ledger equals the tiers' summed occupancy and never exceeds the
        stack total, so the stack always has room for what the flat check
        admitted.  A negative amount is an entry that shrank mid-flight,
        which residency cannot follow.
        """
        if amount <= 0:
            if amount < 0:
                raise SchedulingError(
                    f"request {entry.request.request_id} shrank its KV ledger "
                    "entry mid-flight; tiered residency only grows between "
                    "admission and release"
                )
            return
        res = entry.res
        remaining = amount
        want = self._top_share(amount)
        for tier, (capacity, ledger, _) in enumerate(self._tiers):
            take = min(want, capacity - ledger.occupied_bytes)
            if take > 0:
                self._fill(ledger, take)
                res[tier] += take
                remaining -= take
                if not remaining:
                    return
            want = remaining
        self._fill(self._tiers[0][1], remaining)
        res[0] += remaining

    def _remark(self, request: ServingRequest, amount: int) -> None:
        """Place one explicitly re-marked request's growth; it grows from now."""
        entry = self._entries[request.request_id]
        self._settle(entry)
        self._detach(entry)
        self._cascade(entry, amount)
        entry.growing = True
        entry.counts = self._counts.copy()
        entry.decoding = True
        self._attach(entry)

    def _uniform_step(
        self, n: int, occupied: list[int]
    ) -> list[tuple[int, int, int]] | None:
        """Where one decode step's growth lands for all ``n`` growing entries.

        Every entry gains one token: the policy's top unit goes to the top
        tier if its headroom takes the whole batch's units (nothing if the
        top is full), and the rest of the token to the first lower tier
        with headroom, which must take the whole batch's rest.
        ``occupied`` is each tier's occupancy before the step.  Returns the
        step's moves as (growth-step counter slot, tier, bytes for the
        batch), or ``None`` when some tier would fill mid-batch -- requests
        would then land differently, which only the per-request cascade
        reproduces -- or no lower tier has room (the cascade then keeps
        the rest of each token on the top tier).
        """
        tiers = self._tiers
        want = self._top_unit
        free = tiers[0][0] - occupied[0]
        if want and free >= n * want:
            moves = [(0, 0, n * want)]
            kind, rest = 0, self.token_bytes - want
        elif free <= 0 or not want:
            moves = []
            kind, rest = 1, self.token_bytes
        else:
            return None
        if not rest:
            return moves
        need = n * rest
        for tier in range(1, len(tiers)):
            room = tiers[tier][0] - occupied[tier]
            if room <= 0:
                continue
            if room < need:
                return None
            moves.append((2 * tier + kind, tier, need))
            return moves
        return None

    def _land(self, moves: list[tuple[int, int, int]]) -> None:
        """Land one uniform decode step's :meth:`_uniform_step` moves: tick
        their growth-step counters and move the tier ledgers and the
        growing aggregate by them."""
        tiers = self._tiers
        counts = self._counts
        grown = self._grown
        for slot, tier, amount in moves:
            counts[slot] += 1
            self._fill(tiers[tier][1], amount)
            grown[tier] += amount

    def _cascade_step(self, requests: tuple[ServingRequest, ...]) -> None:
        """A decode step in which a tier fills mid-batch: settle the batch and
        place each request's token through the per-request cascade, in order."""
        self.cascade_steps += 1
        token_bytes = self.token_bytes
        for request in requests:
            entry = self._entries[request.request_id]
            self._settle(entry)
            self.step_settles += 1
            self._detach(entry)
            self._cascade(entry, token_bytes)
            self._attach(entry)

    def _push_into_lower(self, entry: _Entry, amount: int) -> None:
        """Demote ``amount`` bytes into the lower tiers, top-down (billed).

        Pressure-driven movement: each tier takes what fits and pays that
        (destination) tier's bandwidth, landing in its demoted counter.
        The caller never asks for more than the lower tiers' headroom
        (:meth:`_lower_free_bytes`), so every byte finds a tier.
        """
        remaining = amount
        for tier, (capacity, ledger, bandwidth) in enumerate(self._lower, 1):
            take = min(remaining, capacity - ledger.occupied_bytes)
            if take <= 0:
                continue
            self._fill(ledger, take)
            entry.res[tier] += take
            ledger.demoted_in_bytes += take
            self._pending_transfer_seconds += take / bandwidth
            remaining -= take
            if not remaining:
                return

    def _victims(self, exclude: int) -> list[_Entry]:
        """Demotion candidates, least recently (re)admitted first."""
        current = self._current
        return sorted(
            (
                entry
                for request_id, entry in self._entries.items()
                if request_id != exclude and current(entry)[0] > 0
            ),
            key=lambda e: (
                e.request.last_admitted_time
                if e.request.last_admitted_time is not None
                else -1.0,
                e.request.request_id,
            ),
        )

    def _demote_for(self, want_bytes: int, exclude: int) -> None:
        """Demote resident victims until ``want_bytes`` fits the top tier.

        Two passes: the first takes each victim's policy share
        (:meth:`TierPolicy.demotion_fraction` of its top residency, to the
        nearest byte), the second takes whatever is left -- so ``lru``
        empties victims in one pass while ``attention`` keeps hot sets
        resident unless pressure forces the second pass.
        """
        top_capacity, top_ledger, _ = self._tiers[0]
        deficit = want_bytes - (top_capacity - top_ledger.occupied_bytes)
        if deficit <= 0:
            return
        for fraction in (self.policy.demotion_fraction(), 1.0):
            if fraction <= 0.0:
                continue
            for victim in self._victims(exclude):
                if deficit <= 0:
                    return
                self._settle(victim)
                give = min(
                    round(victim.res[0] * fraction), deficit, self._lower_free_bytes()
                )
                if give <= 0:
                    continue
                self._detach(victim)
                self._vacate(victim, 0, give)
                self._push_into_lower(victim, give)
                self._attach(victim)
                deficit -= give
                if self.sanitize:
                    self._check_residency(victim.request)

    def _lower_free_bytes(self) -> int:
        return sum(
            capacity - ledger.occupied_bytes for capacity, ledger, _ in self._lower
        )

    def promote_for_decode(self, running: list[ServingRequest]) -> None:
        """Promote spilled bytes back to the top tier before decoding.

        Walks the running batch in admission order (the engine's list
        order) and, per request, the lower tiers fastest first, pulling
        bytes into top-tier headroom until it runs out.  Each promotion
        bills the *source* tier's bandwidth.  Static-split policies skip
        promotion entirely -- their spilled share pays the read surcharge
        instead.  With no top headroom, or no decoding bytes below the
        top (a one-tier stack has none), there is nothing to walk.
        """
        self._sync_decoding(running)
        if not self.policy.promotes:
            return
        top_capacity, top_ledger, _ = self._tiers[0]
        if top_capacity <= top_ledger.occupied_bytes:
            return
        if not self._decoding_below_top():
            return
        entries = self._entries
        for request in running:
            if top_capacity <= top_ledger.occupied_bytes:
                return
            entry = entries.get(request.request_id)
            if entry is None or not any(self._current(entry)[1:]):
                continue
            self._settle(entry)
            self._detach(entry)
            for tier, (_, ledger, bandwidth) in enumerate(self._lower, 1):
                have = entry.res[tier]
                if not have:
                    continue
                free = top_capacity - top_ledger.occupied_bytes
                if free <= 0:
                    break
                take = min(have, free)
                self._vacate(entry, tier, take)
                self._fill(top_ledger, take)
                entry.res[0] += take
                ledger.promoted_out_bytes += take
                self._pending_transfer_seconds += take / bandwidth
            self._attach(entry)
            if self.sanitize:
                self._check_residency(request)

    def _decoding_below_top(self) -> bool:
        """Whether the decoding-set aggregates hold bytes below the top."""
        return any(self._grown[1:]) or any(self._fixed_bytes[1:])

    def consume_transfer_seconds(self) -> float:
        """Drain the accumulated movement bill (the engine yields it)."""
        seconds = self._pending_transfer_seconds
        self._pending_transfer_seconds = 0.0
        return seconds

    def spill_read_seconds(self, running: list[ServingRequest], step_time) -> float:
        """Offloaded-attention surcharge for one decode iteration, in O(tiers).

        Every running request re-reads its current KV, and each tier's
        share of those reads comes from the decoding-set aggregates: a
        growing entry reads the bytes it holds there (its entry is its
        current context's bytes), a fixed one ``context × held / total``.
        The bytes read below the top tier are billed at the tier's
        bandwidth through
        :meth:`~repro.serving.steptime.StepTimeModel.spill_read_seconds`,
        once per tier for the whole batch.  Reads are tallied per tier (the
        hit-rate base) whether or not they cost anything, so a
        fully-resident drain still reports a 100% top-tier hit rate.
        """
        self._sync_decoding(running)
        reads, extra = self._read_step(self._grown, step_time.spill_read_seconds)
        if self.sanitize:
            self._check_reads(running, reads)
        return extra

    def _read_step(self, grown: list[int], spill) -> tuple[list[float], float]:
        """Bill one decode step's reads; return them per tier, and their
        spilled seconds.  ``grown`` is the growing entries' bytes per tier
        at the step, the fixed entries' share comes from their aggregates
        at the step's read index, and ``spill`` prices one tier's reads."""
        reads = grown.copy()
        if self._n_fixed:
            since = self.decode_steps - self._fixed_at
            token_bytes = self.token_bytes
            for tier, (weighted, ratio) in enumerate(
                zip(self._ratio_context, self._ratio_sum)
            ):
                reads[tier] += token_bytes * (weighted + since * ratio)
        self.decode_steps += 1
        self._tiers[0][1].decode_read_bytes += reads[0]
        extra = 0.0
        for (_, ledger, bandwidth), read in zip(self._lower, reads[1:]):
            ledger.decode_read_bytes += read
            if read > 0:
                extra += spill(read, bandwidth)
        self.spilled_decode_seconds += extra
        return reads, extra

    # --- coasting decode ----------------------------------------------------------

    def decode_leaves_top_alone(self, grows: bool) -> bool:
        """Whether the coming decode steps leave the top tier's ledger alone.

        The top ledger is the one figure a decode step moves that anything
        outside the node reads (:meth:`top_headroom_for_routing`), so the
        engine coasts only while it holds still.  It does when no step
        boundary can promote bytes into the top and, if the batch ``grows``
        (optimistic admission), every step's growth lands below it: the
        top is full (it takes no growth, and promotion needs headroom), or
        the policy places nothing on top and never promotes.  A batch that
        does not grow (reserve admission) moves no tier ledger unless a
        promotion could.  A one-tier stack places whole tokens on its top
        and has nothing below it to promote.
        """
        top_capacity, top_ledger, _ = self._tiers[0]
        if top_capacity <= top_ledger.occupied_bytes:
            return True
        if grows:
            return not self._top_unit and not self.policy.promotes
        return not (self.policy.promotes and self._decoding_below_top())

    def coast_reads(self, running: list[ServingRequest], step_time, grows: bool):
        """Bill a coast's decode steps one at a time; yield each one's
        spilled-read seconds.

        Step ``j`` reads as :meth:`spill_read_seconds` would read it after
        ``j`` steps of growth, so the engine can price the steps before the
        growth lands.  When the batch ``grows``, each step's growth is
        decided once, by :meth:`_uniform_step` on a copy of the tier
        ledgers -- a lower tier that fills exactly at a step boundary moves
        the next step's growth down -- and recorded: the moves of the steps
        pulled so far are the coast's plan, which the wake's
        :meth:`update` lands.  The pass stops before the first step in
        which a tier would fill mid-batch, which the per-step path hands to
        the per-request cascade; a pass that stops before its first step
        plans nothing.  A sanitized tracker checks the first step's reads
        against the per-request reference (the one step whose contexts are
        current) and keeps the top tier's occupancy for
        :meth:`check_coast`.
        """
        self._sync_decoding(running)
        spill = step_time.spill_read_seconds
        n = len(running)
        grown = self._grown.copy()
        occupied = [ledger.occupied_bytes for _, ledger, _ in self._tiers]
        self._coast_top = occupied[0]
        check = self.sanitize
        plan = []
        while True:
            moves = self._uniform_step(n, occupied) if grows else []
            if moves is None:
                return
            reads, extra = self._read_step(grown, spill)
            if check:
                self._check_reads(running, reads)
                check = False
            if grows:
                plan.append(moves)
                self._plan = plan
            yield extra
            for _, tier, amount in moves:
                occupied[tier] += amount
                grown[tier] += amount

    def check_coast(self, running: list[ServingRequest]) -> None:
        """Sanitizer, at a coast's wake: the decode-step checks of
        :meth:`update`, no plan left for a later update to land, and the
        top tier's ledger where the coast found it."""
        self._check_step(running)
        if self._plan is not None:
            raise SanitizerError(
                f"a coast's plan of {len(self._plan)} decode step(s) outlived "
                f"its wake ({self.budget.description!r})",
                invariant="tier-conservation",
                request_id=running[-1].request_id,
            )
        top = self._tiers[0][1]
        if top.occupied_bytes != self._coast_top:
            raise SanitizerError(
                f"KV tier {top.tier.name!r} moved from {self._coast_top:.3f} to "
                f"{top.occupied_bytes:.3f} bytes during a coast, whose skipped "
                f"steps routers may read it at ({self.budget.description!r})",
                invariant="tier-conservation",
                request_id=running[-1].request_id,
            )

    # --- router / reporting views -----------------------------------------------

    def top_headroom_for_routing(self, queued_bytes: int) -> int:
        """Top-tier bytes left once queued commitments take their hot share.

        Prefilling/running requests are already in the tier ledgers;
        ``queued_bytes`` is the final-context KV of the node's queued
        (routed, unadmitted) requests -- the engine keeps it as a running
        ledger -- of which each token's top unit is the share that will
        actually contend for the compute tier.  Engines ask only for
        multi-tier stacks: a one-tier stack routes on its committed
        headroom, like a flat budget.
        """
        top_capacity, top_ledger, _ = self._tiers[0]
        return (
            top_capacity - top_ledger.occupied_bytes - self._top_share(queued_bytes)
        )

    def tier_reports(self) -> tuple[TierReport, ...]:
        """Per-tier occupancy/movement/hit-rate snapshot for the report."""
        total_reads = math.fsum(
            ledger.decode_read_bytes for ledger in self._ledgers.values()
        )
        # Report figures stay floats, the whole-byte ledgers' included.
        return tuple(
            TierReport(
                tier=ledger.tier.name,
                capacity_bytes=ledger.tier.capacity_bytes,
                peak_occupied_bytes=float(ledger.peak_occupied_bytes),
                demoted_bytes=float(ledger.demoted_in_bytes),
                promoted_bytes=float(ledger.promoted_out_bytes),
                decode_read_bytes=ledger.decode_read_bytes,
                hit_rate=(
                    ledger.decode_read_bytes / total_reads
                    if total_reads > 0.0
                    else 0.0
                ),
            )
            for ledger in self._ledgers.values()
        )

    # --- sanitizer invariants ----------------------------------------------------

    def _check_tier_occupancy(self, request_id: int | None = None) -> None:
        """Per-tier occupancy stays within [0, capacity]."""
        for name, ledger in self._ledgers.items():
            if ledger.occupied_bytes < 0:
                raise SanitizerError(
                    f"KV tier {name!r} went negative "
                    f"({ledger.occupied_bytes} bytes, "
                    f"{self.budget.description!r})",
                    invariant="tier-conservation",
                    request_id=request_id,
                )
            if ledger.occupied_bytes > ledger.tier.capacity_bytes:
                raise SanitizerError(
                    f"KV tier {name!r} overfilled: {ledger.occupied_bytes} "
                    f"of {ledger.tier.capacity_bytes:.0f} bytes "
                    f"({self.budget.description!r})",
                    invariant="tier-conservation",
                    request_id=request_id,
                )

    def _check_residency(self, request: ServingRequest) -> None:
        """A request's tier residency sums to its flat-ledger entry."""
        entry = self._entries.get(request.request_id)
        if entry is None or request.request_id not in self._held:
            return
        held = self._held_now(request.request_id)
        total = sum(self._current(entry))
        if total != held:
            raise SanitizerError(
                f"request {request.request_id} holds {held} flat bytes "
                f"but its tier residency sums to {total}",
                invariant="tier-conservation",
                request_id=request.request_id,
            )

    def _check_step(self, requests) -> None:
        """After a decode step: each request's residency and the aggregates."""
        for request in requests:
            self._check_residency(request)
        self._check_aggregates(requests[-1].request_id)

    def _check_aggregates(self, request_id: int) -> None:
        """After a decode step, each tier ledger equals its requests' summed
        residency and the growing aggregate its decoding requests' share --
        the per-request reference the counters stand in for."""
        occupied = [0] * len(self._tiers)
        grown = [0] * len(self._tiers)
        for entry in self._entries.values():
            for tier, held in enumerate(self._current(entry)):
                occupied[tier] += held
                if entry.growing and entry.decoding:
                    grown[tier] += held
        for (tier, (_, ledger, _)), total, growing in zip(
            enumerate(self._tiers), occupied, grown
        ):
            name = ledger.tier.name
            if total != ledger.occupied_bytes:
                raise SanitizerError(
                    f"KV tier {name!r} ledger holds "
                    f"{ledger.occupied_bytes} bytes but its requests' "
                    f"residency sums to {total} ({self.budget.description!r})",
                    invariant="tier-conservation",
                    request_id=request_id,
                )
            if growing != self._grown[tier]:
                raise SanitizerError(
                    f"KV tier {name!r} decoding aggregate holds "
                    f"{self._grown[tier]} bytes but its growing requests "
                    f"hold {growing} ({self.budget.description!r})",
                    invariant="tier-conservation",
                    request_id=request_id,
                )
        self._check_tier_occupancy(request_id)

    def _reference_reads(
        self, running: list[ServingRequest]
    ) -> list[tuple[ServingRequest, list[float]]]:
        """Each running request's reads per tier in one decode step, one
        request at a time: ``context × held / total`` from every tier it
        holds bytes in (the per-request loop the aggregates stand in for)."""
        entries = self._entries
        token_bytes = self.token_bytes
        reads = []
        for request in running:
            entry = entries.get(request.request_id)
            if entry is None:
                continue
            residency = self._current(entry)
            resident_total = sum(residency)
            if not resident_total:
                continue
            current = request.context_tokens * token_bytes
            reads.append(
                (
                    request,
                    [
                        current * (held / resident_total) if held else 0.0
                        for held in residency
                    ],
                )
            )
        return reads

    def _check_reads(self, running: list[ServingRequest], reads: list[float]) -> None:
        """A step's per-tier reads equal the per-request reference: every
        running request reading ``context × held / total`` from each tier,
        and the decoding set is exactly the running batch."""
        entries = self._entries
        if len(running) != self._n_growing + self._n_fixed or not all(
            entries[r.request_id].decoding for r in running if r.request_id in entries
        ):
            raise SanitizerError(
                f"decoding set of {self._n_growing + self._n_fixed} requests "
                f"differs from the running batch of {len(running)} "
                f"({self.budget.description!r})",
                invariant="tier-conservation",
            )
        reference = [0.0] * len(self._tiers)
        for _, request_reads in self._reference_reads(running):
            for tier, read in enumerate(request_reads):
                reference[tier] += read
        # The one float bound left: a fixed entry reads its float share,
        # ``context × held / total``, and the aggregates sum those reads
        # in another order than this reference does.
        bound = 1e-9 * self.budget.kv_capacity_bytes + 1e-6
        for (_, ledger, _), billed, expected in zip(self._tiers, reads, reference):
            if abs(billed - expected) > bound:
                raise SanitizerError(
                    f"KV tier {ledger.tier.name!r} read {billed:.3f} bytes in a "
                    f"decode step but its running requests read {expected:.3f} "
                    f"({self.budget.description!r})",
                    invariant="tier-conservation",
                )

    def assert_drained(self, context: str = "") -> None:
        super().assert_drained(context)
        where = f" on {context}" if context else ""
        if self._entries:
            ids = sorted(self._entries)
            raise SanitizerError(
                f"{len(ids)} tier residenc(ies) never drained{where}: "
                f"request(s) {', '.join(str(i) for i in ids[:5])}",
                invariant="tier-conservation",
                request_id=ids[0],
            )
        for name, ledger in self._ledgers.items():
            if ledger.occupied_bytes:
                raise SanitizerError(
                    f"KV tier {name!r} holds a residue of "
                    f"{ledger.occupied_bytes} bytes after every "
                    f"reservation was released{where}",
                    invariant="tier-conservation",
                )
