"""Reactive fleet autoscaling on the fault layer's node lifecycle.

The ROADMAP's elasticity item asks for "a simulated autoscaler that
adds/drains nodes on queue-depth or TTFT signals, reusing the fault
layer's lifecycle (RECOVERING is provisioning) and per-second billing";
this module is that autoscaler, on the queue-depth signal.  An
:class:`Autoscaler` runs as a fire-and-forget process on the drain's
simulator, sampling the fleet every :data:`DECISION_INTERVAL_SECONDS`:

* **scale up** when the mean waiting-queue depth per active node exceeds
  ``target_queue_depth``: a node still gracefully draining is
  reactivated instantly (warm cancel), otherwise an offline spare starts
  provisioning -- the engine's existing RECOVERING path with a
  ``provision_seconds`` delay, so cold capacity takes realistic time to
  arrive and its offline period is billed at zero through the
  uptime-only cost path;
* **scale down** when the depth falls below a quarter of the target, no
  provisioning is in flight, and more than ``min_nodes`` nodes are
  active: the highest-indexed active node drains gracefully -- the
  dispatcher stops routing to it, its in-flight work completes, and it
  goes DOWN (accruing unbilled downtime) without killing anything.

Every decision is recorded as a :class:`ScaleEvent` on the fleet
report's scale timeline.  The tick phase is seeded and deterministic;
the drain replays byte-identically under a fixed seed.

CLI grammar (see :func:`parse_autoscale_spec`)::

    auto:MIN:MAX:TARGET_QDEPTH[:PROVISION_S[:SEED]]
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.serving.specs import spec_error, spec_fields, spec_float, spec_int

#: Default cold-provisioning delay for a scaled-up node (seconds).
DEFAULT_PROVISION_SECONDS = 120.0

#: Spacing between autoscaler decisions (simulated seconds).
DECISION_INTERVAL_SECONDS = 5.0

#: Scale down only when depth falls below this fraction of the target --
#: the hysteresis band that keeps the fleet from flapping at the target.
SCALE_DOWN_FRACTION = 0.25

#: The CLI grammar, shared by the parser and its error messages.
AUTOSCALE_GRAMMAR = "auto:MIN:MAX:TARGET_QDEPTH[:PROVISION_S[:SEED]] | none"


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision on the fleet report's scale timeline."""

    time: float
    action: str  # "scale-up" | "scale-down"
    node: str
    reason: str
    queue_depth: float
    active_nodes: int


@dataclass(frozen=True)
class AutoscalePolicy:
    """Configuration of one drain's reactive autoscaler.

    The fleet is built at ``max_nodes`` size; nodes past ``min_nodes``
    start offline and only cost money (and serve work) after the
    autoscaler provisions them.  ``target_queue_depth`` is the mean
    waiting-queue depth per active node the scaler defends.
    """

    min_nodes: int
    max_nodes: int
    target_queue_depth: float
    provision_seconds: float = DEFAULT_PROVISION_SECONDS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ConfigurationError(
                f"autoscale min_nodes must be >= 1, got {self.min_nodes}"
            )
        if self.max_nodes < self.min_nodes:
            raise ConfigurationError(
                f"autoscale max_nodes ({self.max_nodes}) must be >= "
                f"min_nodes ({self.min_nodes})"
            )
        for name in ("target_queue_depth", "provision_seconds"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(
                    f"autoscale {name} must be positive and finite, got {value!r}"
                )

    def validate_for(self, n_nodes: int) -> None:
        """Check the policy fits a fleet of ``n_nodes`` built nodes."""
        if self.max_nodes > n_nodes:
            raise ConfigurationError(
                f"autoscale max_nodes ({self.max_nodes}) exceeds the fleet's "
                f"{n_nodes} built node(s); build the fleet at max_nodes size"
            )


def parse_autoscale_spec(
    spec: str | None, seed: int = 0
) -> AutoscalePolicy | None:
    """Parse a CLI autoscale spec into an :class:`AutoscalePolicy`.

    Grammar: ``auto:MIN:MAX:TARGET_QDEPTH[:PROVISION_S[:SEED]]``
    (``SEED`` defaults to ``seed``).  ``None`` / ``"none"`` / ``"off"``
    return ``None`` so callers keep the fixed-fleet drain path.
    """
    if spec is None or spec in ("none", "off"):
        return None
    what, grammar = "autoscale", AUTOSCALE_GRAMMAR
    kind, _, rest = spec.partition(":")
    if kind != "auto":
        raise spec_error(what, grammar, spec)
    parts = spec_fields(rest, (3, 4, 5), what, grammar, spec)
    return AutoscalePolicy(
        min_nodes=spec_int(parts[0], what, grammar, spec),
        max_nodes=spec_int(parts[1], what, grammar, spec),
        target_queue_depth=spec_float(parts[2], what, grammar, spec),
        provision_seconds=(
            spec_float(parts[3], what, grammar, spec)
            if len(parts) > 3
            else DEFAULT_PROVISION_SECONDS
        ),
        seed=spec_int(parts[4], what, grammar, spec) if len(parts) > 4 else seed,
    )


class Autoscaler:
    """The reactive scaling process of one autoscaled cluster drain.

    Owns the drain's :class:`ScaleEvent` timeline.  The process is
    fire-and-forget (never awaited by the drain's conjunction): once the
    fault driver reports the drain done, the next tick exits, and a
    leftover tick timer past the drain's end is harmless -- exactly the
    fault injectors' contract.
    """

    def __init__(self, sim, engines: Sequence, policy: AutoscalePolicy, driver) -> None:
        self.sim = sim
        self.engines = list(engines)
        self.policy = policy
        self.driver = driver
        self.events: list[ScaleEvent] = []

    def start(self) -> None:
        """Spawn the decision process on the drain's simulator."""
        self.sim.process(self._run(), name="autoscale.decide")

    def _run(self):
        # A seeded phase offset desynchronises the tick from round
        # boundaries (and gives two seeds two distinct, replayable
        # schedules), mirroring the spot injectors' per-stream RNGs.
        phase = random.Random(f"autoscale:{self.policy.seed}").random()
        yield self.sim.timeout(DECISION_INTERVAL_SECONDS * (0.5 + phase))
        while not self.driver.done:
            self._decide()
            yield self.sim.timeout(DECISION_INTERVAL_SECONDS)

    # --- one decision -----------------------------------------------------------

    def _decide(self) -> None:
        active = [e for e in self.engines if e.routable]
        provisioning = [e for e in self.engines if e.state == "recovering"]
        draining = [e for e in self.engines if e.scale_draining]
        capacity = len(active) + len(provisioning)
        queued = sum(e.queued_requests for e in active)
        depth = queued / max(1, capacity)
        if (
            depth > self.policy.target_queue_depth
            and capacity < self.policy.max_nodes
        ):
            self._scale_up(depth, len(active), "queue-depth")
        elif (
            depth < self.policy.target_queue_depth * SCALE_DOWN_FRACTION
            and not provisioning
            and not draining
            and len(active) > self.policy.min_nodes
        ):
            self._scale_down(depth, len(active))

    def _scale_up(self, depth: float, active: int, reason: str) -> None:
        # Prefer reactivating a gracefully-draining node (instant, warm)
        # over cold-provisioning an offline spare.
        for engine in self.engines:
            if engine.scale_draining:
                engine.provision(0.0)
                self._record("scale-up", engine, f"{reason} (warm)", depth, active)
                return
        for engine in self.engines:
            if engine.state == "down" and engine.provisionable:
                engine.provision(self.policy.provision_seconds)
                self._record("scale-up", engine, reason, depth, active)
                return

    def _scale_down(self, depth: float, active: int) -> None:
        # Drain the highest-indexed active node: symmetric fleets then
        # shrink from the tail, keeping node0..min alive -- deterministic
        # and stable under re-runs.
        for engine in reversed(self.engines):
            if engine.routable:
                engine.drain_gracefully()
                self._record("scale-down", engine, "idle", depth, active)
                return

    def _record(
        self, action: str, engine, reason: str, depth: float, active: int
    ) -> None:
        self.events.append(
            ScaleEvent(
                time=self.sim.now,
                action=action,
                node=engine.node.name,
                reason=reason,
                queue_depth=depth,
                active_nodes=active,
            )
        )
