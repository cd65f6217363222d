"""Admission control and graceful degradation for cluster drains.

PR 7 made the fleet survive *losing* capacity; this module protects it
from *too much demand*.  An :class:`OverloadControl` handed to a
:class:`~repro.serving.cluster.ClusterScheduler` bounds what the
dispatcher may deliver: a per-node waiting-queue depth cap and/or a
fleet-level token-rate throttle (a classic token bucket over each
request's total prompt+output tokens).  An arrival that hits a bound is
never silently dropped -- the configured ``action`` decides its fate:

* ``"shed"`` -- reject it now, recorded as a structured
  :class:`ShedRequest` outcome on the fleet report;
* ``"retry"`` -- re-attempt delivery after seeded exponential backoff,
  bounded by ``max_attempts`` (mirroring the fault layer's
  ``max_migrations``); exhausting the budget sheds;
* ``"park"`` -- hold the request at the front door until capacity frees
  up, optionally bounded by ``park_deadline_seconds`` after which it is
  shed with reason ``"park-deadline"``.

Everything is deterministic under fixed seeds (backoff jitter comes from
a private ``random.Random`` keyed by ``(seed, request, attempt)``), and
an :class:`OverloadControl` with *no* bounds is normalised away by the
cluster -- overload-off drains run the exact pre-overload code path.

CLI grammar (see :func:`parse_overload_spec`; ``-`` leaves a bound
unset, at least one bound is required)::

    shed:QDEPTH[:TOKENS_PER_S]
    retry:QDEPTH[:TOKENS_PER_S[:ATTEMPTS[:SEED]]]
    park:QDEPTH[:TOKENS_PER_S[:DEADLINE_S]]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.serving.specs import spec_error, spec_fields, spec_float, spec_int

#: What happens to an arrival that hits an admission bound.
OVERLOAD_ACTIONS = ("shed", "retry", "park")

#: Default retry budget before a request is shed (mirrors max_migrations).
DEFAULT_MAX_ATTEMPTS = 8

#: Base delay of the exponential backoff schedule (seconds).
BACKOFF_SECONDS = 1.0

#: Token-bucket burst window: the throttle accumulates this many seconds
#: of credit, so short bursts above the sustained rate are absorbed.
BURST_SECONDS = 1.0

#: The CLI grammar, shared by the parser and its error messages.
OVERLOAD_GRAMMAR = (
    "shed:QDEPTH[:TOKENS_PER_S] | retry:QDEPTH[:TOKENS_PER_S[:ATTEMPTS"
    "[:SEED]]] | park:QDEPTH[:TOKENS_PER_S[:DEADLINE_S]] | none"
)


@dataclass(frozen=True)
class ShedRequest:
    """One structured load-shedding outcome (never a silent drop).

    ``reason`` names the bound that fired: ``"queue-bound"`` (every live
    node's waiting queue was at ``max_queue_depth``), ``"token-rate"``
    (the fleet token bucket was in deficit), ``"retry-exhausted"`` (the
    backoff budget ran out), or ``"park-deadline"`` (a parked request's
    deadline passed).  ``node`` is the node the shed is charged to for
    per-node accounting (the deepest-queued routable node -- the one
    whose backlog turned the request away).
    """

    request_id: int
    time: float
    reason: str
    attempts: int
    node: str


@dataclass(frozen=True)
class OverloadControl:
    """Admission-control configuration for one cluster drain.

    ``max_queue_depth`` bounds every node's waiting queue (pending plus
    waiting requests); ``max_tokens_per_second`` is the fleet-level
    sustained admission rate in request tokens (prompt + output), with a
    burst allowance of :data:`BURST_SECONDS` worth of credit.  Either bound
    may be ``None``; with both ``None`` the control :attr:`is_empty` and
    the cluster normalises it away.
    """

    action: str = "shed"
    max_queue_depth: int | None = None
    max_tokens_per_second: float | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_seed: int = 0
    park_deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.action not in OVERLOAD_ACTIONS:
            raise ConfigurationError(
                f"unknown overload action {self.action!r}; expected one of: "
                + ", ".join(OVERLOAD_ACTIONS)
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_tokens_per_second is not None:
            value = self.max_tokens_per_second
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(
                    "max_tokens_per_second must be positive and finite, "
                    f"got {value!r}"
                )
        if self.max_attempts < 0:
            raise ConfigurationError(
                f"max_attempts must be >= 0, got {self.max_attempts}"
            )
        if self.park_deadline_seconds is not None:
            value = self.park_deadline_seconds
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(
                    "park_deadline_seconds must be positive and finite, "
                    f"got {value!r}"
                )

    @property
    def is_empty(self) -> bool:
        """Whether this control bounds nothing at all."""
        return self.max_queue_depth is None and self.max_tokens_per_second is None


class TokenRateThrottle:
    """Fleet-level token bucket over request tokens (prompt + output).

    The bucket holds up to ``burst`` tokens of credit and refills at
    ``rate`` tokens per simulated second.  Admission is allowed whenever
    the level is non-negative; an admitted request *deducts its whole
    token footprint even past zero* (a deficit bucket), so any single
    request -- however large -- eventually admits once the deficit
    refills, guaranteeing progress without letting sustained load exceed
    the rate.
    """

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self._level = burst
        self._last = 0.0

    def _advance(self, now: float) -> None:
        if now > self._last:
            self._level = min(
                self.burst, self._level + (now - self._last) * self.rate
            )
            self._last = now

    def ready(self, now: float) -> bool:
        """Whether the bucket admits a request at simulated time ``now``."""
        self._advance(now)
        return self._level >= 0.0

    def seconds_until_ready(self, now: float) -> float:
        """Time until the current deficit refills (zero when ready)."""
        self._advance(now)
        if self._level >= 0.0:
            return 0.0
        return -self._level / self.rate

    def take(self, tokens: float, now: float) -> None:
        """Charge one admitted request's token footprint (may go negative)."""
        self._advance(now)
        self._level -= tokens


def parse_overload_spec(
    spec: str | None, seed: int = 0
) -> OverloadControl | None:
    """Parse a CLI overload spec into an :class:`OverloadControl`.

    Grammar: ``ACTION:QDEPTH[:TOKENS_PER_S[...]]`` where ``ACTION`` is
    ``shed`` | ``retry`` | ``park``; ``retry`` takes optional
    ``ATTEMPTS`` and ``SEED`` fields (``SEED`` defaults to ``seed``) and
    ``park`` an optional ``DEADLINE_S``.  ``-`` leaves a bound unset; at
    least one of ``QDEPTH`` / ``TOKENS_PER_S`` must be set.  ``None`` /
    ``"none"`` / ``"off"`` return ``None`` so callers keep the
    overload-free drain path.
    """
    if spec is None or spec in ("none", "off"):
        return None
    what, grammar = "overload", OVERLOAD_GRAMMAR
    action, _, rest = spec.partition(":")
    if action not in OVERLOAD_ACTIONS:
        raise spec_error(what, grammar, spec, reason="unknown action")
    counts = {"shed": (1, 2), "retry": (1, 2, 3, 4), "park": (1, 2, 3)}
    parts = spec_fields(rest, counts[action], what, grammar, spec)
    depth = (
        None
        if parts[0] == "-"
        else spec_int(parts[0], what, grammar, spec)
    )
    rate = None
    if len(parts) > 1 and parts[1] != "-":
        rate = spec_float(parts[1], what, grammar, spec)
    if depth is None and rate is None:
        raise spec_error(
            what, grammar, spec, reason="needs a queue depth or a token rate"
        )
    kwargs: dict = {
        "action": action,
        "max_queue_depth": depth,
        "max_tokens_per_second": rate,
    }
    if action == "retry":
        if len(parts) > 2:
            kwargs["max_attempts"] = spec_int(parts[2], what, grammar, spec)
        kwargs["backoff_seed"] = (
            spec_int(parts[3], what, grammar, spec) if len(parts) > 3 else seed
        )
    elif action == "park" and len(parts) > 2:
        kwargs["park_deadline_seconds"] = spec_float(
            parts[2], what, grammar, spec
        )
    return OverloadControl(**kwargs)
