"""Request arrival processes for the serving simulation.

The offline drain's implicit all-at-time-zero queue is one point in a much
larger scenario space: bursty open-loop load, steady fixed-rate feeds, and
recorded production schedules all stress admission policy differently.  An
:class:`ArrivalProcess` assigns each queued request an arrival timestamp;
the scheduler then delivers requests into the waiting queue at those
simulated times (sleeping on the engine's event heap when the system runs
dry before the next arrival).

Everything here is deterministic under a fixed seed: :class:`PoissonArrivals`
draws its exponential gaps from a private ``random.Random(seed)`` created
per call, so two drains of the same process produce byte-identical
schedules regardless of interleaving.
"""

from __future__ import annotations

import abc
import json
import math
import random
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigurationError, SchedulingError
from repro.serving.specs import spec_error, spec_float, spec_int
from repro.workloads.requests import REQUEST_CLASSES, RequestClass

#: The CLI grammar, shared by the parser and its error messages.
ARRIVAL_GRAMMAR = (
    "poisson:RATE[:SEED] | burst:RATE:SIZE[:SEED] | rate:RATE | "
    "trace:PATH | offline"
)


class ArrivalProcess(abc.ABC):
    """Assigns arrival timestamps to a queue of serving requests."""

    @abc.abstractmethod
    def arrival_times(self, n: int) -> list[float]:
        """Non-decreasing arrival timestamps for ``n`` requests."""

    def checked_times(self, n: int) -> list[float]:
        """:meth:`arrival_times` for ``n`` requests, as validated floats.

        A drain's arrival-time check: a wrong count, or a time that is not
        finite, is negative, or decreases, raises a
        :class:`~repro.errors.SchedulingError` naming the process and the
        index -- a NaN time would otherwise pass every ordering comparison
        and stall the drain.
        """
        name = type(self).__name__
        times = list(map(float, self.arrival_times(n)))
        if len(times) != n:
            raise SchedulingError(
                f"{name} produced {len(times)} times for {n} requests"
            )
        if not all(map(math.isfinite, times)):
            index = next(i for i, t in enumerate(times) if not math.isfinite(t))
            raise SchedulingError(
                f"{name} produced a non-finite arrival time {times[index]!r} "
                f"at index {index}"
            )
        if times and min(times) < 0:
            index = next(i for i, t in enumerate(times) if t < 0)
            raise SchedulingError(
                f"{name} produced a negative arrival time {times[index]!r} "
                f"at index {index}"
            )
        if times != sorted(times):
            index = next(i for i in range(1, n) if times[i] < times[i - 1])
            raise SchedulingError(
                f"{name} produced decreasing arrival times at index {index} "
                f"({times[index - 1]!r} then {times[index]!r})"
            )
        return times


class AllAtOnce(ArrivalProcess):
    """The classic offline queue: every request arrives at time zero."""

    def arrival_times(self, n: int) -> list[float]:
        return [0.0] * n


def _check_rate(rate_per_second: float) -> None:
    """Reject an arrival rate that is not finite and positive: a NaN rate
    yields all-NaN times and an infinite one stamps every arrival at 0."""
    if not (math.isfinite(rate_per_second) and rate_per_second > 0):
        raise ConfigurationError(
            f"arrival rate must be finite and positive, got {rate_per_second!r}"
        )


class FixedRateArrivals(ArrivalProcess):
    """Deterministic open-loop feed: one request every ``1/rate`` seconds."""

    def __init__(self, rate_per_second: float) -> None:
        _check_rate(rate_per_second)
        self.rate_per_second = rate_per_second

    def arrival_times(self, n: int) -> list[float]:
        gap = 1.0 / self.rate_per_second
        return [i * gap for i in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Memoryless open-loop load: exponential inter-arrival gaps.

    A fresh ``random.Random(seed)`` is built on every :meth:`arrival_times`
    call, so the schedule is a pure function of ``(rate, seed, n)`` --
    draining the same process under several policies replays the identical
    schedule.
    """

    def __init__(self, rate_per_second: float, seed: int = 0) -> None:
        _check_rate(rate_per_second)
        self.rate_per_second = rate_per_second
        self.seed = seed

    def arrival_times(self, n: int) -> list[float]:
        rng = random.Random(self.seed)
        times: list[float] = []
        now = 0.0
        for _ in range(n):
            now += rng.expovariate(self.rate_per_second)
            times.append(now)
        return times


class BatchedArrivals(ArrivalProcess):
    """Poisson-timed bursts: ``burst_size`` requests share each timestamp.

    Models clients that submit work in fixed-size batches (an offline
    scoring job flushing a shard, a fan-out frontend issuing one call per
    replica): burst start times follow a Poisson process at
    ``rate_per_second`` bursts/s, and every request inside a burst carries
    the identical arrival time.  A trailing partial burst is allowed, so
    any queue length is servable.  When the burst size is a multiple of
    the fleet size, round-robin deals every node an identical slice, so
    the folded drain (see :mod:`repro.serving.cluster`) simulates one
    representative node -- the canonical load shape for fleet-folding
    benchmarks.

    Like :class:`PoissonArrivals`, the schedule is a pure function of
    ``(rate, burst_size, seed, n)``.
    """

    def __init__(
        self, rate_per_second: float, burst_size: int, seed: int = 0
    ) -> None:
        _check_rate(rate_per_second)
        if burst_size < 1:
            raise ConfigurationError("burst size must be >= 1")
        self.rate_per_second = rate_per_second
        self.burst_size = burst_size
        self.seed = seed

    def arrival_times(self, n: int) -> list[float]:
        rng = random.Random(self.seed)
        times: list[float] = []
        now = 0.0
        while len(times) < n:
            now += rng.expovariate(self.rate_per_second)
            times.extend([now] * min(self.burst_size, n - len(times)))
        return times


class TraceReplay(ArrivalProcess):
    """Replay a recorded arrival schedule (e.g. a production trace).

    Construct from an explicit list of timestamps or from a JSONL file via
    :meth:`from_jsonl`, one object per line::

        {"arrival_time": 0.0, "class": "Short"}
        {"arrival_time": 1.7, "class": "Long"}

    ``arrival_time`` is required; ``class`` is optional and, when present
    on every line, :meth:`request_classes` rebuilds the traced workload so
    a trace fully specifies a scenario (schedule *and* shapes).
    """

    def __init__(
        self,
        times: Sequence[float],
        classes: Sequence[RequestClass] | None = None,
    ) -> None:
        if not times:
            raise ConfigurationError("arrival trace is empty")
        ordered = [float(t) for t in times]
        if any(not math.isfinite(t) for t in ordered):
            raise ConfigurationError(
                "arrival trace contains non-finite times (nan/inf)"
            )
        if any(t < 0 for t in ordered):
            raise ConfigurationError("arrival trace contains negative times")
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ConfigurationError("arrival trace times must be non-decreasing")
        if classes is not None and len(classes) != len(ordered):
            raise ConfigurationError(
                f"trace has {len(ordered)} times but {len(classes)} classes"
            )
        self.times = ordered
        self.classes = list(classes) if classes is not None else None

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TraceReplay":
        """Load a trace from a JSONL schedule file.

        Every line is validated before the trace is returned -- malformed
        JSON, non-object lines, missing / non-numeric / non-finite /
        negative / decreasing ``arrival_time`` values, and unknown or
        inconsistently-present ``class`` names all raise a
        :class:`~repro.errors.ConfigurationError` naming the offending
        line, so a bad trace fails at load time instead of mid-drain.
        """
        times: list[float] = []
        classes: list[RequestClass] = []
        saw_class = False
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigurationError(
                        f"{path}:{lineno}: invalid JSON ({exc})"
                    ) from None
                if not isinstance(record, dict):
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected a JSON object per line, "
                        f"got {type(record).__name__}"
                    )
                if "arrival_time" not in record:
                    raise ConfigurationError(
                        f"{path}:{lineno}: missing 'arrival_time'"
                    )
                raw = record["arrival_time"]
                if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                    raise ConfigurationError(
                        f"{path}:{lineno}: 'arrival_time' must be a number, "
                        f"got {raw!r}"
                    )
                time = float(raw)
                if not math.isfinite(time):
                    # Python's json module accepts NaN/Infinity literals;
                    # NaN would sail through every ordering comparison and
                    # only blow up deep inside the drain.
                    raise ConfigurationError(
                        f"{path}:{lineno}: 'arrival_time' must be finite, "
                        f"got {raw!r}"
                    )
                if time < 0:
                    raise ConfigurationError(
                        f"{path}:{lineno}: negative 'arrival_time' {raw!r}"
                    )
                if times and time < times[-1]:
                    raise ConfigurationError(
                        f"{path}:{lineno}: 'arrival_time' {raw!r} decreases "
                        f"(previous line had {times[-1]!r}); traces must be "
                        "non-decreasing"
                    )
                times.append(time)
                name = record.get("class")
                if name is not None:
                    saw_class = True
                    if name not in REQUEST_CLASSES:
                        known = ", ".join(REQUEST_CLASSES)
                        raise ConfigurationError(
                            f"{path}:{lineno}: unknown request class {name!r} "
                            f"(known: {known})"
                        )
                    classes.append(REQUEST_CLASSES[name])
                elif saw_class:
                    raise ConfigurationError(
                        f"{path}:{lineno}: missing 'class' (earlier lines set it; "
                        "a trace must name classes on every line or none)"
                    )
        if not times:
            raise ConfigurationError(f"{path}: arrival trace is empty")
        if saw_class and len(classes) != len(times):
            # A class-less prefix followed by classed lines.
            raise ConfigurationError(
                f"{path}: only {len(classes)} of {len(times)} lines name a "
                "request class; name it on every line or none"
            )
        return cls(times, classes if saw_class else None)

    def request_classes(self) -> list[RequestClass]:
        """The traced request shapes (requires ``class`` on every line)."""
        if self.classes is None:
            raise SchedulingError(
                "trace carries no request classes; sample a workload and use "
                "the trace for timestamps only"
            )
        return list(self.classes)

    def arrival_times(self, n: int) -> list[float]:
        if n > len(self.times):
            raise SchedulingError(
                f"trace holds {len(self.times)} arrivals but {n} were requested"
            )
        return self.times[:n]


def parse_arrival_spec(spec: str | None, seed: int = 0) -> ArrivalProcess | None:
    """Parse a CLI arrival spec into an :class:`ArrivalProcess`.

    Accepted forms: ``poisson:RATE`` (seeded with ``seed``),
    ``poisson:RATE:SEED``, ``burst:RATE:SIZE`` / ``burst:RATE:SIZE:SEED``
    (Poisson-timed fixed-size bursts), ``rate:RATE``, ``trace:PATH``, and
    ``None`` / ``"offline"`` for the all-at-time-zero queue, which returns
    ``None``: a drain without an arrival process starts every request at
    zero.
    """
    if spec is None or spec == "offline":
        return None
    what, grammar = "arrival", ARRIVAL_GRAMMAR
    kind, _, rest = spec.partition(":")
    if kind == "poisson":
        rate, _, seed_part = rest.partition(":")
        return PoissonArrivals(
            spec_float(rate, what, grammar, spec),
            seed=spec_int(seed_part, what, grammar, spec) if seed_part else seed,
        )
    if kind == "burst":
        rate, _, rest2 = rest.partition(":")
        size, _, seed_part = rest2.partition(":")
        if not size:
            raise spec_error(
                what, grammar, spec, reason="burst needs RATE and SIZE"
            )
        return BatchedArrivals(
            spec_float(rate, what, grammar, spec),
            spec_int(size, what, grammar, spec),
            seed=spec_int(seed_part, what, grammar, spec) if seed_part else seed,
        )
    if kind == "rate":
        return FixedRateArrivals(spec_float(rest, what, grammar, spec))
    if kind == "trace":
        if not rest:
            raise spec_error(what, grammar, spec, reason="trace needs a path")
        return TraceReplay.from_jsonl(rest)
    raise spec_error(what, grammar, spec, reason=f"unknown kind {kind!r}")
