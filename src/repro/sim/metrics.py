"""Phase-tagged time accounting for breakdown figures.

The paper presents stacked breakdowns of decode-step time into
``Load Weight`` / ``Load KV Cache`` / ``Store KV Cache`` / ``Host Compute``
(Figures 4b and 11b).  :class:`Breakdown` accumulates seconds per phase tag;
:class:`PhaseRecorder` is the helper step models use to attribute the elapsed
span of each modeled operation to a phase.

Overlapped operations each contribute their full span, and the chart
normalizes by the sum of contributions -- matching how the paper reports
percentage stacks rather than critical-path attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

# Canonical phase tags used across all step models.
LOAD_WEIGHT = "load_weight"
LOAD_KV = "load_kv"
STORE_KV = "store_kv"
HOST_COMPUTE = "host_compute"
NSP_COMPUTE = "nsp_compute"
NSP_IO = "nsp_io"

ALL_PHASES = (LOAD_WEIGHT, LOAD_KV, STORE_KV, HOST_COMPUTE, NSP_COMPUTE, NSP_IO)

#: The four phases the paper's breakdown charts display.
PAPER_PHASES = (LOAD_WEIGHT, LOAD_KV, STORE_KV, HOST_COMPUTE)


@dataclass
class Breakdown:
    """Accumulated seconds per phase tag."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, duration: float) -> None:
        """Attribute ``duration`` seconds to ``phase``."""
        if duration < 0:
            raise ValueError(f"negative duration for phase {phase!r}: {duration}")
        self.seconds[phase] = self.seconds.get(phase, 0.0) + duration

    def merge(self, other: "Breakdown") -> "Breakdown":
        """Fold another breakdown's contributions into this one."""
        for phase, duration in other.seconds.items():
            self.add(phase, duration)
        return self

    def total(self, phases: tuple[str, ...] | None = None) -> float:
        """Sum of contributions, optionally restricted to ``phases``."""
        if phases is None:
            return sum(self.seconds.values())
        return sum(self.seconds.get(phase, 0.0) for phase in phases)

    def fractions(self, phases: tuple[str, ...] = PAPER_PHASES) -> dict[str, float]:
        """Normalized shares over ``phases`` (the paper's percentage stacks)."""
        total = self.total(phases)
        if total <= 0:
            return {phase: 0.0 for phase in phases}
        return {phase: self.seconds.get(phase, 0.0) / total for phase in phases}

    def get(self, phase: str) -> float:
        """Seconds attributed to ``phase`` (0 if never recorded)."""
        return self.seconds.get(phase, 0.0)


class PhaseRecorder:
    """Records operation spans into a :class:`Breakdown`.

    Step-model processes wrap each modeled operation::

        t0 = recorder.start()
        yield some_channel.request(nbytes, tag)
        recorder.stop(LOAD_KV, t0)
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self.breakdown = Breakdown()

    def start(self) -> float:
        """Capture the current simulation time."""
        return self._sim.now

    def stop(self, phase: str, started_at: float) -> float:
        """Attribute the span since ``started_at`` to ``phase``; returns it."""
        duration = self._sim.now - started_at
        self.breakdown.add(phase, duration)
        return duration

    def accumulators(self) -> dict[str, float]:
        """Seconds per phase so far: the ``before`` reading of :meth:`repeat`."""
        return dict(self.breakdown.seconds)

    def repeat(self, before: dict[str, float], times: int) -> None:
        """Attribute ``times`` more repetitions of the spans since ``before``."""
        seconds = self.breakdown.seconds
        for phase, total in seconds.items():
            seconds[phase] = total + times * (total - before.get(phase, 0.0))


def mirrored_sum(
    devices: Iterable[Any], getter: Callable[[Any], float], multiplier: float = 1.0
) -> float:
    """Aggregate a per-device counter over a (possibly folded) device array.

    Representative-device simulation runs one member of a symmetric group
    and reconstructs array-wide metrics by multiplication: every member of
    the group would have recorded exactly the representative's counters, so
    ``multiplier x sum(simulated)`` *is* the array total (within float
    round-off of summing ``n`` equal addends).  In full-array mode the
    multiplier is 1.0 and this is a plain sum.
    """
    return multiplier * sum(getter(device) for device in devices)


@dataclass(frozen=True)
class StorageCounters:
    """Array-wide flash byte counters, mirrored across symmetric groups.

    Produced by :meth:`repro.sim.topology.SystemModel.storage_counters`;
    the values cover the *logical* device array regardless of whether the
    simulation ran every device or a representative per group.
    """

    logical_read: float = 0.0
    logical_written: float = 0.0
    physical_written: float = 0.0

    def __add__(self, other: "StorageCounters") -> "StorageCounters":
        return StorageCounters(
            logical_read=self.logical_read + other.logical_read,
            logical_written=self.logical_written + other.logical_written,
            physical_written=self.physical_written + other.physical_written,
        )

    @staticmethod
    def of_drives(drives: Iterable[Any], multiplier: float = 1.0) -> "StorageCounters":
        """Counters for a group of :class:`~repro.sim.flash.SSD`-like drives."""
        drives = list(drives)
        return StorageCounters(
            logical_read=mirrored_sum(drives, lambda d: d.logical_bytes_read, multiplier),
            logical_written=mirrored_sum(
                drives, lambda d: d.logical_bytes_written, multiplier
            ),
            physical_written=mirrored_sum(
                drives, lambda d: d.physical_bytes_written, multiplier
            ),
        )


@dataclass(frozen=True)
class UtilizationSample:
    """Host-resource utilization snapshot (Figure 4c)."""

    cpu: float
    gpu: float
    dram_capacity: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table printing."""
        return {"cpu": self.cpu, "gpu": self.gpu, "dram_capacity": self.dram_capacity}
