"""Bandwidth-shared channels and compute resources.

Channels model any rate-limited resource: a PCIe link, an SSD's flash read
path, a DRAM bus, or a compute unit's FLOP throughput.  Two queueing
disciplines are provided:

``shared``
    Processor-sharing (progressive filling): all in-flight requests advance
    simultaneously, each receiving an equal share of capacity.  This is the
    right model for PCIe links and memory buses where DMA engines interleave
    transfers.

``fifo``
    Store-and-forward serialization: requests complete one after another at
    full capacity.  This models a compute unit executing one kernel at a
    time.

The shared discipline uses the classic *virtual time* formulation of
processor sharing: ``V(t)`` advances at ``capacity / n(t)`` work units per
second, so a flow of size ``w`` arriving when the virtual clock reads ``V``
finishes exactly when ``V(t)`` reaches ``V + w`` -- regardless of how many
flows come and go in between.  Each arrival/departure is therefore O(log n)
(a heap push/pop plus at most one timer re-arm) instead of the O(n)
recompute-all of decrementing every flow's remaining work, and only the
earliest-completing flow ever has a timer scheduled.  Stale timers are
invalidated lazily through :class:`~repro.sim.engine.ScheduledCallback`
handles rather than rescheduled eagerly.

Both disciplines keep byte/FLOP accounting per tag so experiment harnesses
can produce the paper's stacked breakdown charts (Figures 4b, 11b).
"""

from __future__ import annotations

import heapq
from typing import Iterable

from typing import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Barrier, Event, ScheduledCallback, Simulator, callback_kind

#: Relative completion slack for virtual-time comparisons.  The tolerance is
#: scaled by the magnitude of the flow's virtual finish coordinate (with an
#: absolute floor of the same value), and the virtual clock rebases to zero
#: at the start of every busy period, so the accuracy guarantee is: every
#: flow completes within ~1e-9 *relative to its busy period's cumulative
#: work* of its true finish.  A multi-terabyte transfer can therefore
#: neither complete early by more than a part in 1e9 nor strand a residue
#: an absolute epsilon could not express; flows closer together than that
#: bound may complete in one batch -- the precision limit of accumulating
#: virtual time in doubles.
_REL_EPSILON = 1e-9


class Channel:
    """A rate-limited resource with per-tag accounting.

    Parameters
    ----------
    sim:
        The owning simulator.
    capacity:
        Units of work per second (bytes/s for links, FLOP/s for compute).
    name:
        Human-readable identifier used in error messages and metrics.
    discipline:
        ``"shared"`` (processor sharing) or ``"fifo"`` (serialized).
    latency:
        Fixed per-request latency in seconds added before service begins
        (models submission/completion overheads such as NVMe round trips).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        name: str = "channel",
        discipline: str = "shared",
        latency: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"channel {name!r} capacity must be positive")
        if discipline not in ("shared", "fifo"):
            raise ConfigurationError(f"channel {name!r}: unknown discipline {discipline!r}")
        if latency < 0:
            raise ConfigurationError(f"channel {name!r}: latency must be non-negative")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self.discipline = discipline
        self.latency = float(latency)
        # shared-discipline state: the virtual clock, a min-heap of
        # (virtual finish time, seq, completion callback) flows, and the
        # single armed timer.
        self._virtual = 0.0
        self._flow_heap: list[tuple[float, int, Callable[[], None]]] = []
        self._flow_seq = 0
        self._last_update = 0.0
        self._timer: ScheduledCallback | None = None
        self._epoch = 0
        self._armed_epoch = 0
        # fifo-discipline state
        self._ready_at = 0.0
        # accounting
        self._busy_time = 0.0
        self.total_work = 0.0
        self.work_by_tag: dict[str, float] = {}
        sim.channels.append(self)

    # --- public API ---------------------------------------------------------

    def request(self, amount: float, tag: str = "untagged") -> Event:
        """Ask for ``amount`` units of service; returns a completion event."""
        event = Event(self.sim, name=tag)
        self._submit(amount, tag, event.succeed)
        return event

    def request_into(self, amount: float, tag: str, barrier: Barrier) -> None:
        """Service ``amount`` units, reporting completion into ``barrier``.

        The barrier replaces the per-request :class:`Event`: multi-hop
        composite transfers register one arrival per hop instead of
        allocating an event + conjunction callback per hop.
        """
        barrier.add()
        self._submit(amount, tag, barrier.arrive)

    def _submit(self, amount: float, tag: str, done: Callable[[], None]) -> None:
        if amount < 0:
            raise SimulationError(f"channel {self.name!r}: negative request {amount}")
        if amount == 0:
            self.sim.schedule(self.latency, done)
            return
        self.total_work += amount
        self.work_by_tag[tag] = self.work_by_tag.get(tag, 0.0) + amount
        if self.discipline == "fifo":
            self._request_fifo(amount, done)
        else:
            self._request_shared(amount, done)

    def service_time(self, amount: float) -> float:
        """Uncontended service time for ``amount`` units (excluding queueing)."""
        return self.latency + amount / self.capacity

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time the channel has been busy so far."""
        self._advance()
        horizon = self.sim.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / horizon)

    @property
    def busy_seconds(self) -> float:
        """Cumulative busy time (advanced to the current simulation time)."""
        self._advance()
        return self._busy_time

    @property
    def in_flight(self) -> int:
        """Number of currently active shared-discipline flows."""
        return len(self._flow_heap)

    # --- layer folding ----------------------------------------------------------

    def relative_state(self, keys: list, values: list[float]) -> None:
        """Append the work in flight, relative to now, to a snapshot.

        FIFO: the backlog still to serve.  Shared: each flow's remaining
        service seconds at full capacity in completion order, keyed by the
        completion it reports into, plus whether the armed timer predates
        the last population change.  Reads the virtual clock as of now
        without advancing it, so taking a snapshot never perturbs the
        simulation (see :meth:`Simulator.relative_state`).
        """
        now = self.sim.now
        if self.discipline == "fifo":
            if self._ready_at > now:
                keys.append(self)
                values.append(self._ready_at - now)
            return
        heap = self._flow_heap
        if not heap:
            return
        virtual = self._virtual
        if now > self._last_update:
            virtual += (now - self._last_update) * self.capacity / len(heap)
        keys.append((self, self._armed_epoch == self._epoch))
        for finish, _, done in sorted(heap):
            keys.append(callback_kind(done))
            values.append((finish - virtual) / self.capacity)

    def _busy_now(self) -> float:
        """Busy seconds as of now, without advancing the virtual clock."""
        now = self.sim.now
        if self._flow_heap and now > self._last_update:
            return self._busy_time + (now - self._last_update)
        return self._busy_time

    def accumulators(self) -> tuple[float, float, dict[str, float]]:
        """(busy seconds, total work, work per tag) as of now: the
        ``before`` reading of :meth:`repeat`."""
        return self._busy_now(), self.total_work, dict(self.work_by_tag)

    def repeat(self, before: tuple[float, float, dict[str, float]], times: int) -> None:
        """Account ``times`` more repetitions of the work done since the
        ``before`` reading: layer folding's stand-in for simulating them."""
        busy, total, by_tag = before
        self._busy_time += times * (self._busy_now() - busy)
        self.total_work += times * (self.total_work - total)
        for tag, work in self.work_by_tag.items():
            self.work_by_tag[tag] = work + times * (work - by_tag.get(tag, 0.0))

    # --- fifo discipline ------------------------------------------------------

    def _request_fifo(self, amount: float, done: Callable[[], None]) -> None:
        start = max(self.sim.now + self.latency, self._ready_at)
        duration = amount / self.capacity
        finish = start + duration
        self._ready_at = finish
        self._busy_time += duration
        self.sim.schedule(finish - self.sim.now, done)

    # --- shared discipline ------------------------------------------------------

    def _request_shared(self, amount: float, done: Callable[[], None]) -> None:
        if self.latency > 0:
            self.sim.schedule(self.latency, lambda: self._add_flow(amount, done))
        else:
            self._add_flow(amount, done)

    def _add_flow(self, amount: float, done: Callable[[], None]) -> None:
        self._advance()
        if not self._flow_heap:
            # New busy period: rebase the virtual clock so its magnitude --
            # and with it the relative completion slack -- tracks the work
            # in flight, not the channel's lifetime total.
            self._virtual = 0.0
        self._epoch += 1
        self._flow_seq += 1
        heapq.heappush(self._flow_heap, (self._virtual + amount, self._flow_seq, done))
        self._arm()

    def _advance(self) -> None:
        """Advance the virtual clock up to the current time.

        O(1): cumulative normalized service is credited to every active flow
        implicitly through ``_virtual`` rather than by touching each flow.
        """
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flow_heap:
            return
        self._virtual += elapsed * self.capacity / len(self._flow_heap)
        self._busy_time += elapsed

    def _arm(self) -> None:
        """Ensure a timer is armed for the earliest virtual completion.

        The armed real time is exact only while the flow population is
        unchanged; an arrival slows the virtual clock, so an already-armed
        timer may fire *early* -- :meth:`_on_timer` detects that and re-arms.
        A timer is torn down (lazily, via handle cancellation) only when a
        new earliest target would complete before the armed fire time.
        """
        timer = self._timer
        if not self._flow_heap:
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        now = self.sim.now
        head_v = self._flow_heap[0][0]
        fire_at = now + (head_v - self._virtual) * len(self._flow_heap) / self.capacity
        if timer is not None:
            if timer.time <= fire_at:
                # The armed timer fires no later than the earliest completion
                # could happen; keep it and let the lazy recheck re-arm.
                return
            timer.cancel()
        self._armed_epoch = self._epoch
        self._timer = self.sim.schedule_cancellable(
            max(0.0, fire_at - now), self._on_timer
        )

    def _on_timer(self) -> None:
        # Only the live timer can fire (replaced timers are cancelled), so
        # the epoch captured at arm time lives on the channel rather than in
        # a per-arm closure.
        epoch = self._armed_epoch
        self._timer = None
        self._advance()
        finished: list[Callable[[], None]] = []
        heap = self._flow_heap
        virtual = self._virtual
        while heap:
            head_v = heap[0][0]
            if head_v <= virtual + _REL_EPSILON * (head_v if head_v > 1.0 else 1.0):
                finished.append(heapq.heappop(heap)[2])
            else:
                break
        if not finished and heap and epoch == self._epoch:
            # The population is unchanged since arming, so the head flow is
            # exactly due; nudge the virtual clock across float rounding.
            self._virtual = heap[0][0]
            finished.append(heapq.heappop(heap)[2])
        if finished:
            self._epoch += 1
        self._arm()
        for done in finished:
            done()


class ComputeResource(Channel):
    """A FLOP-rate resource (GPU SMs, CPU cores, FPGA MAC array).

    Compute units execute kernels one at a time, so the default discipline
    is FIFO; capacity is expressed in FLOP/s.
    """

    def __init__(
        self,
        sim: Simulator,
        flops: float,
        name: str = "compute",
        discipline: str = "fifo",
        latency: float = 0.0,
    ) -> None:
        super().__init__(sim, flops, name=name, discipline=discipline, latency=latency)

    def execute(self, flop_count: float, tag: str = "compute") -> Event:
        """Run a kernel of ``flop_count`` floating-point operations."""
        return self.request(flop_count, tag)


class Path:
    """A multi-hop route through several channels.

    A transfer over a path reserves every hop concurrently for the full byte
    count and completes when the slowest hop finishes.  This flow-level
    approximation captures the bottleneck-link behaviour that drives the
    paper's analysis (the shared host interconnect in Figure 3) without
    modeling per-packet pipelining.
    """

    def __init__(self, channels: Iterable[Channel], name: str = "path") -> None:
        self.channels = [channel for channel in channels if channel is not None]
        self.name = name
        if not self.channels:
            raise ConfigurationError(f"path {name!r} must contain at least one channel")

    def transfer(self, amount: float, tag: str = "untagged") -> Event:
        """Move ``amount`` bytes across every hop; completes on the slowest."""
        done = Barrier(self.channels[0].sim, name=tag)
        for channel in self.channels:
            channel.request_into(amount, tag, done)
        return done

    def bottleneck_bandwidth(self) -> float:
        """Uncontended end-to-end bandwidth (minimum hop capacity)."""
        return min(channel.capacity for channel in self.channels)

    def service_time(self, amount: float) -> float:
        """Uncontended end-to-end time for ``amount`` bytes."""
        return max(channel.service_time(amount) for channel in self.channels)
