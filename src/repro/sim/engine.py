"""Minimal discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized by
SimPy, which is not available offline): *processes* are Python generators
that ``yield`` :class:`Event` objects and are resumed when those events
trigger.  The :class:`Simulator` owns virtual time and an event heap.

Only the features the library needs are implemented -- timeouts (after a
delay, or at an absolute time), process completion events, and all-of
conjunction -- which keeps the kernel small enough to reason about and to
property-test (see ``tests/sim/test_engine.py``).  Every delay and time
must be finite and not in the past: a NaN would break the heap order (and
never compare equal to itself when the clock sweeps it), and an infinite
one would end the clock, so both raise :class:`SimulationError`.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.channel import Channel

#: Type alias for the generator shape driven by :class:`Process`.
ProcessGenerator = Generator["Event", Any, Any]

_INF = float("inf")


class Event:
    """A one-shot occurrence in simulated time.

    Events start untriggered; :meth:`succeed` fires them exactly once, after
    which their :attr:`value` is frozen and every registered callback runs
    immediately (still at the current simulation time).  :meth:`fail` fires
    the event in the *failed* state instead, carrying an exception; waiters
    observe the failure (processes have it re-raised at their ``yield``)
    rather than a value.
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_value", "_exception")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        # The callback list is allocated lazily: most events in large
        # simulations have zero or one waiter, and skipping the empty-list
        # allocation is a measurable win on the event-churn hot path.
        self._callbacks: list[Callable[[Event], None]] | None = None
        self._triggered = False
        self._value: Any = None
        self._exception: BaseException | None = None

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def failed(self) -> bool:
        """Whether the event fired in the failed state."""
        return self._exception is not None

    @property
    def exception(self) -> BaseException | None:
        """The failure exception (``None`` for pending/succeeded events)."""
        return self._exception

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` until triggered)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking every waiter. Firing twice is an error."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)
        if self.sim.sanitizer is not None:
            self.sim.sanitizer.note_triggered(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event in the failed state, waking every waiter.

        Unlike raising from inside a heap callback, failing keeps the event
        heap consistent: waiters run and can propagate or handle the error,
        and :meth:`Simulator.run` re-raises it when the failed event is the
        one being awaited.
        """
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, None
        # Record every failure; whoever *consumes* the exception (a process
        # resumed with it, an awaiting run(), a conjunction that adopts it)
        # discharges the record.  Whatever is still recorded when a
        # drain-mode run() finishes was genuinely lost and gets re-raised.
        self.sim._record_unobserved_failure(self)
        if callbacks:
            for callback in callbacks:
                callback(self)
        if self.sim.sanitizer is not None:
            self.sim.sanitizer.note_triggered(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already triggered.

        Registering on a failed event does not by itself count as consuming
        the failure -- only the consumption points (a process resumed with
        the exception, an awaiting ``run()``, a conjunction adopting it)
        discharge the unobserved-failure record.
        """
        if self._triggered:
            callback(self)
            return
        if self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)
        if self.sim.sanitizer is not None:
            self.sim.sanitizer.note_waiter(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The delay is validated by :meth:`Simulator.schedule`: a negative, NaN
    or infinite one raises :class:`SimulationError`.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim, name="timeout")
        sim.schedule(delay, lambda: self.succeed(value))


class AllOf(Event):
    """Conjunction event: fires when every constituent event has fired.

    The value is the list of constituent values in input order.  An empty
    input fires immediately with an empty list.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="all_of")
        events = list(events)
        self._pending = len(events)
        self._values: list[Any] = [None] * len(events)
        if not events:
            sim.schedule(0.0, lambda: self.succeed([]))
            return
        for index, event in enumerate(events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_trigger(event: Event) -> None:
            if event.failed:
                # The first constituent failure fails the conjunction, which
                # adopts (consumes) the exception; a failure arriving after
                # we already triggered stays recorded unless another waiter
                # of that event consumes it.
                if not self._triggered:
                    self.sim._discharge_failure(event)
                    self.fail(event.exception)
                return
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0 and not self._triggered:
                self.succeed(list(self._values))

        return on_trigger


class Barrier(Event):
    """Counted conjunction for completions that cannot fail.

    Semantically ``AllOf`` over ``count`` anonymous constituents, but
    without allocating an :class:`Event` (plus a callback closure) per
    constituent -- producers call :meth:`arrive` directly.  Channels use it
    for striped multi-device transfers, where a single barrier replaces one
    event per device hop on the simulation's hottest allocation path.

    Because constituents are anonymous there is no failure propagation:
    use it only for completions that cannot fail (channel service events).
    Producers must register (via the constructor count or :meth:`add`)
    before the simulator runs any callbacks, which holds whenever arrivals
    are scheduled -- never delivered synchronously from the registering
    code path.
    """

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", count: int = 0, name: str = "barrier") -> None:
        super().__init__(sim, name)
        self._pending = count

    def add(self, count: int = 1) -> None:
        """Register ``count`` more expected arrivals."""
        if self._triggered:
            raise SimulationError(f"barrier {self.name!r} already triggered")
        self._pending += count

    def arrive(self, count: int = 1) -> None:
        """Record ``count`` completions; fires the barrier when all arrived.

        Producers that learn of several completions at once (a representative
        device standing in for a symmetric group, a channel finishing a batch
        of equal flows) coalesce them into a single arrival call instead of
        ticking the barrier once per constituent.
        """
        self._pending -= count
        if self._pending == 0:
            self.succeed(None)
        elif self._pending < 0:
            raise SimulationError(f"barrier {self.name!r}: more arrivals than registered")


class Process(Event):
    """Drives a generator coroutine; is itself an event for its completion.

    The generator yields :class:`Event` instances.  When a yielded event
    triggers, the process is resumed with the event's value.  When the
    generator returns, the process event fires with the return value.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        sim.schedule(0.0, lambda: self._step(None))

    def _step(self, send_value: Any, throw: BaseException | None = None) -> None:
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # The generator raised (or declined to handle a propagated
            # failure): fail the process event so waiters observe the error
            # instead of deadlocking on a permanently untriggered event.
            self.fail(exc)
            return
        if not isinstance(target, Event):
            # Failing cleanly (rather than raising from inside a heap
            # callback) keeps the simulator usable and wakes AllOf waiters.
            self._generator.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {type(target).__name__}; "
                    "processes must yield Event instances"
                )
            )
            return
        target.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        if event.failed:
            # The exception is delivered into the generator: consumed.
            self.sim._discharge_failure(event)
            self._step(None, throw=event.exception)
        else:
            self._step(event.value)


def callback_kind(callback: Callable[..., Any]) -> Any:
    """What ``callback`` does, without the identity of per-layer events.

    A bound method is its function plus its owner, and a closure is its
    code plus the values it closes over.  Events stand in by name and
    other objects (channels) by identity, so the same operation issued for
    a later layer -- a fresh barrier with the same tag -- has the same
    kind.  Used by :meth:`Simulator.relative_state`.
    """
    cells = getattr(callback, "__closure__", None)
    if cells:
        return (callback.__code__, *[_value_kind(cell.cell_contents) for cell in cells])
    return _value_kind(callback)


def _value_kind(value: Any) -> Any:
    """The kind of one callback or closed-over value (not recursive)."""
    if isinstance(value, Event):
        return value.name
    if value is None or isinstance(value, (int, float, str)):
        return value
    function = getattr(value, "__func__", None)
    if function is not None:  # a bound method
        return (function, _value_kind(value.__self__))
    return getattr(value, "__code__", None) or id(value)


class ScheduledCallback:
    """Handle for one scheduled callback; supports lazy cancellation.

    Cancelling does not remove the entry from the event heap (that would be
    O(n)); the entry stays in place and is skipped when popped.  This is the
    engine-level primitive behind the channels' stale-timer invalidation:
    instead of re-deriving every flow's completion on each arrival, a channel
    cancels its single armed timer and arms a new one, and the dead heap
    entry costs one pop.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the callback as dead; it will be skipped, never run."""
        self.cancelled = True
        self.callback = None  # break reference cycles early


class Simulator:
    """Owns virtual time and the scheduled-callback heap.

    ``sanitize`` installs a :class:`~repro.analysis.sanitizer.SimSanitizer`
    that checks cheap engine invariants (finite delays, heap monotonicity,
    callback drain, lost wakeups) as the simulation runs; ``None`` (the
    default) defers to the ``REPRO_SIM_SANITIZE`` environment variable.
    When off, every hook site is a single ``is not None`` check, so the
    unsanitized hot path stays within the benchmark gates.
    """

    def __init__(self, sanitize: bool | None = None) -> None:
        # Heap entries carry either a bare callable (the common, allocation-
        # free case) or a ScheduledCallback handle (cancellable timers).
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None] | ScheduledCallback]] = []
        self._sequence = 0
        self._processed = 0
        self._unobserved_failures: list[Event] = []
        #: Every channel built on this simulator, in construction order:
        #: :meth:`relative_state` snapshots them and layer folding scales
        #: their accumulators (see ``repro.baselines.base``).
        self.channels: list[Channel] = []
        if sanitize is None:
            from repro.analysis.sanitizer import sanitize_enabled_by_env

            sanitize = sanitize_enabled_by_env()
        if sanitize:
            from repro.analysis.sanitizer import SimSanitizer

            self.sanitizer = SimSanitizer()
        else:
            self.sanitizer = None

    def _record_unobserved_failure(self, event: Event) -> None:
        self._unobserved_failures.append(event)

    def _discharge_failure(self, event: Event) -> None:
        try:
            self._unobserved_failures.remove(event)
        except ValueError:
            pass

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of scheduled callbacks executed so far (for diagnostics)."""
        return self._processed

    def _reject_delay(self, delay: float) -> None:
        """Raise for a delay outside ``[0, inf)``: negative, NaN or infinite.

        A sanitized simulator reports a non-finite delay as its
        ``finite-delay`` invariant first.
        """
        if self.sanitizer is not None:
            self.sanitizer.check_schedule(self._now, delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        raise SimulationError(f"cannot schedule a non-finite delay ({delay})")

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if not 0.0 <= delay < _INF:
            self._reject_delay(delay)
        self._sequence += 1
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback))

    def schedule_cancellable(
        self, delay: float, callback: Callable[[], None]
    ) -> ScheduledCallback:
        """Like :meth:`schedule`, but returns a cancellable handle.

        :meth:`ScheduledCallback.cancel` lazily invalidates the entry: it
        stays in the heap and is skipped (without advancing time) when
        popped, so cancellation is O(1) instead of an O(n) heap removal.
        """
        if not 0.0 <= delay < _INF:
            self._reject_delay(delay)
        self._sequence += 1
        handle = ScheduledCallback(self._now + delay, callback)
        heapq.heappush(self._heap, (handle.time, self._sequence, handle))
        return handle

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Event:
        """Create an event that fires at the absolute simulated ``time``.

        ``timeout(time - now)`` lands on ``now + (time - now)``, which need
        not round back to ``time``; this lands on ``time`` itself, so a
        process that sums a run of delays the way successive timeouts
        would (``t += delay``) sleeps once to the very instant the last of
        them would have fired.  ``time`` must be finite and not before now.
        """
        if not self._now <= time < _INF:
            self._reject_delay(time - self._now)
        event = Event(self, name="timeout")
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, lambda: event.succeed(value)))
        return event

    def event(self, name: str = "") -> Event:
        """Create a bare, manually-triggered event."""
        return Event(self, name)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a running process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create an event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def run(self, until: Event | float | None = None) -> Any:
        """Advance the simulation.

        ``until`` may be an :class:`Event` (run until it triggers and return
        its value, or re-raise its exception if it failed), a time (run until
        the heap is exhausted or that time is reached), or ``None`` (drain
        the heap).  Drain/horizon runs re-raise the first failure no waiter
        observed, so fire-and-forget process errors are never lost.

        Delivery is *batched*: every live callback sharing the earliest
        timestamp is popped in one sweep (cancelled timer entries are
        discarded in the same pass without dispatch overhead) and the batch
        runs back-to-back in schedule order.  Callbacks scheduled *during* a
        batch for the same timestamp land in the next sweep, which preserves
        the strict (time, sequence) execution order of one-at-a-time
        delivery while touching the heap and the clock once per timestamp
        instead of once per event.
        """
        if isinstance(until, Event):
            stop_event = until
            while not stop_event.triggered:
                batch = self._next_batch(float("inf"))
                if batch is None:
                    if self._unobserved_failures:
                        # The deadlock is downstream of a process failure
                        # nobody observed; raise the root cause, not the
                        # generic symptom.
                        failed = self._unobserved_failures.pop(0)
                        raise failed.exception
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        f"event {stop_event.name!r} triggered (deadlock?)"
                    )
                self._run_batch(batch, stop_event)
            if stop_event.failed:
                self._discharge_failure(stop_event)
                raise stop_event.exception
            return stop_event.value
        horizon = float("inf") if until is None else float(until)
        while True:
            batch = self._next_batch(horizon)
            if batch is None:
                break
            self._run_batch(batch, None)
        if until is not None and horizon > self._now:
            self._now = horizon
        if self._unobserved_failures:
            # A fire-and-forget process failed and nothing ever looked at
            # it; surface the first failure rather than return a silently
            # truncated simulation.
            failed = self._unobserved_failures.pop(0)
            raise failed.exception
        if until is None and self.sanitizer is not None:
            # A full drain exhausted the heap: anything still waiting on an
            # untriggered event is a lost wakeup, not pending work.
            self.sanitizer.check_drained(self)
        return None

    def relative_state(self) -> tuple[list, list[float]]:
        """The pending work as of now, in a form two instants can compare.

        Returns ``(keys, values)``: ``values`` holds every live heap
        entry's time relative to now and, per registered channel, each
        in-flight flow's remaining service seconds and the FIFO backlog;
        ``keys`` holds what each value belongs to -- the callback's kind
        (its code and the names of the events it fires, so the same step
        of a later layer compares equal) and the channel.  Two instants
        with equal keys and values within rounding have the same future
        up to a time shift.  Reading the state changes nothing: no channel
        clock advances.  Callbacks already popped into the running batch
        share the current timestamp and are not listed.
        """
        now = self._now
        keys: list = []
        values: list[float] = []
        for time, _, callback in sorted(self._heap):
            if callback.__class__ is ScheduledCallback:
                if callback.cancelled:
                    continue
                callback = callback.callback
            keys.append(callback_kind(callback))
            values.append(time - now)
        for channel in self.channels:
            channel.relative_state(keys, values)
        return keys, values

    def sanitize_check_drained(self) -> None:
        """Run the sanitizer's lost-wakeup check at a drain boundary.

        For callers that advance the simulation via ``run(until=event)``
        (e.g. a cluster drain awaiting its engine conjunction) and want the
        end-of-drain invariant even though they never issue a heap-draining
        ``run()``.  A no-op on unsanitized simulators.
        """
        if self.sanitizer is not None:
            self.sanitizer.check_drained(self)

    def _next_batch(self, horizon: float) -> list[tuple[int, Callable[[], None]]] | None:
        """Pop every live callback at the earliest live timestamp.

        Returns ``None`` when no live entry exists at or before ``horizon``.
        Cancelled :class:`ScheduledCallback` entries are dropped without
        advancing the clock, so a stale channel timer armed past the last
        real event can never stretch the simulated clock.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head_callback = heap[0][2]
            if head_callback.__class__ is ScheduledCallback and head_callback.cancelled:
                pop(heap)
                continue
            break
        if not heap or heap[0][0] > horizon:
            return None
        batch_time = heap[0][0]
        if batch_time < self._now - 1e-12:
            raise SimulationError("event heap produced a time in the past")
        if self.sanitizer is not None:
            self.sanitizer.check_batch_time(self._now, batch_time)
        if batch_time > self._now:
            self._now = batch_time
        batch: list[tuple[int, Callable[[], None]]] = []
        append = batch.append
        # Exact equality is the point here: the sweep groups entries by the
        # very float key that schedule() pushed.
        while heap and heap[0][0] == batch_time:  # simlint: disable=SIM005
            _, sequence, callback = pop(heap)
            if callback.__class__ is ScheduledCallback:
                if callback.cancelled:
                    continue
                callback = callback.callback
            append((sequence, callback))
        return batch

    def _run_batch(
        self,
        batch: list[tuple[int, Callable[[], None]]],
        stop_event: Event | None,
    ) -> None:
        """Execute one same-timestamp batch in schedule order.

        If the awaited ``stop_event`` triggers mid-batch, or a callback
        raises, the unrun tail is pushed back (with its original sequence
        numbers, so ordering is preserved) for a later ``run()`` call --
        exactly the state one-at-a-time delivery would have left.
        """
        index = 0
        n = len(batch)
        try:
            while index < n:
                callback = batch[index][1]
                index += 1
                self._processed += 1
                callback()
                if stop_event is not None and stop_event.triggered:
                    break
        finally:
            if index < n:
                now = self._now
                for sequence, callback in batch[index:]:
                    heapq.heappush(self._heap, (now, sequence, callback))
