"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

NAN = float("nan")
INF = float("inf")


class TestEvent:
    def test_succeed_triggers_and_freezes_value(self, sim):
        event = sim.event("e")
        assert not event.triggered
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_double_trigger_raises(self, sim):
        event = sim.event("e")
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_callback_after_trigger_runs_immediately(self, sim):
        event = sim.event("e")
        event.succeed("v")
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["v"]

    def test_callbacks_run_in_registration_order(self, sim):
        event = sim.event("e")
        order = []
        event.add_callback(lambda ev: order.append(1))
        event.add_callback(lambda ev: order.append(2))
        event.succeed()
        assert order == [1, 2]


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        done = sim.timeout(2.5)
        sim.run(done)
        assert sim.now == pytest.approx(2.5)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeout_carries_value(self, sim):
        done = sim.timeout(1.0, value="payload")
        assert sim.run(done) == "payload"

    @pytest.mark.parametrize("delay", [NAN, INF, -INF, -1.0])
    def test_unsanitized_kernel_rejects_bad_delays(self, delay):
        """Without the sanitizer a NaN delay used to enter the heap, where
        ``NaN == NaN`` is false, so run() swept nothing and spun forever;
        an infinite one ended the clock.  Every entry point refuses both."""
        sim = Simulator(sanitize=False)
        with pytest.raises(SimulationError) as excinfo:
            sim.schedule(delay, lambda: None)
        assert not isinstance(excinfo.value, SanitizerError)
        with pytest.raises(SimulationError):
            sim.schedule_cancellable(delay, lambda: None)
        with pytest.raises(SimulationError):
            sim.timeout(delay)  # simlint: disable=SIM003
        with pytest.raises(SimulationError):
            sim.timeout_at(delay)  # simlint: disable=SIM003
        assert not sim._heap
        sim.run()
        assert sim.events_processed == 0

    def test_sanitized_kernel_reports_finite_delay_first(self):
        sim = Simulator(sanitize=True)
        for schedule in (sim.schedule, sim.schedule_cancellable):
            with pytest.raises(SanitizerError, match="finite-delay"):
                schedule(NAN, lambda: None)
        with pytest.raises(SanitizerError, match="finite-delay"):
            sim.timeout_at(INF)  # simlint: disable=SIM003
        with pytest.raises(SimulationError, match="past") as excinfo:
            sim.timeout(-1.0)  # simlint: disable=SIM003
        assert not isinstance(excinfo.value, SanitizerError)


class TestTimeoutAt:
    def test_lands_on_the_absolute_time(self, sim):
        start, target = 0.0938595867742349, 2.834747652200631
        # The relative delay does not round back to the target ...
        assert start + (target - start) != target
        sim.run(sim.timeout(start))
        done = sim.timeout_at(target, value="payload")
        assert sim.run(done) == "payload"
        # ... the absolute time is the target itself.
        assert sim.now == target

    def test_matches_summed_timeouts(self, sim):
        """Sleeping once to a sum of delays accumulated as the clock does
        reaches the instant the chain of timeouts reaches."""
        delays = [0.1, 0.7, 1e-3, 2.9, 0.30000000000000004]

        def chain():
            for delay in delays:
                yield sim.timeout(delay)
            return sim.now

        wake = 0.0
        for delay in delays:
            wake += delay
        chained = sim.run(sim.process(chain()))
        other = Simulator()
        other.run(other.timeout_at(wake))
        assert other.now == chained

    def test_same_time_fires_in_schedule_order(self, sim):
        order = []
        sim.timeout_at(2.0).add_callback(lambda event: order.append("at"))
        sim.timeout(2.0).add_callback(lambda event: order.append("after"))
        sim.run()
        assert order == ["at", "after"]

    def test_past_time_rejected(self, sim):
        sim.run(sim.timeout(1.0))
        with pytest.raises(SimulationError, match="past"):
            sim.timeout_at(0.5)  # simlint: disable=SIM003


class TestProcess:
    def test_process_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        assert sim.run(sim.process(proc())) == "done"

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def proc():
            yield sim.timeout(1.0)
            times.append(sim.now)
            yield sim.timeout(2.0)
            times.append(sim.now)

        sim.run(sim.process(proc()))
        assert times == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_process_receives_event_value(self, sim):
        def proc():
            value = yield sim.timeout(0.5, value=7)
            return value * 2

        assert sim.run(sim.process(proc())) == 14

    def test_yielding_non_event_raises(self, sim):
        def proc():
            yield 3.0

        with pytest.raises(SimulationError, match="must yield Event"):
            sim.run(sim.process(proc()))

    def test_nested_processes(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return "inner-done"

        def outer():
            result = yield sim.process(inner())
            yield sim.timeout(1.0)
            return result

        assert sim.run(sim.process(outer())) == "inner-done"
        assert sim.now == pytest.approx(2.0)


class TestFailurePropagation:
    """A faulty process must fail its event cleanly, not poison the heap."""

    def test_non_event_yield_fails_the_process_event(self, sim):
        def proc():
            yield 3.0

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="must yield Event"):
            sim.run(process)
        # The process event triggered (failed), not left permanently pending.
        assert process.triggered
        assert process.failed
        assert isinstance(process.exception, SimulationError)

    def test_all_of_waiter_is_not_deadlocked_by_faulty_process(self, sim):
        def bad():
            yield "not an event"

        combined = sim.all_of([sim.process(bad()), sim.timeout(1.0)])
        with pytest.raises(SimulationError, match="must yield Event"):
            sim.run(combined)
        assert combined.failed

    def test_simulator_stays_usable_after_process_failure(self, sim):
        def bad():
            yield None

        with pytest.raises(SimulationError):
            sim.run(sim.process(bad()))
        # The heap is still consistent: new work schedules and runs.
        done = sim.timeout(2.0, value="ok")
        assert sim.run(done) == "ok"

    def test_waiting_process_can_catch_child_failure(self, sim):
        def bad():
            yield 42

        def parent():
            try:
                yield sim.process(bad())
            except SimulationError:
                yield sim.timeout(1.0)
                return "recovered"

        assert sim.run(sim.process(parent())) == "recovered"
        assert sim.now == pytest.approx(1.0)

    def test_exception_in_process_body_fails_event(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        process = sim.process(proc())
        with pytest.raises(ValueError, match="boom"):
            sim.run(process)
        assert process.failed

    def test_fail_then_succeed_is_rejected(self, sim):
        event = sim.event("e")
        event.fail(SimulationError("dead"))
        with pytest.raises(SimulationError, match="twice"):
            event.succeed()

    def test_drain_run_raises_unobserved_failure(self, sim):
        """Fire-and-forget process errors must not vanish in drain mode."""

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("lost in the heap")

        sim.process(bad())
        with pytest.raises(ValueError, match="lost in the heap"):
            sim.run()

    def test_drain_run_does_not_reraise_observed_failure(self, sim):
        def bad():
            yield 1

        def parent():
            try:
                yield sim.process(bad())
            except SimulationError:
                return "handled"

        parent_process = sim.process(parent())
        sim.run()  # the parent observed (and handled) the failure
        assert parent_process.value == "handled"

    def test_deadlock_report_prefers_unobserved_root_cause(self, sim):
        """When a failed worker was supposed to fire the awaited event,
        raise the worker's error, not the generic deadlock symptom."""
        gate = sim.event("gate")

        def worker():
            yield sim.timeout(1.0)
            raise ValueError("root cause")
            gate.succeed()  # never reached

        sim.process(worker())
        with pytest.raises(ValueError, match="root cause"):
            sim.run(gate)

    def test_late_constituent_failure_after_all_of_failed_surfaces(self, sim):
        def fast_bad():
            yield None

        def slow_bad():
            yield sim.timeout(2.0)
            raise ValueError("late failure")

        def parent():
            try:
                yield sim.all_of([sim.process(fast_bad()), sim.process(slow_bad())])
            except SimulationError:
                return "caught first"

        parent_process = sim.process(parent())
        # The parent handles the conjunction's first failure, but the late
        # second failure must still surface in the drain.
        with pytest.raises(ValueError, match="late failure"):
            sim.run()
        assert parent_process.value == "caught first"

    def test_failure_handled_by_second_waiter_is_not_reraised(self, sim):
        """An event watched by both a failed AllOf and a process that
        handles the failure is consumed; drains must not resurface it."""

        def fast_bad():
            yield None

        def slow_bad():
            yield sim.timeout(2.0)
            raise ValueError("late")

        slow = sim.process(slow_bad())
        combined = sim.all_of([sim.process(fast_bad()), slow])

        def conjunction_waiter():
            try:
                yield combined
            except SimulationError:
                return "caught first"

        def handler():
            try:
                yield slow
            except ValueError:
                return "handled"

        waiter = sim.process(conjunction_waiter())
        handled = sim.process(handler())
        sim.run()  # must not raise: every failure was consumed by a waiter
        assert waiter.value == "caught first"
        assert handled.value == "handled"

    def test_already_failed_second_constituent_still_surfaces(self, sim):
        """Constituents that failed before AllOf registration behave like
        late failures: the conjunction adopts the first, the second stays
        unobserved and re-raises in the drain."""
        e1, e2 = sim.event("e1"), sim.event("e2")
        e1.fail(ValueError("first"))
        e2.fail(ValueError("second"))
        combined = sim.all_of([e1, e2])

        def parent():
            try:
                yield combined
            except ValueError:
                return "caught first"

        parent_process = sim.process(parent())
        with pytest.raises(ValueError, match="second"):
            sim.run()
        assert parent_process.value == "caught first"

    def test_awaited_failure_is_not_raised_twice(self, sim):
        def bad():
            yield None

        process = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run(process)
        # The failure was delivered; a later drain must not resurface it.
        sim.timeout(1.0)
        sim.run()
        assert sim.now == pytest.approx(1.0)


class TestAllOf:
    def test_waits_for_all_and_collects_values(self, sim):
        e1 = sim.timeout(1.0, value="a")
        e2 = sim.timeout(3.0, value="b")
        combined = sim.all_of([e1, e2])
        assert sim.run(combined) == ["a", "b"]
        assert sim.now == pytest.approx(3.0)

    def test_empty_all_of_fires_immediately(self, sim):
        assert sim.run(sim.all_of([])) == []

    def test_already_triggered_constituents(self, sim):
        e1 = sim.event()
        e1.succeed(1)
        e2 = sim.timeout(1.0, value=2)
        assert sim.run(sim.all_of([e1, e2])) == [1, 2]


class TestRun:
    def test_run_until_time_sets_clock(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == pytest.approx(4.0)

    def test_run_to_exhaustion(self, sim):
        sim.timeout(1.0)
        sim.timeout(5.0)
        sim.run()
        assert sim.now == pytest.approx(5.0)

    def test_deadlock_detection(self, sim):
        never = sim.event("never")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(never)

    def test_events_processed_counter(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.events_processed == 2


class TestTimeMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
    def test_observed_times_are_sorted(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.timeout(delay).add_callback(lambda _e: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == pytest.approx(max(delays))

    @settings(max_examples=30, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=10
        )
    )
    def test_sequential_process_time_is_sum(self, delays):
        sim = Simulator()

        def proc():
            for delay in delays:
                yield sim.timeout(delay)

        sim.run(sim.process(proc()))
        assert sim.now == pytest.approx(sum(delays))


class TestScheduledCallbackCancellation:
    def test_cancelled_callback_never_runs(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        fired = []
        handle = sim.schedule_cancellable(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        handle.cancel()
        sim.run()
        assert fired == ["kept"]

    def test_cancelled_entry_does_not_advance_clock(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        handle = sim.schedule_cancellable(50.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_cancelled_entries_do_not_count_as_processed(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        handle.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_deadlock_detection_sees_through_cancelled_entries(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        handle.cancel()
        waited = sim.event("never")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(waited)


class TestBarrier:
    def test_fires_after_all_arrivals(self, sim):
        from repro.sim.engine import Barrier

        barrier = Barrier(sim, count=2, name="pair")
        sim.schedule(1.0, barrier.arrive)
        sim.schedule(3.0, barrier.arrive)
        sim.run(barrier)
        assert sim.now == pytest.approx(3.0)

    def test_add_registers_late_constituents(self, sim):
        from repro.sim.engine import Barrier

        barrier = Barrier(sim, name="grow")
        barrier.add(2)
        sim.schedule(1.0, barrier.arrive)
        sim.schedule(2.0, barrier.arrive)
        sim.run(barrier)
        assert barrier.triggered

    def test_over_arrival_raises(self, sim):
        from repro.sim.engine import Barrier

        barrier = Barrier(sim, count=1)
        sim.schedule(1.0, barrier.arrive)
        sim.schedule(2.0, barrier.arrive)
        with pytest.raises(SimulationError, match="more arrivals"):
            sim.run()

    def test_add_after_trigger_raises(self, sim):
        from repro.sim.engine import Barrier

        barrier = Barrier(sim, count=1)
        sim.schedule(1.0, barrier.arrive)
        sim.run(barrier)
        with pytest.raises(SimulationError, match="already triggered"):
            barrier.add()

    def test_process_can_wait_on_barrier(self, sim):
        from repro.sim.engine import Barrier

        barrier = Barrier(sim, count=2)
        sim.schedule(1.0, barrier.arrive)
        sim.schedule(4.0, barrier.arrive)

        def proc():
            yield barrier
            return sim.now

        assert sim.run(sim.process(proc())) == pytest.approx(4.0)
