"""Runtime sanitizer: each invariant fires on a deliberately broken toy
process, BudgetTracker error paths raise structured errors, and the
enable plumbing (flag, env var) behaves."""

import dataclasses
import heapq

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV, SanitizerError
from repro.errors import SchedulingError, SimulationError
from repro.serving import CapacityBudget, ContinuousBatching, Node
from repro.serving.budget import BudgetTracker
from repro.serving.cluster import ClusterScheduler, check_report_conservation
from repro.serving.request import RequestClass, ServingRequest
from repro.serving.steptime import AnalyticStepTime
from repro.sim.engine import Simulator

TOY = RequestClass("Toy", input_tokens=8, output_tokens=4)


def make_request(request_id: int = 0) -> ServingRequest:
    return ServingRequest(request_id=request_id, request_class=TOY)


def make_tracker(tiny_mha, sanitize: bool = True) -> BudgetTracker:
    return BudgetTracker(
        budget=CapacityBudget(1e9, "toy budget"), model=tiny_mha, sanitize=sanitize
    )


class TestEnablePlumbing:
    def test_off_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert Simulator().sanitizer is None
        assert Simulator(sanitize=False).sanitizer is None
        assert Simulator(sanitize=True).sanitizer is not None

    def test_env_enables_default(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert Simulator().sanitizer is not None
        # Explicit flag still beats the environment.
        assert Simulator(sanitize=False).sanitizer is None

    @pytest.mark.parametrize("value", ["0", "", "off", "no"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert Simulator().sanitizer is None


class TestEngineInvariants:
    def test_non_finite_delay_rejected(self):
        sim = Simulator(sanitize=True)
        with pytest.raises(SanitizerError, match="finite-delay"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SanitizerError, match="finite-delay"):
            sim.timeout(float("inf"))  # simlint: disable=SIM003

    def test_heap_monotonicity_exact(self):
        """A past timestamp within the engine's 1e-12 slack still fails."""
        sim = Simulator(sanitize=True)
        sim.timeout(1.0)  # simlint: disable=SIM003
        sim.run()
        assert sim.now == 1.0
        heapq.heappush(sim._heap, (1.0 - 1e-13, 10_000, lambda: None))
        with pytest.raises(SanitizerError, match="heap-monotonicity"):
            sim.run()

    def test_gross_past_time_still_engine_error(self):
        sim = Simulator(sanitize=True)
        sim.timeout(1.0)  # simlint: disable=SIM003
        sim.run()
        heapq.heappush(sim._heap, (0.5, 10_000, lambda: None))
        with pytest.raises(SimulationError, match="past"):
            sim.run()

    def test_callback_drain(self):
        sim = Simulator(sanitize=True)
        event = sim.event("rearmer")

        def rearm(_event):
            # Deliberately corrupt delivery: re-arm a waiter mid-trigger.
            event._callbacks = [lambda e: None]

        event.add_callback(rearm)
        with pytest.raises(SanitizerError, match="callback-drain"):
            event.succeed()

    def test_lost_wakeup_detected_on_drain(self):
        sim = Simulator(sanitize=True)
        never = sim.event("never-fires")
        never.add_callback(lambda e: None)
        sim.timeout(1.0)  # simlint: disable=SIM003
        with pytest.raises(SanitizerError, match="never-fires") as excinfo:
            sim.run()
        assert excinfo.value.invariant == "lost-wakeup"

    def test_lost_wakeup_names_the_event(self):
        sim = Simulator(sanitize=True)
        orphan = sim.event("orphan-event")
        orphan.add_callback(lambda e: None)
        try:
            sim.run()
        except SanitizerError as exc:
            assert exc.invariant == "lost-wakeup"
            assert "orphan-event" in str(exc)
        else:  # pragma: no cover - the check must fire
            pytest.fail("lost wakeup not detected")

    def test_fired_waiters_are_not_lost_wakeups(self):
        sim = Simulator(sanitize=True)
        seen = []
        done = sim.timeout(2.0, value="ok")
        done.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["ok"]
        sim.sanitize_check_drained()  # explicit drain-boundary check is clean

    def test_pending_heap_work_is_not_a_lost_wakeup(self):
        """Waiters with live heap entries are pending, not lost."""
        sim = Simulator(sanitize=True)
        done = sim.timeout(5.0)
        done.add_callback(lambda e: None)
        sim.run(until=1.0)
        sim.sanitize_check_drained()  # timeout still pending: no error

    def test_sanitized_process_drain_is_clean(self):
        sim = Simulator(sanitize=True)
        log = []

        def worker_process():
            yield sim.timeout(1.0)
            log.append(sim.now)
            yield sim.timeout(2.0)
            log.append(sim.now)

        sim.process(worker_process())
        sim.run()
        assert log == [1.0, 3.0]


class TestBudgetTrackerErrorPaths:
    def test_release_without_reservation(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        with pytest.raises(SchedulingError, match="released without"):
            tracker.release(make_request())

    def test_double_release(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        request = make_request()
        tracker.occupy(request)
        tracker.release(request)
        with pytest.raises(SchedulingError, match="released without"):
            tracker.release(request)

    def test_double_reservation(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        request = make_request()
        tracker.occupy(request)
        with pytest.raises(SchedulingError, match="reserved twice"):
            tracker.reserve(request)

    def test_update_without_reservation(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        with pytest.raises(SchedulingError, match="updated without"):
            tracker.update(make_request())

    def test_batch_update_names_the_unreserved_request(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        first, stray, last = make_request(0), make_request(1), make_request(2)
        tracker.occupy(first)
        tracker.occupy(last)
        with pytest.raises(SchedulingError, match="request 1 updated without"):
            tracker.update(first, stray, last)
        # The entry re-marked before the stray one is still counted.
        assert tracker.reserved_bytes == sum(tracker._held.values())

    def test_corrupted_entry_is_caught_by_the_batch_remark(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        batch = [make_request(6), make_request(7)]
        for request in batch:
            tracker.occupy(request)
            request.tokens_generated = 1  # prefill completion's token
        tracker.update(*batch)
        # Corrupt one entry: the next re-mark moves the total by the wrong
        # amount, so the total no longer equals the entries' sum.
        tracker._held[7] -= 1e3
        for request in batch:
            request.tokens_generated += 1
        with pytest.raises(SanitizerError, match="entries' sum") as excinfo:
            tracker.update(*batch)
        assert excinfo.value.invariant == "budget-conservation"

    def test_remarked_entry_is_checked_against_kv_current_bytes(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        request = make_request(7)
        tracker.occupy(request)
        request.tokens_generated = 1
        tracker.token_bytes += 1.0  # a per-token figure off the model's
        with pytest.raises(SanitizerError, match="context holds") as excinfo:
            tracker.update(request)
        assert excinfo.value.invariant == "budget-conservation"
        assert excinfo.value.request_id == 7

    def test_negative_occupancy_fires_sanitizer(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        request = make_request(7)
        tracker.occupy(request)
        # Corrupt the ledger so the release withdraws more than was put in.
        tracker._held[7] += 1e8
        with pytest.raises(SanitizerError, match="negative") as excinfo:
            tracker.release(request)
        assert excinfo.value.invariant == "budget-conservation"
        assert excinfo.value.request_id == 7

    def test_negative_occupancy_silent_when_off(self, tiny_mha):
        tracker = make_tracker(tiny_mha, sanitize=False)
        request = make_request(7)
        tracker.occupy(request)
        tracker._held[7] += 1e8
        tracker.release(request)  # unchecked: legacy behaviour preserved
        assert tracker.reserved_bytes < 0

    def test_assert_drained_reports_leaked_requests(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        tracker.occupy(make_request(3))
        with pytest.raises(SanitizerError, match="never released.*3") as excinfo:
            tracker.assert_drained(context="node 'n0'")
        assert excinfo.value.request_id == 3
        assert "n0" in str(excinfo.value)

    def test_assert_drained_reports_residue(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        tracker.reserved_bytes = 128.0  # residue with an empty ledger
        with pytest.raises(SanitizerError, match="residue"):
            tracker.assert_drained()

    def test_assert_drained_clean_after_balanced_ledger(self, tiny_mha):
        tracker = make_tracker(tiny_mha)
        request = make_request()
        tracker.occupy(request)
        tracker.update(request)
        tracker.release(request)
        tracker.assert_drained()


class TestMigrationKvRelease:
    """A migrated request's KV must be fully released on the node it left
    before any other node admits it -- caught via the ``kv_holder``
    provenance stamp the sanitized trackers maintain."""

    def make_owned_tracker(self, tiny_mha, owner: str, sanitize: bool = True):
        return BudgetTracker(
            budget=CapacityBudget(1e9, "toy budget"),
            model=tiny_mha,
            sanitize=sanitize,
            owner=owner,
        )

    def test_readmission_without_release_fires(self, tiny_mha):
        dead = self.make_owned_tracker(tiny_mha, "node0")
        alive = self.make_owned_tracker(tiny_mha, "node1")
        request = make_request(5)
        dead.occupy(request)
        # Simulated bug: node0 dies but forgets to release the KV before
        # node1 re-admits the migrated request.
        with pytest.raises(SanitizerError, match="node0") as excinfo:
            alive.occupy(request)
        assert excinfo.value.invariant == "migration-kv-release"
        assert excinfo.value.request_id == 5

    def test_release_then_readmit_is_clean(self, tiny_mha):
        dead = self.make_owned_tracker(tiny_mha, "node0")
        alive = self.make_owned_tracker(tiny_mha, "node1")
        request = make_request(5)
        dead.occupy(request)
        dead.release(request)
        alive.occupy(request)  # proper migration: no holder left behind
        alive.release(request)
        alive.assert_drained()

    def test_unsanitized_trackers_skip_provenance(self, tiny_mha):
        dead = self.make_owned_tracker(tiny_mha, "node0", sanitize=False)
        alive = self.make_owned_tracker(tiny_mha, "node1", sanitize=False)
        request = make_request(5)
        dead.occupy(request)
        alive.occupy(request)  # unchecked: legacy behaviour preserved
        assert request.kv_holder is None


class TestReportConservation:
    @pytest.fixture
    def fleet_report(self, tiny_mha):
        from repro.core.config import HilosConfig
        from repro.core.runtime import HilosSystem

        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        nodes = [
            Node(
                system,
                step_time=AnalyticStepTime(
                    base_seconds=1.0,
                    per_token_seconds=1e-4,
                    prefill_per_token_seconds=1e-3,
                ),
                name=f"node{i}",
            )
            for i in range(2)
        ]
        return ClusterScheduler(nodes, ContinuousBatching(4)).drain([TOY] * 6)

    def test_real_fleet_report_conserves(self, fleet_report):
        check_report_conservation(fleet_report)

    def test_forged_token_total_detected(self, fleet_report):
        forged = dataclasses.replace(
            fleet_report, generated_tokens=fleet_report.generated_tokens + 1
        )
        with pytest.raises(SanitizerError, match="request-conservation"):
            check_report_conservation(forged, sim_time=12.5)

    def test_forged_request_count_detected(self, fleet_report):
        forged = dataclasses.replace(fleet_report, completed=fleet_report.completed - 1)
        with pytest.raises(SanitizerError, match="request-conservation"):
            check_report_conservation(forged)

    def test_single_node_report_without_breakdowns_is_skipped(self, fleet_report):
        bare = dataclasses.replace(fleet_report, node_reports=[])
        check_report_conservation(bare)  # nothing to cross-check

    @staticmethod
    def forge_node(report, **changes):
        """``report`` with its first node breakdown's fields changed."""
        nodes = list(report.node_reports)
        nodes[0] = dataclasses.replace(nodes[0], **changes)
        return dataclasses.replace(report, node_reports=tuple(nodes))

    def test_forged_migration_total_detected(self, fleet_report):
        first = fleet_report.node_reports[0]
        forged = self.forge_node(fleet_report, migrations=first.migrations + 1)
        with pytest.raises(SanitizerError, match="migration-conservation"):
            check_report_conservation(forged)

    def test_forged_recompute_total_detected(self, fleet_report):
        first = fleet_report.node_reports[0]
        forged = self.forge_node(
            fleet_report,
            migrated_recompute_tokens=first.migrated_recompute_tokens + 8,
        )
        with pytest.raises(SanitizerError, match="migration-conservation"):
            check_report_conservation(forged)


class TestSanitizedServingDrain:
    def test_fleet_drain_runs_clean_with_sanitizer(self, tiny_mha, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        from repro.core.config import HilosConfig
        from repro.core.runtime import HilosSystem
        from repro.serving import LeastOutstandingTokens, PoissonArrivals

        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        nodes = [
            Node(
                system,
                step_time=AnalyticStepTime(
                    base_seconds=1.0,
                    per_token_seconds=1e-4,
                    prefill_per_token_seconds=1e-3,
                ),
                name=f"node{i}",
            )
            for i in range(3)
        ]
        report = ClusterScheduler(
            nodes,
            ContinuousBatching(4, admission="optimistic"),
            router=LeastOutstandingTokens(),
        ).drain([TOY] * 12, arrivals=PoissonArrivals(0.5, seed=3))
        assert report.all_completed

    def test_fault_injected_drain_runs_clean_with_sanitizer(
        self, tiny_mha, monkeypatch
    ):
        """Migration keeps every invariant: KV released on the dead node
        before re-admission, budgets drained, and the fleet report's
        failure totals conserve against the per-node breakdowns."""
        monkeypatch.setenv(SANITIZE_ENV, "1")
        from repro.core.config import HilosConfig
        from repro.core.runtime import HilosSystem
        from repro.serving import (
            FaultSchedule,
            LeastOutstandingTokens,
            NodeFault,
            PoissonArrivals,
        )

        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        nodes = [
            Node(
                system,
                step_time=AnalyticStepTime(
                    base_seconds=1.0,
                    per_token_seconds=1e-4,
                    prefill_per_token_seconds=1e-3,
                ),
                name=f"node{i}",
            )
            for i in range(3)
        ]
        faults = FaultSchedule(
            faults=(NodeFault(kind="spot", time=3.0, node=0, recovery_seconds=60.0),)
        )
        report = ClusterScheduler(
            nodes,
            ContinuousBatching(4, admission="optimistic"),
            router=LeastOutstandingTokens(),
            faults=faults,
        ).drain([TOY] * 24, arrivals=PoissonArrivals(2.0, seed=3))
        assert report.all_completed
        assert report.migrations > 0
