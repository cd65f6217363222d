"""Tests for the experiment runner CLI and the serving calibration flow."""

from __future__ import annotations

import pytest

from repro.calibration.store import clear_memory_layer
from repro.experiments import runner, serving_throughput
from repro.serving import cluster
from repro.serving.steptime import CalibratedStepTime


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    """Point the default store at a throwaway directory, fresh memory layer."""
    monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path / "calibration"))
    clear_memory_layer()
    yield
    clear_memory_layer()


@pytest.fixture
def tracked_step_times(monkeypatch):
    """Record every CalibratedStepTime the serving experiment's fleets
    construct (:func:`~repro.serving.cluster.build_fleet` builds them)."""
    created: list[CalibratedStepTime] = []

    class Tracking(CalibratedStepTime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(cluster, "CalibratedStepTime", Tracking)
    return created


class TestRunnerCli:
    def test_list_exits_cleanly(self, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out

    def test_fast_and_full_conflict(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--fast", "--full"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["not-an-experiment"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--jobs", "0"])

    def test_grid_option_requires_supporting_experiment(self):
        with pytest.raises(SystemExit):
            runner.main(["table3", "--batch-grid", "1,4"])

    def test_jobs_fan_out_runs_every_experiment(self, capsys):
        assert runner.main(["table3", "estimator", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "[table3 completed" in out
        assert "[estimator completed" in out

    def test_router_without_nodes_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--router", "jsq"])

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--nodes", "2", "--router", "dice"])

    def test_bad_node_count_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--nodes", "0"])

    def test_malformed_fault_spec_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--nodes", "2", "--faults", "meteor:1:2"])

    def test_fault_targeting_outside_fleet_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--nodes", "2", "--faults", "crash:10:5"])


class TestServingClusterCli:
    def test_nodes_and_router_flow_through(self, capsys):
        """ISSUE acceptance: ``runner serving --nodes N --router jsq``
        produces a fleet report with per-node breakdowns."""
        assert runner.main(
            ["serving", "--fast", "--nodes", "2", "--router", "jsq",
             "--arrival", "poisson:0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "2-node fleets via jsq" in out
        assert "2x FLEX(SSD)" in out
        assert "Per-node breakdown" in out
        assert "node0" in out and "node1" in out

    def test_fleet_run_returns_per_node_table(self):
        tables = serving_throughput.run(
            fast=True, n_requests=16, nodes=2, router="bestfit"
        )
        assert len(tables) == 3
        per_node = tables[2]
        assert set(per_node.column("node")) == {"node0", "node1"}
        # Fleet calibration is shared: one grid per system label, measured
        # once for both nodes.
        assert all(n > 0 for n in tables[1].column("cells_cached"))

    def test_single_node_run_keeps_the_legacy_table_shape(self):
        tables = serving_throughput.run(fast=True, n_requests=16)
        assert len(tables) == 2  # no per-node table without a fleet

    def test_faults_flow_through_to_per_node_accounting(self):
        """ISSUE acceptance: ``--faults`` injects failures into the fleet
        drain and the per-node table reports migrations and downtime."""
        tables = serving_throughput.run(
            fast=True,
            systems=["HILOS (8 SmartSSDs)"],
            n_requests=24,
            nodes=2,
            router="jsq",
            arrival="poisson:0.2",
            faults="spot:600:60:3",
        )
        assert len(tables) == 3
        per_node = tables[2]
        assert set(per_node.column("node")) == {"node0", "node1"}
        assert sum(per_node.column("downtime_s")) > 0
        assert "faults: spot:600:60:3" in tables[0].title

    def test_faults_force_the_fleet_path_on_one_node(self):
        tables = serving_throughput.run(
            fast=True,
            systems=["HILOS (8 SmartSSDs)"],
            n_requests=16,
            faults="slow:50:100:2.0:0",
        )
        assert len(tables) == 3  # per-node table even with a single node
        assert set(tables[2].column("node")) == {"node0"}

    def test_overload_flows_through_to_shed_accounting(self):
        tables = serving_throughput.run(
            fast=True,
            systems=["HILOS (8 SmartSSDs)"],
            n_requests=24,
            nodes=2,
            router="jsq",
            arrival="poisson:0.5",
            overload="shed:2",
        )
        assert len(tables) == 3
        assert "overload: shed:2" in tables[0].title
        assert sum(tables[0].column("shed")) > 0
        # Per-node sheds sum to the fleet totals.
        assert sum(tables[2].column("shed")) == sum(tables[0].column("shed"))

    def test_autoscale_adds_the_scale_event_table(self):
        tables = serving_throughput.run(
            fast=True,
            systems=["HILOS (8 SmartSSDs)"],
            n_requests=24,
            arrival="poisson:0.5",
            autoscale="auto:1:2:2:60",
        )
        # The fleet is built at max_nodes even with the default --nodes 1,
        # and the scale timeline becomes a fourth table.
        assert len(tables) == 4
        assert set(tables[2].column("node")) == {"node0", "node1"}
        assert "scale-up" in tables[3].column("action")
        assert "autoscale: auto:1:2:2:60" in tables[0].title

    def test_single_host_rows_ignore_fleet_symmetry(self):
        # A one-node row is not a fleet: it drains the same under every
        # fleet_symmetry mode, a same-time burst included, and gets no
        # per-node table.
        kwargs = dict(
            fast=True,
            systems=["HILOS (8 SmartSSDs)"],
            n_requests=16,
            arrival="burst:0.05:4",
        )
        default = serving_throughput.run(**kwargs)
        representative = serving_throughput.run(
            fleet_symmetry="representative", **kwargs
        )
        assert representative[0].rows == default[0].rows
        assert len(representative) == 2  # still no per-node table

    def test_standalone_cli_prints_the_serving_tables(self, capsys):
        assert serving_throughput.main(["--requests", "16"]) == 0
        out = capsys.readouterr().out
        assert "Serving throughput (" in out
        assert "Calibration cache utilisation" in out
        assert "HILOS (8 SmartSSDs)" in out

    def test_overload_cli_rejects_malformed_spec(self):
        with pytest.raises(SystemExit):
            runner.main(["serving", "--overload", "bounce:4"])

    def test_autoscale_cli_allows_router_without_nodes(self, capsys):
        # --autoscale builds a fleet at max_nodes, so --router is
        # meaningful without --nodes > 1; parsing must not error.
        assert runner.main(
            ["serving", "--fast", "--router", "jsq",
             "--autoscale", "auto:1:2:4:60", "--arrival", "poisson:0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "Autoscaler scale events" in out


class TestServingWarmCache:
    def test_second_runner_invocation_measures_nothing(
        self, capsys, tracked_step_times
    ):
        """The acceptance criterion: a warm-cache re-run of
        ``python -m repro.experiments.runner serving --fast`` performs zero
        new ``measure()`` calls."""
        assert runner.main(["serving", "--fast"]) == 0
        cold_measurements = sum(st.measurement_count for st in tracked_step_times)
        assert cold_measurements > 0
        capsys.readouterr()

        # A new CLI invocation is a new process: the in-memory layer is
        # gone, only the on-disk store survives.
        clear_memory_layer()
        tracked_step_times.clear()
        assert runner.main(["serving", "--fast"]) == 0
        assert tracked_step_times, "serving run built no step-time models"
        assert sum(st.measurement_count for st in tracked_step_times) == 0
        assert all(st.calibration_points > 0 for st in tracked_step_times)

    def test_warm_run_reproduces_cold_tables(self, tracked_step_times):
        cold = serving_throughput.run(fast=True)
        clear_memory_layer()
        warm = serving_throughput.run(fast=True)
        assert warm[0].rows == cold[0].rows
        # The calibration table differs only in its cache-utilisation
        # columns (prewarmed/new_measurements), never in the fingerprint.
        assert warm[1].column("fingerprint") == cold[1].column("fingerprint")
        assert all(n == 0 for n in warm[1].column("new_measurements"))

    def test_prewarm_warms_the_requested_symmetry(self, capsys):
        """``--prewarm --symmetry full`` must measure the cells a
        full-symmetry serving run reads, not the default mode's."""
        from repro.baselines.registry import build_inference_system
        from repro.calibration.store import default_store
        from repro.models import get_model

        grid = dict(batch_grid=(1, 2), seq_grid=(256, 512))
        assert runner.main(
            ["--prewarm", "--symmetry", "full", "--batch-grid", "1,2",
             "--seq-grid", "256,512"]
        ) == 0
        capsys.readouterr()
        clear_memory_layer()
        for label in serving_throughput.FAST_SYSTEMS:
            system = build_inference_system(
                label, get_model(serving_throughput.MODEL)
            )
            system.symmetry = "full"
            step_time = CalibratedStepTime(system, store=default_store(), **grid)
            assert step_time.prewarm() == 4, label

    def test_custom_grids_read_the_default_grids_cells(self, tracked_step_times):
        """A custom grid reads the same cells as the default one: whatever
        cells the default run measured, the custom run does not measure
        again."""
        default = serving_throughput.run(fast=True)
        measured = {
            (st.system.name, cell)
            for st in tracked_step_times
            for cell in st._cache
        }
        tracked_step_times.clear()
        custom = serving_throughput.run(
            fast=True, batch_grid=(1, 4, 16), seq_grid=(256, 4096, 16384)
        )
        assert default[1].column("fingerprint") == custom[1].column("fingerprint")
        reread = sum(
            (st.system.name, cell) in measured
            for st in tracked_step_times
            for cell in st._cache
        )
        assert reread > 0
        assert sum(custom[1].column("new_measurements")) == sum(
            len(st._cache) for st in tracked_step_times
        ) - reread


class TestFigureWarmCache:
    """fig10/fig11 route through the calibration store like serving does."""

    FIG10_SYSTEMS = ["FLEX(SSD)", "HILOS (8 SmartSSDs)"]

    def test_fig10_warm_rerun_measures_nothing(self):
        from repro.experiments import fig10_throughput

        cold = fig10_throughput.run(fast=True, systems=self.FIG10_SYSTEMS)
        assert sum(cold[1].column("new_measurements")) > 0
        clear_memory_layer()  # a new process: only the on-disk store is warm
        warm = fig10_throughput.run(fast=True, systems=self.FIG10_SYSTEMS)
        assert sum(warm[1].column("new_measurements")) == 0
        assert warm[0].rows == cold[0].rows

    def test_fig11_warm_rerun_reproduces_tables(self):
        from repro.experiments import fig11_batch_sensitivity

        cold = fig11_batch_sensitivity.run(fast=True)
        clear_memory_layer()
        warm = fig11_batch_sensitivity.run(fast=True)
        assert warm[0].rows == cold[0].rows
        assert warm[1].rows == cold[1].rows

    def test_full_symmetry_is_not_served_by_an_auto_store(self):
        """``--symmetry full`` must run the reference path even on a store
        the default run warmed: every one of fig10's points re-measures."""
        from repro.experiments import fig10_throughput

        fig10_throughput.run(fast=True)
        full = fig10_throughput.run(fast=True, symmetry="full")
        assert sum(full[1].column("new_measurements")) == 14

    def test_fig10_symmetry_modes_agree(self):
        """--symmetry full and the default representative path must produce
        the same figure (numerical equivalence, end to end)."""
        from repro.experiments import fig10_throughput

        folded = fig10_throughput.run(
            fast=True, systems=self.FIG10_SYSTEMS, use_store=False
        )
        full = fig10_throughput.run(
            fast=True, systems=self.FIG10_SYSTEMS, symmetry="full", use_store=False
        )
        for row_folded, row_full in zip(folded[0].rows, full[0].rows):
            assert row_folded[:4] == row_full[:4]
            assert row_folded[4] == pytest.approx(row_full[4], rel=1e-9)
