"""Smoke + shape tests for the experiment harnesses (fast mode).

Each experiment must run, produce non-empty tables, and satisfy the paper's
qualitative shape targets documented in DESIGN.md.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    estimator_correlation,
    fig02_motivation,
    fig04_ans_breakdown,
    fig12_model_arch,
    fig13_spill_alpha,
    fig14_output_length,
    fig15_ablation,
    fig16_cost_endurance,
    fig18_accuracy,
    table3_resources,
)
from repro.experiments.runner import EXPERIMENTS, main


class TestFig02:
    def test_kv_exceeds_60_percent_at_scale(self):
        table = fig02_motivation.execution_breakdown_table(fast=True)
        at_scale = [
            row for row in table.to_dicts()
            if row["seq_len"] == 32768 and row["batch"] == 16
        ]
        assert at_scale[0]["kv_cache_pct"] > 60.0

    def test_footprint_reaches_terabytes(self):
        table = fig02_motivation.footprint_table(fast=True)
        assert max(table.column("total_tb")) > 1.0

    def test_batching_speedup_diminishes_with_context(self):
        rows = fig02_motivation.execution_breakdown_table(fast=True).to_dicts()
        speedup = {
            (r["seq_len"], r["batch"]): r["speedup_vs_bs1"] for r in rows
        }
        assert speedup[(8192, 16)] > speedup[(32768, 16)]


class TestFig04:
    def test_eq3_measured_matches_closed_form(self):
        table = fig04_ans_breakdown.traffic_table()
        for row in table.to_dicts():
            assert row["measured_ratio"] == pytest.approx(row["eq3_ratio"], rel=1e-9)

    def test_baseline_kv_share_exceeds_ans_host_traffic(self):
        table = fig04_ans_breakdown.breakdown_table(
            measured=fig04_ans_breakdown.measurements()
        )
        rows = {(r["system"], r["seq_len"]): r for r in table.to_dicts()}
        base = rows[("Baseline (SSD+CPU)", 32768)]
        assert base["load_kv_pct"] > 60.0


class TestFig12Kernels:
    def test_microbenchmark_shape(self):
        table = fig12_model_arch.kernel_microbenchmark()
        by_kernel = {r["kernel"]: r["throughput_gb_s"] for r in table.to_dicts()}
        assert by_kernel["SSD Read"] == pytest.approx(3.0)
        assert by_kernel["MHA (group=1)"] > by_kernel["GQA (group=4)"] > by_kernel["GQA (group=5)"]
        assert by_kernel["GQA (group=5)"] > 3.0


class TestFig13:
    def test_best_point_is_alpha_half_c16(self):
        tables = fig13_spill_alpha.run(fast=True)
        alpha, interval = fig13_spill_alpha.best_point(tables[0])
        assert alpha == pytest.approx(50.0)
        assert interval == 16


class TestFigureWarmCaches:
    """ROADMAP remainder: fig13/fig14/fig15 route through the calibration
    store -- warm re-runs must measure nothing and reproduce the tables."""

    @pytest.mark.parametrize(
        "module", [fig13_spill_alpha, fig14_output_length, fig15_ablation],
        ids=["fig13", "fig14", "fig15"],
    )
    def test_warm_rerun_measures_nothing(self, module, tmp_path):
        from repro.calibration import CalibrationStore
        from repro.calibration.store import clear_memory_layer

        store = CalibrationStore(tmp_path / "figs")
        clear_memory_layer()
        cold = module.run(fast=True, store=store)
        assert "0 new measurements" not in cold[0].notes
        clear_memory_layer()  # a fresh process: only the disk store is warm
        warm = module.run(fast=True, store=store)
        assert warm[0].rows == cold[0].rows
        assert "0 new measurements" in warm[0].notes

    def test_fig14_prefill_split_survives_the_cache(self, tmp_path):
        from repro.calibration import CalibrationStore
        from repro.calibration.store import clear_memory_layer

        store = CalibrationStore(tmp_path / "fig14")
        clear_memory_layer()
        cold = fig14_output_length.run(fast=True, store=store)[0].to_dicts()
        clear_memory_layer()
        warm = fig14_output_length.run(fast=True, store=store)[0].to_dicts()
        for cold_row, warm_row in zip(cold, warm):
            assert warm_row["prefill_s"] == cold_row["prefill_s"]
            assert warm_row["prefill_s"] > 0
            assert warm_row["total_s"] == pytest.approx(
                warm_row["prefill_s"] + warm_row["decode_s"]
            )


class TestFig16:
    def test_endurance_gain_in_band(self):
        table = fig16_cost_endurance.endurance_table(fast=True)
        gains = [r["vs_flex"] for r in table.to_dicts() if "c=16" in r["system"]]
        assert all(1.2 < g < 1.6 for g in gains)


class TestFig18:
    def test_hilos_lossless_and_sparse_drops(self):
        table = fig18_accuracy.run(fast=True)[0]
        drops = []
        for row in table.to_dicts():
            assert row["hilos"] == row["flashattention"]
            assert 1.5 <= row["sparse_drop"] <= 11.0
            drops.append(row["sparse_drop"])
        # The paper's per-dataset drops average ~4.6 points (3.52-5.73).
        assert 2.5 <= sum(drops) / len(drops) <= 8.0


class TestTable3:
    def test_model_within_three_percent_of_paper(self):
        table = table3_resources.resource_table()
        for row in table.to_dicts():
            assert row["peak_gflops_model"] == pytest.approx(
                row["peak_gflops_paper"], rel=0.03
            )

    def test_deployment_power(self):
        table = table3_resources.deployment_table()
        values = {r["metric"]: r["value"] for r in table.to_dicts()}
        assert values["full_16_device_power_w"] == pytest.approx(258.0, rel=0.01)


class TestEstimatorCorrelation:
    def test_pearson_at_least_paper_level(self):
        """Section 5.1 reports r = 0.93; a model-internal comparison should
        correlate at least that well."""
        summary = estimator_correlation.run(fast=True)[0]
        for row in summary.to_dicts():
            assert row["pearson_r"] >= 0.93


class TestRunnerCLI:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_single_experiment(self, capsys):
        assert main(["table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_no_experiments_errors(self):
        with pytest.raises(SystemExit):
            main([])
