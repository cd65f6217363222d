"""Tests for the cost, energy, and endurance analyses (Figures 16-17)."""

from __future__ import annotations

import pytest

from repro.analysis.cost import (
    CostModel,
    cost_efficiency,
    flexgen_cost,
    hilos_cost,
    multinode_cost,
)
from repro.analysis.endurance import (
    flexgen_endurance,
    hilos_endurance,
    serviceable_requests,
)
from repro.analysis.energy import energy_breakdown
from repro.baselines.base import MeasuredResult
from repro.errors import ConfigurationError
from repro.models import get_model
from repro.sim.metrics import Breakdown, UtilizationSample
from repro.workloads.requests import LONG, MEDIUM, SHORT


class TestCostModel:
    def test_baseline_server_price(self):
        """Section 6.6: $15k host + $7k A100 + 4 x $400 drives."""
        assert flexgen_cost("A100").total_usd() == pytest.approx(23_600.0)

    def test_hilos_adds_expansion_and_smartssds(self):
        """$15k + $7k + $10k expansion + 16 x $2,400 SmartSSDs."""
        assert hilos_cost(16, "A100").total_usd() == pytest.approx(70_400.0)

    def test_h100_upgrade_costs_30k(self):
        delta = flexgen_cost("H100").total_usd() - flexgen_cost("A100").total_usd()
        assert delta == pytest.approx(23_000.0)

    def test_multinode_fleet(self):
        cost = multinode_cost()
        assert cost.total_usd() == pytest.approx(2 * 15_000 + 8 * 4_500)

    def test_efficiency_is_tokens_per_second_per_dollar(self):
        assert cost_efficiency(2.36, flexgen_cost("A100")) == pytest.approx(1e-4)

    def test_unknown_gpu(self):
        with pytest.raises(ConfigurationError):
            CostModel(label="x", gpu="B200").total_usd()


def _fake_result(tokens_per_second: float, gpu=0.5, cpu=0.5) -> MeasuredResult:
    return MeasuredResult(
        system="test",
        model="OPT-66B",
        requested_batch=16,
        effective_batch=16,
        seq_len=16384,
        step_seconds=16.0 / tokens_per_second,
        tokens_per_second=tokens_per_second,
        prefill_seconds=1.0,
        breakdown=Breakdown(),
        utilization=UtilizationSample(cpu=cpu, gpu=gpu, dram_capacity=0.5),
    )


class TestEnergy:
    def test_components_positive_and_sum(self):
        energy = energy_breakdown(_fake_result(1.0), n_conventional_ssds=4)
        assert energy.cpu_j > 0 and energy.gpu_j > 0 and energy.dram_j > 0 and energy.ssd_j > 0
        assert energy.total_j == pytest.approx(
            energy.cpu_j + energy.dram_j + energy.gpu_j + energy.ssd_j
        )

    def test_fractions_sum_to_one(self):
        fractions = energy_breakdown(_fake_result(1.0), n_conventional_ssds=4).fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_faster_system_uses_less_energy_per_token(self):
        slow = energy_breakdown(_fake_result(0.1), n_conventional_ssds=4)
        fast = energy_breakdown(_fake_result(1.0), n_conventional_ssds=4)
        assert fast.total_j < slow.total_j

    def test_smartssds_draw_more_than_plain_drives(self):
        plain = energy_breakdown(_fake_result(1.0), n_conventional_ssds=16)
        smart = energy_breakdown(_fake_result(1.0), n_smartssds=16)
        assert smart.ssd_j > plain.ssd_j

    def test_oom_result_rejected(self):
        oom = MeasuredResult.out_of_memory("s", "m", 16, 1024, "CPU OOM")
        with pytest.raises(ConfigurationError):
            energy_breakdown(oom)


class TestEndurance:
    @pytest.fixture(scope="class")
    def model(self):
        return get_model("OPT-175B")

    def test_hilos_beats_flex_in_paper_band(self, model):
        """Figure 16(b): 1.34-1.47x more serviceable requests."""
        flex = flexgen_endurance(16)
        hilos = hilos_endurance(16, alpha=0.5, spill_interval=16)
        for request in (SHORT, MEDIUM, LONG):
            ratio = serviceable_requests(model, request, hilos) / serviceable_requests(
                model, request, flex
            )
            assert 1.25 < ratio < 1.55

    def test_larger_spill_interval_helps_slightly(self, model):
        """c=16 -> 32 adds roughly 1.02-1.05x (Figure 16b)."""
        c16 = hilos_endurance(16, spill_interval=16)
        c32 = hilos_endurance(16, spill_interval=32)
        for request in (SHORT, MEDIUM, LONG):
            ratio = serviceable_requests(model, request, c32) / serviceable_requests(
                model, request, c16
            )
            assert 1.0 < ratio < 1.08

    def test_175b_long_requests_in_millions(self, model):
        """Section 6.6 reports over 4.08M long requests; our write-volume
        model lands within ~10% of that (3.7M)."""
        hilos = hilos_endurance(16, spill_interval=16)
        assert 3.5e6 < serviceable_requests(model, LONG, hilos) < 4.5e6

    def test_longer_requests_wear_faster(self, model):
        hilos = hilos_endurance(16)
        assert serviceable_requests(model, LONG, hilos) < serviceable_requests(
            model, SHORT, hilos
        )

    def test_alpha_reduces_writes(self, model):
        none = hilos_endurance(16, alpha=0.0)
        half = hilos_endurance(16, alpha=0.5)
        assert half.logical_fraction(model) == pytest.approx(0.75)
        assert serviceable_requests(model, LONG, half) > serviceable_requests(
            model, LONG, none
        )
