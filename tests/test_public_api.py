"""Tests for the top-level public API, units, errors, and system registry."""

from __future__ import annotations

import pytest

import repro
from repro.baselines.registry import SYSTEM_BUILDERS, build_inference_system
from repro.errors import (
    CapacityError,
    ConfigurationError,
    NumericsError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.units import (
    GB,
    GiB,
    KiB,
    TB,
    bytes_to_gb,
    bytes_to_gib,
    bytes_to_tb,
    ceil_div,
    pcie_bandwidth,
    pcie_lane_bandwidth,
    round_up,
)


class TestTopLevelExports:
    def test_main_entry_points_importable(self):
        assert callable(repro.get_model)
        assert repro.HilosSystem is not None
        assert repro.HilosConfig is not None
        assert repro.__version__ == "1.3.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestSystemRegistry:
    def test_all_seven_figure_systems(self):
        """The seven systems of Figure 10."""
        assert len(SYSTEM_BUILDERS) == 7
        assert "FLEX(SSD)" in SYSTEM_BUILDERS
        assert "HILOS (8 SmartSSDs)" in SYSTEM_BUILDERS

    def test_builders_construct(self):
        model = repro.get_model("OPT-30B")
        for label in SYSTEM_BUILDERS:
            system = build_inference_system(label, model)
            assert hasattr(system, "measure")

    def test_unknown_label(self):
        with pytest.raises(ConfigurationError):
            build_inference_system("FLEX(TAPE)", repro.get_model("OPT-30B"))


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigurationError, CapacityError, SimulationError, SchedulingError, NumericsError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestUnits:
    def test_binary_and_decimal_sizes(self):
        assert KiB == 1024
        assert GiB == 1024**3
        assert GB == 1000**3
        assert TB == 1000**4

    def test_conversions(self):
        assert bytes_to_gib(GiB) == 1.0
        assert bytes_to_gb(2 * GB) == 2.0
        assert bytes_to_tb(TB / 2) == 0.5

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_round_up(self):
        assert round_up(4097, 4096) == 8192
        assert round_up(4096, 4096) == 4096

    def test_pcie_rates(self):
        assert pcie_lane_bandwidth(4) == pytest.approx(2 * pcie_lane_bandwidth(3), rel=0.01)
        assert pcie_bandwidth(4, 16) == pytest.approx(16 * pcie_lane_bandwidth(4))
        with pytest.raises(ValueError):
            pcie_lane_bandwidth(6)
        with pytest.raises(ValueError):
            pcie_bandwidth(4, 0)
        with pytest.raises(ValueError):
            pcie_bandwidth(4, 16, efficiency=1.5)


class TestMeasuredResult:
    def test_oom_factory(self):
        result = repro.MeasuredResult.out_of_memory("s", "m", 16, 1024, "CPU OOM")
        assert result.oom
        assert result.tokens_per_second == 0.0
        assert result.effective_batch == 0
        assert result.note == "CPU OOM"

    def test_total_latency_splits(self):
        model = repro.get_model("OPT-30B")
        system = repro.FlexGenDRAM(model)
        prefill, decode, total = system.total_latency_seconds(4, 8192, output_tokens=8)
        assert total == pytest.approx(prefill + decode)
        assert decode > 0

    def test_total_latency_oom_is_infinite(self):
        model = repro.get_model("OPT-175B")
        system = repro.FlexGenDRAM(model)
        prefill, decode, total = system.total_latency_seconds(16, 131072, output_tokens=8)
        assert total == float("inf")
