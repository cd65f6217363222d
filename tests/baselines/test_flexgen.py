"""Tests for the FlexGen-style baselines."""

from __future__ import annotations

import pytest

from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD, FlexGenSmartSSDsNoFPGA
from repro.models import get_model


@pytest.fixture(scope="module")
def opt66b():
    return get_model("OPT-66B")


@pytest.fixture(scope="module")
def flex_ssd_66b_32k(opt66b):
    return FlexGenSSD(opt66b).measure(16, 32768, n_steps=1, warmup_steps=1)


class TestFlexSSD:
    def test_keeps_requested_batch(self, flex_ssd_66b_32k):
        assert flex_ssd_66b_32k.effective_batch == 16
        assert not flex_ssd_66b_32k.oom

    def test_kv_io_dominates_breakdown(self, flex_ssd_66b_32k):
        """Figure 2(b)/11(b): KV-cache I/O is the bottleneck at batch 16."""
        fractions = flex_ssd_66b_32k.breakdown.fractions()
        assert fractions["load_kv"] > 0.6

    def test_throughput_in_calibrated_band(self, flex_ssd_66b_32k):
        """The staging-channel calibration: ~0.08 tokens/s at 66B/32K/batch 16."""
        assert 0.04 < flex_ssd_66b_32k.tokens_per_second < 0.16

    def test_longer_context_scales_step_time(self, opt66b):
        short = FlexGenSSD(opt66b).measure(16, 16384, n_steps=1, warmup_steps=1)
        long = FlexGenSSD(opt66b).measure(16, 32768, n_steps=1, warmup_steps=1)
        # KV I/O dominates, so step time is nearly proportional to context.
        assert long.step_seconds == pytest.approx(2 * short.step_seconds, rel=0.15)


class TestFlexDRAM:
    def test_batch_shrinks_to_fit_dram(self, opt66b):
        """Figure 11(a): FLEX(DRAM) caps at batch 2 for OPT-66B at 32K."""
        result = FlexGenDRAM(opt66b).measure(16, 32768, n_steps=1, warmup_steps=1)
        assert result.effective_batch == 2

    def test_oom_at_long_context_175b(self):
        """Figure 10: FLEX(DRAM) OOMs at OPT-175B with 128K context."""
        result = FlexGenDRAM(get_model("OPT-175B")).measure(16, 131072, n_steps=1)
        assert result.oom
        assert result.tokens_per_second == 0.0

    def test_weight_loading_dominates(self, opt66b):
        """Figure 11(b): FLEX(DRAM) is weight-transfer-bound."""
        result = FlexGenDRAM(opt66b).measure(16, 32768, n_steps=1, warmup_steps=1)
        fractions = result.breakdown.fractions()
        assert fractions["load_weight"] > 0.5

    def test_beats_flex_ssd_when_it_fits(self, opt66b, flex_ssd_66b_32k):
        result = FlexGenDRAM(opt66b).measure(16, 32768, n_steps=1, warmup_steps=1)
        assert result.tokens_per_second > flex_ssd_66b_32k.tokens_per_second


class TestFlexSmartSSDsNoFPGA:
    def test_slower_than_flex_ssd(self, opt66b, flex_ssd_66b_32k):
        """Figure 10: FPGAs off, sixteen drives land at 0.64-0.94x FLEX(SSD)."""
        result = FlexGenSmartSSDsNoFPGA(opt66b).measure(16, 32768, n_steps=1, warmup_steps=1)
        ratio = result.tokens_per_second / flex_ssd_66b_32k.tokens_per_second
        assert 0.64 <= ratio <= 0.94

    def test_topology_has_sixteen_gen3_drives(self, opt66b):
        config = FlexGenSmartSSDsNoFPGA(opt66b).hardware_config()
        assert config.n_conventional_ssds == 16
        assert config.conventional_ssd_pcie_gen == 3


class TestWeightSourceFor175B:
    def test_weights_stream_from_storage(self):
        """Section 6.1: >100B models keep weights on flash."""
        from repro.analysis.capacity import WeightPlacement

        system = FlexGenSSD(get_model("OPT-175B"))
        assert system.weight_placement() is WeightPlacement.STORAGE

    def test_66b_weights_live_in_dram(self, opt66b):
        from repro.analysis.capacity import WeightPlacement

        assert FlexGenSSD(opt66b).weight_placement() is WeightPlacement.DRAM
