"""Cross-stack integration tests: the paper's headline shape targets.

These run the full event simulation at paper scale and assert the
qualitative results DESIGN.md commits to: who wins, by roughly what factor,
and where the crossovers fall.  Absolute tokens/sec are calibration-specific
(FlexGen's staging channel is calibrated to the paper's measured FLEX(SSD)
throughputs; see ``repro.baselines.flexgen``) and only loosely bounded here.
"""

from __future__ import annotations

import pytest

from repro.analysis.traffic import xcache_step_traffic
from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models import get_model


@pytest.fixture(scope="module")
def results_66b_32k():
    """All headline systems at OPT-66B / 32K / batch 16."""
    model = get_model("OPT-66B")
    out = {
        "FLEX(SSD)": FlexGenSSD(model).measure(16, 32768, n_steps=1, warmup_steps=1),
        "FLEX(DRAM)": FlexGenDRAM(model).measure(16, 32768, n_steps=1, warmup_steps=1),
    }
    for n in (4, 16):
        system = HilosSystem(model, HilosConfig(n_devices=n))
        out[f"HILOS({n})"] = system.measure(16, 32768, n_steps=1, warmup_steps=1)
    return out


class TestFigure10Shape:
    def test_hilos4_beats_flex_dram_modestly(self, results_66b_32k):
        """Paper: HILOS(4) over FLEX(DRAM) is 1.10-1.36x."""
        ratio = (
            results_66b_32k["HILOS(4)"].tokens_per_second
            / results_66b_32k["FLEX(DRAM)"].tokens_per_second
        )
        assert 1.0 < ratio < 1.6

    def test_hilos16_beats_flex_dram_strongly(self, results_66b_32k):
        """Paper: HILOS(16) over FLEX(DRAM) is 1.88-2.49x."""
        ratio = (
            results_66b_32k["HILOS(16)"].tokens_per_second
            / results_66b_32k["FLEX(DRAM)"].tokens_per_second
        )
        assert 1.7 < ratio < 3.2

    def test_hilos16_crushes_flex_ssd(self, results_66b_32k):
        """Paper: 5.3-7.9x over FLEX(SSD) at long contexts."""
        ratio = (
            results_66b_32k["HILOS(16)"].tokens_per_second
            / results_66b_32k["FLEX(SSD)"].tokens_per_second
        )
        assert 4.5 < ratio < 10.0

    def test_175b_128k_headline(self):
        """The up-to-7.86x configuration: OPT-175B at 128K, FLEX(DRAM) OOM."""
        model = get_model("OPT-175B")
        flex = FlexGenSSD(model).measure(16, 131072, n_steps=1, warmup_steps=1)
        dram = FlexGenDRAM(model).measure(16, 131072, n_steps=1)
        hilos = HilosSystem(model, HilosConfig(n_devices=16)).measure(
            16, 131072, n_steps=1, warmup_steps=1
        )
        assert dram.oom
        ratio = hilos.tokens_per_second / flex.tokens_per_second
        assert 5.0 < ratio < 11.0


class TestAlphaModelAgainstSimulation:
    def test_empirical_optimum_matches_analytic_half(self):
        """Figure 13: the alpha grid's empirical winner at 16 devices is 50%,
        where the analytic model predicts the PCI/SSD balance."""
        model = get_model("OPT-30B")
        throughputs = {}
        for alpha in (0.25, 0.5, 0.75):
            system = HilosSystem(
                model,
                HilosConfig(n_devices=16, alpha=alpha, spill_interval=16),
            )
            result = system.measure(16, 32768, n_steps=1, warmup_steps=1)
            throughputs[alpha] = result.tokens_per_second
        assert max(throughputs, key=throughputs.get) == 0.5

    def test_simulated_flash_reads_match_traffic_model(self):
        """The event simulation's byte counters must reproduce the Section
        4.2 storage-read formula (alpha*S_X + (1-alpha)*S_KV per step)."""
        model = get_model("OPT-30B")
        system = HilosSystem(
            model,
            HilosConfig(n_devices=8, alpha=0.5, use_delayed_writeback=False),
        )
        seq_len, batch = 8192, 4
        result = system.measure(batch, seq_len, n_steps=1, warmup_steps=0)
        assert not result.oom
        # Weights live in DRAM for a <100B model, so all flash reads in the
        # single simulated step are attention traffic; the counters must
        # land exactly on the analytic per-step volume.
        assert system.last_system is not None
        simulated = system.last_system.smartssd_flash_counters().logical_read
        expected_per_layer = xcache_step_traffic(model, batch, seq_len, 0.5)
        expected_total = expected_per_layer.storage_read * model.n_layers
        assert simulated == pytest.approx(expected_total, rel=1e-9)

    def test_simulated_interconnect_output_traffic_matches_eq3(self):
        """ANS returns only attention outputs over the NSP links: 2h bytes
        per element per layer (Equation 3's read side)."""
        model = get_model("OPT-30B")
        system = HilosSystem(
            model,
            HilosConfig(n_devices=8, use_xcache=False, use_delayed_writeback=False),
        )
        batch = 4
        result = system.measure(batch, 8192, n_steps=1, warmup_steps=0)
        assert not result.oom
        uplink = system.last_system.expansion_uplink
        outputs = uplink.work_by_tag.get("load_kv", 0.0)
        expected = (
            2 * model.hidden * batch * model.n_layers
        )  # 2h per element per layer
        assert outputs == pytest.approx(expected, rel=1e-9)


class TestSpillIntervalUShape:
    def test_c16_beats_extremes_end_to_end(self):
        model = get_model("OPT-30B")
        tputs = {}
        for interval in (2, 16, 64):
            system = HilosSystem(
                model, HilosConfig(n_devices=16, alpha=0.5, spill_interval=interval)
            )
            tputs[interval] = system.measure(
                16, 16384, n_steps=1, warmup_steps=1
            ).tokens_per_second
        assert tputs[16] > tputs[2]
        assert tputs[16] > tputs[64]


class TestEnergyHeadline:
    def test_hilos_cuts_energy_versus_flex_ssd(self):
        """Paper: up to 85% energy reduction; we require a large cut."""
        from repro.analysis.energy import energy_breakdown

        model = get_model("OPT-66B")
        flex = FlexGenSSD(model).measure(16, 32768, n_steps=1, warmup_steps=1)
        hilos = HilosSystem(model, HilosConfig(n_devices=16)).measure(
            16, 32768, n_steps=1, warmup_steps=1
        )
        flex_energy = energy_breakdown(flex, n_conventional_ssds=4)
        hilos_energy = energy_breakdown(hilos, n_smartssds=16)
        reduction = 1.0 - hilos_energy.total_j / flex_energy.total_j
        assert reduction > 0.5
