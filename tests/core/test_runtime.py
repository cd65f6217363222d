"""Integration tests for the HILOS runtime on the event simulator.

These run the full decode-step simulation at real model scale (tens of
layers), so each measurement costs a fraction of a second of wall time;
assertions target the paper's qualitative claims rather than exact numbers.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import SYSTEM_BUILDERS, build_inference_system
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError
from repro.models import get_model


@pytest.fixture(scope="module")
def opt30b():
    return get_model("OPT-30B")


def measure(model, config, batch=16, seq=16384, gpu="A100"):
    return HilosSystem(model, config, gpu=gpu).measure(batch, seq, n_steps=1, warmup_steps=1)


class TestConfig:
    def test_defaults(self):
        config = HilosConfig()
        assert config.n_devices == 8
        assert config.spill_interval == 16
        assert config.ablation_name() == "ANS+WB+X"

    def test_ablation_names(self):
        assert HilosConfig(use_xcache=False, use_delayed_writeback=False).ablation_name() == "ANS"
        assert HilosConfig(use_xcache=False).ablation_name() == "ANS+WB"
        assert HilosConfig(use_delayed_writeback=False).ablation_name() == "ANS+X"

    def test_naive_spill_interval(self):
        assert HilosConfig(use_delayed_writeback=False).effective_spill_interval() == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HilosConfig(n_devices=0)
        with pytest.raises(ConfigurationError):
            HilosConfig(alpha=1.5)
        with pytest.raises(ConfigurationError):
            HilosConfig(spill_interval=0)


class TestMeasurement:
    def test_throughput_positive_and_finite(self, opt30b):
        result = measure(opt30b, HilosConfig(n_devices=8))
        assert result.tokens_per_second > 0
        assert result.effective_batch == 16
        assert not result.oom

    def test_scaling_with_devices(self, opt30b):
        """Figure 10: more SmartSSDs -> more aggregate internal bandwidth."""
        tputs = [
            measure(opt30b, HilosConfig(n_devices=n)).tokens_per_second
            for n in (4, 8, 16)
        ]
        assert tputs[0] < tputs[1] < tputs[2]

    def test_auto_alpha_half_at_16_devices(self, opt30b):
        system = HilosSystem(opt30b, HilosConfig(n_devices=16))
        system.measure(16, 32768, n_steps=1, warmup_steps=0)
        assert system.schedule is not None
        assert system.schedule.alpha == pytest.approx(0.5)

    def test_explicit_alpha_respected(self, opt30b):
        system = HilosSystem(opt30b, HilosConfig(n_devices=16, alpha=0.25))
        system.measure(16, 16384, n_steps=1, warmup_steps=0)
        assert system._alpha == 0.25
        assert system.schedule is None

    def test_longer_context_lowers_throughput(self, opt30b):
        short = measure(opt30b, HilosConfig(n_devices=8), seq=8192)
        long = measure(opt30b, HilosConfig(n_devices=8), seq=32768)
        assert long.tokens_per_second < short.tokens_per_second


class TestAblationOrdering:
    """Figure 15: each optimization helps, and they compose."""

    @pytest.fixture(scope="class")
    def results(self):
        model = get_model("OPT-30B")
        configs = {
            "ANS": HilosConfig(n_devices=16, use_xcache=False, use_delayed_writeback=False),
            "ANS+WB": HilosConfig(n_devices=16, use_xcache=False, use_delayed_writeback=True),
            "ANS+X": HilosConfig(n_devices=16, use_xcache=True, use_delayed_writeback=False),
            "ANS+WB+X": HilosConfig(n_devices=16),
        }
        return {
            name: measure(model, config).tokens_per_second
            for name, config in configs.items()
        }

    def test_writeback_improves_over_ans(self, results):
        assert results["ANS+WB"] > results["ANS"]

    def test_xcache_improves_over_ans(self, results):
        assert results["ANS+X"] > results["ANS"]

    def test_full_system_is_best(self, results):
        assert results["ANS+WB+X"] == max(results.values())

    def test_writeback_gain_in_paper_band(self, results):
        """ANS+WB over ANS: the paper reports up to ~1.32x."""
        gain = results["ANS+WB"] / results["ANS"]
        assert 1.02 < gain < 1.6


class TestStorageAccounting:
    def test_writeback_reduces_physical_writes(self, opt30b):
        naive = measure(
            opt30b,
            HilosConfig(n_devices=8, use_xcache=False, use_delayed_writeback=False),
        )
        delayed = measure(
            opt30b,
            HilosConfig(n_devices=8, use_xcache=False, use_delayed_writeback=True),
        )
        assert naive.storage_physical_written > 0
        # The naive path amplifies 256 B entries to 4 KiB pages (16x).
        naive_amp = naive.storage_physical_written / max(naive.storage_logical_written, 1)
        assert naive_amp > 8.0

    def test_xcache_reduces_flash_reads(self, opt30b):
        """With alpha > 0 the devices read less from flash per step."""
        system_a = HilosSystem(opt30b, HilosConfig(n_devices=16, alpha=0.0, use_xcache=False))
        system_b = HilosSystem(opt30b, HilosConfig(n_devices=16, alpha=0.5))
        result_a = system_a.measure(16, 16384, n_steps=1, warmup_steps=1)
        result_b = system_b.measure(16, 16384, n_steps=1, warmup_steps=1)
        assert result_b.tokens_per_second > result_a.tokens_per_second


class TestAcceleratorSelection:
    def test_gqa_model_uses_grouped_bitstream(self):
        qwen = get_model("Qwen2.5-32B")
        system = HilosSystem(qwen, HilosConfig(n_devices=8))
        assert system.accelerator_config().d_group == 5

    def test_name_includes_device_count(self, opt30b):
        assert HilosSystem(opt30b, HilosConfig(n_devices=4)).name == "HILOS (4 SmartSSDs)"


class TestPrefillHistoryIndependence:
    @pytest.mark.parametrize("label", sorted(SYSTEM_BUILDERS))
    def test_prefill_does_not_depend_on_measurement_history(self, tiny_mha, label):
        """Prefill estimates are pure functions of (batch, seq): measuring a
        different shape first must not change them.  This is what lets the
        calibration cells leave prefill out and compute it instead."""
        baseline = build_inference_system(label, tiny_mha).prefill_seconds(4, 1024)

        warmed = build_inference_system(label, tiny_mha)
        warmed.measure(16, 256, n_steps=1, warmup_steps=0)
        assert warmed.prefill_seconds(4, 1024) == baseline
