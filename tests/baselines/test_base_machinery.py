"""Tests for the shared measurement machinery (weight streaming, overlap,
determinism, prefill model)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.baselines.registry import SYSTEM_BUILDERS, build_inference_system
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError
from repro.models import get_model, list_models


@pytest.fixture(scope="module")
def opt30b():
    return get_model("OPT-30B")


class TestDeterminism:
    def test_repeated_measurements_identical(self, opt30b):
        """The simulation is seedless and deterministic: same inputs, same
        step time to the last bit."""
        a = FlexGenSSD(opt30b).measure(8, 8192, n_steps=1, warmup_steps=1)
        b = FlexGenSSD(opt30b).measure(8, 8192, n_steps=1, warmup_steps=1)
        assert a.step_seconds == b.step_seconds
        assert a.breakdown.seconds == b.breakdown.seconds

    def test_hilos_deterministic(self, opt30b):
        a = HilosSystem(opt30b, HilosConfig(n_devices=8)).measure(8, 8192, n_steps=1, warmup_steps=1)
        b = HilosSystem(opt30b, HilosConfig(n_devices=8)).measure(8, 8192, n_steps=1, warmup_steps=1)
        assert a.step_seconds == b.step_seconds

    def test_instances_are_reusable(self, opt30b):
        """measure() builds a fresh simulator every call, so one system
        object can be measured repeatedly without cross-talk."""
        system = HilosSystem(opt30b, HilosConfig(n_devices=8))
        first = system.measure(8, 8192, n_steps=1, warmup_steps=1)
        second = system.measure(8, 8192, n_steps=1, warmup_steps=1)
        assert first.step_seconds == pytest.approx(second.step_seconds)


class TestWeightStreamingOverlap:
    def test_step_faster_than_serial_sum(self, opt30b):
        """Weight prefetch overlaps compute/IO: the step must beat the sum
        of all recorded phase spans (which double-count overlap)."""
        result = FlexGenSSD(opt30b).measure(8, 16384, n_steps=1, warmup_steps=1)
        assert result.step_seconds < result.breakdown.total()

    def test_weight_bound_system_step_close_to_weight_time(self, opt30b):
        """For FLEX(DRAM) the pipeline collapses onto the weight stream."""
        result = FlexGenDRAM(opt30b).measure(4, 8192, n_steps=1, warmup_steps=1)
        weight_seconds = result.breakdown.get("load_weight")
        assert result.step_seconds == pytest.approx(weight_seconds, rel=0.35)


class TestStepScaling:
    def test_multi_step_measurement_averages(self, opt30b):
        one = FlexGenSSD(opt30b).measure(4, 8192, n_steps=1, warmup_steps=1)
        two = FlexGenSSD(opt30b).measure(4, 8192, n_steps=2, warmup_steps=1)
        assert two.step_seconds == pytest.approx(one.step_seconds, rel=0.05)

    def test_throughput_definition(self, opt30b):
        result = FlexGenSSD(opt30b).measure(8, 8192, n_steps=1, warmup_steps=1)
        assert result.tokens_per_second == pytest.approx(
            result.effective_batch / result.step_seconds
        )


class TestPrefillModel:
    def test_prefill_grows_with_context(self, opt30b):
        system = FlexGenSSD(opt30b)
        assert system.prefill_seconds(8, 32768) > system.prefill_seconds(8, 8192)

    def test_prefill_at_least_compute_bound(self, opt30b):
        system = FlexGenSSD(opt30b)
        assert system.prefill_seconds(8, 16384) >= system.prefill_compute_seconds(8, 16384)

    @pytest.mark.parametrize("model_name", list_models())
    def test_compute_equals_the_per_layer_sum(self, model_name):
        """Summing the layer-invariant QKV and attention FLOPs once keeps
        every prefill bit-identical to adding all three per layer."""

        def per_layer(system, batch, seq_len):
            model = system.model
            total = 0.0
            for layer in range(model.n_layers):
                qkv = model.qkv_flops_per_layer(batch) * seq_len
                attn = model.attention_flops_per_layer(batch, seq_len) * seq_len / 2.0
                mlp = model.mlp_flops_per_layer(batch, layer) * seq_len
                total += qkv + attn + mlp
            return total / system.hardware_config().gpu_spec.effective_flops

        model = get_model(model_name)
        rng = random.Random(model_name)
        shapes = [(rng.randint(1, 64), rng.randint(1, 1 << 17)) for _ in range(16)]
        for label in SYSTEM_BUILDERS:
            system = build_inference_system(label, model)
            for batch, seq_len in shapes:
                assert system.prefill_compute_seconds(batch, seq_len) == per_layer(
                    system, batch, seq_len
                ), (label, batch, seq_len)

    def test_hilos_prefill_writes_less_with_xcache(self, opt30b):
        """alpha X + (1-alpha) KV is smaller than the full KV for MHA."""
        hilos = HilosSystem(opt30b, HilosConfig(n_devices=16, alpha=0.5))
        hilos._alpha = 0.5
        full = HilosSystem(opt30b, HilosConfig(n_devices=16, alpha=0.0, use_xcache=False))
        full._alpha = 0.0
        assert hilos.prefill_kv_write_seconds(8, 16384) < full.prefill_kv_write_seconds(8, 16384)


class TestBreakdownSanity:
    def test_phases_cover_the_step(self, opt30b):
        """Every recorded phase is positive for a storage-backed system."""
        result = FlexGenSSD(opt30b).measure(8, 8192, n_steps=1, warmup_steps=1)
        for phase in ("load_weight", "load_kv", "store_kv", "host_compute"):
            assert result.breakdown.get(phase) > 0.0

    def test_utilizations_are_fractions(self, opt30b):
        result = HilosSystem(opt30b, HilosConfig(n_devices=8)).measure(
            8, 8192, n_steps=1, warmup_steps=1
        )
        u = result.utilization
        assert 0.0 <= u.cpu <= 1.0
        assert 0.0 <= u.gpu <= 1.0
        assert 0.0 <= u.dram_capacity <= 1.0


class TestMeasureArguments:
    @pytest.mark.parametrize(
        "build",
        [lambda m: HilosSystem(m, HilosConfig(n_devices=8)), FlexGenSSD],
        ids=["HILOS", "FLEX(SSD)"],
    )
    @pytest.mark.parametrize(
        "argument, kwargs",
        [
            ("batch_size", {"batch_size": 0}),
            ("batch_size", {"batch_size": -2}),
            ("n_steps", {"n_steps": 0}),
            ("warmup_steps", {"warmup_steps": -1}),
        ],
        ids=["batch0", "batch-2", "steps0", "warmup-1"],
    )
    def test_bad_argument_is_named(self, opt30b, build, argument, kwargs):
        """A non-positive batch or step count is a structured error that
        names the argument, not a CPU-OOM verdict, a division by zero or a
        silently skipped warm-up."""
        call = {"batch_size": 4, "seq_len": 1024, "n_steps": 1, "warmup_steps": 0}
        call.update(kwargs)
        with pytest.raises(ConfigurationError, match=argument):
            build(opt30b).measure(**call)
