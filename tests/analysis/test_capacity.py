"""Tests for the capacity/placement planner."""

from __future__ import annotations

import pytest

from repro.analysis.capacity import (
    KVPlacement,
    WeightPlacement,
    default_weight_placement,
    fits_gpu,
    gpu_working_set_bytes,
    max_feasible_batch,
    plan_placement,
)
from repro.errors import CapacityError
from repro.models import get_model
from repro.units import GiB

HOST_DRAM = 512 * GiB


class TestWeightPlacementPolicy:
    def test_sub_100b_models_in_dram(self):
        for name in ("OPT-30B", "OPT-66B", "Qwen2.5-32B", "Mixtral-8x7B"):
            assert default_weight_placement(get_model(name)) is WeightPlacement.DRAM

    def test_over_100b_models_on_storage(self):
        for name in ("OPT-175B", "GLaM-143B"):
            assert default_weight_placement(get_model(name)) is WeightPlacement.STORAGE


class TestBatchFeasibility:
    def test_66b_32k_dram_caps_at_two(self):
        """Figure 11(a): FLEX(DRAM) runs OPT-66B/32K at batch 2."""
        batch = max_feasible_batch(get_model("OPT-66B"), 32768, KVPlacement.DRAM, HOST_DRAM, 16)
        assert batch == 2

    def test_175b_128k_dram_ooms_even_at_one(self):
        """Figure 10: CPU OOM for OPT-175B at 128K even with batch 1."""
        batch = max_feasible_batch(get_model("OPT-175B"), 131072, KVPlacement.DRAM, HOST_DRAM, 16)
        assert batch == 0

    def test_storage_placement_always_feasible_at_16(self):
        plan = plan_placement(get_model("OPT-175B"), 16, 131072, KVPlacement.STORAGE, HOST_DRAM)
        assert plan.weights_on_storage
        assert plan.storage_resident_bytes > plan.dram_resident_bytes

    def test_qwen_gqa_fits_dram_at_batch_16(self):
        """Figure 12(b): GQA's small KV lets FLEX(DRAM) keep batch 16 at 32K."""
        batch = max_feasible_batch(get_model("Qwen2.5-32B"), 32768, KVPlacement.DRAM, HOST_DRAM, 16)
        assert batch == 16

    @pytest.mark.parametrize(
        "requested, limit, tried",
        [
            (16, 4, [16, 8, 4]),
            (7, 4, [7, 4]),
            (11, 4, [11, 8, 4]),
            (12, 4, [12, 8, 4]),
            (3, 4, [3]),
            (6, 1, [6, 4, 2, 1]),
            (3, 0, [3, 2, 1]),
        ],
    )
    def test_failure_drops_to_the_next_power_of_two_down(
        self, monkeypatch, requested, limit, tried
    ):
        """With batches up to ``limit`` fitting, a request that does not fit
        drops to the largest power of two below it, then halves; nothing
        fitting returns 0."""
        from repro.analysis import capacity

        planned = []

        def plan(model, batch, seq_len, kv_placement, host_dram_bytes):
            planned.append(batch)
            if batch > limit:
                raise CapacityError(f"batch {batch} does not fit")

        monkeypatch.setattr(capacity, "plan_placement", plan)
        batch = max_feasible_batch(
            get_model("OPT-66B"), 13010, KVPlacement.DRAM, HOST_DRAM, requested
        )
        assert planned == tried
        assert batch == (tried[-1] if limit else 0)

    def test_seven_runs_at_four_where_four_fits(self):
        """FLEX(DRAM), OPT-66B, context 13,010 holds batch 4 but not 7, so a
        request for 7 runs at 4 (it used to halve to 3)."""
        model = get_model("OPT-66B")
        fits = {
            batch: max_feasible_batch(model, 13010, KVPlacement.DRAM, HOST_DRAM, batch)
            for batch in (4, 7, 8)
        }
        assert fits == {4: 4, 7: 4, 8: 4}

    def test_feasible_batch_monotone_in_context(self):
        model = get_model("OPT-66B")
        batches = [
            max_feasible_batch(model, seq, KVPlacement.DRAM, HOST_DRAM, 16)
            for seq in (8192, 16384, 32768, 65536, 131072)
        ]
        assert all(b >= a for a, b in zip(batches, batches[1:])) is False
        assert batches == sorted(batches, reverse=True)


class TestPlanValidation:
    def test_oom_raises_with_CPU_OOM_message(self):
        with pytest.raises(CapacityError, match="CPU OOM"):
            plan_placement(get_model("OPT-175B"), 4, 131072, KVPlacement.DRAM, HOST_DRAM)

    def test_writeback_buffer_counts_against_dram(self):
        model = get_model("OPT-66B")
        lean = plan_placement(model, 16, 32768, KVPlacement.STORAGE, HOST_DRAM)
        padded = plan_placement(
            model, 16, 32768, KVPlacement.STORAGE, HOST_DRAM,
            writeback_buffer_bytes=10 * GiB,
        )
        assert padded.dram_resident_bytes == pytest.approx(
            lean.dram_resident_bytes + 10 * GiB
        )


class TestGPUWorkingSet:
    def test_decode_working_set_fits_a100(self):
        """Chunked X-cache regeneration keeps the working set bounded."""
        model = get_model("OPT-66B")
        assert fits_gpu(model, 16, 40 * GiB)

    def test_working_set_scales_with_batch(self):
        model = get_model("OPT-66B")
        assert gpu_working_set_bytes(model, 32) > gpu_working_set_bytes(model, 1)
