"""Tests for the measured-cell cache and the parallel grid pre-warmer."""

from __future__ import annotations

import pytest

from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.calibration import CalibrationStore, system_fingerprint
from repro.calibration.figures import FigurePointCache
from repro.calibration.prewarm import _measure_cell_job, prewarm_step_grids
from repro.calibration.store import clear_memory_layer
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.fig04_ans_breakdown import ans_only_system
from repro.models import get_model
from repro.serving.steptime import CalibratedStepTime
from repro.sim.isp import isp_hardware_config


@pytest.fixture(autouse=True)
def fresh_memory_layer():
    clear_memory_layer()
    yield
    clear_memory_layer()


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


class TestFigurePointCache:
    def test_measures_once_and_caches(self, system, tmp_path):
        store = CalibrationStore(tmp_path)
        cache = FigurePointCache(system, store=store)
        first = cache.measure(2, 512)
        assert cache.measurement_count == 1
        again = cache.measure(2, 512)
        assert cache.measurement_count == 1
        assert again == first
        assert first.tokens_per_second == first.effective_batch / first.step_seconds

    def test_warm_store_means_zero_measures(self, tiny_mha, tmp_path):
        store = CalibrationStore(tmp_path)
        cold = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), store=store
        )
        cold_point = cold.measure(2, 512)
        cold.flush()
        clear_memory_layer()  # a fresh process: only the on-disk store is warm
        warm = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), store=store
        )
        warm_point = warm.measure(2, 512)
        assert warm.measurement_count == 0
        assert warm_point == cold_point
        assert warm_point.breakdown.seconds  # non-empty (fig11b's percentages)

    def test_oom_points_are_analytic_and_uncached(self, tmp_path):
        # OPT-175B at 128K is the paper's canonical FLEX(DRAM) OOM point.
        system = FlexGenDRAM(get_model("OPT-175B"))
        cache = FigurePointCache(system, store=CalibrationStore(tmp_path))
        point = cache.measure(16, 131072)
        assert point.oom
        assert point.tokens_per_second == 0.0
        assert cache.measurement_count == 0  # detected without simulation
        assert cache.cached_points == 0
        assert point == system.measure(16, 131072, n_steps=1, warmup_steps=0)

    def test_cached_points_counts_the_points_served(self, system, tmp_path):
        store = CalibrationStore(tmp_path)
        FigurePointCache(system, store=store).measure(1, 512)
        cache = FigurePointCache(system, store=store)
        assert cache.prewarm() == 1  # held, not yet served
        assert cache.cached_points == 0
        cache.measure(1, 512)
        cache.measure(2, 512)
        cache.measure(2, 512)
        assert (cache.cached_points, cache.measurement_count) == (2, 1)


class TestOneIdentity:
    """A cell belongs to its system and the step recipe, not to the grid or
    harness that reads it."""

    def test_a_cell_serves_every_cache_of_its_system(self, tiny_mha, tmp_path):
        store = CalibrationStore(tmp_path)
        first = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), store=store
        )
        measured = first.measure(2, 512)
        other = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), store=store
        )
        served = other.measure(2, 512)
        assert other.measurement_count == 0
        assert served == measured

    def test_interleaved_caches_measure_a_point_once(self, tiny_mha, tmp_path):
        """A cache hydrated before another recorded the point still finds
        it: a local miss re-reads the store's memory layer."""
        store = CalibrationStore(tmp_path)
        a, b = (
            FigurePointCache(
                HilosSystem(tiny_mha, HilosConfig(n_devices=2)), store=store
            )
            for _ in range(2)
        )
        a.prewarm()
        b.prewarm()
        a.measure(2, 512)
        b.measure(2, 512)
        assert (a.measurement_count, b.measurement_count) == (1, 0)

    def test_fingerprint_is_the_system_and_the_recipe(self, system):
        assert (FigurePointCache.n_steps, FigurePointCache.warmup_steps) == (1, 0)
        assert FigurePointCache(system).fingerprint == system_fingerprint(
            system, n_steps=1, warmup_steps=0
        )

    def test_serving_grids_read_the_systems_cells(self, system):
        """The serving surrogate's cells live under the same identity as
        the figures': one system, one set of cells, whatever the grid."""
        assert (CalibratedStepTime.n_steps, CalibratedStepTime.warmup_steps) == (1, 0)
        for grid in ((1, 2), (4, 8, 16)):
            step_time = CalibratedStepTime(system, batch_grid=grid, seq_grid=(256,))
            assert step_time.cells.fingerprint == system_fingerprint(system)


class TestServingGridOverFigureCells:
    """A serving grid over a store the figures warmed bills exactly the
    billed ``measure()`` step and simulates nothing."""

    BATCHES = (8, 16)
    SEQ_LEN = 16384

    def test_bills_the_billed_measure_step_from_figure_cells(self, tmp_path):
        model = get_model("OPT-66B")
        store = CalibrationStore(tmp_path)
        figure = FigurePointCache(FlexGenDRAM(model), store=store)
        for batch in self.BATCHES:
            figure.measure(batch, self.SEQ_LEN)
        figure.flush()
        clear_memory_layer()  # a later process reading the warmed store
        step_time = CalibratedStepTime(
            FlexGenDRAM(model),
            batch_grid=self.BATCHES,
            seq_grid=(self.SEQ_LEN,),
            store=CalibrationStore(tmp_path),
        )
        assert step_time.prewarm() == len(self.BATCHES)
        direct_system = FlexGenDRAM(model)
        for batch in self.BATCHES:
            direct = direct_system.measure(
                batch, self.SEQ_LEN, n_steps=1, warmup_steps=0
            )
            assert direct.effective_batch < batch  # the clamp is billed
            billed = direct.step_seconds * (batch / direct.effective_batch)
            assert step_time.step_seconds(batch, self.SEQ_LEN) == billed
        assert step_time.measurement_count == 0


class TestPrewarm:
    GRID = dict(batch_grid=(1, 2), seq_grid=(256, 512))

    def test_prewarms_every_missing_cell(self, tmp_path):
        store = CalibrationStore(tmp_path)
        reports = prewarm_step_grids(
            ["HILOS (8 SmartSSDs)"], store=store, jobs=1, **self.GRID
        )
        (report,) = reports
        assert report.measured == 4
        assert report.already_cached == 0
        assert report.missing_after == 0

    def test_second_prewarm_is_a_noop(self, tmp_path):
        store = CalibrationStore(tmp_path)
        prewarm_step_grids(["HILOS (8 SmartSSDs)"], store=store, jobs=1, **self.GRID)
        clear_memory_layer()
        (report,) = prewarm_step_grids(
            ["HILOS (8 SmartSSDs)"], store=store, jobs=1, **self.GRID
        )
        assert report.measured == 0
        assert report.already_cached == 4

    def test_prewarmed_grid_matches_lazy_measurement(self, tmp_path):
        """Installed cells must be indistinguishable from locally measured ones."""
        from repro.baselines.registry import build_inference_system

        store = CalibrationStore(tmp_path)
        prewarm_step_grids(["HILOS (8 SmartSSDs)"], store=store, jobs=1, **self.GRID)
        clear_memory_layer()
        warmed = CalibratedStepTime(
            build_inference_system("HILOS (8 SmartSSDs)", get_model("OPT-66B")),
            store=store,
            **self.GRID,
        )
        fresh = CalibratedStepTime(
            build_inference_system("HILOS (8 SmartSSDs)", get_model("OPT-66B")),
            store=None,
            **self.GRID,
        )
        value = warmed.step_seconds(2, 512)
        assert warmed.measurement_count == 0
        assert value == fresh.step_seconds(2, 512)

    def test_workers_return_the_raw_cell(self):
        from repro.baselines.registry import build_inference_system

        label, point, raw = _measure_cell_job(
            "HILOS (8 SmartSSDs)", "OPT-66B", "auto", (2, 512)
        )
        cache = FigurePointCache(
            build_inference_system("HILOS (8 SmartSSDs)", get_model("OPT-66B"))
        )
        cache.measure(2, 512)
        assert (label, point, raw) == ("HILOS (8 SmartSSDs)", (2, 512), cache.cell(2, 512))

    def test_installed_cell_serves_the_grid(self, system, tmp_path):
        store = CalibrationStore(tmp_path)
        step_time = CalibratedStepTime(
            system, batch_grid=(1, 2), seq_grid=(256,), store=store
        )
        assert step_time.prewarm() == 0
        raw = FigurePointCache(HilosSystem(system.model, HilosConfig(n_devices=2)))
        raw.measure(1, 256)
        step_time.cells.install(1, 256, raw.cell(1, 256))
        assert step_time.prewarm() == 1
        assert step_time.step_seconds(1, 256) == raw.cell(1, 256)["step_seconds"]
        assert step_time.measurement_count == 0


def _isp_hilos(model):
    return HilosSystem(
        model, HilosConfig(n_devices=1), hardware=isp_hardware_config(n_devices=1)
    )


class TestOneStepRecipe:
    """The cell recipe (one step, no warm-up), per system class the
    figures measure: a cold and a warm cache read equal the direct
    one-step call field for field, and a warm-up step moves nothing a
    figure reads."""

    CASES = {
        "flex-ssd": (FlexGenSSD, "OPT-175B", 4, 32768),
        "flex-dram": (FlexGenDRAM, "OPT-30B", 16, 16384),
        "ans-only": (ans_only_system, "OPT-30B", 16, 32768),
        "hilos-16": (
            lambda m: HilosSystem(m, HilosConfig(n_devices=16)), "OPT-66B", 16, 16384
        ),
        "isp-hilos": (_isp_hilos, "OPT-66B", 16, 32768),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cold_and_warm_reads_equal_the_direct_call(self, case, tmp_path):
        build, model_name, batch, seq_len = self.CASES[case]
        model = get_model(model_name)
        direct = build(model).measure(batch, seq_len, n_steps=1, warmup_steps=0)
        cold_cache = FigurePointCache(build(model), store=CalibrationStore(tmp_path))
        cold = cold_cache.measure(batch, seq_len)
        cold_cache.flush()
        clear_memory_layer()  # a fresh process: only the on-disk store is warm
        warm_cache = FigurePointCache(build(model), store=CalibrationStore(tmp_path))
        warm = warm_cache.measure(batch, seq_len)
        assert (cold_cache.measurement_count, warm_cache.measurement_count) == (1, 0)
        assert not direct.oom
        assert cold == direct
        assert warm == direct

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_warmup_moves_nothing_a_figure_reads(self, case):
        build, model_name, batch, seq_len = self.CASES[case]
        model = get_model(model_name)
        recipe = FigurePointCache(build(model)).measure(batch, seq_len)
        warmed = build(model).measure(batch, seq_len, n_steps=1, warmup_steps=1)
        assert not recipe.oom and not warmed.oom

        def close(value, reference):
            return value == pytest.approx(reference, rel=1e-9, abs=0.0)

        assert close(recipe.step_seconds, warmed.step_seconds)
        assert recipe.breakdown.seconds.keys() == warmed.breakdown.seconds.keys()
        for phase, seconds in warmed.breakdown.seconds.items():
            assert close(recipe.breakdown.seconds[phase], seconds), phase
        for share in ("cpu", "gpu", "dram_capacity"):
            assert close(
                getattr(recipe.utilization, share), getattr(warmed.utilization, share)
            ), share
        assert recipe.storage_logical_written == warmed.storage_logical_written
        assert recipe.storage_physical_written == warmed.storage_physical_written
