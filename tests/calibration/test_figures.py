"""Tests for the figure-point cache and the parallel grid pre-warmer."""

from __future__ import annotations

import pytest

from repro.calibration import CalibrationStore, system_fingerprint
from repro.calibration.figures import FigurePoint, FigurePointCache
from repro.calibration.prewarm import prewarm_step_grids
from repro.calibration.store import clear_memory_layer
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError
from repro.serving.steptime import CalibratedStepTime


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
        cache = FigurePointCache(system, (2,), (512,), store=store)
        first = cache.measure(2, 512)
        assert cache.measurement_count == 1
        again = cache.measure(2, 512)
        assert cache.measurement_count == 1
        assert again.step_seconds == first.step_seconds
        assert first.tokens_per_second == pytest.approx(
            first.effective_batch / first.step_seconds
        )

    def test_warm_store_means_zero_measures(self, tiny_mha, tmp_path):
        store = CalibrationStore(tmp_path)
        cold = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), (2,), (512,), store=store
        )
        cold_point = cold.measure(2, 512)
        cold.flush()
        clear_memory_layer()  # a fresh process: only the on-disk store is warm
        warm = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), (2,), (512,), store=store
        )
        warm_point = warm.measure(2, 512)
        assert warm.measurement_count == 0
        assert warm_point.step_seconds == cold_point.step_seconds
        # Phase breakdowns survive the round trip (fig11b's percentages).
        assert warm_point.breakdown.seconds == cold_point.breakdown.seconds
        assert warm_point.breakdown.seconds  # non-empty

    def test_off_grid_points_rejected(self, system):
        cache = FigurePointCache(system, (2,), (512,))
        with pytest.raises(ConfigurationError, match="outside"):
            cache.measure(4, 512)

    def test_oom_points_are_analytic_and_uncached(self, tmp_path):
        from repro.baselines.flexgen import FlexGenDRAM
        from repro.models import get_model

        # OPT-175B at 128K is the paper's canonical FLEX(DRAM) OOM point.
        system = FlexGenDRAM(get_model("OPT-175B"))
        cache = FigurePointCache(
            system, (16,), (131072,), store=CalibrationStore(tmp_path)
        )
        point = cache.measure(16, 131072)
        assert point.oom
        assert point.tokens_per_second == 0.0
        assert cache.measurement_count == 0  # detected without simulation
        assert cache.cached_points == 0


class TestBreakdownPersistence:
    def test_store_round_trips_breakdown_cells(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record(
            "f" * 64,
            step_cells={(1, 256): 0.5},
            breakdown_cells={(1, 256): {"load_kv": 0.3, "host_compute": 0.2}},
        )
        clear_memory_layer()
        grid = CalibrationStore(tmp_path).load_breakdown_grid("f" * 64)
        assert grid == {(1, 256): {"load_kv": 0.3, "host_compute": 0.2}}

    def test_legacy_files_without_breakdown_still_load(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("a" * 64, step_cells={(1, 256): 0.5})
        clear_memory_layer()
        fresh = CalibrationStore(tmp_path)
        assert fresh.load_step_grid("a" * 64) == {(1, 256): 0.5}
        assert fresh.load_breakdown_grid("a" * 64) == {}

    @pytest.mark.parametrize(
        "patch",
        [
            {"step_seconds": {"nocomma": 1.0}},
            {"step_seconds": {"1,256": "not a number"}},
            {"breakdown_seconds": {"1,256": 5}},
            {"breakdown_seconds": {"1,256": {"load_kv": "x"}}},
        ],
    )
    def test_malformed_cells_read_as_a_miss(self, tmp_path, patch):
        """Syntactically-valid JSON with corrupt cells must hydrate as a
        miss (re-measure), never crash every later load."""
        import json

        store = CalibrationStore(tmp_path)
        store.record("b" * 64, step_cells={(1, 256): 0.5})
        path = store._path("b" * 64)
        payload = json.loads(path.read_text())
        payload.update(patch)
        path.write_text(json.dumps(payload))
        clear_memory_layer()
        fresh = CalibrationStore(tmp_path)
        assert fresh.load_step_grid("b" * 64) == {}
        assert fresh.load_breakdown_grid("b" * 64) == {}


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
        """Seeded cells must be indistinguishable from locally measured ones."""
        from repro.baselines.registry import build_inference_system
        from repro.models import get_model

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
        assert value == pytest.approx(fresh.step_seconds(2, 512), rel=1e-12)

    def test_seed_cell_roundtrip(self, system, tmp_path):
        store = CalibrationStore(tmp_path)
        step_time = CalibratedStepTime(
            system, batch_grid=(1, 2), seq_grid=(256,), store=store
        )
        assert set(step_time.missing_cells()) == {(1, 256), (2, 256)}
        step_time.seed_cell((1, 256), 0.125)
        assert step_time.missing_cells() == [(2, 256)]
        assert step_time.step_seconds(1, 256) == pytest.approx(0.125)
        assert step_time.measurement_count == 0


class TestStepCounts:
    """Serving grids and figure points measure one decode step without
    warm-up.  The counts are part of every fingerprint, so changing them
    would turn every stored grid into a miss."""

    def test_serving_grid_fingerprint(self, system):
        assert (CalibratedStepTime.n_steps, CalibratedStepTime.warmup_steps) == (1, 0)
        step_time = CalibratedStepTime(system, batch_grid=(1, 2), seq_grid=(256,))
        assert step_time.fingerprint == system_fingerprint(
            system, (1, 2), (256,), n_steps=1, warmup_steps=0
        )

    def test_figure_point_fingerprint(self, system):
        assert (FigurePointCache.n_steps, FigurePointCache.warmup_steps) == (1, 0)
        cache = FigurePointCache(system, (1, 2), (256,))
        assert cache.fingerprint == system_fingerprint(
            system,
            (1, 2),
            (256,),
            n_steps=1,
            warmup_steps=0,
            semantics=FigurePointCache.SEMANTICS,
        )
