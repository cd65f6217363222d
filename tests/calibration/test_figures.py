"""Tests for the figure-point cache and the parallel grid pre-warmer."""

from __future__ import annotations

import pytest

from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.calibration import CalibrationStore, system_fingerprint
from repro.calibration.figures import FigurePoint, FigurePointCache, measure_direct
from repro.calibration.prewarm import prewarm_step_grids
from repro.calibration.store import clear_memory_layer
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError
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


class TestGridFreeIdentity:
    """A figure cell belongs to its system, not to the grid around it."""

    def test_a_cell_serves_every_grid_that_declares_it(self, tiny_mha, tmp_path):
        store = CalibrationStore(tmp_path)
        first = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), (2,), (512,), store=store
        )
        measured = first.measure(2, 512)
        other = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)),
            (1, 2),
            (256, 512),
            store=store,
        )
        served = other.measure(2, 512)
        assert other.measurement_count == 0
        assert served == measured

    def test_counts_only_the_declared_grid(self, tiny_mha, tmp_path):
        store = CalibrationStore(tmp_path)
        wide = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), (1, 2), (512,), store=store
        )
        wide.measure(1, 512)
        wide.measure(2, 512)
        wide.flush()
        clear_memory_layer()  # a fresh process reading the disk store
        narrow = FigurePointCache(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), (2,), (512,), store=store
        )
        assert narrow.prewarm() == 1
        assert narrow.cached_points == 1
        with pytest.raises(ConfigurationError, match="outside"):
            narrow.measure(1, 512)

    def test_interleaved_caches_measure_a_point_once(self, tiny_mha, tmp_path):
        """A cache hydrated before another recorded the point still finds
        it: a local miss re-reads the store's memory layer."""
        store = CalibrationStore(tmp_path)
        a, b = (
            FigurePointCache(
                HilosSystem(tiny_mha, HilosConfig(n_devices=2)),
                (2,),
                (256, 512),
                store=store,
            )
            for _ in range(2)
        )
        a.prewarm()
        b.prewarm()
        a.measure(2, 512)
        b.measure(2, 512)
        assert (a.measurement_count, b.measurement_count) == (1, 0)


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
        """Figure cells are keyed by system, recipe and semantics: no grid."""
        assert (FigurePointCache.n_steps, FigurePointCache.warmup_steps) == (1, 0)
        cache = FigurePointCache(system, (1, 2), (256,))
        assert cache.fingerprint == system_fingerprint(
            system,
            n_steps=1,
            warmup_steps=0,
            semantics=FigurePointCache.SEMANTICS,
        )
        assert FigurePointCache(system, (4,), (512, 1024)).fingerprint == (
            cache.fingerprint
        )


def _isp_hilos(model):
    return HilosSystem(
        model, HilosConfig(n_devices=1), hardware=isp_hardware_config(n_devices=1)
    )


class TestOneStepRecipe:
    """The figure recipe (one step, no warm-up) that :func:`measure_direct`
    shares with the cache: per system class the direct harnesses measure,
    a warm-up step moves nothing a figure reads."""

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
    def test_warmup_moves_nothing_a_figure_reads(self, case):
        build, model_name, batch, seq_len = self.CASES[case]
        model = get_model(model_name)
        recipe = measure_direct(build(model), batch, seq_len)
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
