"""Tests for the serving step-time models."""

from __future__ import annotations

import random

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError, SchedulingError
from repro.serving.steptime import (
    DEFAULT_SEQ_GRID,
    AnalyticStepTime,
    CalibratedStepTime,
)


class TestAnalyticStepTime:
    def test_affine_shape(self):
        model = AnalyticStepTime(
            base_seconds=2.0, per_token_seconds=0.5, prefill_per_token_seconds=0.1
        )
        assert model.step_seconds(4, 10) == pytest.approx(2.0 + 5.0)
        assert model.prefill_seconds(4, 100) == pytest.approx(10.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(SchedulingError):
            AnalyticStepTime().step_seconds(0, 128)

    @pytest.mark.parametrize(
        "coefficient",
        ["base_seconds", "per_token_seconds", "prefill_per_token_seconds"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_coefficients_rejected(self, coefficient, value):
        """A NaN or infinite step time would reach the simulator as a delay;
        the model refuses it at construction, as ``KVTier`` does."""
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            AnalyticStepTime(**{coefficient: value})


class TestCalibratedStepTime:
    @pytest.fixture
    def step_time(self, tiny_mha):
        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        return CalibratedStepTime(
            system, batch_grid=(1, 4, 16), seq_grid=(256, 1024, 4096)
        )

    def test_grid_point_matches_measure(self, step_time):
        direct = step_time.system.measure(4, 1024, n_steps=1, warmup_steps=1)
        assert step_time.step_seconds(4, 1024) == pytest.approx(
            direct.step_seconds, rel=0.05
        )

    def test_interpolation_between_grid_points(self, step_time):
        low = step_time.step_seconds(4, 1024)
        high = step_time.step_seconds(4, 4096)
        mid = step_time.step_seconds(4, 2560)
        assert min(low, high) <= mid <= max(low, high)

    def test_queries_clamp_to_grid_edges(self, step_time):
        assert step_time.step_seconds(64, 100_000) == pytest.approx(
            step_time.step_seconds(16, 4096)
        )
        assert step_time.step_seconds(1, 1) == pytest.approx(
            step_time.step_seconds(1, 256)
        )

    def test_calibration_is_lazy_and_cached(self, step_time):
        assert step_time.calibration_points == 0
        step_time.step_seconds(4, 1024)
        first = step_time.calibration_points
        assert first >= 1
        step_time.step_seconds(4, 1024)
        assert step_time.calibration_points == first

    def test_exact_grid_hit_measures_one_cell(self, step_time):
        """An interior grid point needs exactly one measurement, not a
        bracket of neighbouring rows/columns."""
        step_time.step_seconds(4, 1024)
        assert step_time.calibration_points == 1

    def test_step_time_grows_with_batch_and_context(self, step_time):
        assert step_time.step_seconds(16, 4096) > step_time.step_seconds(1, 256)

    def test_prefill_uses_system_analytic_model(self, step_time):
        assert step_time.prefill_seconds(4, 1024) == pytest.approx(
            step_time.system.prefill_seconds(4, 1024)
        )

    def test_clamped_effective_batch_bills_time_sliced_sub_batches(self):
        """DRAM-KV systems that halve the batch must not report the small
        clamped batch's step time as the requested batch's cost."""
        from repro.baselines.flexgen import FlexGenDRAM
        from repro.models import get_model

        system = FlexGenDRAM(get_model("OPT-66B"))
        requested = 16
        seq_len = 16384
        clamped = system.measure(requested, seq_len, n_steps=1, warmup_steps=1)
        assert clamped.effective_batch < requested  # precondition of the test
        step_time = CalibratedStepTime(
            system, batch_grid=(requested,), seq_grid=(seq_len,)
        )
        billed = step_time.step_seconds(requested, seq_len)
        assert billed == pytest.approx(
            clamped.step_seconds * requested / clamped.effective_batch, rel=1e-6
        )


class TestCalibrationStoreIntegration:
    @pytest.fixture(autouse=True)
    def fresh_memory_layer(self):
        from repro.calibration.store import clear_memory_layer

        clear_memory_layer()
        yield
        clear_memory_layer()

    def _step_time(self, model, store):
        system = HilosSystem(model, HilosConfig(n_devices=2))
        return CalibratedStepTime(
            system, batch_grid=(1, 4), seq_grid=(256, 1024), store=store
        )

    def test_measurement_count_tracks_real_measures_only(self, tiny_mha):
        step_time = self._step_time(tiny_mha, store=None)
        assert step_time.measurement_count == 0
        step_time.step_seconds(1, 256)
        assert step_time.measurement_count == 1
        step_time.step_seconds(1, 256)  # cached
        assert step_time.measurement_count == 1
        step_time.step_seconds(4, 1024)
        assert step_time.measurement_count == 2

    def test_warm_store_measures_nothing(self, tiny_mha, tmp_path):
        from repro.calibration import CalibrationStore
        from repro.calibration.store import clear_memory_layer

        store = CalibrationStore(tmp_path)
        cold = self._step_time(tiny_mha, store)
        cold_value = cold.step_seconds(4, 1024)
        cold_prefill = cold.prefill_seconds(4, 1024)
        cold.flush()
        assert cold.measurement_count == 1

        clear_memory_layer()  # simulate a new process
        warm = self._step_time(tiny_mha, CalibrationStore(tmp_path))
        assert warm.prewarm() == 1
        assert warm.step_seconds(4, 1024) == cold_value
        assert warm.prefill_seconds(4, 1024) == cold_prefill
        assert warm.measurement_count == 0

    def test_memory_layer_shared_without_flush(self, tiny_mha, tmp_path):
        from repro.calibration import CalibrationStore

        store = CalibrationStore(tmp_path)
        first = self._step_time(tiny_mha, store)
        first.step_seconds(1, 256)
        second = self._step_time(tiny_mha, store)
        assert second.step_seconds(1, 256) == first.step_seconds(1, 256)
        assert second.measurement_count == 0

    def test_different_grid_is_a_different_fingerprint(self, tiny_mha, tmp_path):
        from repro.calibration import CalibrationStore

        store = CalibrationStore(tmp_path)
        a = self._step_time(tiny_mha, store)
        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        b = CalibratedStepTime(
            system, batch_grid=(1, 2, 4), seq_grid=(256, 1024), store=store
        )
        assert a.fingerprint != b.fingerprint


class TestGridClampNotes:
    def test_on_grid_queries_produce_no_note(self, tiny_mha):
        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        step_time = CalibratedStepTime(system, batch_grid=(1, 4), seq_grid=(256, 1024))
        step_time.step_seconds(4, 1024)
        assert step_time.grid_clamp_summary() == {}

    def test_out_of_grid_queries_are_tallied(self, tiny_mha):
        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        step_time = CalibratedStepTime(system, batch_grid=(1, 4), seq_grid=(256, 1024))
        step_time.step_seconds(4, 1024)
        step_time.step_seconds(9, 5000)
        step_time.step_seconds(2, 9000)
        note = step_time.grid_clamp_summary()
        assert note["step_queries"] == 3
        assert note["clamped_queries"] == 2
        assert note["max_batch_seen"] == 9
        assert note["max_seq_seen"] == 9000
        assert note["batch_grid_max"] == 4
        assert note["seq_grid_max"] == 1024

    def test_clamp_note_lands_in_serving_report(self, tiny_mha):
        from repro.serving import ClusterScheduler, ContinuousBatching, Node
        from repro.workloads import sample_request_classes

        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        step_time = CalibratedStepTime(system, batch_grid=(1, 2), seq_grid=(256, 512))
        scheduler = ClusterScheduler(
            [Node(system, step_time=step_time)], ContinuousBatching(4)
        )
        report = scheduler.drain(sample_request_classes(6, seed=3))
        assert report.step_time_notes["clamped_queries"] >= 1
        assert report.step_time_notes["batch_grid_max"] == 2


class TestParseGrid:
    def test_parses_comma_separated_values(self):
        from repro.serving.steptime import parse_grid

        assert parse_grid("1,4,16") == (1, 4, 16)

    def test_rejects_garbage(self):
        from repro.errors import ConfigurationError
        from repro.serving.steptime import parse_grid

        with pytest.raises(ConfigurationError):
            parse_grid("1,two,3")
        with pytest.raises(ConfigurationError):
            parse_grid("0,4")
        with pytest.raises(ConfigurationError):
            parse_grid("")


class TestClampWindowIsolation:
    def test_second_drain_does_not_inherit_first_drains_clamps(self, tiny_mha):
        """Per-policy reports window the shared model's clamp counters."""
        from repro.serving import ClusterScheduler, ContinuousBatching, Node
        from repro.workloads.requests import RequestClass

        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        step_time = CalibratedStepTime(system, batch_grid=(1, 2), seq_grid=(256, 512))
        clamping = RequestClass(name="Huge", input_tokens=900, output_tokens=4)
        # Context stays inside [256, 512] and batch inside [1, 2] throughout.
        on_grid = RequestClass(name="Mid", input_tokens=300, output_tokens=2)

        first = ClusterScheduler(
            [Node(system, step_time=step_time)], ContinuousBatching(2)
        ).drain([clamping, clamping])
        assert first.step_time_notes["clamped_queries"] >= 1

        second = ClusterScheduler(
            [Node(system, step_time=step_time)], ContinuousBatching(2)
        ).drain([on_grid, on_grid])
        assert second.step_time_notes == {}


def _seeded_step_time(tiny_mha, seed: int) -> CalibratedStepTime:
    """The default grid, every cell seeded with a random step time, so no
    query runs ``measure()``."""
    step_time = CalibratedStepTime(HilosSystem(tiny_mha, HilosConfig(n_devices=2)))
    rng = random.Random(seed)
    for batch in step_time.batch_grid:
        for seq_len in step_time.seq_grid:
            step_time.seed_cell((batch, seq_len), rng.uniform(0.5, 20.0))
    return step_time


def _context_runs(seed: int) -> list[tuple[int, list[int]]]:
    """Seeded (batch, contexts) runs over batches 1-40: runs crossing each
    grid context (through the exact hit, and past it), runs wholly below
    and above the grid, runs spanning several cells, and unordered ones."""
    rng = random.Random(seed)
    runs = []
    for point in DEFAULT_SEQ_GRID:
        for stride in (1, 3, 17):
            start = max(1, point - stride * rng.randint(1, 40))
            runs.append((start, stride, rng.randint(45, 90)))
    runs += [(1, 1, 255), (rng.randint(1, 200), 2, 30), (16_385, 1, 40), (20_000, 9, 30)]
    runs += [(rng.randint(1, 300), rng.randint(150, 400), 80) for _ in range(3)]
    out = [
        (rng.randint(1, 40), [start + stride * i for i in range(length)])
        for start, stride, length in runs
    ]
    out += [
        (rng.randint(1, 40), [rng.randint(1, 20_000) for _ in range(60)])
        for _ in range(3)
    ]
    return out


class TestStepSeries:
    """:meth:`CalibratedStepTime.step_series` is its per-iteration queries:
    the same values bit for bit, the same clamp accounting, and the same
    cells measured in the same order as each element is pulled."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_values_equal_per_step_queries(self, tiny_mha, seed):
        step_time = _seeded_step_time(tiny_mha, seed)
        for batch, contexts in _context_runs(seed):
            assert list(step_time.step_series(batch, contexts)) == [
                step_time.step_seconds(batch, context) for context in contexts
            ]
        assert step_time.measurement_count == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_clamp_accounting_equals_per_step_queries(self, tiny_mha, seed):
        """Two fresh instances, one pulling each run through a series (a
        prefix of it first), one querying per step, agree on every
        counter and note after every run."""
        by_series = _seeded_step_time(tiny_mha, seed)
        by_step = _seeded_step_time(tiny_mha, seed)
        rng = random.Random(seed)
        for batch, contexts in _context_runs(seed):
            taken = rng.randint(0, len(contexts))
            series = by_series.step_series(batch, contexts)
            for _ in range(taken):
                next(series)
            for context in contexts[:taken]:
                by_step.step_seconds(batch, context)
            assert by_series.clamp_counters() == by_step.clamp_counters()
            assert by_series.grid_clamp_summary() == by_step.grid_clamp_summary()
            list(series)
            for context in contexts[taken:]:
                by_step.step_seconds(batch, context)
            assert by_series.clamp_counters() == by_step.clamp_counters()
            assert by_series.grid_clamp_summary() == by_step.grid_clamp_summary()
        assert by_series.grid_clamp_summary()["clamped_queries"] > 0

    @pytest.mark.parametrize(
        "batch, contexts",
        [
            # Into (256, 1024), its upper edge, (1024, 4096), its upper edge
            # and past the grid: each cell is measured at its first element.
            (6, [1000, 1010, 1020, 1024, 1030, 2000, 4095, 4096, 5000]),
            # An exact hit first: its row only, then the cell above it.
            (4, [1024, 1025, 1100, 255, 256, 257]),
            # A clamped batch, then a context on a lower edge.
            (20, [300, 256, 4096, 4097, 1024]),
        ],
    )
    def test_pulling_measures_what_per_step_queries_measure(
        self, tiny_mha, batch, contexts
    ):
        """On cold instances, pulling k elements has measured the same cells,
        in the same order, as k per-step queries -- for every k."""
        grids = {"batch_grid": (1, 4, 16), "seq_grid": (256, 1024, 4096)}
        system = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        by_series = CalibratedStepTime(system, **grids)
        by_step = CalibratedStepTime(
            HilosSystem(tiny_mha, HilosConfig(n_devices=2)), **grids
        )
        series = by_series.step_series(batch, contexts)
        assert by_series.measurement_count == 0
        for context in contexts:
            assert next(series) == by_step.step_seconds(batch, context)
            assert by_series.measurement_count == by_step.measurement_count
            assert list(by_series._cache) == list(by_step._cache)
        assert by_series.measurement_count > 1

    def test_invalid_queries_raise_when_pulled(self, tiny_mha):
        step_time = _seeded_step_time(tiny_mha, 1)
        series = step_time.step_series(0, [256])
        with pytest.raises(SchedulingError, match="empty batch"):
            next(series)
        series = step_time.step_series(4, [256, 0])
        next(series)
        with pytest.raises(SchedulingError, match="context length"):
            next(series)
        assert step_time.clamp_counters()["step_queries"] == 1

    def test_base_series_queries_step_seconds(self):
        model = AnalyticStepTime(base_seconds=2.0, per_token_seconds=0.5)
        assert list(model.step_series(3, [10, 11, 12])) == [7.0, 7.5, 8.0]
