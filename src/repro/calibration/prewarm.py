"""``--jobs``-aware parallel pre-warmer for calibration step-time grids.

A cold serving sweep measures its grid cells lazily, one at a time, on the
scheduler's critical path.  On a multi-core host the cells are embarrassingly
parallel -- each is an independent full-simulator ``measure()`` run -- so the
pre-warmer fans the *missing* cells of every requested system across worker
processes and merges the results into the persistent store in one batch.
Store writes go through the store's merge-on-flush path, so concurrent
pre-warmers (or a pre-warmer racing a live experiment) can never lose each
other's cells.

Wired into ``python -m repro.experiments.runner --prewarm --jobs N``; also
usable directly::

    from repro.calibration.prewarm import prewarm_step_grids
    prewarm_step_grids(["FLEX(SSD)", "HILOS (8 SmartSSDs)"], jobs=8)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.calibration.store import CalibrationStore, default_store

# The serving grids are the single source of truth for the defaults: a
# grid cell added there must be the one --prewarm measures, or the warmed
# store silently misses the serving sweep's queries.
from repro.serving.steptime import DEFAULT_BATCH_GRID, DEFAULT_SEQ_GRID

#: The serving experiment's model (resolved lazily from the experiment
#: module so the two can never drift apart).
DEFAULT_MODEL = None


@dataclass(frozen=True)
class PrewarmReport:
    """Outcome of pre-warming one system's grid."""

    label: str
    fingerprint: str
    total_cells: int
    already_cached: int
    measured: int
    infeasible: int

    @property
    def missing_after(self) -> int:
        """Cells still absent (infeasible placements cannot be cached)."""
        return self.total_cells - self.already_cached - self.measured


def _build_step_time(
    label: str,
    model_name: str,
    batch_grid: tuple[int, ...],
    seq_grid: tuple[int, ...],
    store: CalibrationStore | None,
):
    from repro.baselines.registry import build_inference_system
    from repro.models import get_model
    from repro.serving.steptime import CalibratedStepTime

    system = build_inference_system(label, get_model(model_name))
    return CalibratedStepTime(
        system, batch_grid=batch_grid, seq_grid=seq_grid, store=store
    )


def _measure_cell_job(
    label: str,
    model_name: str,
    batch_grid: tuple[int, ...],
    seq_grid: tuple[int, ...],
    cell: tuple[int, int],
) -> tuple[str, tuple[int, int], float | None]:
    """Worker body: measure one grid cell; ``None`` marks infeasible cells.

    Top-level (picklable) for process pools.  Workers measure without a
    store and return the value -- the parent owns persistence, so a crashed
    worker can never leave a torn or partial grid behind.
    """
    from repro.errors import SchedulingError

    step_time = _build_step_time(label, model_name, batch_grid, seq_grid, store=None)
    try:
        return label, cell, step_time.step_seconds(*cell)
    except SchedulingError:
        # The placement cannot decode this (batch, seq_len) at all (e.g.
        # FLEX(DRAM) OOM): nothing to cache, the drain-time query will
        # re-derive the refusal cheaply.
        return label, cell, None


def prewarm_step_grids(
    labels: list[str],
    model_name: str | None = DEFAULT_MODEL,
    batch_grid: tuple[int, ...] = DEFAULT_BATCH_GRID,
    seq_grid: tuple[int, ...] = DEFAULT_SEQ_GRID,
    store: CalibrationStore | None = None,
    jobs: int = 1,
) -> list[PrewarmReport]:
    """Measure every missing cell of every system's grid, in parallel.

    Hydrates each system's grid from ``store`` (default: the shared
    persistent store), fans the missing cells across ``jobs`` worker
    processes, records the results, and flushes once at the end through the
    store's merge-on-flush path.  Returns one report per system.
    ``model_name=None`` resolves to the serving experiment's model.
    """
    if model_name is None:
        from repro.experiments.serving_throughput import MODEL

        model_name = MODEL
    if store is None:
        store = default_store()
    step_times = {}
    missing: list[tuple[str, tuple[int, int]]] = []
    already: dict[str, int] = {}
    for label in labels:
        step_time = _build_step_time(label, model_name, batch_grid, seq_grid, store)
        already[label] = step_time.prewarm()
        step_times[label] = step_time
        missing.extend((label, cell) for cell in step_time.missing_cells())

    measured: dict[str, int] = {label: 0 for label in labels}
    infeasible: dict[str, int] = {label: 0 for label in labels}

    def _record(label: str, cell: tuple[int, int], value: float | None) -> None:
        if value is None:
            infeasible[label] += 1
            return
        measured[label] += 1
        step_times[label].seed_cell(cell, value)

    if missing and jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(missing))) as pool:
            futures = [
                pool.submit(
                    _measure_cell_job, label, model_name, batch_grid, seq_grid, cell
                )
                for label, cell in missing
            ]
            for future in futures:
                _record(*future.result())
    else:
        for label, cell in missing:
            _record(*_measure_cell_job(label, model_name, batch_grid, seq_grid, cell))
    store.flush_dirty()
    return [
        PrewarmReport(
            label=label,
            fingerprint=step_times[label].fingerprint,
            total_cells=len(step_times[label].batch_grid)
            * len(step_times[label].seq_grid),
            already_cached=already[label],
            measured=measured[label],
            infeasible=infeasible[label],
        )
        for label in labels
    ]
