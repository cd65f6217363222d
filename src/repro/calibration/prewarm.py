"""``--jobs``-aware parallel pre-warmer for calibration step-time grids.

A cold serving sweep measures its grid cells lazily, one at a time, on the
scheduler's critical path.  On a multi-core host the cells are embarrassingly
parallel -- each is an independent full-simulator ``measure()`` run -- so the
pre-warmer fans the *missing* cells of every requested system across worker
processes.  Workers measure without a store and return raw cells; the
parent installs them through each system's cell cache
(:class:`~repro.calibration.FigurePointCache`) and flushes once, through
the store's merge-on-flush path, so concurrent pre-warmers (or a
pre-warmer racing a live experiment) can never lose each other's cells.

Wired into ``python -m repro.experiments.runner --prewarm --jobs N``; also
usable directly::

    from repro.calibration.prewarm import prewarm_step_grids
    prewarm_step_grids(["FLEX(SSD)", "HILOS (8 SmartSSDs)"], jobs=8)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.calibration.figures import FigurePointCache
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


def _build_system(label: str, model_name: str, symmetry: str):
    from repro.baselines.registry import build_inference_system
    from repro.models import get_model

    system = build_inference_system(label, get_model(model_name))
    system.symmetry = symmetry
    return system


def _measure_cell_job(
    label: str, model_name: str, symmetry: str, cell: tuple[int, int]
) -> tuple[str, tuple[int, int], dict | None]:
    """Worker body: measure one grid cell; ``None`` marks infeasible cells.

    Top-level (picklable) for process pools.  Workers measure without a
    store and return the raw cell -- the parent owns persistence, so a
    crashed worker can never leave a torn or partial file behind.  A cell
    the placement cannot decode at all (e.g. FLEX(DRAM) OOM) has nothing to
    cache: the drain-time query re-derives the refusal cheaply.
    """
    cache = FigurePointCache(_build_system(label, model_name, symmetry))
    cache.measure(*cell)
    return label, cell, cache.cell(*cell)


def prewarm_step_grids(
    labels: list[str],
    model_name: str | None = DEFAULT_MODEL,
    batch_grid: tuple[int, ...] = DEFAULT_BATCH_GRID,
    seq_grid: tuple[int, ...] = DEFAULT_SEQ_GRID,
    store: CalibrationStore | None = None,
    jobs: int = 1,
    symmetry: str = "auto",
) -> list[PrewarmReport]:
    """Measure every missing cell of every system's grid, in parallel.

    Looks each system's grid cells up in ``store`` (default: the shared
    persistent store), fans the missing cells across ``jobs`` worker
    processes, installs the returned cells, and flushes once at the end
    through the store's merge-on-flush path.  Returns one report per system.
    ``model_name=None`` resolves to the serving experiment's model.
    ``symmetry`` is the systems' simulation mode, which their fingerprints
    record: warm the mode the serving run will use.
    """
    if model_name is None:
        from repro.experiments.serving_throughput import MODEL

        model_name = MODEL
    if store is None:
        store = default_store()
    points = [(b, s) for b in sorted(set(batch_grid)) for s in sorted(set(seq_grid))]
    caches = {
        label: FigurePointCache(_build_system(label, model_name, symmetry), store=store)
        for label in labels
    }
    missing = [
        (label, point)
        for label in labels
        for point in points
        if caches[label].cell(*point) is None
    ]
    measured: dict[str, int] = {label: 0 for label in labels}
    infeasible: dict[str, int] = {label: 0 for label in labels}

    def _install(label: str, cell: tuple[int, int], raw: dict | None) -> None:
        if raw is None:
            infeasible[label] += 1
            return
        measured[label] += 1
        caches[label].install(*cell, raw)

    jobs_args = [(label, model_name, symmetry, cell) for label, cell in missing]
    if missing and jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(missing))) as pool:
            futures = [pool.submit(_measure_cell_job, *args) for args in jobs_args]
            for future in futures:
                _install(*future.result())
    else:
        for args in jobs_args:
            _install(*_measure_cell_job(*args))
    store.flush_dirty()
    return [
        PrewarmReport(
            label=label,
            fingerprint=caches[label].fingerprint,
            total_cells=len(points),
            already_cached=len(points) - sum(lab == label for lab, _ in missing),
            measured=measured[label],
            infeasible=infeasible[label],
        )
        for label in labels
    ]
