"""Figure 13: sensitivity to the spill interval ``c`` and X-cache ratio ``alpha``.

With 16 SmartSSDs the profiled bandwidth ratio ``B_SSD/B_PCI ~= 3`` puts the
analytic optimum at ``alpha ~= 50%``, which the sweep confirms empirically;
``c = 16`` aligns the spill runs with the 4 KiB flash page and minimizes the
writeback management overhead (small ``c`` pays frequent spill syncs; large
``c`` pays growing pinned-buffer DMA, Section 7.3's >30% penalty at c=64).

Every grid point routes through a
:class:`~repro.calibration.figures.FigurePointCache` (each ``(alpha, c)``
configuration is a distinct system with its own fingerprint), so warm
re-runs of the sweep measure **nothing**.
"""

from __future__ import annotations

from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model

BATCH = 16
SEQ_LEN = 16384
N_DEVICES = 16

FAST_MODELS = ["OPT-30B"]
FULL_MODELS = ["OPT-30B", "OPT-66B"]
FAST_GRID = {"c": [2, 16, 64], "alpha": [0.0, 0.5]}
FULL_GRID = {"c": [2, 4, 8, 16, 32, 64], "alpha": [0.0, 0.125, 0.25, 0.5, 0.75]}


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Throughput over the (c, alpha) grid.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    grid = FAST_GRID if fast else FULL_GRID
    models = FAST_MODELS if fast else FULL_MODELS
    store = resolve_store(store, use_store)
    table = Table(
        title=f"Fig 13 spill interval x X-cache ratio (batch {BATCH}, s={SEQ_LEN}, {N_DEVICES} SmartSSDs)",
        columns=["model", "alpha_pct", "spill_interval", "tokens_per_s"],
    )
    new_measurements = 0
    last_cache = None
    for model_name in models:
        model = get_model(model_name)
        for alpha in grid["alpha"]:
            for interval in grid["c"]:
                system = HilosSystem(
                    model,
                    HilosConfig(
                        n_devices=N_DEVICES,
                        alpha=alpha,
                        spill_interval=interval,
                        use_xcache=alpha > 0,
                    ),
                )
                cache = FigurePointCache(system, store=store)
                point = cache.measure(BATCH, SEQ_LEN)
                new_measurements += cache.measurement_count
                last_cache = cache
                table.add_row(
                    model_name, 100 * alpha, interval, point.tokens_per_second
                )
    if last_cache is not None:
        last_cache.flush()  # the store's dirty set is shared; one flush suffices
    table.notes = (
        f"{new_measurements} new measurements this run "
        "(zero on a warm calibration store)"
    )
    return [table]


def best_point(table: Table) -> tuple[float, int]:
    """(alpha%, c) of the highest-throughput grid point."""
    best = max(table.rows, key=lambda row: row[3])
    return best[1], best[2]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    tables = run(fast=True)
    print(format_tables(tables))
    alpha, c = best_point(tables[0])
    print(f"\nbest grid point: alpha={alpha:.0f}%, c={c}")
