"""Figure 10: the headline decoding-throughput comparison.

Seven systems across OPT-30B/66B/175B and 32K/64K/128K contexts at batch
16, normalized to ``FLEX(SSD)``.  The paper's shape targets:

* ``FLEX(16 PCIe 3.0 SSDs)`` lands at 0.64-0.94x of FLEX(SSD);
* ``DS+UVM(DRAM)`` is >4x slower than FLEX(DRAM);
* HILOS(4) beats FLEX(DRAM) by 1.10-1.36x; HILOS(16) by 1.88-2.49x;
* where FLEX(DRAM) OOMs, HILOS(16) reaches 5.3-7.9x over FLEX(SSD).

Measurement points route through the :mod:`repro.calibration` store (one
:class:`~repro.calibration.figures.FigurePointCache` per system and model):
cold runs simulate each point once and persist its step time + phase
breakdown; warm re-runs perform **zero** ``measure()`` calls, mirroring the
serving experiment.  ``symmetry`` threads through to the simulation
substrate (``"auto"`` folds the homogeneous device arrays to representative
devices; ``"full"`` forces the reference full-array path).
"""

from __future__ import annotations

from repro.baselines.registry import SYSTEM_BUILDERS, build_inference_system
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.experiments.harness import Table
from repro.models import get_model

BATCH = 16

FAST_POINTS = [("OPT-66B", 32768), ("OPT-66B", 65536)]
FULL_POINTS = [
    (model, seq)
    for model in ("OPT-30B", "OPT-66B", "OPT-175B")
    for seq in (32768, 65536, 131072)
]

SYSTEMS = list(SYSTEM_BUILDERS)


def run(
    fast: bool = True,
    systems: list[str] | None = None,
    symmetry: str = "auto",
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Throughput (absolute and normalized) for every (model, context).

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    points = FAST_POINTS if fast else FULL_POINTS
    systems = systems or SYSTEMS
    store = resolve_store(store, use_store)
    table = Table(
        title="Fig 10 decoding throughput (batch 16)",
        columns=["model", "seq_len", "system", "batch", "tokens_per_s", "norm_vs_flex_ssd"],
        notes="0 tokens/s with batch 0 marks the paper's CPU OOM cases",
    )
    calibration = Table(
        title="Fig 10 calibration cache utilisation",
        columns=["model", "system", "fingerprint", "cached_points", "new_measurements"],
        notes="new_measurements is zero when the store already holds every "
        "point (warm re-run)",
    )
    seqs_by_model: dict[str, list[int]] = {}
    for model_name, seq_len in points:
        seqs_by_model.setdefault(model_name, []).append(seq_len)
    for model_name, seqs in seqs_by_model.items():
        model = get_model(model_name)
        # One cache (and one system instance) per (system, model): the
        # fingerprint stays stable across the whole sweep and across runs.
        model_caches = {}
        for label in systems:
            system = build_inference_system(label, model)
            system.symmetry = symmetry
            model_caches[label] = FigurePointCache(system, store=store)
        for seq_len in seqs:
            baseline_tput = None
            for label in systems:
                point = model_caches[label].measure(BATCH, seq_len)
                if label == "FLEX(SSD)":
                    baseline_tput = point.tokens_per_second
                norm = (
                    point.tokens_per_second / baseline_tput if baseline_tput else 0.0
                )
                table.add_row(
                    model_name,
                    seq_len,
                    label,
                    point.effective_batch,
                    point.tokens_per_second,
                    norm,
                )
        for label, cache in model_caches.items():
            cache.flush()
            calibration.add_row(
                model_name,
                label,
                cache.fingerprint[:16],
                cache.cached_points,
                cache.measurement_count,
            )
    return [table, calibration]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
