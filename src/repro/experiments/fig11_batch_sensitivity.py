"""Figure 11: batch-size sensitivity on OPT-66B.

(a) Decoding throughput across batch sizes 1..16 at 32K/64K contexts:
``FLEX(DRAM)`` is capacity-capped at batch 2 (then OOM), ``FLEX(SSD)``
scales but stays KV-I/O-bound, HILOS scales through batch 16.

(b) Per-layer execution breakdown at batch 1/4/16: FLEX(DRAM) is dominated
by weight loading, FLEX(SSD) by KV-cache I/O, HILOS by neither.

Each system is constructed **once** per panel and swept through a
:class:`~repro.calibration.figures.FigurePointCache` (construction used to
happen inside the inner loop, which churned objects and would have made
calibration fingerprints instance-dependent had they ever captured state).
Cold runs persist every point's step time + phase breakdown to the
:mod:`repro.calibration` store; warm re-runs perform zero ``measure()``
calls, mirroring the serving experiment.
"""

from __future__ import annotations

from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model
from repro.sim.metrics import HOST_COMPUTE, LOAD_KV, LOAD_WEIGHT, PAPER_PHASES, STORE_KV

MODEL = "OPT-66B"


def _systems(model, symmetry: str):
    systems = [
        ("FLEX(SSD)", FlexGenSSD(model)),
        ("FLEX(DRAM)", FlexGenDRAM(model)),
        ("HILOS (4 SmartSSDs)", HilosSystem(model, HilosConfig(n_devices=4))),
        ("HILOS (16 SmartSSDs)", HilosSystem(model, HilosConfig(n_devices=16))),
    ]
    for _, system in systems:
        system.symmetry = symmetry
    return systems


def throughput_table(
    fast: bool = True,
    symmetry: str = "auto",
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> Table:
    """Figure 11(a): tokens/sec across batch sizes."""
    store = resolve_store(store, use_store)
    model = get_model(MODEL)
    contexts = [32768] if fast else [32768, 65536]
    batches = [1, 4, 16] if fast else [1, 2, 4, 8, 16]
    table = Table(
        title="Fig 11(a) batch-size sensitivity (OPT-66B)",
        columns=["seq_len", "batch", "system", "effective_batch", "tokens_per_s"],
        notes="effective_batch 0 marks CPU OOM",
    )
    # Systems (and their point caches) are hoisted out of the sweep: one
    # instance each, so every point shares one calibration fingerprint.
    caches = [
        (label, FigurePointCache(system, store=store))
        for label, system in _systems(model, symmetry)
    ]
    for seq_len in contexts:
        for batch in batches:
            for label, cache in caches:
                point = cache.measure(batch, seq_len)
                table.add_row(
                    seq_len, batch, label, point.effective_batch, point.tokens_per_second
                )
    for _, cache in caches:
        cache.flush()
    return table


def breakdown_table(
    fast: bool = True,
    symmetry: str = "auto",
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> Table:
    """Figure 11(b): per-layer execution breakdown at 32K."""
    store = resolve_store(store, use_store)
    model = get_model(MODEL)
    batches = [1, 16] if fast else [1, 4, 16]
    table = Table(
        title="Fig 11(b) per-layer execution breakdown (OPT-66B, 32K)",
        columns=["system", "batch", "load_weight_pct", "load_kv_pct", "store_kv_pct", "host_compute_pct"],
    )
    model_systems = [
        ("FLEX(SSD)", FlexGenSSD(model)),
        ("FLEX(DRAM)", FlexGenDRAM(model)),
        ("HILOS (16 SSDs)", HilosSystem(model, HilosConfig(n_devices=16))),
    ]
    for label, system in model_systems:
        system.symmetry = symmetry
        cache = FigurePointCache(system, store=store)
        for batch in batches:
            point = cache.measure(batch, 32768)
            if point.oom:
                table.add_row(label, batch, 0.0, 0.0, 0.0, 0.0)
                continue
            f = point.breakdown.fractions(PAPER_PHASES)
            table.add_row(
                label,
                batch,
                100 * f[LOAD_WEIGHT],
                100 * f[LOAD_KV],
                100 * f[STORE_KV],
                100 * f[HOST_COMPUTE],
            )
        cache.flush()
    return table


def run(
    fast: bool = True,
    symmetry: str = "auto",
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Both panels of Figure 11."""
    return [
        throughput_table(fast, symmetry=symmetry, store=store, use_store=use_store),
        breakdown_table(fast, symmetry=symmetry, store=store, use_store=use_store),
    ]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
