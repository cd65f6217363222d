"""Figure 2: motivational analysis on OPT-175B.

(a) Memory-footprint breakdown (KV cache / weights / others) across context
lengths and batch sizes -- the KV cache reaches terabytes and dwarfs the
512 GB host DRAM.

(b) Execution-time breakdown of the state-of-the-art offloading baseline:
KV-cache I/O consumes over 60% of decode time for long contexts, and the
batching speedup (relative to batch 1) shrinks as contexts grow because
weight transfer is no longer the dominant term.

Panel (b)'s points read through a
:class:`~repro.calibration.figures.FigurePointCache`, so warm re-runs
measure nothing.
"""

from __future__ import annotations

from repro.baselines.flexgen import FlexGenSSD
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.experiments.harness import Table
from repro.models import get_model, memory_footprint
from repro.sim.metrics import HOST_COMPUTE, LOAD_KV, LOAD_WEIGHT, PAPER_PHASES, STORE_KV
from repro.units import GiB, bytes_to_tb

MODEL = "OPT-175B"
CONTEXTS = {"fast": [8192, 32768], "full": [8192, 32768, 131072]}
BATCHES = [1, 4, 16]


def footprint_table(fast: bool = True) -> Table:
    """Figure 2(a): footprint breakdown in TB."""
    model = get_model(MODEL)
    table = Table(
        title="Fig 2(a) memory footprint breakdown (OPT-175B)",
        columns=["seq_len", "batch", "kv_cache_tb", "weights_tb", "others_tb", "total_tb"],
        notes="host DRAM capacity is 0.55 TB (512 GiB)",
    )
    for seq_len in CONTEXTS["fast" if fast else "full"]:
        for batch in BATCHES:
            fp = memory_footprint(model, batch, seq_len)
            table.add_row(
                seq_len,
                batch,
                bytes_to_tb(fp.kv_cache_bytes),
                bytes_to_tb(fp.weight_bytes),
                bytes_to_tb(fp.other_bytes),
                bytes_to_tb(fp.total_bytes),
            )
    return table


def execution_breakdown_table(
    fast: bool = True, store: CalibrationStore | None = None
) -> Table:
    """Figure 2(b): time-portion breakdown + batching speedup.

    ``store`` backs the point cache (``None`` keeps nothing past the call).
    """
    cache = FigurePointCache(FlexGenSSD(get_model(MODEL)), store=store)
    contexts = CONTEXTS["fast" if fast else "full"]
    table = Table(
        title="Fig 2(b) execution time breakdown (FLEX-style offloading, OPT-175B)",
        columns=[
            "seq_len",
            "batch",
            "kv_cache_pct",
            "weight_pct",
            "others_pct",
            "speedup_vs_bs1",
        ],
        notes="speedup = decoding throughput relative to batch size 1",
    )
    for seq_len in contexts:
        base_tput = None
        for batch in BATCHES:
            result = cache.measure(batch, seq_len)
            fractions = result.breakdown.fractions(PAPER_PHASES)
            kv = fractions[LOAD_KV] + fractions[STORE_KV]
            weight = fractions[LOAD_WEIGHT]
            others = fractions[HOST_COMPUTE]
            if base_tput is None:
                base_tput = result.tokens_per_second
            table.add_row(
                seq_len,
                batch,
                100.0 * kv,
                100.0 * weight,
                100.0 * others,
                result.tokens_per_second / base_tput,
            )
    cache.flush()
    return table


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Both panels of Figure 2.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    return [
        footprint_table(fast),
        execution_breakdown_table(fast, resolve_store(store, use_store)),
    ]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
