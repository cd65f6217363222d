"""Figure 12: model-architecture sensitivity (GQA and MoE).

(a) Kernel microbenchmark: GB/s of KV processed by the MHA (d_group=1) and
GQA (d_group=4, 5) accelerator kernels, all comfortably above the ~3 GB/s
SSD P2P read feed.

(b) End-to-end decoding throughput on Qwen2.5-32B (dense+GQA), Mixtral-8x7B
(MoE+GQA) and GLaM-143B (MoE+MHA): the lower KV-to-weight ratio of MoE/GQA
models favors FLEX(DRAM) slightly, but HILOS still wins (1.16-3.36x) and
the gap widens with context length.

Panel (b)'s points read through point caches
(:class:`~repro.calibration.figures.FigurePointCache`), so warm re-runs
measure nothing.
"""

from __future__ import annotations

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.estimator import kernel_throughput, ssd_feed_throughput
from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model
from repro.units import GB

BATCH = 16

FAST_POINTS = [("Qwen2.5-32B", [32768, 131072]), ("Mixtral-8x7B", [32768])]
FULL_POINTS = [
    ("Qwen2.5-32B", [32768, 65536, 98304, 131072]),
    ("Mixtral-8x7B", [32768, 65536, 98304, 131072]),
    ("GLaM-143B", [32768, 65536, 98304, 131072]),
]


def kernel_microbenchmark() -> Table:
    """Figure 12(a): kernel throughput vs the SSD feed."""
    table = Table(
        title="Fig 12(a) kernel microbenchmark (GB/s)",
        columns=["kernel", "throughput_gb_s"],
        notes="all kernels exceed the ~3 GB/s SSD P2P read rate",
    )
    table.add_row("SSD Read", ssd_feed_throughput() / GB)
    for label, d_group in (("MHA (group=1)", 1), ("GQA (group=4)", 4), ("GQA (group=5)", 5)):
        config = AcceleratorConfig(d_group=d_group)
        table.add_row(label, kernel_throughput(config) / GB)
    return table


def model_sensitivity(
    fast: bool = True, store: CalibrationStore | None = None
) -> Table:
    """Figure 12(b): end-to-end throughput across model architectures.

    ``store`` backs the point caches (``None`` keeps nothing past the call).
    """
    points = FAST_POINTS if fast else FULL_POINTS
    table = Table(
        title="Fig 12(b) model-type sensitivity (batch 16)",
        columns=["model", "seq_len", "system", "batch", "tokens_per_s", "norm_vs_flex_ssd"],
    )
    for model_name, contexts in points:
        model = get_model(model_name)
        caches = [
            (label, FigurePointCache(system, store=store))
            for label, system in (
                ("FLEX(SSD)", FlexGenSSD(model)),
                ("FLEX(DRAM)", FlexGenDRAM(model)),
                ("HILOS (16 SmartSSDs)", HilosSystem(model, HilosConfig(n_devices=16))),
            )
        ]
        for seq_len in contexts:
            baseline = None
            for label, cache in caches:
                result = cache.measure(BATCH, seq_len)
                if label == "FLEX(SSD)":
                    baseline = result.tokens_per_second
                table.add_row(
                    model_name,
                    seq_len,
                    label,
                    result.effective_batch,
                    result.tokens_per_second,
                    result.tokens_per_second / baseline if baseline else 0.0,
                )
    cache.flush()  # the store's dirty set is shared; one flush suffices
    return table


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Both panels of Figure 12.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    return [
        kernel_microbenchmark(),
        model_sensitivity(fast, resolve_store(store, use_store)),
    ]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
