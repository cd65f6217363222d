"""Figure 14: total execution time by output length.

Prefill latency is fixed per request; decode latency scales with the output
length.  Because HILOS accelerates decoding, longer outputs amortize the
shared prefill cost and widen the end-to-end speedup (up to ~6x at 128
output tokens in the paper).

Each point routes through a
:class:`~repro.calibration.figures.FigurePointCache`: the steady-state step
comes from its stored cell and the prefill latency from the analytic
prefill model, so warm re-runs measure **nothing**.
"""

from __future__ import annotations

from repro.baselines.flexgen import FlexGenSSD
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model

BATCH = 16
OUTPUT_LENGTHS = [16, 32, 64, 128]

FAST_POINTS = [("OPT-30B", 16384)]
FULL_POINTS = [
    ("OPT-30B", 16384),
    ("OPT-30B", 32768),
    ("OPT-66B", 16384),
    ("OPT-66B", 32768),
]


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Prefill/decode split and end-to-end speedup per output length.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    points = FAST_POINTS if fast else FULL_POINTS
    store = resolve_store(store, use_store)
    table = Table(
        title="Fig 14 total execution time by output length (batch 16)",
        columns=[
            "model",
            "seq_len",
            "output_len",
            "system",
            "prefill_s",
            "decode_s",
            "total_s",
            "speedup",
        ],
    )
    seqs_by_model: dict[str, list[int]] = {}
    for model_name, seq_len in points:
        seqs_by_model.setdefault(model_name, []).append(seq_len)
    new_measurements = 0
    for model_name, seqs in seqs_by_model.items():
        model = get_model(model_name)
        # One cache (and one system instance) per (system, model): the
        # fingerprint stays stable across the whole sweep and across runs.
        caches = {
            "FLEX": FigurePointCache(FlexGenSSD(model), store=store),
            "HILOS": FigurePointCache(
                HilosSystem(model, HilosConfig(n_devices=16)), store=store
            ),
        }
        for seq_len in seqs:
            flex = caches["FLEX"].measure(BATCH, seq_len)
            hilos = caches["HILOS"].measure(BATCH, seq_len)
            for output_len in OUTPUT_LENGTHS:
                flex_total = flex.prefill_seconds + flex.step_seconds * output_len
                hilos_total = hilos.prefill_seconds + hilos.step_seconds * output_len
                table.add_row(
                    model_name, seq_len, output_len, "FLEX",
                    flex.prefill_seconds, flex.step_seconds * output_len,
                    flex_total, 1.0,
                )
                table.add_row(
                    model_name, seq_len, output_len, "HILOS",
                    hilos.prefill_seconds, hilos.step_seconds * output_len,
                    hilos_total, flex_total / hilos_total,
                )
        for cache in caches.values():
            cache.flush()
            new_measurements += cache.measurement_count
    table.notes = (
        f"{new_measurements} new measurements this run "
        "(zero on a warm calibration store)"
    )
    return [table]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
