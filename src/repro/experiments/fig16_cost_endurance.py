"""Figure 16: cost-effectiveness and SSD endurance.

(a) Tokens/sec/$ normalized to ``FLEX(SSD)``: HILOS reaches ~2x on OPT-66B
and ~1.7x on OPT-175B; an H100 buys a 1.39x speedup but at $30,000 its
cost-efficiency trails HILOS by ~2.9x.

(b) Endurance: total serviceable requests before the 16-drive fleet
exhausts its 7.008 PBW-per-drive budget, across the Azure request classes;
HILOS improves on the FLEX(16 PCIe 3.0 SSDs) baseline by ~1.3-1.5x, plus a
small extra margin at spill interval 32.

Panel (a)'s points read through point caches
(:class:`~repro.calibration.figures.FigurePointCache`), so warm re-runs
measure nothing.
"""

from __future__ import annotations

from repro.analysis.cost import cost_efficiency, flexgen_cost, hilos_cost
from repro.analysis.endurance import flexgen_endurance, hilos_endurance, serviceable_requests
from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model
from repro.workloads.requests import REQUEST_CLASSES

BATCH = 16


def cost_table(fast: bool = True, store: CalibrationStore | None = None) -> Table:
    """Figure 16(a): cost efficiency in tokens/sec/$ (normalized).

    ``store`` backs the point caches (``None`` keeps nothing past the call).
    """
    points = (
        [("OPT-66B", 16384, "A100")]
        if fast
        else [
            (model, seq, gpu)
            for gpu in ("A100", "H100")
            for model in ("OPT-66B", "OPT-175B")
            for seq in (16384, 32768)
        ]
    )
    table = Table(
        title="Fig 16(a) cost efficiency (tokens/sec/$, normalized to FLEX(SSD))",
        columns=["gpu", "model", "seq_len", "system", "tokens_per_s", "usd", "norm_cost_eff"],
    )
    for model_name, seq_len, gpu in points:
        model = get_model(model_name)
        entries = [
            ("FLEX(SSD)", FlexGenSSD(model, gpu=gpu), flexgen_cost(gpu)),
            ("FLEX(DRAM)", FlexGenDRAM(model, gpu=gpu), flexgen_cost(gpu)),
            ("HILOS (4 SmartSSDs)", HilosSystem(model, HilosConfig(n_devices=4), gpu=gpu), hilos_cost(4, gpu)),
            ("HILOS (8 SmartSSDs)", HilosSystem(model, HilosConfig(n_devices=8), gpu=gpu), hilos_cost(8, gpu)),
            ("HILOS (16 SmartSSDs)", HilosSystem(model, HilosConfig(n_devices=16), gpu=gpu), hilos_cost(16, gpu)),
        ]
        base_eff = None
        for label, system, cost in entries:
            cache = FigurePointCache(system, store=store)
            result = cache.measure(BATCH, seq_len)
            eff = (
                cost_efficiency(result.tokens_per_second, cost)
                if not result.oom
                else 0.0
            )
            if label == "FLEX(SSD)":
                base_eff = eff
            table.add_row(
                gpu,
                model_name,
                seq_len,
                label,
                result.tokens_per_second,
                cost.total_usd(),
                eff / base_eff if base_eff else 0.0,
            )
    cache.flush()  # the store's dirty set is shared; one flush suffices
    return table


def endurance_table(fast: bool = True) -> Table:
    """Figure 16(b): total serviceable requests (millions)."""
    models = ["OPT-30B"] if fast else ["OPT-30B", "OPT-66B", "OPT-175B"]
    systems = [
        flexgen_endurance(n_devices=16),
        hilos_endurance(n_devices=16, spill_interval=16),
        hilos_endurance(n_devices=16, spill_interval=32),
    ]
    table = Table(
        title="Fig 16(b) endurance: total serviceable requests (millions)",
        columns=["request_class", "model", "system", "requests_millions", "vs_flex"],
    )
    for request_name, request in REQUEST_CLASSES.items():
        for model_name in models:
            model = get_model(model_name)
            base = None
            for endurance in systems:
                requests = serviceable_requests(model, request, endurance)
                if base is None:
                    base = requests
                table.add_row(
                    request_name,
                    model_name,
                    endurance.label,
                    requests / 1e6,
                    requests / base,
                )
    return table


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Both panels of Figure 16.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    return [cost_table(fast, resolve_store(store, use_store)), endurance_table(fast)]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
