"""Figure 4(b)/(c): what attention-near-storage changes, and Equation 3.

(b) Decode latency breakdown: the baseline is dominated by loading the KV
cache over the host interconnect; with ANS the bottleneck shifts to the
device-internal storage I/O.

(c) Host-resource utilization: offloading attention leaves the host (GPU,
CPU, DRAM capacity) underutilized -- the headroom cooperative X-cache
exploits.

Also prints the Equation 3 interconnect-traffic ratio, cross-checking the
closed form against the simulated byte counters.

Panels (b) and (c) read one measurement per point through a
:class:`~repro.calibration.figures.FigurePointCache`, whose cells keep the
utilization too, so warm re-runs measure nothing.
"""

from __future__ import annotations

from repro.analysis.traffic import (
    ans_step_traffic,
    ans_traffic_reduction_ratio,
    baseline_step_traffic,
)
from repro.baselines.base import MeasuredResult
from repro.baselines.flexgen import FlexGenSSD
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model
from repro.sim.metrics import HOST_COMPUTE, LOAD_KV, LOAD_WEIGHT, PAPER_PHASES, STORE_KV

MODEL = "OPT-30B"
BATCH = 16
CONTEXTS = (16384, 32768)


def ans_only_system(model, n_devices: int = 8) -> HilosSystem:
    """HILOS with only the ANS core enabled (no X-cache, no delayed WB)."""
    return HilosSystem(
        model,
        HilosConfig(n_devices=n_devices, use_xcache=False, use_delayed_writeback=False),
    )


def measurements(
    store: CalibrationStore | None = None,
) -> list[tuple[str, int, MeasuredResult]]:
    """(system label, context, result) per point; panels (b) and (c) share them.

    ``store`` backs the point caches (``None`` keeps nothing past the call).
    """
    model = get_model(MODEL)
    caches = [
        ("Baseline (SSD+CPU)", FigurePointCache(FlexGenSSD(model), store=store)),
        ("Proposed (ANS)", FigurePointCache(ans_only_system(model), store=store)),
    ]
    measured = [
        (label, seq_len, cache.measure(BATCH, seq_len))
        for seq_len in CONTEXTS
        for label, cache in caches
    ]
    caches[0][1].flush()  # the store's dirty set is shared; one flush suffices
    return measured


def breakdown_table(measured: list[tuple[str, int, MeasuredResult]]) -> Table:
    """Figure 4(b): per-phase latency shares of :func:`measurements`."""
    table = Table(
        title="Fig 4(b) decode latency breakdown: baseline (SSD+CPU) vs ANS",
        columns=["system", "seq_len", "load_weight_pct", "load_kv_pct", "store_kv_pct", "host_compute_pct"],
    )
    for label, seq_len, result in measured:
        f = result.breakdown.fractions(PAPER_PHASES)
        table.add_row(
            label,
            seq_len,
            100 * f[LOAD_WEIGHT],
            100 * f[LOAD_KV],
            100 * f[STORE_KV],
            100 * f[HOST_COMPUTE],
        )
    return table


def utilization_table(measured: list[tuple[str, int, MeasuredResult]]) -> Table:
    """Figure 4(c): host resource utilization of :func:`measurements`."""
    table = Table(
        title="Fig 4(c) host resource utilization (%)",
        columns=["system", "seq_len", "cpu_pct", "gpu_pct", "dram_capacity_pct"],
    )
    for label, seq_len, result in measured:
        u = result.utilization
        table.add_row(label, seq_len, 100 * u.cpu, 100 * u.gpu, 100 * u.dram_capacity)
    return table


def traffic_table(fast: bool = True) -> Table:
    """Equation 3: interconnect traffic, baseline vs ANS, and the ratio."""
    model = get_model(MODEL)
    table = Table(
        title="Eq 3 interconnect traffic per decode step per layer (OPT-30B, batch 1)",
        columns=["seq_len", "baseline_bytes", "ans_bytes", "measured_ratio", "eq3_ratio"],
    )
    for seq_len in (8192, 32768, 131072):
        base = baseline_step_traffic(model, 1, seq_len)
        ans = ans_step_traffic(model, 1, seq_len)
        table.add_row(
            seq_len,
            base.interconnect_total,
            ans.interconnect_total,
            base.interconnect_total / ans.interconnect_total,
            ans_traffic_reduction_ratio(seq_len),
        )
    return table


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """All three Figure 4 views; (b) and (c) read one measurement per point.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    measured = measurements(resolve_store(store, use_store))
    return [
        breakdown_table(measured),
        utilization_table(measured),
        traffic_table(fast),
    ]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
