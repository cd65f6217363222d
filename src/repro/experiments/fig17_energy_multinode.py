"""Figure 17: energy breakdown and the multi-node vLLM comparison.

(a) Energy per generated token, attributed to CPU/DRAM/GPU/SSD and
normalized to the per-model worst case: FLEX(SSD)'s low throughput makes it
the least efficient despite cheap drives; HILOS's SmartSSDs draw more power
but cut latency enough for up to ~85% total-energy savings.

(b) OPT-175B against a 2-node / 8x A6000 vLLM deployment: the fleet holds
the weights but starves for KV room, so HILOS wins by ~1.6-1.8x.

The simulated systems' points read through point caches
(:class:`~repro.calibration.figures.FigurePointCache`; panel (a) reads each
cell's utilization and written bytes), so warm re-runs measure nothing; the
vLLM baseline is analytic and measured directly.
"""

from __future__ import annotations

from repro.analysis.energy import energy_breakdown
from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.baselines.vllm import MultiNodeVLLM
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model

BATCH = 16


def energy_table(fast: bool = True, store: CalibrationStore | None = None) -> Table:
    """Figure 17(a): per-token energy breakdown.

    ``store`` backs the point caches (``None`` keeps nothing past the call).
    """
    models = ["OPT-30B"] if fast else ["OPT-30B", "OPT-66B", "OPT-175B"]
    seq_len = 16384
    table = Table(
        title="Fig 17(a) energy per token (J), by component",
        columns=["model", "system", "cpu_j", "dram_j", "gpu_j", "ssd_j", "total_j", "norm"],
        notes="norm is relative to the per-model maximum (the paper's normalized energy)",
    )
    for model_name in models:
        model = get_model(model_name)
        entries = [
            ("FLEX(SSD)", FlexGenSSD(model), dict(n_conventional_ssds=4)),
            ("FLEX(DRAM)", FlexGenDRAM(model), dict(n_conventional_ssds=4)),
            ("HILOS (4 SSDs)", HilosSystem(model, HilosConfig(n_devices=4)), dict(n_smartssds=4, d_group=model.d_group)),
            ("HILOS (8 SSDs)", HilosSystem(model, HilosConfig(n_devices=8)), dict(n_smartssds=8, d_group=model.d_group)),
            ("HILOS (16 SSDs)", HilosSystem(model, HilosConfig(n_devices=16)), dict(n_smartssds=16, d_group=model.d_group)),
        ]
        rows = []
        for label, system, kwargs in entries:
            cache = FigurePointCache(system, store=store)
            result = cache.measure(BATCH, seq_len)
            if result.oom:
                continue
            energy = energy_breakdown(result, **kwargs)
            rows.append((label, energy))
        if not rows:
            continue
        max_total = max(energy.total_j for _, energy in rows)
        for label, energy in rows:
            table.add_row(
                model_name,
                label,
                energy.cpu_j,
                energy.dram_j,
                energy.gpu_j,
                energy.ssd_j,
                energy.total_j,
                energy.total_j / max_total,
            )
    cache.flush()  # the store's dirty set is shared; one flush suffices
    return table


#: The routed-fleet row: a 2-host HILOS deployment (mirroring the 2-node
#: vLLM baseline's chassis count) draining one shared queue under JSQ.
FLEET_NODES = 2
FLEET_REQUESTS = 8
FLEET_OUTPUT_TOKENS = 16


def _routed_fleet_tokens_per_second(model, seq_len: int, store) -> float:
    """Fleet decode throughput of 2x HILOS-8 draining one routed queue.

    Unlike the single-box rows (steady-state ``measure()`` points), this is
    a whole serving drain: fixed-shape requests at the figure's context
    length, sharded across the two hosts by join-shortest-queue, with the
    fleet's sustained decode tokens/s reported.  Step times resolve through
    ``store`` (the harness's calibration store), like the single-box rows.
    """
    from repro.serving import ClusterScheduler, ContinuousBatching, LeastOutstandingTokens
    from repro.serving.cluster import build_fleet
    from repro.workloads.requests import RequestClass

    nodes = build_fleet(
        model,
        ["HILOS (8 SmartSSDs)"] * FLEET_NODES,
        store=store,
        batch_grid=(1, 8, 16),
        seq_grid=(seq_len,),
    )
    scheduler = ClusterScheduler(
        nodes, ContinuousBatching(BATCH), router=LeastOutstandingTokens()
    )
    shape = RequestClass(
        "Fig17", input_tokens=seq_len, output_tokens=FLEET_OUTPUT_TOKENS
    )
    report = scheduler.drain([shape] * FLEET_REQUESTS)
    nodes[0].step_time.flush()
    # Decode throughput net of the prefill phase, comparable to the
    # steady-state tokens/s the measure() rows report.  The boundary comes
    # from the drain itself (the slowest node's last first-token time), so
    # it stays correct under any request count, router, or admission
    # stagger.
    prefill = max(r.first_token_time for r in report.requests)
    decode_seconds = max(report.makespan_seconds - prefill, 1e-9)
    return report.generated_tokens / decode_seconds


def multinode_table(fast: bool = True, store: CalibrationStore | None = None) -> Table:
    """Figure 17(b): HILOS vs the distributed vLLM baseline on OPT-175B.

    Beyond the paper's single-box rows, a ``2x HILOS (8 SmartSSDs) [jsq]``
    row prices the fleet the way the vLLM baseline is priced: two hosts,
    one request stream, routed by the cluster scheduler -- the Section 6.6
    comparison as a scheduling target instead of a cost line.  ``store``
    backs the point caches and the fleet row's step-time grids (``None``
    keeps nothing past the call).
    """
    model = get_model("OPT-175B")
    contexts = [16384] if fast else [16384, 32768]
    table = Table(
        title="Fig 17(b) multi-node comparison (OPT-175B)",
        columns=["seq_len", "system", "batch", "tokens_per_s", "hilos_speedup"],
        notes="the 2x HILOS row drains one routed request queue across two "
        "simulated hosts (join-shortest-queue)",
    )
    for seq_len in contexts:
        entries = [
            ("FLEX(SSD)", FlexGenSSD(model)),
            ("FLEX(DRAM)", FlexGenDRAM(model)),
            ("vLLM (8xA6000)", MultiNodeVLLM(model)),
            ("HILOS (16 SSDs)", HilosSystem(model, HilosConfig(n_devices=16))),
        ]
        results = {
            label: (
                system.measure(BATCH, seq_len)  # analytic: nothing to simulate
                if isinstance(system, MultiNodeVLLM)
                else FigurePointCache(system, store=store).measure(BATCH, seq_len)
            )
            for label, system in entries
        }
        hilos_tput = results["HILOS (16 SSDs)"].tokens_per_second
        for label, result in results.items():
            speedup = (
                hilos_tput / result.tokens_per_second
                if result.tokens_per_second > 0
                else float("inf")
            )
            table.add_row(
                seq_len, label, result.effective_batch, result.tokens_per_second, speedup
            )
        fleet_tput = _routed_fleet_tokens_per_second(model, seq_len, store)
        table.add_row(
            seq_len,
            f"{FLEET_NODES}x HILOS (8 SmartSSDs) [jsq]",
            FLEET_REQUESTS,
            fleet_tput,
            hilos_tput / fleet_tput if fleet_tput > 0 else float("inf"),
        )
    return table


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Both panels of Figure 17.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    store = resolve_store(store, use_store)
    return [energy_table(fast, store), multinode_table(fast, store)]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
