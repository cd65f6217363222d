"""KV tier sweep: tokens/s/$ vs offload aggressiveness across tier sizes.

The fig13 sweep varies the X-cache ratio ``alpha`` inside one step-time
measurement; this sweep lifts the same knob to the serving layer's tiered
KV hierarchy (:mod:`repro.serving.kvtiers`).  A HILOS node's cache home
is split into a fast top tier and a near-storage tier, a
:class:`~repro.serving.kvtiers.StaticSplit` policy spills an ``alpha``
share of every request's KV below the top tier, and a seeded
heterogeneous queue drains through the tiered node -- so the reported
tokens/s/$ prices demotion traffic and the per-iteration spilled-KV read
surcharge, not just the steady-state step.

The step-time reference point is measured once ever through a
:class:`~repro.calibration.figures.FigurePointCache` (same fingerprint
scheme as the figure harnesses; warm re-runs of the sweep measure
nothing) and stretched into an affine
:class:`~repro.serving.steptime.AnalyticStepTime` that agrees with the
measured point exactly at ``(BATCH, SEQ_LEN)``.  The tier grid itself is
pure discrete-event simulation on top of that reference, so the whole
sweep stays measurement-free on a warm store.
"""

from __future__ import annotations

from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model
from repro.serving import (
    ClusterScheduler,
    ContinuousBatching,
    KVTier,
    Node,
    StaticSplit,
    TierStack,
    make_request_queue,
)
from repro.serving.steptime import AnalyticStepTime
from repro.sim.topology import build_system
from repro.workloads import sample_request_classes

MODEL = "OPT-30B"
N_DEVICES = 8
BATCH = 16
SEQ_LEN = 16384
SEED = 7

FAST_REQUESTS = 48
FULL_REQUESTS = 192
#: Spilled KV share per request (the offload aggressiveness axis).
FAST_ALPHAS = [0.0, 0.25, 0.5]
FULL_ALPHAS = [0.0, 0.125, 0.25, 0.5, 0.75]
#: Top-tier capacity as a fraction of the queue's total final-context KV
#: demand -- small fractions force capacity demotions on top of the
#: static split.
FAST_TOP_FRACTIONS = [0.25, 1.0]
FULL_TOP_FRACTIONS = [0.125, 0.25, 0.5, 1.0]


def run(
    fast: bool = True,
    n_requests: int | None = None,
    seed: int = SEED,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Tiered-drain throughput over the (alpha, top-tier size) grid.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (the reference point is then measured every run).
    """
    alphas = FAST_ALPHAS if fast else FULL_ALPHAS
    top_fractions = FAST_TOP_FRACTIONS if fast else FULL_TOP_FRACTIONS
    n_requests = n_requests or (FAST_REQUESTS if fast else FULL_REQUESTS)
    store = resolve_store(store, use_store)
    model = get_model(MODEL)
    system = HilosSystem(model, HilosConfig(n_devices=N_DEVICES))
    cache = FigurePointCache(
        system, batch_grid=(BATCH,), seq_grid=(SEQ_LEN,), store=store
    )
    point = cache.measure(BATCH, SEQ_LEN)
    cache.flush()
    # Stretch the single measured point into the affine serving model:
    # exact at (BATCH, SEQ_LEN), linear in context elsewhere.
    step_time = AnalyticStepTime(
        base_seconds=0.0,
        per_token_seconds=point.step_seconds / SEQ_LEN,
        prefill_per_token_seconds=point.prefill_seconds / SEQ_LEN,
    )
    classes = sample_request_classes(n_requests, seed=seed)
    demand = sum(
        request.kv_reservation_bytes(model)
        for request in make_request_queue(classes)
    )
    # Host-link bandwidth from the (never-simulated) topology model -- the
    # rate demoted KV and spilled-KV decode reads actually cross.
    near_storage_bw = build_system(
        system.hardware_config()
    ).effective_host_bandwidth()
    table = Table(
        title=f"KV tier sweep ({MODEL}, {n_requests} mixed requests, "
        f"batch {BATCH}, static split over a 2-tier stack)",
        columns=[
            "alpha_pct",
            "top_tier_pct",
            "tokens_per_s",
            "tokens_per_s_per_usd",
            "top_hit_rate",
            "demoted_gb",
            "spilled_decode_s",
        ],
        notes="alpha is the KV share statically placed in the near-storage "
        "tier; top_tier_pct sizes the fast tier against the queue's total "
        "final-context KV demand; demotions and spilled-KV decode reads "
        f"are billed at the host link ({near_storage_bw / 1e9:.1f} GB/s)",
    )
    for top_fraction in top_fractions:
        for alpha in alphas:
            stack = TierStack(
                (
                    KVTier("hbm", capacity_bytes=top_fraction * demand),
                    KVTier(
                        "nsp",
                        capacity_bytes=demand,
                        bandwidth_bytes_per_s=near_storage_bw,
                    ),
                )
            )
            node = Node(
                system,
                step_time=step_time,
                kv_tiers=stack,
                kv_policy=StaticSplit(alpha),
                name="node0",
            )
            scheduler = ClusterScheduler([node], ContinuousBatching(BATCH))
            report = scheduler.drain(classes)
            top = report.kv_tiers[0]
            table.add_row(
                100 * alpha,
                100 * top_fraction,
                report.tokens_per_second,
                report.tokens_per_second_per_usd,
                top.hit_rate,
                sum(tier.demoted_bytes for tier in report.kv_tiers) / 1e9,
                report.spilled_decode_seconds,
            )
    table.notes += (
        f"; {cache.measurement_count} new reference measurements this run "
        "(zero on a warm calibration store)"
    )
    return [table]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
