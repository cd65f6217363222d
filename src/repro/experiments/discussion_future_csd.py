"""Section 7 discussion experiments: future computational-storage designs.

Three studies from the paper's discussion:

1. **ISP equivalence (Fig. 18a/b):** a single envisioned ISP drive (16 GB/s
   internal flash, 68 GB/s LPDDR5X, PCIe 4.0 x4 external) should perform
   like the four-SmartSSD prototype, because the three governing bandwidths
   match.  We run HILOS end-to-end on both topologies.

2. **ASIC overhead (§7.1):** the OpenROAD/CACTI estimate of the d_group=1
   accelerator -- 0.47 mm^2 and 1.13 W at an 8 nm-class node -- plus scaled
   grouped-attention variants, checked against an SSD-controller budget.

3. **PCIe 5.0 scale-up (§7.2):** matching a 4x host interface by DSP
   parallelization would need >2,000 DSPs -- beyond the KU15P -- which is
   the paper's case for dedicated exponential-function units.

The two equivalence points read through point caches
(:class:`~repro.calibration.figures.FigurePointCache`), so warm re-runs
measure nothing.
"""

from __future__ import annotations

from repro.accelerator.asic import estimate_asic, fits_ssd_controller_budget
from repro.accelerator.resources import dsp_count_for_throughput_scale
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model
from repro.sim.isp import bandwidth_equivalence_summary, isp_hardware_config
from repro.units import GB

BATCH = 16
SEQ_LEN = 32768


def isp_equivalence_table(
    fast: bool = True, store: CalibrationStore | None = None
) -> Table:
    """HILOS on 4 SmartSSDs vs HILOS on one envisioned ISP device.

    ``store`` backs the point caches (``None`` keeps nothing past the call).
    """
    model = get_model("OPT-66B" if fast else "OPT-66B")
    table = Table(
        title="Sec 7.1: one envisioned ISP vs four SmartSSDs (OPT-66B, 32K, batch 16)",
        columns=["platform", "devices", "tokens_per_s", "relative"],
        notes="the paper argues the two platforms should closely match",
    )
    smartssd = HilosSystem(model, HilosConfig(n_devices=4))
    base = FigurePointCache(smartssd, store=store).measure(BATCH, SEQ_LEN)
    isp = HilosSystem(
        model,
        HilosConfig(n_devices=1),
        hardware=isp_hardware_config(n_devices=1),
    )
    isp_cache = FigurePointCache(isp, store=store)
    isp_result = isp_cache.measure(BATCH, SEQ_LEN)
    isp_cache.flush()  # the store's dirty set is shared
    table.add_row("NSP (4 SmartSSDs)", 4, base.tokens_per_second, 1.0)
    table.add_row(
        "ISP (envisioned)",
        1,
        isp_result.tokens_per_second,
        isp_result.tokens_per_second / base.tokens_per_second,
    )
    return table


def bandwidth_table() -> Table:
    """The three bandwidth pairs behind the equivalence argument."""
    table = Table(
        title="Sec 7.1: bandwidth equivalence (GB/s)",
        columns=["path", "one_isp", "four_smartssds"],
    )
    for path, (isp_bw, nsp_bw) in bandwidth_equivalence_summary().items():
        table.add_row(path, isp_bw / GB, nsp_bw / GB)
    return table


def asic_table() -> Table:
    """OpenROAD/CACTI ASIC estimates, anchored and scaled."""
    table = Table(
        title="Sec 7.1: ASIC accelerator estimates (8 nm-class, 300 MHz)",
        columns=["d_group", "area_mm2", "power_w", "fits_controller_budget"],
        notes="the d_group=1 anchor is the paper's published 0.47 mm^2 / 1.13 W",
    )
    for d_group in (1, 4, 5):
        estimate = estimate_asic(d_group)
        table.add_row(
            d_group,
            estimate.area_mm2,
            estimate.power_w,
            fits_ssd_controller_budget(estimate),
        )
    return table


def pcie5_table() -> Table:
    """DSP demand of scaling softmax throughput to a PCIe 5.0 feed."""
    table = Table(
        title="Sec 7.2: DSPs needed to scale softmax throughput",
        columns=["throughput_scale", "dsps_needed", "exceeds_ku15p"],
        notes="the KU15P provides 1,968 DSPs",
    )
    for scale in (1.0, 2.0, 4.0):
        dsps = dsp_count_for_throughput_scale(scale)
        table.add_row(scale, dsps, dsps > 1968)
    return table


def run(
    fast: bool = True,
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """All Section 7 discussion studies.

    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    return [
        isp_equivalence_table(fast, resolve_store(store, use_store)),
        bandwidth_table(),
        asic_table(),
        pcie5_table(),
    ]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
