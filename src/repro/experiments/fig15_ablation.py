"""Figure 15: ablation of the three HILOS optimizations.

Configurations (all normalized to ``FLEX(SSD)``):

* ``ANS``       -- attention near storage alone (naive per-entry writeback);
* ``ANS+WB``    -- plus delayed KV cache writeback (up to ~1.3x over ANS);
* ``ANS+X``     -- plus cooperative X-cache (up to ~1.6x over ANS);
* ``ANS+WB+X``  -- the full system.

MoE models (GLaM-143B) see smaller relative gains -- their KV-to-weight
ratio is lower -- while longer contexts and bigger batches amplify the
benefits.

An extra ``ANS+WB+X (slow dev0)`` row degrades one SmartSSD's flash read
bandwidth to half: striping stays uniform, so the slow device becomes the
straggler every layer waits on.  The perturbed array is asymmetric, which
makes the simulation substrate fall back from representative-device folding
to the full-array path automatically (``symmetry="auto"``).

Every configuration routes through a
:class:`~repro.calibration.figures.FigurePointCache` (each ablation -- and
the perturbed straggler array -- has its own fingerprint, since the
fingerprint hashes the full hardware config), so warm re-runs of the sweep
measure **nothing**.
"""

from __future__ import annotations

from repro.baselines.flexgen import FlexGenSSD
from repro.calibration import CalibrationStore, resolve_store
from repro.calibration.figures import FigurePointCache
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.harness import Table
from repro.models import get_model
from repro.sim.topology import DevicePerturbation, HardwareConfig, host_pcie_for_gpu

N_DEVICES = 16

#: One device at half flash-read bandwidth: the straggler ablation.
SLOW_DEVICE_SCALE = 0.5


def _degraded_hardware() -> HardwareConfig:
    """The evaluated 16-device array with SmartSSD 0 degraded."""
    return HardwareConfig(
        gpu="A100",
        n_conventional_ssds=0,
        n_smartssds=N_DEVICES,
        host_pcie_bandwidth=host_pcie_for_gpu("A100"),
        smartssd_perturbations=(
            DevicePerturbation(0, flash_read_scale=SLOW_DEVICE_SCALE),
        ),
    )

ABLATIONS = [
    ("ANS", HilosConfig(n_devices=N_DEVICES, use_xcache=False, use_delayed_writeback=False)),
    ("ANS+WB", HilosConfig(n_devices=N_DEVICES, use_xcache=False, use_delayed_writeback=True)),
    ("ANS+X", HilosConfig(n_devices=N_DEVICES, use_xcache=True, use_delayed_writeback=False)),
    ("ANS+WB+X", HilosConfig(n_devices=N_DEVICES, use_xcache=True, use_delayed_writeback=True)),
]

FAST_POINTS = [("OPT-30B", 16, 16384), ("OPT-30B", 16, 32768)]
FULL_POINTS = [
    (model, batch, seq)
    for model in ("OPT-30B", "OPT-66B", "GLaM-143B")
    for batch in (16, 32)
    for seq in (16384, 32768, 65536)
]


def run(
    fast: bool = True,
    symmetry: str = "auto",
    store: CalibrationStore | None = None,
    use_store: bool = True,
) -> list[Table]:
    """Normalized throughput for each ablation configuration.

    ``symmetry`` threads through to the simulation substrate; the
    slow-device row is asymmetric and always takes the full-array path.
    ``store`` overrides the calibration store; ``use_store=False`` disables
    persistence entirely (every run then measures from scratch).
    """
    points = FAST_POINTS if fast else FULL_POINTS
    store = resolve_store(store, use_store)
    table = Table(
        title="Fig 15 ablation study (normalized to FLEX(SSD))",
        columns=["model", "batch", "seq_len", "config", "tokens_per_s", "normalized"],
        notes="(slow dev0): one SmartSSD at half flash-read bandwidth "
        "(asymmetric array, full-array simulation path)",
    )
    new_measurements = 0
    for model_name in dict.fromkeys(model for model, _, _ in points):
        model = get_model(model_name)
        # One system instance (and one cache) per configuration per model,
        # hoisted out of the point loop.
        flex_system = FlexGenSSD(model)
        flex_system.symmetry = symmetry
        systems = [("FLEX(SSD)", flex_system)]
        for label, config in ABLATIONS:
            system = HilosSystem(model, config)
            system.symmetry = symmetry
            systems.append((label, system))
        straggler = HilosSystem(
            model, HilosConfig(n_devices=N_DEVICES), hardware=_degraded_hardware()
        )
        straggler.symmetry = symmetry if symmetry != "representative" else "auto"
        systems.append(("ANS+WB+X (slow dev0)", straggler))
        caches = {
            label: FigurePointCache(system, store=store) for label, system in systems
        }
        for point_model, batch, seq_len in points:
            if point_model != model_name:
                continue
            flex = caches["FLEX(SSD)"].measure(batch, seq_len)
            table.add_row(
                model_name, batch, seq_len, "FLEX(SSD)",
                flex.tokens_per_second, 1.0,
            )
            for label, _ in systems[1:]:
                point = caches[label].measure(batch, seq_len)
                table.add_row(
                    model_name,
                    batch,
                    seq_len,
                    label,
                    point.tokens_per_second,
                    point.tokens_per_second / flex.tokens_per_second,
                )
        for cache in caches.values():
            cache.flush()
            new_measurements += cache.measurement_count
    table.notes += (
        f"; {new_measurements} new measurements this run "
        "(zero on a warm calibration store)"
    )
    return [table]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
