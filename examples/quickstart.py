"""Quickstart: measure HILOS against FlexGen baselines on one configuration.

Builds the simulated testbed (A100 host + SmartSSD array), runs a few decode
steps of OPT-66B at a 32K context with batch 16, and prints throughput, the
automatically selected X-cache ratio, and the Equation 3 traffic reduction.

Run with::

    python examples/quickstart.py

By default the simulation substrate folds each homogeneous device array to
one representative device and, once a decode step's state at a layer
boundary repeats, accounts its remaining layers instead of simulating them
(``symmetry="auto"``) -- equivalent to within float rounding and much
faster as device and layer counts grow.  Set ``system.symmetry = "full"``
(or ``SYMMETRY = "full"`` below) to force the reference path that simulates
every device and every layer, e.g. when inspecting per-device channels
interactively.
"""

from __future__ import annotations

from repro.analysis.traffic import ans_traffic_reduction_ratio
from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models import get_model

MODEL = "OPT-66B"
BATCH = 16
SEQ_LEN = 32768
#: Simulation substrate mode: "auto" (representative-device and layer
#: folding), "full" (simulate every device and layer), or "representative"
#: (require device folding).
SYMMETRY = "auto"


def main() -> None:
    model = get_model(MODEL)
    print(f"model: {model.name} ({model.param_count() / 1e9:.0f}B params, "
          f"{model.n_layers} layers, d_group={model.d_group})")
    print(f"workload: batch {BATCH}, context {SEQ_LEN} tokens")
    kv_tb = model.kv_cache_bytes(BATCH, SEQ_LEN) / 1e12
    print(f"KV cache: {kv_tb:.2f} TB "
          f"(interconnect traffic ratio vs ANS: {ans_traffic_reduction_ratio(SEQ_LEN):.0f}x)\n")

    systems = [
        FlexGenSSD(model),
        FlexGenDRAM(model),
        HilosSystem(model, HilosConfig(n_devices=8)),
        HilosSystem(model, HilosConfig(n_devices=16)),
    ]
    baseline_tput = None
    for system in systems:
        system.symmetry = SYMMETRY
        result = system.measure(BATCH, SEQ_LEN, n_steps=1, warmup_steps=1)
        if result.oom:
            print(f"{system.name:24s} CPU OOM")
            continue
        if baseline_tput is None:
            baseline_tput = result.tokens_per_second
        line = (
            f"{system.name:24s} batch {result.effective_batch:2d}  "
            f"{result.tokens_per_second:6.3f} tok/s  "
            f"({result.tokens_per_second / baseline_tput:4.2f}x FLEX(SSD))"
        )
        schedule = getattr(system, "schedule", None)
        if schedule is not None:
            line += f"  [alpha={schedule.alpha:.3f}, bottleneck={schedule.bottleneck}]"
        print(line)


if __name__ == "__main__":
    main()
