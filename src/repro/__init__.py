"""HILOS reproduction: near-storage processing for offline LLM inference.

The package reproduces "A Cost-Effective Near-Storage Processing Solution
for Offline Inference of Long-Context LLMs" (ASPLOS 2026) as a pure-Python
system: calibrated hardware simulators, bit-faithful attention numerics,
and one experiment harness per paper table/figure.

Typical entry points::

    from repro import HilosConfig, HilosSystem, get_model

    system = HilosSystem(get_model("OPT-66B"), HilosConfig(n_devices=16))
    result = system.measure(batch_size=16, seq_len=32768)

See ``repro.experiments.runner`` for regenerating the paper's results and
``DESIGN.md`` for the reproduction methodology.
"""

from repro.calibration import CalibrationStore, system_fingerprint

from repro.baselines import (
    DeepSpeedUVM,
    FlexGenDRAM,
    FlexGenSSD,
    FlexGenSmartSSDsNoFPGA,
    MeasuredResult,
    MultiNodeVLLM,
    build_inference_system,
)
from repro.core import HilosConfig, HilosSystem
from repro.models import ModelConfig, get_model, list_models

__version__ = "1.3.0"

__all__ = [
    "HilosConfig",
    "HilosSystem",
    "ModelConfig",
    "get_model",
    "list_models",
    "MeasuredResult",
    "FlexGenSSD",
    "FlexGenDRAM",
    "FlexGenSmartSSDsNoFPGA",
    "DeepSpeedUVM",
    "MultiNodeVLLM",
    "build_inference_system",
    "CalibrationStore",
    "system_fingerprint",
    "__version__",
]
