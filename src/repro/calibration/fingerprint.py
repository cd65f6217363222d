"""Deterministic fingerprints of measurable system configurations.

A fingerprint must change whenever a re-measurement could produce different
numbers, and must NOT change across process restarts or dict orderings.  It
therefore hashes a canonical JSON rendering of:

* the system's class name and public figure label,
* every field of its :class:`~repro.models.config.ModelConfig`,
* every field of its :class:`~repro.sim.topology.HardwareConfig`
  (recursively, covering GPU/CPU/SSD spec dataclasses),
* its simulation ``symmetry`` mode -- ``"full"`` runs the reference
  full-array path, so a store warmed by ``"auto"`` must not serve it,
* the measurement recipe (steps and warm-up steps per cell), and
* the library version -- any release may change simulator behaviour, so
  cells never survive a :data:`repro.__version__` bump.

That is a measured cell's whole identity: a cell is one simulated point,
the same whichever grid or harness reads it, so one system's cells serve
every figure that plots them and every serving grid that interpolates
across them.

Fields are rendered with ``repr``-stable primitives only (numbers, strings,
booleans, lists); nested dataclasses and enums are unfolded recursively.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.errors import ConfigurationError

#: Bump when the fingerprint rendering itself changes shape.
FINGERPRINT_SCHEME = 3


def canonical_value(value: Any) -> Any:
    """Fold a config value into JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        folded = {
            field.name: canonical_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        folded["__dataclass__"] = type(value).__name__
        return folded
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise ConfigurationError(
        f"cannot fingerprint value of type {type(value).__name__}: {value!r}"
    )


#: Behaviour-affecting scalar knobs that live on the system object itself
#: rather than in its model/hardware configs.  Reflected into the payload
#: when present so two systems differing only in, say, their framework
#: staging bandwidth cannot collide on one store file.
_SYSTEM_TUNABLE_ATTRS = (
    "per_layer_overhead_s",
    "weight_staging_bandwidth",
    "staging_bandwidth",
    "uvm_bandwidth",
)


def fingerprint_payload(system: Any, n_steps: int = 1, warmup_steps: int = 0) -> dict:
    """The canonical description that :func:`system_fingerprint` hashes.

    Exposed separately so the store can persist it next to each file's
    cells, making cache files self-describing (and collisions debuggable).
    Besides model and hardware, the payload reflects the system's own
    behavioural config (``system.config``, e.g. ``HilosConfig``'s feature
    flags), its ``symmetry`` mode and the scalar tunables above -- anything
    that could change a measured number, or which simulator path computes
    it, must change the fingerprint.
    """
    from repro import __version__

    return {
        "scheme": FINGERPRINT_SCHEME,
        "repro_version": __version__,
        "system_class": type(system).__name__,
        "system_name": getattr(system, "name", type(system).__name__),
        "system_config": canonical_value(getattr(system, "config", None)),
        "system_tunables": {
            attr: canonical_value(getattr(system, attr))
            for attr in _SYSTEM_TUNABLE_ATTRS
            if isinstance(getattr(system, attr, None), (int, float))
        },
        "symmetry": getattr(system, "symmetry", None),
        "model": canonical_value(system.model),
        "hardware": canonical_value(system.hardware_config()),
        "n_steps": n_steps,
        "warmup_steps": warmup_steps,
    }


def system_fingerprint(system: Any, n_steps: int = 1, warmup_steps: int = 0) -> str:
    """Hex digest identifying one (system, recipe) combination."""
    payload = fingerprint_payload(system, n_steps, warmup_steps)
    rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()
