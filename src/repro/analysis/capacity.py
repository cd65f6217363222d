"""Capacity planning: where weights/KV live and the feasible batch size.

The paper's baselines differ mostly in *placement*: ``FLEX(DRAM)`` keeps the
KV cache in host memory and must shrink the batch (to 2, or to OOM) as
contexts grow, while storage-backed systems keep batch 16 but pay I/O.
This module reproduces those feasibility decisions, including the paper's
placement policy that weights of >100B-parameter models go to storage.

Memory overheads follow offloading-framework practice: pinned staging and
double-buffering inflate resident KV by ~1.6x, and ~10% of DRAM is reserved
for the OS and the runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CapacityError
from repro.models.config import ModelConfig
from repro.models.footprint import activation_workspace_bytes
from repro.units import GiB

#: Resident-KV inflation from pinned staging buffers and double buffering.
KV_OVERHEAD_FACTOR = 1.6

#: Fraction of host DRAM reserved for OS, framework, and page cache.
DRAM_RESERVE_FRACTION = 0.10

#: Models above this parameter count keep weights on storage (Section 6.1).
WEIGHTS_TO_STORAGE_THRESHOLD = 100e9


class KVPlacement(enum.Enum):
    """Where the KV cache lives during decoding."""

    DRAM = "dram"
    STORAGE = "storage"
    NSP = "nsp"


class WeightPlacement(enum.Enum):
    """Where model weights are staged between layer executions."""

    DRAM = "dram"
    STORAGE = "storage"
    GPU = "gpu"


@dataclass(frozen=True)
class PlacementPlan:
    """A validated placement of weights and KV cache for one run."""

    model: str
    batch_size: int
    seq_len: int
    kv_placement: KVPlacement
    weight_placement: WeightPlacement
    dram_resident_bytes: float
    storage_resident_bytes: float

    @property
    def weights_on_storage(self) -> bool:
        """Whether per-layer weight loads come from flash instead of DRAM."""
        return self.weight_placement is WeightPlacement.STORAGE


def default_weight_placement(model: ModelConfig) -> WeightPlacement:
    """The paper's policy: >100B-parameter models offload weights to flash."""
    if model.param_count() > WEIGHTS_TO_STORAGE_THRESHOLD:
        return WeightPlacement.STORAGE
    return WeightPlacement.DRAM


def _usable_dram(host_dram_bytes: float) -> float:
    return host_dram_bytes * (1.0 - DRAM_RESERVE_FRACTION)


def plan_placement(
    model: ModelConfig,
    batch_size: int,
    seq_len: int,
    kv_placement: KVPlacement,
    host_dram_bytes: float,
    writeback_buffer_bytes: float = 0.0,
) -> PlacementPlan:
    """Validate a placement and compute resident byte totals.

    Raises :class:`~repro.errors.CapacityError` when host DRAM cannot hold
    the plan -- the ``CPU OOM`` bars of Figures 10-12.
    """
    weight_placement = default_weight_placement(model)
    dram = 0.0
    storage = 0.0
    if weight_placement is WeightPlacement.DRAM:
        dram += model.weight_bytes() * 1.1  # fragmentation/pinning slack
    else:
        storage += model.weight_bytes()
    kv_bytes = model.kv_cache_bytes(batch_size, seq_len)
    if kv_placement is KVPlacement.DRAM:
        dram += kv_bytes * KV_OVERHEAD_FACTOR
    else:
        storage += kv_bytes
        dram += writeback_buffer_bytes
    dram += activation_workspace_bytes(model, batch_size, seq_len)
    usable = _usable_dram(host_dram_bytes)
    if dram > usable:
        raise CapacityError(
            f"{model.name} bs={batch_size} s={seq_len}: plan needs "
            f"{dram / GiB:.0f} GiB host DRAM, only {usable / GiB:.0f} GiB usable "
            f"(CPU OOM)"
        )
    return PlacementPlan(
        model=model.name,
        batch_size=batch_size,
        seq_len=seq_len,
        kv_placement=kv_placement,
        weight_placement=weight_placement,
        dram_resident_bytes=dram,
        storage_resident_bytes=storage,
    )


def max_feasible_batch(
    model: ModelConfig,
    seq_len: int,
    kv_placement: KVPlacement,
    host_dram_bytes: float,
    requested_batch: int,
) -> int:
    """The requested batch if it fits the placement, else the largest power
    of two below it that does.

    Returns 0 when even batch size 1 OOMs (reported as ``CPU OOM``).
    Offloading frameworks halve the batch until resident state fits, which
    is how FLEX(DRAM) lands on batch 2 for OPT-66B at 32K (Figure 11a); a
    request that is not a power of two first drops to the power of two
    below it (7 to 4, not to 3).
    """
    batch = requested_batch
    while batch >= 1:
        try:
            plan_placement(model, batch, seq_len, kv_placement, host_dram_bytes)
            return batch
        except CapacityError:
            # The next power of two down (0 below a batch of 1).
            batch = 1 << ((batch - 1).bit_length() - 1) if batch > 1 else 0
    return 0


def gpu_working_set_bytes(
    model: ModelConfig, batch_size: int, chunk_tokens: int = 4096
) -> float:
    """Per-layer GPU working set during decoding (double-buffered weights,
    activations, and one streaming chunk of regenerated K/V for the X-cache
    path -- regeneration is tiled so memory stays bounded regardless of
    context length)."""
    weights = 2 * (
        model.attention_weight_bytes_per_layer()
        + model.mlp_weight_bytes_per_layer(0)
    )
    activations = 4 * batch_size * model.hidden * model.bytes_per_element
    regen_chunk = (
        2 * batch_size * chunk_tokens * model.kv_proj_dim * model.bytes_per_element
    )
    x_chunk = batch_size * chunk_tokens * model.hidden * model.bytes_per_element
    return weights + activations + regen_chunk + x_chunk


def fits_gpu(model: ModelConfig, batch_size: int, gpu_memory_bytes: float) -> bool:
    """Whether the decode-time working set fits GPU memory."""
    return gpu_working_set_bytes(model, batch_size) <= gpu_memory_bytes * 0.9
