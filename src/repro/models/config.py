"""Transformer model configuration and derived size arithmetic.

This module encodes the model shapes from Table 2 of the paper and derives
every byte quantity the rest of the library needs: parameter counts, weight
bytes, per-token KV-cache bytes, X-cache bytes (Section 4.2), and per-layer
FLOP counts for the decode-step operations (QKV projection, attention, MLP).

All storage is FP16 (2 bytes/element) as in the paper's evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import BYTES_FP16


class AttentionKind(enum.Enum):
    """Attention variant, following the paper's Table 2 terminology."""

    MHA = "mha"
    GQA = "gqa"


@dataclass(frozen=True)
class ModelConfig:
    """Shape description of a decoder-only transformer.

    Attributes mirror Table 2 of the paper.  ``d_group`` (the number of query
    heads sharing one KV head) is derived from ``n_heads / n_kv_heads``; for
    MHA models it is 1.

    MoE models are described by ``n_experts`` (total experts per MoE layer),
    ``active_experts`` (experts activated per token; the paper evaluates
    Mixtral-8x7B and GLaM-143B with two active experts), and ``moe_every``
    (an MoE layer every N layers; 1 means every layer is MoE, as in Mixtral,
    while GLaM interleaves dense and MoE layers).
    """

    name: str
    n_layers: int
    hidden: int
    intermediate: int
    n_heads: int
    n_kv_heads: int
    vocab_size: int = 50272
    n_experts: int = 0
    active_experts: int = 2
    moe_every: int = 1
    gated_mlp: bool = False
    uses_rope: bool = False
    bytes_per_element: int = BYTES_FP16
    max_context: int = field(default=256 * 1024)

    def __post_init__(self) -> None:
        if self.n_layers <= 0 or self.hidden <= 0 or self.intermediate <= 0:
            raise ConfigurationError(f"{self.name}: dimensions must be positive")
        if self.n_heads <= 0 or self.n_kv_heads <= 0:
            raise ConfigurationError(f"{self.name}: head counts must be positive")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigurationError(
                f"{self.name}: n_heads ({self.n_heads}) must be divisible by "
                f"n_kv_heads ({self.n_kv_heads})"
            )
        if self.hidden % self.n_heads != 0:
            raise ConfigurationError(
                f"{self.name}: hidden ({self.hidden}) must be divisible by "
                f"n_heads ({self.n_heads})"
            )
        if self.n_experts and self.moe_every <= 0:
            raise ConfigurationError(f"{self.name}: moe_every must be positive")
        # Derived size/FLOP constants are precomputed once: the simulators
        # query them per layer per decode step, hot enough that recomputing
        # the arithmetic dominated profiles of the serving experiments.
        done = object.__setattr__
        done(self, "head_dim", self.hidden // self.n_heads)
        done(self, "d_group", self.n_heads // self.n_kv_heads)
        done(self, "kv_proj_dim", self.n_kv_heads * (self.hidden // self.n_heads))
        done(self, "_attn_params", 2 * self.hidden * self.hidden
             + 2 * self.hidden * self.kv_proj_dim)
        matrices = 3 if self.gated_mlp else 2
        done(self, "_expert_params", matrices * self.hidden * self.intermediate)
        per_layer = sum(
            self.mlp_params_per_layer(i) for i in range(self.n_layers)
        ) + self.n_layers * self._attn_params
        done(self, "_param_count", per_layer + 2 * self.vocab_size * self.hidden)
        done(self, "_mean_layer_weight_bytes",
             (per_layer * self.bytes_per_element) / self.n_layers)
        done(self, "_qkv_params",
             self.hidden * self.hidden + 2 * self.hidden * self.kv_proj_dim)
        done(self, "_attn_flops_per_query_token", 4.0 * self.n_heads * self.head_dim)
        done(self, "_kv_regen_flops_per_token", 4.0 * self.hidden * self.kv_proj_dim)
        done(self, "_out_proj_flops", 2.0 * self.hidden * self.hidden)

    # --- basic shape properties ------------------------------------------------
    #
    # ``head_dim`` (per-head hidden dimension, the paper's ``d``),
    # ``d_group`` (query heads per KV head, Table 2; 1 for MHA) and
    # ``kv_proj_dim`` (output dimension of the K/V projections,
    # ``n_kv_heads * head_dim``) are plain precomputed attributes assigned in
    # ``__post_init__`` -- they sit on the simulators' innermost loops where
    # property-call overhead is measurable.

    @property
    def attention_kind(self) -> AttentionKind:
        """Whether the model uses multi-head or grouped-query attention."""
        if self.n_kv_heads == self.n_heads:
            return AttentionKind.MHA
        return AttentionKind.GQA

    @property
    def is_moe(self) -> bool:
        """True when the model contains mixture-of-experts layers."""
        return self.n_experts > 0

    @property
    def layer_period(self) -> int:
        """Layers after which the per-layer work repeats: ``moe_every`` for
        interleaved MoE models, 1 otherwise."""
        return self.moe_every if self.is_moe else 1

    @property
    def n_moe_layers(self) -> int:
        """Number of layers whose MLP is a mixture of experts."""
        if not self.is_moe:
            return 0
        return self.n_layers // self.moe_every

    # --- parameter and weight sizes ---------------------------------------------

    def attention_params_per_layer(self) -> int:
        """Parameters in one layer's attention block (W_Q, W_K, W_V, W_O)."""
        return self._attn_params

    def mlp_params_per_expert(self) -> int:
        """Parameters of one MLP expert (gated MLPs carry a third matrix)."""
        return self._expert_params

    def mlp_params_per_layer(self, layer_index: int) -> int:
        """Parameters of one layer's full MLP block (all experts if MoE)."""
        if self.n_experts and layer_index % self.moe_every == self.moe_every - 1:
            return self.n_experts * self._expert_params
        return self._expert_params

    def param_count(self) -> int:
        """Total parameter count including embeddings and LM head."""
        return self._param_count

    def weight_bytes(self) -> int:
        """Total weight footprint in bytes (FP16)."""
        return self._param_count * self.bytes_per_element

    def attention_weight_bytes_per_layer(self) -> int:
        """Bytes of attention weights streamed per layer during decoding."""
        return self._attn_params * self.bytes_per_element

    def mlp_weight_bytes_per_layer(self, layer_index: int = 0, loaded_experts: int | None = None) -> int:
        """Bytes of MLP weights streamed for one layer.

        For MoE layers, offloading frameworks must stage every expert that any
        batch element routes to; with realistic batch sizes that is close to
        all experts, so ``loaded_experts`` defaults to all of them.
        """
        if self.is_moe and layer_index % self.moe_every == self.moe_every - 1:
            experts = self.n_experts if loaded_experts is None else loaded_experts
            return experts * self._expert_params * self.bytes_per_element
        return self._expert_params * self.bytes_per_element

    def mean_layer_weight_bytes(self) -> float:
        """Average per-layer weight bytes (attention + MLP) across the stack."""
        return self._mean_layer_weight_bytes

    # --- KV / X cache sizes ------------------------------------------------------

    def kv_bytes_per_token_per_layer(self) -> int:
        """Bytes of new K+V generated by one token in one layer (``4·h`` for MHA)."""
        return 2 * self.kv_proj_dim * self.bytes_per_element

    def kv_entry_bytes_per_head(self) -> int:
        """Bytes of one head's K (or V) row for one token.

        The paper notes these entries are typically 256 bytes (128 dims x
        2 bytes), far below the SSD's 4 KiB page -- the root cause of the
        naive writeback's sub-page writes (Section 4.3).  K and V rows live
        in separate row-major runs, so the write granule is per tensor.
        """
        return self.head_dim * self.bytes_per_element

    def kv_cache_bytes(self, batch_size: int, seq_len: int) -> int:
        """Total KV-cache bytes for a batch at a given context length."""
        return (
            self.n_layers
            * batch_size
            * seq_len
            * self.kv_bytes_per_token_per_layer()
        )

    def x_cache_bytes(self, batch_size: int, seq_len: int) -> int:
        """Total X-cache bytes (pre-projection activations, Section 4.2).

        X has shape ``b x s x h`` per layer: exactly half the size of the
        K+V pair it can regenerate, which is the core X-cache trade-off.
        """
        return (
            self.n_layers
            * batch_size
            * seq_len
            * self.hidden
            * self.bytes_per_element
        )

    # --- FLOP counts for a single decode step -------------------------------------

    def qkv_flops_per_layer(self, batch_size: int) -> float:
        """FLOPs of the QKV projection for one decode step of one layer."""
        return 2.0 * batch_size * self._qkv_params

    def attention_flops_per_layer(self, batch_size: int, seq_len: int) -> float:
        """FLOPs of the attention (QK^T and score.V) per layer per step."""
        # Per query: 2 * seq_len * head_dim for QK^T plus the same for score.V.
        return batch_size * seq_len * self._attn_flops_per_query_token

    def kv_regen_flops_per_layer(self, batch_size: int, seq_len: int) -> float:
        """FLOPs to regenerate K and V from X for one layer (Section 4.2)."""
        return batch_size * seq_len * self._kv_regen_flops_per_token

    def mlp_flops_per_layer(self, batch_size: int, layer_index: int = 0) -> float:
        """FLOPs of one layer's MLP (output projection included) per step."""
        if self.n_experts and layer_index % self.moe_every == self.moe_every - 1:
            active = min(self.active_experts, self.n_experts)
            mlp = batch_size * active * 2.0 * self._expert_params
        else:
            mlp = batch_size * 2.0 * self._expert_params
        return mlp + batch_size * self._out_proj_flops

    def kv_to_weight_ratio(self, batch_size: int, seq_len: int) -> float:
        """KV-cache bytes over weight bytes; low for MoE/GQA models (Fig. 12b)."""
        return self.kv_cache_bytes(batch_size, seq_len) / self.weight_bytes()
