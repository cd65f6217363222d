"""Softmax kernels: reference, three-pass, and the paper's two-pass version.

The conventional numerically stable softmax needs three passes over the
input (max, sum-of-exponentials, normalize).  For long sequences streamed
from off-chip memory that third-of-traffic matters, so the HILOS accelerator
uses a **two-pass** scheme (Algorithm 1): the first pass computes block-local
maxima and partial sums and folds them into running global statistics via
the online-softmax update; the second pass normalizes element-wise with the
final statistics.

All kernels accept an additive mask and use the paper's masking constant of
``-1e4`` for padding positions (Section 5.4), computing in FP32 regardless
of the input dtype to mirror the hardware's FP32 accumulation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NumericsError

#: The constant the accelerator's MASK module assigns to padding tokens.
MASK_VALUE = -1.0e4

#: Default accelerator block length (tokens per block, Section 4.4).
DEFAULT_BLOCK = 128


def reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax in float64 -- the ground-truth oracle."""
    x64 = np.asarray(x, dtype=np.float64)
    # One temporary the size of the input, updated in place (same ufuncs,
    # same values): score matrices reach megabytes in the accuracy runs.
    out = x64 - np.max(x64, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def three_pass_softmax(x: np.ndarray) -> np.ndarray:
    """The conventional three-pass softmax over the last axis (FP32).

    Pass 1 finds the global max, pass 2 accumulates the exponential sum,
    pass 3 normalizes.  This is the baseline the two-pass design replaces;
    it is retained for equivalence testing and traffic comparison.
    """
    x32 = np.asarray(x, dtype=np.float32)
    global_max = np.max(x32, axis=-1, keepdims=True)  # pass 1
    exp_sum = np.sum(np.exp(x32 - global_max), axis=-1, keepdims=True)  # pass 2
    return np.exp(x32 - global_max) / exp_sum  # pass 3


class StreamingSoftmaxState:
    """Running (max, sum) softmax statistics -- Algorithm 1 lines 5-9.

    Vectorized over an arbitrary leading shape: one independent running
    statistic per row.  The **streaming update unit** of the accelerator
    (Figure 7b) implements exactly this recurrence in hardware.
    """

    def __init__(self, rows_shape: tuple[int, ...]) -> None:
        self.running_max = np.full(rows_shape, -np.inf, dtype=np.float32)
        self.running_sum = np.zeros(rows_shape, dtype=np.float32)

    def update(self, block_max: np.ndarray, block_sum: np.ndarray) -> None:
        """Fold one block's local statistics into the running global ones."""
        block_max = np.asarray(block_max, dtype=np.float32)
        block_sum = np.asarray(block_sum, dtype=np.float32)
        newer = block_max > self.running_max
        # Where the block max exceeds the running max, rescale the old sum;
        # otherwise rescale the incoming block sum (Algorithm 1 lines 5-9).
        with np.errstate(invalid="ignore", over="ignore"):
            rescale_old = np.exp(self.running_max - block_max)
            rescale_new = np.exp(block_max - self.running_max)
        rescale_old = np.where(np.isfinite(rescale_old), rescale_old, 0.0)
        rescale_new = np.where(np.isfinite(rescale_new), rescale_new, 0.0)
        self.running_sum = np.where(
            newer,
            self.running_sum * rescale_old + block_sum,
            self.running_sum + block_sum * rescale_new,
        )
        self.running_max = np.maximum(self.running_max, block_max)

    def observe_block(self, block: np.ndarray) -> None:
        """Compute a block's local stats and fold them in (lines 3-4)."""
        block = np.asarray(block, dtype=np.float32)
        block_max = np.max(block, axis=-1)
        block_sum = np.sum(np.exp(block - block_max[..., None]), axis=-1)
        self.update(block_max, block_sum)


def two_pass_softmax(
    x: np.ndarray,
    block_size: int = DEFAULT_BLOCK,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Two-pass blocked softmax over the last axis (Algorithm 1).

    Parameters
    ----------
    x:
        Input of shape ``(..., s)``; processed in blocks of ``block_size``.
    block_size:
        Tokens per hardware block (128 in the shipped accelerator).
    mask:
        Optional boolean array broadcastable to ``x``; ``False`` positions
        receive :data:`MASK_VALUE` before both passes, as the hardware MASK
        modules do.
    """
    if block_size <= 0:
        raise NumericsError(f"block_size must be positive, got {block_size}")
    x32 = np.asarray(x, dtype=np.float32)
    if mask is not None:
        x32 = np.where(mask, x32, np.float32(MASK_VALUE))
    seq_len = x32.shape[-1]
    state = StreamingSoftmaxState(x32.shape[:-1])
    # First pass: stream blocks through the statistics aggregation unit.
    for start in range(0, seq_len, block_size):
        state.observe_block(x32[..., start : start + block_size])
    # Second pass: element-wise normalization (Figure 7c).
    out = np.empty_like(x32)
    denom = state.running_sum[..., None]
    gmax = state.running_max[..., None]
    for start in range(0, seq_len, block_size):
        stop = min(start + block_size, seq_len)
        out[..., start:stop] = np.exp(x32[..., start:stop] - gmax) / denom
    return out
