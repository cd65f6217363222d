"""Figure 18(c): accuracy -- lossless HILOS vs lossy sparse attention.

On five synthetic long-context retrieval tasks (standing in for the five
LongBench datasets, see :mod:`repro.workloads.retrieval`), exact attention
(FlashAttention on the GPU and the HILOS blocked kernel, both reading the
FP16 KV cache) score identically, while the InstAttention-style
1/8-compressed sparse retrieval loses several F1 points -- the paper
measures 3.52-5.73 points on Qwen2.5-32B.
"""

from __future__ import annotations

from repro.experiments.harness import Table
from repro.workloads.retrieval import (
    evaluate_kernels,
    flashattention_kernel,
    hilos_kernel,
    instattention_kernel,
    make_retrieval_suite,
)


def run(fast: bool = True) -> list[Table]:
    """F1 per task per kernel, plus the sparse degradation.

    Each task is built once and every kernel scores that one build.
    """
    queries = 128 if fast else 256
    kernels = [flashattention_kernel, instattention_kernel(1.0 / 8.0), hilos_kernel]
    table = Table(
        title="Fig 18(c) accuracy on synthetic long-context retrieval (F1)",
        columns=["task", "flashattention", "instattention_1_8", "hilos", "sparse_drop"],
        notes="HILOS must equal FlashAttention exactly; the sparse drop is the F1 loss",
    )
    for task in make_retrieval_suite(n_queries=queries):
        flash, sparse, hilos = evaluate_kernels(task, kernels)
        table.add_row(task.name, flash, sparse, hilos, flash - sparse)
    return [table]


if __name__ == "__main__":
    from repro.experiments.harness import format_tables

    print(format_tables(run(fast=True)))
