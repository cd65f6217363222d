"""Verify HILOS is numerically lossless -- the Section 5.1 simulation flow.

The paper ships a functional simulator so accelerator customizations can be
validated against standard benchmarks before committing to FPGA synthesis.
This example runs that flow: a miniature decoder executes under the
baseline, ANS, X-cache, and delayed-writeback plans and must agree; the
five-task retrieval suite then scores the HILOS kernel against
FlashAttention (equal) and InstAttention-style sparse retrieval (degraded).

Run with::

    python examples/lossless_verification.py
"""

from __future__ import annotations

import numpy as np

from repro.functional.engine import ExecutionPlan, FunctionalDecoder
from repro.models.registry import tiny_model
from repro.workloads.retrieval import (
    evaluate_kernels,
    flashattention_kernel,
    hilos_kernel,
    instattention_kernel,
    make_retrieval_suite,
)
from repro.workloads.synthetic import SyntheticWorkload


def cross_plan_check() -> None:
    model = tiny_model(
        name="demo-gqa", n_layers=2, hidden=64, intermediate=128,
        n_heads=8, n_kv_heads=4, uses_rope=True,
    )
    workload = SyntheticWorkload(
        batch_size=4, prompt_tokens=48, output_tokens=16, hidden=model.hidden, seed=3
    )
    plans = [
        ExecutionPlan.baseline(block_size=16),
        ExecutionPlan.ans(block_size=16),
        ExecutionPlan(name="ans+wb", use_ans=True, delayed_writeback=True,
                      spill_interval=4, block_size=16),
        ExecutionPlan.hilos(alpha=0.5, spill_interval=4, block_size=16),
    ]
    outputs = {}
    stores = {}
    for plan in plans:
        decoder = FunctionalDecoder(model, plan, seed=11)
        decoder.prefill(workload.prompt_embeddings())
        steps = [decoder.decode_step(x) for x in workload.step_embeddings()]
        outputs[plan.name] = np.stack(steps)
        stores[plan.name] = decoder.kv_store.write_amplification
    baseline = outputs["baseline"]
    print("cross-plan numerical agreement (max relative error vs baseline):")
    for name, out in outputs.items():
        err = np.max(np.abs(out - baseline)) / np.max(np.abs(baseline))
        print(f"  {name:10s} {err:.2e}   kv write amplification: {stores[name]:5.1f}x")
    print()


def accuracy_check() -> None:
    print("retrieval accuracy (F1), 5 synthetic LongBench-style tasks:")
    print(f"{'task':18s} {'flash':>6s} {'hilos':>6s} {'sparse':>7s} {'drop':>5s}")
    kernels = [flashattention_kernel, hilos_kernel, instattention_kernel(1.0 / 8.0)]
    for task in make_retrieval_suite():
        flash, hilos, sparse = evaluate_kernels(task, kernels)
        marker = "LOSSLESS" if flash == hilos else "MISMATCH!"
        print(f"{task.name:18s} {flash:6.1f} {hilos:6.1f} {sparse:7.1f} "
              f"{flash - sparse:5.1f}  {marker}")


def main() -> None:
    cross_plan_check()
    accuracy_check()


if __name__ == "__main__":
    main()
