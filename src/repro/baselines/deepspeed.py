"""DeepSpeed ZeRO-Inference extended with Unified Virtual Memory (DS+UVM).

The paper extends ZeRO-Inference with UVM so long-context intermediate
activations (and the DRAM-resident KV cache the GPU attends over) can
oversubscribe GPU memory -- natively unsupported -- at the cost of
page-fault-driven transfers.  UVM's fault/migration path delivers only a
fraction of PCIe bandwidth, which is why the paper measures >4x slowdown
versus ``FLEX(DRAM)`` (Section 6.3).
"""

from __future__ import annotations

from repro.analysis.capacity import KVPlacement, plan_placement
from repro.baselines.base import InferenceSystem, StepContext
from repro.models.config import ModelConfig
from repro.sim.channel import Channel
from repro.sim.metrics import HOST_COMPUTE, LOAD_KV, STORE_KV
from repro.sim.topology import HardwareConfig
from repro.units import GB


class DeepSpeedUVM(InferenceSystem):
    """``DS+UVM(DRAM)``: ZeRO-Inference weights streaming + UVM-paged KV."""

    name = "DS+UVM(DRAM)"
    kv_placement = KVPlacement.DRAM
    #: Effective throughput of UVM page-fault migration (4 KiB fault granularity,
    #: fault handling on the critical path).
    uvm_bandwidth: float = 4.0 * GB
    per_layer_overhead_s = 0.004

    def __init__(self, model: ModelConfig, gpu: str = "A100") -> None:
        super().__init__(model)
        self.gpu = gpu
        self._uvm: Channel | None = None

    def hardware_config(self) -> HardwareConfig:
        return HardwareConfig(gpu=self.gpu, n_conventional_ssds=4)

    def _setup(self, ctx: StepContext) -> None:
        self._uvm = Channel(ctx.sim, self.uvm_bandwidth, name="uvm", latency=30e-6)
        plan = plan_placement(
            self.model,
            ctx.batch_size,
            ctx.seq_len,
            self.kv_placement,
            self.hardware_config().host_dram_bytes,
        )
        ctx.system.dram.allocate(plan.dram_resident_bytes, what="DS+UVM resident state")
        if plan.storage_resident_bytes and ctx.system.ssd_group:
            share = plan.storage_resident_bytes / ctx.system.ssd_group.size
            for ssd in ctx.system.ssds:
                ssd.allocate(share)

    def _step_process(self, ctx: StepContext):
        model = self.model
        assert self._uvm is not None
        kv_layer_bytes = float(
            model.kv_bytes_per_token_per_layer() * ctx.batch_size * ctx.seq_len
        )
        for layer in ctx.layers():
            yield ctx.weight_ready[layer]
            qkv_flops, mlp_flops = self._gpu_projection_and_mlp_flops(layer, ctx.batch_size)
            started = ctx.recorder.start()
            yield self._run_gpu(ctx, qkv_flops, model.attention_weight_bytes_per_layer())
            ctx.recorder.stop(HOST_COMPUTE, started)
            # GPU attention faults the layer's KV pages in over UVM; the DRAM
            # bus is co-occupied by the migration.
            started = ctx.recorder.start()
            yield ctx.sim.all_of(
                [
                    self._uvm.request(kv_layer_bytes, LOAD_KV),
                    ctx.system.dram.access(kv_layer_bytes, LOAD_KV),
                ]
            )
            ctx.recorder.stop(LOAD_KV, started)
            started = ctx.recorder.start()
            yield self._run_gpu(
                ctx,
                model.attention_flops_per_layer(ctx.batch_size, ctx.seq_len),
                kv_layer_bytes,
            )
            ctx.recorder.stop(HOST_COMPUTE, started)
            started = ctx.recorder.start()
            yield self._run_gpu(ctx, mlp_flops, model.mlp_weight_bytes_per_layer(layer))
            ctx.recorder.stop(HOST_COMPUTE, started)
            new_bytes = model.kv_bytes_per_token_per_layer() * ctx.batch_size
            started = ctx.recorder.start()
            yield self._uvm.request(new_bytes, STORE_KV)
            ctx.recorder.stop(STORE_KV, started)
            yield ctx.sim.timeout(self.per_layer_overhead_s)
