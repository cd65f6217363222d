"""FlexGen-style offloading baselines (Figure 1's procedure, Section 6.1).

Three placements are evaluated in the paper:

``FLEX(SSD)``
    KV cache on four PCIe 4.0 drives in software RAID-0; attention on the
    CPU; weights in host DRAM (or on the drives for >100B models).

``FLEX(DRAM)``
    KV cache in host DRAM; the batch shrinks (possibly to OOM) as the cache
    grows.

``FLEX(16 PCIe 3.0 SSDs)``
    The SmartSSD platform with FPGAs disabled: sixteen drives whose raw
    bandwidth cannot reach the host because every byte still crosses the
    shared interconnect through FlexGen's synchronous staging pipeline.

FlexGen's disk path copies chunks through pinned host buffers on foreground
threads, so its *delivered* bandwidth is far below raw RAID-0 -- we model
that pipeline as an explicit staging channel whose ~6.5 GB/s calibrates the
paper's measured FLEX(SSD) throughputs.
"""

from __future__ import annotations

from repro.analysis.capacity import KVPlacement, WeightPlacement, plan_placement
from repro.baselines.base import InferenceSystem, StepContext
from repro.models.config import ModelConfig
from repro.sim.channel import Channel
from repro.sim.engine import Event
from repro.sim.flash import SSDSpec
from repro.sim.metrics import HOST_COMPUTE, LOAD_KV, LOAD_WEIGHT, STORE_KV
from repro.sim.topology import HardwareConfig
from repro.units import GB, TB


class FlexGen(InferenceSystem):
    """Common FlexGen machinery; concrete placements subclass it."""

    name = "FLEX"
    kv_placement = KVPlacement.STORAGE
    #: Delivered bandwidth of FlexGen's synchronous chunked disk pipeline.
    staging_bandwidth: float = 6.5 * GB
    per_layer_overhead_s = 0.003

    def __init__(self, model: ModelConfig, gpu: str = "A100") -> None:
        super().__init__(model)
        self.gpu = gpu
        self._staging: Channel | None = None

    # --- topology -------------------------------------------------------------------

    def hardware_config(self) -> HardwareConfig:
        from repro.sim.topology import host_pcie_for_gpu

        return HardwareConfig(
            gpu=self.gpu,
            n_conventional_ssds=4,
            host_pcie_bandwidth=host_pcie_for_gpu(self.gpu),
        )

    # --- placement ---------------------------------------------------------------------

    def _setup(self, ctx: StepContext) -> None:
        self._staging = Channel(
            ctx.sim, self.staging_bandwidth, name=f"{self.name}.staging"
        )
        plan = plan_placement(
            self.model,
            ctx.batch_size,
            ctx.seq_len,
            self.kv_placement,
            self.hardware_config().host_dram_bytes,
        )
        ctx.system.dram.allocate(plan.dram_resident_bytes, what="FlexGen resident state")
        if plan.storage_resident_bytes and ctx.system.ssd_group:
            share = plan.storage_resident_bytes / ctx.system.ssd_group.size
            for ssd in ctx.system.ssds:
                ssd.allocate(share)

    # --- transfers ---------------------------------------------------------------------------

    def _staged(self, ctx: StepContext, inner: Event, n_bytes: float, tag: str) -> Event:
        """Route a storage transfer through the framework staging pipeline."""
        assert self._staging is not None
        return ctx.sim.all_of([inner, self._staging.request(n_bytes, tag)])

    def _load_weights_event(self, ctx: StepContext, n_bytes: float) -> Event:
        if self.weight_placement() is WeightPlacement.DRAM:
            return ctx.sim.all_of(
                [
                    ctx.system.dram_to_gpu(n_bytes, tag=LOAD_WEIGHT),
                    self._weight_staging_event(ctx, n_bytes),
                ]
            )
        inner = ctx.sim.all_of(
            [
                ctx.system.read_ssds_to_host(n_bytes, tag=LOAD_WEIGHT),
                ctx.system.host_pcie.request(n_bytes, LOAD_WEIGHT),
            ]
        )
        return self._staged(ctx, inner, n_bytes, LOAD_WEIGHT)

    def _kv_layer_bytes(self, ctx: StepContext) -> float:
        return float(
            self.model.kv_bytes_per_token_per_layer() * ctx.batch_size * ctx.seq_len
        )

    def _kv_streamer(self, ctx: StepContext):
        """Prefetches each layer's KV cache from storage into host DRAM."""
        for layer in ctx.layers(prefetch=True):
            n_bytes = self._kv_layer_bytes(ctx)
            started = ctx.recorder.start()
            inner = ctx.system.read_ssds_to_host(n_bytes, tag=LOAD_KV)
            yield self._staged(ctx, inner, n_bytes, LOAD_KV)
            ctx.recorder.stop(LOAD_KV, started)
            ctx.kv_ready[layer].succeed()

    def _store_new_kv(self, ctx: StepContext) -> Event:
        """Write the step's new K/V rows back to the drives (Figure 1b, step 7).

        FlexGen's layout appends one contiguous ``batch x hidden`` row per
        tensor per layer, so writes are page-friendly (the sub-page problem
        the paper fixes arises from ANS's per-head device layout, not here).
        """
        new_bytes = self.model.kv_bytes_per_token_per_layer() * ctx.batch_size
        return ctx.system.write_ssds_from_host(
            new_bytes, granule=new_bytes / 2, tag=STORE_KV
        )

    # --- the decode step ------------------------------------------------------------------------

    def _step_process(self, ctx: StepContext):
        model = self.model
        system = ctx.system
        ctx.sim.process(self._kv_streamer(ctx), name=f"{self.name}.kv")
        kv_layer_bytes = self._kv_layer_bytes(ctx)
        for layer in ctx.layers():
            yield ctx.weight_ready[layer]
            qkv_flops, mlp_flops = self._gpu_projection_and_mlp_flops(layer, ctx.batch_size)
            started = ctx.recorder.start()
            yield self._run_gpu(
                ctx, qkv_flops, model.attention_weight_bytes_per_layer()
            )
            ctx.recorder.stop(HOST_COMPUTE, started)
            yield ctx.kv_ready[layer]
            # Baselines offload decode attention to the CPU (Section 6.1).
            started = ctx.recorder.start()
            yield system.cpu.run_kernel(
                model.attention_flops_per_layer(ctx.batch_size, ctx.seq_len),
                kv_layer_bytes,
                tag=HOST_COMPUTE,
            )
            ctx.recorder.stop(HOST_COMPUTE, started)
            started = ctx.recorder.start()
            yield self._run_gpu(ctx, mlp_flops, model.mlp_weight_bytes_per_layer(layer))
            ctx.recorder.stop(HOST_COMPUTE, started)
            started = ctx.recorder.start()
            yield self._store_new_kv(ctx)
            ctx.recorder.stop(STORE_KV, started)
            yield ctx.sim.timeout(self.per_layer_overhead_s)


class FlexGenSSD(FlexGen):
    """``FLEX(SSD)``: KV on four PCIe 4.0 drives (the normalization baseline)."""

    name = "FLEX(SSD)"


class FlexGenDRAM(FlexGen):
    """``FLEX(DRAM)``: KV in host memory; batch shrinks to fit (Fig. 11a)."""

    name = "FLEX(DRAM)"
    kv_placement = KVPlacement.DRAM

    def _kv_streamer(self, ctx: StepContext):
        """KV is already resident: the CPU streams it straight from DRAM."""
        for layer in ctx.layers(prefetch=True):
            ctx.kv_ready[layer].succeed()
            if False:  # pragma: no cover - keeps this a generator
                yield

    def _store_new_kv(self, ctx: StepContext) -> Event:
        new_bytes = self.model.kv_bytes_per_token_per_layer() * ctx.batch_size
        return ctx.system.dram.access(new_bytes, tag=STORE_KV)


#: The SmartSSD's NVMe drive seen as a plain PCIe 3.0 x4 device.
SMARTSSD_AS_PLAIN_SSD = SSDSpec(
    name="SmartSSD-as-SSD",
    capacity_bytes=3.84 * TB,
    read_bandwidth=3.2 * GB,
    write_bandwidth=2.4 * GB,
)


class FlexGenSmartSSDsNoFPGA(FlexGen):
    """``FLEX(16 PCIe 3.0 SSDs)``: the NSP platform with its FPGAs disabled.

    Sixteen drives offer ample raw bandwidth, but every KV byte still funnels
    through the host staging pipeline, and the deeper software RAID plus
    PCIe 3.0 latency costs a further ~15% -- reproducing the paper's
    0.64-0.94x of FLEX(SSD).
    """

    name = "FLEX(16 PCIe 3.0 SSDs)"
    staging_bandwidth = 0.85 * 6.5 * GB

    def hardware_config(self) -> HardwareConfig:
        from repro.sim.topology import host_pcie_for_gpu

        return HardwareConfig(
            gpu=self.gpu,
            n_conventional_ssds=16,
            conventional_ssd_spec=SMARTSSD_AS_PLAIN_SSD,
            conventional_ssd_pcie_gen=3,
            host_pcie_bandwidth=host_pcie_for_gpu(self.gpu),
        )
