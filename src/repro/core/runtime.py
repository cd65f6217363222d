"""The HILOS runtime: attention near storage on the event simulator.

One decode step per layer (Figure 4a, augmented with Sections 4.2/4.3):

1. wait for the Weights Prefetcher to stage the layer's weights on the GPU;
2. QKV projection on the GPU;
3. ship the new query (plus precomputed partial ``QK^T`` scalars and staged
   value vectors under delayed writeback) to the NSP devices;
4. concurrently
   a. each NSP device P2P-reads its KV shard from flash and streams it
      through the attention accelerator (the ``1 - alpha`` portion),
   b. the GPU GDS-reads the X-cache shard, regenerates K/V, and computes
      attention for the ``alpha`` portion,
   c. the CPU precomputes next-step partial scores and the new KV entries
      are staged into the host writeback buffer;
5. attention outputs return to the host; the GPU runs the MLP;
6. every ``c`` steps a background process spills the staged entries to
   flash in page-aligned runs (off the critical path); with delayed
   writeback disabled the per-head sub-page write sits *on* the critical
   path, reproducing Figure 6a's naive behaviour.

The KV cache is partitioned across devices over the batch x head grid
(Section 4.1), so per-device traffic is the even share the topology's
striped transfer helpers implement.
"""

from __future__ import annotations

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.estimator import kernel_throughput
from repro.analysis.capacity import KVPlacement, WeightPlacement, plan_placement
from repro.analysis.traffic import x_to_kv_size_ratio
from repro.baselines.base import InferenceSystem, StepContext
from repro.core.config import HilosConfig
from repro.core.writeback import WritebackPlan, plan_writeback
from repro.core.xcache import CacheSchedule, select_alpha
from repro.models.config import ModelConfig
from repro.sim.channel import Channel
from repro.sim.engine import Barrier, Event
from repro.sim.metrics import HOST_COMPUTE, LOAD_KV, LOAD_WEIGHT, STORE_KV
from repro.sim.topology import HardwareConfig


class HilosSystem(InferenceSystem):
    """HILOS with N SmartSSDs (``HILOS (N SmartSSDs)`` in the figures)."""

    kv_placement = KVPlacement.NSP

    def __init__(
        self,
        model: ModelConfig,
        config: HilosConfig | None = None,
        gpu: str = "A100",
        hardware: HardwareConfig | None = None,
    ) -> None:
        super().__init__(model)
        self.config = config or HilosConfig()
        self.gpu = gpu
        self._hardware_override = hardware
        self.name = f"HILOS ({self.config.n_devices} SmartSSDs)"
        self.per_layer_overhead_s = self.config.per_layer_overhead_s
        self.schedule: CacheSchedule | None = None
        self.writeback: WritebackPlan | None = None
        self._step_index = 0
        #: Unsimulated topology kept only for its bandwidth constants.
        self._figures_system = None

    # --- topology -------------------------------------------------------------------

    def hardware_config(self) -> HardwareConfig:
        if self._hardware_override is not None:
            return self._hardware_override
        from repro.sim.topology import host_pcie_for_gpu

        return HardwareConfig(
            gpu=self.gpu,
            n_conventional_ssds=0,
            n_smartssds=self.config.n_devices,
            host_pcie_bandwidth=host_pcie_for_gpu(self.gpu),
        )

    def accelerator_config(self) -> AcceleratorConfig:
        """The bitstream matching this model's attention variant (Table 3).

        For future-CSD studies (Section 7.1's ISP with LPDDR5X), the
        accelerator's device-DRAM roofline follows the overridden device
        DRAM bandwidth at the same ~94% access efficiency the SmartSSD
        calibration implies.
        """
        hardware = self.hardware_config()
        kwargs = {}
        if hardware.smartssd_dram_bandwidth is not None:
            kwargs["dram_bandwidth"] = hardware.smartssd_dram_bandwidth * 0.94
        return AcceleratorConfig(
            d_group=self.model.d_group, head_dim=self.model.head_dim, **kwargs
        )

    # --- setup -------------------------------------------------------------------------

    def _setup(self, ctx: StepContext) -> None:
        system = ctx.system
        acc = self.accelerator_config()
        engine_bw = kernel_throughput(acc)
        for dev in system.smartssds:
            dev.attention_engine = Channel(
                ctx.sim, engine_bw, name=f"{dev.name}.attn", discipline="fifo"
            )
        # X-cache ratio: automatic selection from the bandwidth balance.
        alpha, self.schedule = self._select_schedule(
            system, ctx.batch_size, ctx.seq_len
        )
        self._alpha = alpha
        self.writeback = plan_writeback(
            self.model,
            ctx.batch_size,
            self.config.effective_spill_interval(),
            nsp_fraction=1.0 - alpha,
        )
        self._step_index = 0
        # Flash placement: alpha X-cache + (1-alpha) KV + weights if >100B.
        kv_bytes = self.model.kv_cache_bytes(ctx.batch_size, ctx.seq_len)
        x_bytes = self.model.x_cache_bytes(ctx.batch_size, ctx.seq_len)
        resident = alpha * x_bytes + (1.0 - alpha) * kv_bytes
        if self.weight_placement() is WeightPlacement.STORAGE:
            resident += self.model.weight_bytes()
        share = resident / system.smartssd_group.size
        for dev in system.smartssds:
            dev.flash.allocate(share)
        # Host DRAM: writeback buffers + activations only (Fig. 4c: low).
        plan = plan_placement(
            self.model,
            ctx.batch_size,
            ctx.seq_len,
            KVPlacement.STORAGE,
            self.hardware_config().host_dram_bytes,
            writeback_buffer_bytes=self.writeback.host_buffer_peak_bytes,
        )
        host_resident = plan.dram_resident_bytes
        if self.weight_placement() is WeightPlacement.STORAGE:
            # Weights live on flash; DRAM holds only staging buffers.
            host_resident = (
                self.writeback.host_buffer_peak_bytes
                + plan.dram_resident_bytes
                - 0.0
            )
        system.dram.allocate(min(host_resident, system.dram.capacity_bytes * 0.5),
                             what="HILOS staging buffers")

    def _select_schedule(
        self, system, batch_size: int, seq_len: int
    ) -> tuple[float, CacheSchedule | None]:
        """The (alpha, schedule) the X-cache selector picks for one shape.

        Pure in (shape, hardware figures): the same inputs always yield the
        same alpha, which is what lets :meth:`prefill_kv_write_seconds`
        recompute it per query instead of reading whatever ``measure()``
        last left in ``self._alpha``.
        """
        if not self.config.use_xcache:
            return 0.0, None
        if self.config.alpha is not None:
            return self.config.alpha, None
        schedule = select_alpha(
            self.model,
            batch_size,
            seq_len,
            b_ssd=system.aggregate_nsp_internal_bandwidth(),
            b_pci=system.effective_host_bandwidth(),
            gpu_flops=system.gpu.spec.effective_flops,
            weight_bytes_per_layer=self.model.mean_layer_weight_bytes(),
            weights_on_storage=self.weight_placement() is WeightPlacement.STORAGE,
            b_host=system.host_pcie.capacity,
        )
        return schedule.alpha, schedule

    def _alpha_for(self, batch_size: int, seq_len: int) -> float:
        """Deterministic X-cache ratio for a shape, independent of history.

        Uses a memoized, never-simulated system model purely for its
        bandwidth figures (they are constants of ``hardware_config()``).
        This makes prefill estimates pure functions of ``(batch, seq_len)``:
        safe to cache, persist, and compare across cold and warm
        calibration runs.
        """
        if self._figures_system is None:
            from repro.sim.topology import build_system

            self._figures_system = build_system(self.hardware_config())
        return self._select_schedule(self._figures_system, batch_size, seq_len)[0]

    # --- weight loading -------------------------------------------------------------------

    def _load_weights_event(self, ctx: StepContext, n_bytes: float) -> Event:
        if self.weight_placement() is WeightPlacement.DRAM:
            return ctx.sim.all_of(
                [
                    ctx.system.dram_to_gpu(n_bytes, tag=LOAD_WEIGHT),
                    self._weight_staging_event(ctx, n_bytes),
                ]
            )
        # >100B models: weights stream from the NSP flash over the host path,
        # contending with GDS X-cache reads (captured by shared channels).
        return ctx.sim.all_of(
            [
                ctx.system.nsp_flash_read_to_gpu_via_host(n_bytes, tag=LOAD_WEIGHT),
                self._weight_staging_event(ctx, n_bytes),
            ]
        )

    # --- per-layer byte volumes ----------------------------------------------------------

    def _kv_layer_bytes(self, ctx: StepContext) -> float:
        return float(
            self.model.kv_bytes_per_token_per_layer() * ctx.batch_size * ctx.seq_len
        )

    def _x_layer_bytes(self, ctx: StepContext) -> float:
        return float(
            self.model.hidden * self.model.bytes_per_element * ctx.batch_size * ctx.seq_len
        )

    # --- concurrent attention paths ----------------------------------------------------------

    def _nsp_attention(self, ctx: StepContext, kv_bytes: float) -> Event:
        """The (1-alpha) portion: flash P2P reads + accelerator pipelines.

        Striped evenly over the NSP array; in representative mode the single
        simulated device carries one share and stands in for the group.
        """
        system = ctx.system
        share = kv_bytes / system.smartssd_group.size
        done = Barrier(ctx.sim, name=LOAD_KV)
        for dev in system.smartssds:
            dev.p2p_read_into(share, LOAD_KV, done)
            dev.attention_engine.request_into(share, LOAD_KV, done)
        return done

    def _xcache_attention(self, ctx: StepContext):
        """The alpha portion: GDS X read streaming into GPU regeneration.

        The X stream is consumed chunk-by-chunk as the GPU regenerates K/V
        and attends, so the read and the compute overlap (Section 4.2's
        "well-pipelined" assumption); the slower of the two governs.
        """
        model = self.model
        alpha = self._alpha
        x_bytes = alpha * self._x_layer_bytes(ctx)
        regen = alpha * model.kv_regen_flops_per_layer(ctx.batch_size, ctx.seq_len)
        attend = alpha * model.attention_flops_per_layer(ctx.batch_size, ctx.seq_len)
        hbm = x_bytes + alpha * self._kv_layer_bytes(ctx)
        read_started = ctx.recorder.start()
        read_done = ctx.system.gds_read_to_gpu(x_bytes, tag=LOAD_KV)
        read_done.add_callback(
            lambda _ev: ctx.recorder.stop(LOAD_KV, read_started)
        )
        compute_started = ctx.recorder.start()
        compute_done = self._run_gpu(ctx, regen + attend, hbm)
        compute_done.add_callback(
            lambda _ev: ctx.recorder.stop(HOST_COMPUTE, compute_started)
        )
        yield ctx.sim.all_of([read_done, compute_done])

    def _writeback_staging(self, ctx: StepContext):
        """Stage new KV in host DRAM and precompute partial scores (CPU)."""
        assert self.writeback is not None
        plan = self.writeback
        if plan.stage_bytes_per_step > 0:
            started = ctx.recorder.start()
            yield ctx.system.gpu_to_dram(plan.stage_bytes_per_step, tag=STORE_KV)
            ctx.recorder.stop(STORE_KV, started)
        if plan.cpu_partial_flops_per_step > 0:
            started = ctx.recorder.start()
            yield ctx.system.cpu.run_kernel(
                plan.cpu_partial_flops_per_step,
                plan.stage_bytes_per_step,
                tag=HOST_COMPUTE,
            )
            ctx.recorder.stop(HOST_COMPUTE, started)

    def _spill_process(self, ctx: StepContext):
        """Background spill of staged entries (off the critical path)."""
        assert self.writeback is not None
        plan = self.writeback
        per_layer = plan.spill_bytes
        total = per_layer * self.model.n_layers
        started = ctx.recorder.start()
        yield ctx.system.write_nsp_from_host(
            total, granule=plan.spill_granule_bytes, tag=STORE_KV
        )
        ctx.recorder.stop(STORE_KV, started)

    # --- the decode step ----------------------------------------------------------------------

    def _step_process(self, ctx: StepContext):
        model = self.model
        system = ctx.system
        assert self.writeback is not None
        plan = self.writeback
        alpha = self._alpha
        nsp_kv_bytes = (1.0 - alpha) * self._kv_layer_bytes(ctx)
        out_bytes = (
            (1.0 - alpha)
            * model.n_heads
            * model.head_dim
            * model.bytes_per_element
            * ctx.batch_size
        )
        for layer in ctx.layers():
            yield ctx.weight_ready[layer]
            qkv_flops, mlp_flops = self._gpu_projection_and_mlp_flops(layer, ctx.batch_size)
            started = ctx.recorder.start()
            yield self._run_gpu(ctx, qkv_flops, model.attention_weight_bytes_per_layer())
            ctx.recorder.stop(HOST_COMPUTE, started)
            # Ship Q (+ partial scores + staged V) to the devices.
            started = ctx.recorder.start()
            yield system.host_to_nsp(plan.host_to_device_bytes_per_step, tag=STORE_KV)
            ctx.recorder.stop(STORE_KV, started)
            # Attention: NSP shard, X-cache shard, and staging run together.
            waits = []
            if nsp_kv_bytes > 0:
                waits.append(self._nsp_attention(ctx, nsp_kv_bytes))
            if alpha > 0:
                waits.append(ctx.sim.process(self._xcache_attention(ctx)))
            waits.append(ctx.sim.process(self._writeback_staging(ctx)))
            attention_started = ctx.recorder.start()
            yield ctx.sim.all_of(waits)
            ctx.recorder.stop(LOAD_KV, attention_started)
            # Attention outputs return to the host (2h per element, Eq. 3).
            yield system.nsp_to_host(out_bytes, tag=LOAD_KV)
            started = ctx.recorder.start()
            yield self._run_gpu(ctx, mlp_flops, model.mlp_weight_bytes_per_layer(layer))
            ctx.recorder.stop(HOST_COMPUTE, started)
            if plan.spill_interval == 1:
                # Naive writeback (Figure 6a): per-entry direct-I/O commits
                # serialized on the host thread, plus the sub-page writes.
                started = ctx.recorder.start()
                yield system.write_nsp_from_host(
                    plan.spill_bytes, granule=plan.spill_granule_bytes, tag=STORE_KV
                )
                yield ctx.sim.timeout(plan.naive_commit_seconds)
                ctx.recorder.stop(STORE_KV, started)
            else:
                # Spill synchronization + staged-entry DMA bookkeeping
                # (the Figure 13 spill-interval sensitivity, Section 7.3).
                started = ctx.recorder.start()
                yield ctx.sim.timeout(plan.per_layer_overhead_seconds())
                ctx.recorder.stop(STORE_KV, started)
            yield ctx.sim.timeout(self.per_layer_overhead_s)
        self._step_index += 1
        if plan.spill_interval > 1 and self._step_index % plan.spill_interval == 0:
            ctx.sim.process(self._spill_process(ctx), name="hilos.spill")

    # --- prefill -----------------------------------------------------------------------------

    def prefill_kv_write_seconds(self, batch_size: int, seq_len: int) -> float:
        """Prefill persists alpha X + (1-alpha) KV across the NSP array."""
        hardware = self.hardware_config()
        alpha = self._alpha_for(batch_size, seq_len)
        kv_bytes = self.model.kv_cache_bytes(batch_size, seq_len)
        resident = (alpha * x_to_kv_size_ratio(self.model) + (1.0 - alpha)) * kv_bytes
        write_bw = hardware.n_smartssds * hardware.smartssd_flash_spec.write_bandwidth
        return resident / write_bw
