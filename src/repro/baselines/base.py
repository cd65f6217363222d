"""Shared machinery for simulated inference systems.

Every system (HILOS and the baselines) follows the same measurement recipe:

1. decide the *effective* batch size its placement allows (FLEX(DRAM) halves
   the batch until the KV cache fits host DRAM; storage-backed systems keep
   the requested batch, Section 6.3);
2. build a fresh :class:`~repro.sim.topology.SystemModel` and place weights
   and caches;
3. run one warm-up decode step, then time several steady-state steps while
   recording phase spans (Figures 4b/11b) and resource busy time (Fig. 4c);
4. report tokens/sec as ``effective_batch / step_seconds``.

Subclasses implement :meth:`InferenceSystem._setup` (placement, staging
channels) and :meth:`InferenceSystem._step_process` (one decode step as a
simulation process).  Weight prefetching -- common to every framework -- is
provided here as a concurrent streamer process with per-layer ready events.

Step loops and streamers iterate :meth:`StepContext.layers`, which folds
the layer axis: once the step's state at a layer boundary repeats the one a
period earlier, the remaining whole periods are accounted instead of
simulated (:class:`LayerFolding`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.analysis.capacity import (
    KVPlacement,
    WeightPlacement,
    default_weight_placement,
    max_feasible_batch,
)
from repro.errors import CapacityError, ConfigurationError
from repro.models.config import ModelConfig
from repro.sim.engine import Event
from repro.sim.metrics import (
    HOST_COMPUTE,
    LOAD_WEIGHT,
    Breakdown,
    PhaseRecorder,
    UtilizationSample,
)
from repro.sim.topology import HardwareConfig, SystemModel, build_system


@dataclass(frozen=True)
class MeasuredResult:
    """Outcome of measuring one system at one (model, batch, context) point."""

    system: str
    model: str
    requested_batch: int
    effective_batch: int
    seq_len: int
    step_seconds: float
    tokens_per_second: float
    prefill_seconds: float
    breakdown: Breakdown
    utilization: UtilizationSample
    storage_logical_written: float = 0.0
    storage_physical_written: float = 0.0
    oom: bool = False
    note: str = ""

    @staticmethod
    def out_of_memory(
        system: str, model: str, batch: int, seq_len: int, note: str
    ) -> "MeasuredResult":
        """The paper's ``CPU OOM`` bars: zero throughput with a reason."""
        return MeasuredResult(
            system=system,
            model=model,
            requested_batch=batch,
            effective_batch=0,
            seq_len=seq_len,
            step_seconds=float("inf"),
            tokens_per_second=0.0,
            prefill_seconds=float("inf"),
            breakdown=Breakdown(),
            utilization=UtilizationSample(cpu=0.0, gpu=0.0, dram_capacity=0.0),
            oom=True,
            note=note,
        )


#: Two layer-boundary snapshots repeat when every value agrees within this
#: many seconds per simulated second elapsed: rounding of absolute times,
#: not a modelling tolerance.
FOLD_TOLERANCE = 1e-12


class LayerFolding:
    """Skips a decode step's remaining whole periods once its state repeats.

    Every layer of a decode step runs the same pipeline, so once the
    simulation's relative state at a layer boundary -- the pending heap
    entries, every channel's in-flight work
    (:meth:`~repro.sim.engine.Simulator.relative_state`) and each
    prefetcher's lead over the step -- equals the state one ``period``
    earlier (to within float rounding), every later period repeats the
    last one.  A match
    only arms the fold: it reads every accumulator then, and the next
    period must repeat too before whole periods are skipped.  Skipping
    adds the confirmed period's accumulator deltas times the periods
    skipped (channel busy seconds and work, drive byte counters, the phase
    breakdown), adds their duration to :attr:`StepContext.skipped_seconds`
    and ends the step's layer loops that many layers early.  The simulated
    tail keeps each prefetcher's lead plus one period, so streamers still
    run off the end of the step exactly as they would have.
    """

    def __init__(self, period: int) -> None:
        self.period = period
        self._history: list[tuple[list, list[float]]] = []
        #: (boundary layer, sim time, accumulator readings) of an armed fold.
        self._armed: tuple[int, float, list] | None = None

    def begin_step(self) -> None:
        """Forget the previous step: folds never span two steps."""
        self._history = []
        self._armed = None

    def boundary(self, ctx: "StepContext", layer: int) -> None:
        """The step is about to simulate ``layer``; fold if the state repeats."""
        period = self.period
        if ctx.end - layer < 2 * period:
            return  # the tail must keep a period besides the one skipped
        sim = ctx.sim
        keys, values = sim.relative_state()
        leads = [None if at is None else at - layer for at in ctx.prefetching]
        keys.append(leads)
        history = self._history
        history.append((keys, values))
        if len(history) <= period:
            return
        earlier_keys, earlier_values = history.pop(0)
        tolerance = FOLD_TOLERANCE * sim.now
        repeats = keys == earlier_keys and all(
            abs(a - b) <= tolerance for a, b in zip(values, earlier_values)
        )
        armed = self._armed
        if armed is None:
            if repeats:
                parts = [*sim.channels, *ctx.system.drives(), ctx.recorder]
                self._armed = (layer, sim.now, [(p, p.accumulators()) for p in parts])
            return
        armed_layer, armed_at, readings = armed
        if layer - armed_layer < period:
            return
        self._armed = None
        if not repeats:
            return
        lead = max((lead for lead in leads if lead is not None), default=0)
        periods = (ctx.end - layer - lead - period) // period
        if periods < 1:
            return
        for part, before in readings:
            part.repeat(before, periods)
        ctx.skipped_seconds += periods * (sim.now - armed_at)
        ctx.end -= periods * period


@dataclass
class StepContext:
    """Everything a decode-step process needs, bundled."""

    system: SystemModel
    model: ModelConfig
    batch_size: int
    seq_len: int
    recorder: PhaseRecorder
    weight_ready: list[Event] = field(default_factory=list)
    kv_ready: list[Event] = field(default_factory=list)
    #: Layer folding for this measurement; ``None`` simulates every layer.
    folding: LayerFolding | None = None
    #: Simulated seconds of layers folding accounted instead of simulating;
    #: ``measure()`` adds them to the elapsed time.
    skipped_seconds: float = 0.0
    #: One past the last layer the current step simulates (folding lowers it).
    end: int = 0
    #: Each prefetcher's in-flight layer this step, ``None`` once done.
    prefetching: list[int | None] = field(default_factory=list)

    @property
    def sim(self):
        """The underlying simulator."""
        return self.system.sim

    def begin_step(self) -> None:
        """Fresh per-layer ready events and a full layer range for one step."""
        sim = self.sim
        n_layers = self.model.n_layers
        self.weight_ready = [sim.event(f"w{i}") for i in range(n_layers)]
        self.kv_ready = [sim.event(f"kv{i}") for i in range(n_layers)]
        self.end = n_layers
        self.prefetching = []
        if self.folding is not None:
            self.folding.begin_step()

    def layers(self, prefetch: bool = False):
        """The layer indices one decode step simulates, in order.

        The step loop iterates ``ctx.layers()``; at each layer boundary it
        gives :class:`LayerFolding` the chance to end every loop early.
        Streamers that run ahead of the step (weight and KV prefetchers)
        pass ``prefetch=True``: they report their in-flight layer, which
        folding compares between boundaries and keeps in the simulated
        tail.
        """
        if prefetch:
            positions = self.prefetching
            slot = len(positions)
            positions.append(0)
        layer = 0
        while layer < self.end:
            if prefetch:
                positions[slot] = layer
            elif self.folding is not None:
                self.folding.boundary(self, layer)
            yield layer
            layer += 1
        if prefetch:
            positions[slot] = None


class InferenceSystem(abc.ABC):
    """Base class for all simulated inference frameworks."""

    name: str = "abstract"
    #: GPU model this framework is priced and timed against (Table 1);
    #: subclasses targeting other hosts override it (or accept it as a
    #: constructor argument) instead of being ``getattr``-probed for it.
    gpu: str = "A100"
    #: Where this framework keeps the KV cache (drives batch feasibility).
    kv_placement: KVPlacement = KVPlacement.STORAGE
    #: Simulation symmetry mode passed to ``build_system`` by ``measure()``:
    #: ``"auto"`` folds homogeneous device arrays to a representative device
    #: (numerically equivalent, O(n_groups) instead of O(n_devices)) and
    #: folds each decode step's layers once their state repeats (equivalent
    #: to within float rounding; see :class:`LayerFolding`), as does
    #: ``"representative"``; ``"full"`` forces the reference path that
    #: simulates every device and every layer.
    symmetry: str = "auto"
    #: Per-layer fixed overhead: kernel launches, framework bookkeeping.
    per_layer_overhead_s: float = 0.003
    #: Delivered bandwidth of the framework's pinned-buffer weight pipeline.
    #: All evaluated frameworks (FlexGen, DeepSpeed, and HILOS, which is
    #: integrated into the FlexGen-style PyTorch stack, Section 5) stream
    #: weights through staged pinned copies at well below the raw link rate.
    weight_staging_bandwidth: float = 16e9

    def __init__(self, model: ModelConfig) -> None:
        self.model = model
        self._weight_staging = None
        #: The most recent measurement's system model, kept for byte-counter
        #: introspection (tests cross-check simulated traffic against the
        #: paper's closed forms).
        self.last_system: SystemModel | None = None

    def _staging_bandwidth(self) -> float:
        """Weight-pipeline bandwidth; PCIe 5.0 hosts (H100) move ~1.5x more."""
        if self.gpu == "H100":
            return self.weight_staging_bandwidth * 1.5
        return self.weight_staging_bandwidth

    # --- hooks -----------------------------------------------------------------------

    @abc.abstractmethod
    def hardware_config(self) -> HardwareConfig:
        """The machine this framework runs on (Table 1 variants)."""

    @abc.abstractmethod
    def _setup(self, ctx: StepContext) -> None:
        """Place data, validate capacity, create framework channels."""

    @abc.abstractmethod
    def _step_process(self, ctx: StepContext):
        """Generator: one full decode step, iterating ``ctx.layers()``."""

    # --- weight streaming (shared by every framework) -----------------------------------

    def weight_placement(self) -> WeightPlacement:
        """Resolved placement for this model's weights."""
        return default_weight_placement(self.model)

    def _weight_staging_event(self, ctx: StepContext, n_bytes: float) -> Event:
        """The pinned-buffer staging hop every framework's weight path pays."""
        if self._weight_staging is None:
            from repro.sim.channel import Channel

            self._weight_staging = Channel(
                ctx.sim, self._staging_bandwidth(), name=f"{self.name}.wstage"
            )
        return self._weight_staging.request(n_bytes, LOAD_WEIGHT)

    def _load_weights_event(self, ctx: StepContext, n_bytes: float) -> Event:
        """One layer's weight transfer to the GPU; overridden per source."""
        return ctx.sim.all_of(
            [
                ctx.system.dram_to_gpu(n_bytes, tag=LOAD_WEIGHT),
                self._weight_staging_event(ctx, n_bytes),
            ]
        )

    def _weight_streamer(self, ctx: StepContext):
        """Prefetches each layer's weights in order, firing ready events.

        Runs concurrently with the layer loop, so layer ``i+1``'s weights
        stream while layer ``i`` computes -- the paper's Weights Prefetcher.
        """
        model = self.model
        for layer in ctx.layers(prefetch=True):
            n_bytes = (
                model.attention_weight_bytes_per_layer()
                + model.mlp_weight_bytes_per_layer(layer)
            )
            started = ctx.recorder.start()
            yield self._load_weights_event(ctx, n_bytes)
            ctx.recorder.stop(LOAD_WEIGHT, started)
            ctx.weight_ready[layer].succeed()

    def _gpu_projection_and_mlp_flops(self, layer: int, batch: int) -> tuple[float, float]:
        """(QKV, MLP) FLOPs of one decode step of one layer."""
        qkv = self.model.qkv_flops_per_layer(batch)
        mlp = self.model.mlp_flops_per_layer(batch, layer)
        return qkv, mlp

    def _run_gpu(self, ctx: StepContext, flops: float, mem_bytes: float) -> Event:
        """GPU kernel tagged as host compute."""
        return ctx.system.gpu.run_kernel(flops, mem_bytes, tag=HOST_COMPUTE)

    # --- batch feasibility ------------------------------------------------------------------

    def effective_batch(self, batch_size: int, seq_len: int) -> int:
        """Largest batch this placement supports (0 means OOM)."""
        hardware = self.hardware_config()
        if self.kv_placement is KVPlacement.DRAM:
            return max_feasible_batch(
                self.model, seq_len, self.kv_placement, hardware.host_dram_bytes, batch_size
            )
        return batch_size

    # --- measurement -----------------------------------------------------------------------

    def measure(
        self, batch_size: int, seq_len: int, n_steps: int = 2, warmup_steps: int = 1
    ) -> MeasuredResult:
        """Simulate decoding and report steady-state throughput + breakdowns."""
        for argument, value, least in (
            ("batch_size", batch_size, 1),
            ("n_steps", n_steps, 1),
            ("warmup_steps", warmup_steps, 0),
        ):
            if value < least:
                raise ConfigurationError(
                    f"{self.name}.measure(): {argument} must be at least {least}, "
                    f"got {value!r}"
                )
        effective = self.effective_batch(batch_size, seq_len)
        if effective == 0:
            return MeasuredResult.out_of_memory(
                self.name, self.model.name, batch_size, seq_len, note="CPU OOM"
            )
        system = build_system(self.hardware_config(), symmetry=self.symmetry)
        folding = None
        if self.symmetry != "full":
            folding = LayerFolding(self.model.layer_period)
        recorder = PhaseRecorder(system.sim)
        ctx = StepContext(
            system=system,
            model=self.model,
            batch_size=effective,
            seq_len=seq_len,
            recorder=recorder,
            folding=folding,
        )
        self._weight_staging = None  # channels must bind to the fresh simulator
        self.last_system = system
        try:
            self._setup(ctx)
        except CapacityError as exc:
            return MeasuredResult.out_of_memory(
                self.name, self.model.name, batch_size, seq_len, note=str(exc)
            )
        for _ in range(warmup_steps):
            self._run_one_step(ctx)
        # Reset the recorder so breakdowns cover only measured steps.
        ctx.recorder = PhaseRecorder(system.sim)
        measure_start = system.sim.now
        skipped_start = ctx.skipped_seconds
        # A device is "busy" when either its compute or its memory stream is
        # occupied; decode kernels are memory-bound, so the stream dominates.
        gpu_busy0 = max(system.gpu.compute.busy_seconds, system.gpu.hbm.busy_seconds)
        cpu_busy0 = max(system.cpu.compute.busy_seconds, system.cpu.stream.busy_seconds)
        written0 = self._storage_written(system)
        for _ in range(n_steps):
            self._run_one_step(ctx)
        elapsed = (system.sim.now - measure_start) + (ctx.skipped_seconds - skipped_start)
        step_seconds = elapsed / n_steps
        gpu_busy1 = max(system.gpu.compute.busy_seconds, system.gpu.hbm.busy_seconds)
        cpu_busy1 = max(system.cpu.compute.busy_seconds, system.cpu.stream.busy_seconds)
        gpu_util = (gpu_busy1 - gpu_busy0) / elapsed
        cpu_util = (cpu_busy1 - cpu_busy0) / elapsed
        written1 = self._storage_written(system)
        return MeasuredResult(
            system=self.name,
            model=self.model.name,
            requested_batch=batch_size,
            effective_batch=effective,
            seq_len=seq_len,
            step_seconds=step_seconds,
            tokens_per_second=effective / step_seconds,
            prefill_seconds=self.prefill_seconds(effective, seq_len),
            breakdown=ctx.recorder.breakdown,
            utilization=UtilizationSample(
                cpu=min(1.0, cpu_util),
                gpu=min(1.0, gpu_util),
                dram_capacity=system.dram.utilization,
            ),
            storage_logical_written=(written1[0] - written0[0]) / n_steps,
            storage_physical_written=(written1[1] - written0[1]) / n_steps,
        )

    def _run_one_step(self, ctx: StepContext) -> None:
        sim = ctx.system.sim
        ctx.begin_step()
        sim.process(self._weight_streamer(ctx), name=f"{self.name}.weights")
        step = sim.process(self._step_process(ctx), name=f"{self.name}.step")
        sim.run(step)

    @staticmethod
    def _storage_written(system: SystemModel) -> tuple[float, float]:
        """(logical, physical) bytes written across the *logical* flash array.

        Goes through the symmetric-group counters so representative-device
        simulations report array-wide totals, not the lone simulated share.
        """
        counters = system.storage_counters()
        return counters.logical_written, counters.physical_written

    # --- prefill (analytic, Section 6.4 / Figure 14) ------------------------------------------

    def prefill_compute_seconds(self, batch_size: int, seq_len: int) -> float:
        """GPU time of the prefill pass (FlashAttention for all systems).

        The QKV and attention FLOPs are the same in every layer, so they
        are summed once; each layer then adds them to its own MLP FLOPs in
        the order ``(qkv + attn) + mlp``, which keeps the float total of a
        per-layer sum of all three.
        """
        model = self.model
        gpu = self.hardware_config().gpu_spec
        qkv = model.qkv_flops_per_layer(batch_size) * seq_len
        attn = model.attention_flops_per_layer(batch_size, seq_len) * seq_len / 2.0
        qkv_attn = qkv + attn
        total = 0.0
        for layer in range(model.n_layers):
            total += qkv_attn + model.mlp_flops_per_layer(batch_size, layer) * seq_len
        return total / gpu.effective_flops

    def prefill_weight_seconds(self, batch_size: int, seq_len: int) -> float:
        """Weight-streaming time of one full pass (source-dependent)."""
        hardware = self.hardware_config()
        total_bytes = self.model.weight_bytes()
        return total_bytes / hardware.host_pcie_bandwidth

    def prefill_kv_write_seconds(self, batch_size: int, seq_len: int) -> float:
        """Time to persist the prefill KV cache to its home."""
        hardware = self.hardware_config()
        kv_bytes = self.model.kv_cache_bytes(batch_size, seq_len)
        if self.kv_placement is KVPlacement.DRAM:
            return kv_bytes / hardware.host_dram_bandwidth
        n = max(1, hardware.n_conventional_ssds + hardware.n_smartssds)
        write_bw = n * (
            hardware.conventional_ssd_spec.write_bandwidth
            if hardware.n_conventional_ssds
            else hardware.smartssd_flash_spec.write_bandwidth
        )
        return kv_bytes / write_bw

    #: Prefill pipeline inefficiency (imperfect overlap of the three streams).
    PREFILL_OVERLAP_FACTOR = 1.15

    def prefill_seconds(self, batch_size: int, seq_len: int) -> float:
        """End-to-end prefill latency: overlapped compute/weights/KV writes."""
        compute = self.prefill_compute_seconds(batch_size, seq_len)
        weights = self.prefill_weight_seconds(batch_size, seq_len)
        kv_write = self.prefill_kv_write_seconds(batch_size, seq_len)
        return max(compute, weights, kv_write) * self.PREFILL_OVERLAP_FACTOR

    # --- end-to-end (Figure 14) -----------------------------------------------------------------

    def total_latency_seconds(
        self, batch_size: int, seq_len: int, output_tokens: int
    ) -> tuple[float, float, float]:
        """(prefill, decode, total) latency for a full request batch."""
        result = self.measure(batch_size, seq_len)
        if result.oom:
            return float("inf"), float("inf"), float("inf")
        decode = result.step_seconds * output_tokens
        return result.prefill_seconds, decode, result.prefill_seconds + decode
