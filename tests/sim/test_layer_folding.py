"""Property tests: layer-folded ``measure()`` is equivalent to the full path.

Under ``symmetry="auto"`` a decode step stops simulating layers once its
state at a layer boundary repeats one period earlier, and accounts the
skipped periods by multiplication.  ``symmetry="full"`` simulates every
layer and every device.  The two must agree to within float rounding:

* step time and tokens/s within 1e-12 relative;
* every breakdown phase and every channel's busy seconds within
  1e-12 x the step time, GPU/CPU utilisation within 1e-12;
* array-wide storage byte counters within 1e-12 relative;
* effective batch and OOM verdicts identical.

The inputs cover every registry system x six models x a (batch, context)
grid with out-of-memory points x warm-up 0/1 x 1/2 measured steps, plus
fig15's ablation configurations and its straggler array.  The reference
path itself is pinned to values recorded before layer folding existed.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import SYSTEM_BUILDERS, build_inference_system
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.experiments.fig15_ablation import ABLATIONS, FAST_POINTS, _degraded_hardware
from repro.models import get_model
from repro.sim.channel import Channel
from repro.sim.engine import Simulator

REL = 1e-12

SYSTEMS = tuple(SYSTEM_BUILDERS)
MODELS = ("OPT-30B", "OPT-66B", "OPT-175B", "Qwen2.5-32B", "Mixtral-8x7B", "GLaM-143B")
#: (batch, context) points; (64, 131072) overflows host DRAM or the drives
#: for some system x model pairs (OOM verdicts) and clamps the batch of
#: the DRAM-placed systems for the rest.
GRID = ((1, 1024), (16, 4096), (8, 16384), (64, 131072))
#: (warmup_steps, n_steps) settings.
STEPS = ((0, 1), (0, 2), (1, 1), (1, 2))


def _measure(system, mode, batch, seq_len, warmup_steps, n_steps):
    system.symmetry = mode
    result = system.measure(batch, seq_len, n_steps=n_steps, warmup_steps=warmup_steps)
    return result, system.last_system


def _busy_by_channel(system_model) -> dict[str, float]:
    channels = {channel.name: channel for channel in system_model.sim.channels}
    assert len(channels) == len(system_model.sim.channels), "channel names collide"
    return {name: channel.busy_seconds for name, channel in channels.items()}


def assert_folded_matches_full(build, batch, seq_len, warmup_steps=1, n_steps=2):
    """Measure ``build()`` on both paths and compare every output."""
    full, full_system = _measure(build(), "full", batch, seq_len, warmup_steps, n_steps)
    folded, folded_system = _measure(build(), "auto", batch, seq_len, warmup_steps, n_steps)
    assert folded.oom == full.oom
    assert folded.effective_batch == full.effective_batch
    if full.oom:
        assert folded == full
        return
    step = full.step_seconds
    assert folded.step_seconds == pytest.approx(step, rel=REL, abs=0.0)
    assert folded.tokens_per_second == pytest.approx(full.tokens_per_second, rel=REL, abs=0.0)
    assert folded.prefill_seconds == full.prefill_seconds
    assert set(folded.breakdown.seconds) == set(full.breakdown.seconds)
    for phase, seconds in full.breakdown.seconds.items():
        assert folded.breakdown.seconds[phase] == pytest.approx(seconds, rel=0.0, abs=REL * step)
    assert folded.utilization.gpu == pytest.approx(full.utilization.gpu, rel=0.0, abs=REL)
    assert folded.utilization.cpu == pytest.approx(full.utilization.cpu, rel=0.0, abs=REL)
    assert folded.utilization.dram_capacity == full.utilization.dram_capacity
    full_busy = _busy_by_channel(full_system)
    for name, busy in _busy_by_channel(folded_system).items():
        assert busy == pytest.approx(full_busy[name], rel=0.0, abs=REL * step), name
    for field in ("storage_logical_written", "storage_physical_written"):
        assert getattr(folded, field) == pytest.approx(
            getattr(full, field), rel=REL, abs=0.0
        ), field
    full_counters = full_system.storage_counters()
    folded_counters = folded_system.storage_counters()
    for field in ("logical_read", "logical_written", "physical_written"):
        assert getattr(folded_counters, field) == pytest.approx(
            getattr(full_counters, field), rel=REL, abs=0.0
        ), field


def _covering_cases():
    """Every system x model x grid point, cycling through the step settings
    so each (system, model) pair and each (system, point) pair meets all
    four of them."""
    for (s, system), (m, model), (p, point) in itertools.product(
        enumerate(SYSTEMS), enumerate(MODELS), enumerate(GRID)
    ):
        warmup, steps = STEPS[(s + m + p) % len(STEPS)]
        yield pytest.param(
            system, model, *point, warmup, steps,
            id=f"{system}-{model}-{point[0]}x{point[1]}-w{warmup}n{steps}",
        )


class TestFoldedMatchesFull:
    @pytest.mark.parametrize(
        "label, model, batch, seq_len, warmup_steps, n_steps", list(_covering_cases())
    )
    def test_registry_grid(self, label, model, batch, seq_len, warmup_steps, n_steps):
        assert_folded_matches_full(
            lambda: build_inference_system(label, get_model(model)),
            batch, seq_len, warmup_steps, n_steps,
        )

    @settings(max_examples=12, deadline=None)
    @given(
        label=st.sampled_from(SYSTEMS),
        model=st.sampled_from(MODELS),
        point=st.sampled_from(GRID),
        steps=st.sampled_from(STEPS),
    )
    def test_sampled_cross_product(self, label, model, point, steps):
        assert_folded_matches_full(
            lambda: build_inference_system(label, get_model(model)), *point, *steps
        )

    @pytest.mark.parametrize("model, batch, seq_len", FAST_POINTS)
    @pytest.mark.parametrize(
        "label, config", ABLATIONS, ids=[label for label, _ in ABLATIONS]
    )
    def test_fig15_ablations(self, label, config, model, batch, seq_len):
        assert_folded_matches_full(
            lambda: HilosSystem(get_model(model), config), batch, seq_len
        )

    @pytest.mark.parametrize("model, batch, seq_len", FAST_POINTS)
    def test_fig15_straggler(self, model, batch, seq_len):
        """The asymmetric array keeps every device but still folds layers."""
        build = lambda: HilosSystem(  # noqa: E731
            get_model(model), HilosConfig(n_devices=16), hardware=_degraded_hardware()
        )
        assert_folded_matches_full(build, batch, seq_len)


def _transfers(sim, shared, fifo, start, finished, snapshot_at=()):
    """Three shared-channel flows and a FIFO job issued at ``start``; the
    sizes are awkward floats, so splitting a clock advance shows in the
    last bits."""
    snapshots = []

    def job():
        yield sim.timeout(start - sim.now)
        done = [
            shared.request(10.1, "a"),
            shared.request(25.3, "b"),
            shared.request(3.7, "b"),
            fifo.request(7.0, "c"),
        ]
        for event in done:
            event.add_callback(lambda event: finished.append((event.name, sim.now)))
        yield sim.all_of(done)

    process = sim.process(job())
    for at in snapshot_at:
        sim.run(until=at)
        snapshots.append(sim.relative_state())
    sim.run(process)
    return snapshots


class TestRelativeState:
    def test_a_time_shifted_repeat_compares_equal(self):
        sim = Simulator()
        shared = Channel(sim, 7.3, name="link")
        fifo = Channel(sim, 5.0, name="engine", discipline="fifo")
        finished: list = []
        (first,) = _transfers(sim, shared, fifo, 0.0, finished, snapshot_at=(1.2,))
        (second,) = _transfers(sim, shared, fifo, 40.0, finished, snapshot_at=(41.2,))
        assert first[0] == second[0]
        assert second[1] == pytest.approx(first[1], rel=0.0, abs=1e-12)
        # Later into the same work: the same kinds, less of it left.
        (later,) = _transfers(sim, shared, fifo, 80.0, finished, snapshot_at=(81.3,))
        assert later[0] == first[0]
        assert later[1] != pytest.approx(first[1])

    def test_reading_the_state_changes_nothing(self):
        """Snapshots read the virtual clocks without advancing them, so the
        run is bit-identical with or without them."""
        runs = []
        for snapshot_at in ((), (0.3, 0.7, 1.1, 1.9, 2.9)):
            sim = Simulator()
            shared = Channel(sim, 7.3, name="link")
            fifo = Channel(sim, 5.0, name="engine", discipline="fifo")
            finished: list = []
            _transfers(sim, shared, fifo, 0.0, finished, snapshot_at)
            runs.append((finished, shared.busy_seconds, fifo.busy_seconds))
        assert runs[0] == runs[1]


class TestFoldingHappens:
    def test_flex_dram_mixtral_skips_most_events(self):
        system = build_inference_system("FLEX(DRAM)", get_model("Mixtral-8x7B"))
        system.measure(16, 32768)
        assert system.last_system.sim.events_processed <= 200
        system.symmetry = "full"
        system.measure(16, 32768)
        assert system.last_system.sim.events_processed >= 700

    def test_aperiodic_point_is_exactly_the_unfolded_result(self):
        """HILOS-8 OPT-66B at (16, 4096): the weight streamer's in-flight
        load drifts against the step, so no boundary repeats and the
        result is the one recorded before layer folding, bit for bit."""
        system = build_inference_system("HILOS (8 SmartSSDs)", get_model("OPT-66B"))
        result = system.measure(16, 4096)
        assert system.last_system.sim.events_processed == 5784
        assert result.step_seconds == 8.579830702508097
        assert result.tokens_per_second == 1.864838661131484
        assert result.breakdown.seconds == {
            "host_compute": 2.693130304077032,
            "load_kv": 14.510874623999825,
            "load_weight": 16.30745395199994,
            "store_kv": 4.905357455360054,
        }
        assert result.utilization.gpu == 0.1455150161958902
        assert result.utilization.cpu == 5.4996329921211024e-05


#: ``symmetry="full"`` results recorded before layer folding existed:
#: (system, model, batch, context, step seconds, breakdown, GPU and CPU
#: utilisation, physical bytes written per step).
PINNED_FULL = [
    (
        "HILOS (8 SmartSSDs)", "OPT-66B", 16, 4096, 8.579830702508097,
        {
            "host_compute": 2.693130304077032,
            "load_kv": 14.510874623999825,
            "load_weight": 16.30745395199994,
            "store_kv": 4.905357455360054,
        },
        0.1455150161958902, 5.4996329921211024e-05, 0.0,
    ),
    (
        "FLEX(SSD)", "OPT-175B", 4, 8192, 77.34223994762868,
        {
            "host_compute": 5.713273216576681,
            "load_kv": 95.15004471138423,
            "load_weight": 154.6188226559994,
            "store_kv": 0.013821752192143322,
        },
        0.0036158279211658804, 0.033319184695777666, 18874368.0,
    ),
    (
        "DS+UVM(DRAM)", "OPT-66B", 16, 32768, 39.27229004059144,
        {
            "host_compute": 0.4583254891825206,
            "load_kv": 77.31325132800004,
            "load_weight": 16.307453952000287,
            "store_kv": 0.006199295999977039,
        },
        0.005835227442922223, 0.0, 0.0,
    ),
    (
        "HILOS (16 SmartSSDs)", "GLaM-143B", 8, 16384, 17.81910510296251,
        {
            "host_compute": 0.455875889773278,
            "load_kv": 5.3821756540707,
            "load_weight": 35.43643040000007,
            "store_kv": 2.4461400908800215,
        },
        0.012787849810820913, 3.9230402603251365e-06, 0.0,
    ),
]


class TestReferencePathPinned:
    @pytest.mark.parametrize(
        "label, model, batch, seq_len, step, breakdown, gpu, cpu, physical",
        PINNED_FULL,
        ids=[f"{case[0]}-{case[1]}" for case in PINNED_FULL],
    )
    def test_full_path_is_bit_identical(
        self, label, model, batch, seq_len, step, breakdown, gpu, cpu, physical
    ):
        system = build_inference_system(label, get_model(model))
        system.symmetry = "full"
        result = system.measure(batch, seq_len)
        assert result.step_seconds == step
        assert result.breakdown.seconds == breakdown
        assert result.utilization.gpu == gpu
        assert result.utilization.cpu == cpu
        assert result.storage_physical_written == physical
