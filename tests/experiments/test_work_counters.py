"""Exact work of the fast figure sweep: ``measure()`` calls and DES events.

Wall time on a shared host is noisy; how many full-simulator measurements
each experiment makes from an empty store, and how many simulator events
they process, is not.  The sweep runs every experiment the runner offers
except ``serving`` (the ``figures-cold`` benchmark operation) in runner
order against one fresh store.  Every simulated point reads through
:class:`FigurePointCache`, so a cell one experiment measured serves the
later ones, and a second sweep over the warmed store simulates nothing.
A change that adds or saves work changes this table, and the pin names
it: a measurement recipe that regains a warm-up step shows in the events
column even where the call count stays.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.base import InferenceSystem
from repro.baselines.vllm import MultiNodeVLLM
from repro.calibration import CalibrationStore, system_fingerprint
from repro.calibration.store import clear_memory_layer
from repro.experiments import runner
from repro.sim.engine import Simulator

#: (``measure()`` calls, simulator events) per experiment, runner order,
#: empty store, default seeds.  Totals: 72 calls -- 71 simulated points and
#: fig17's analytic vLLM baseline -- and 49,785 events.  The events of
#: estimator, kvtiers and fig17's fleet row are drains and estimates, not
#: ``measure()`` runs.
EXPECTED_WORK = {
    "fig2": (6, 7533),
    "fig4": (4, 1152),
    "fig10": (14, 5788),
    "fig11": (8, 6284),
    "fig12": (9, 3038),
    "fig13": (6, 3712),
    "fig14": (1, 898),
    "fig15": (9, 8815),
    "fig16": (5, 3620),
    "fig17": (9, 8126),
    "fig18": (0, 0),
    "table3": (0, 0),
    "estimator": (0, 48),
    "future-csd": (1, 576),
    "kvtiers": (0, 195),
}

#: The warm sweep's work: only fig17's analytic vLLM call, and no
#: ``measure()`` simulation anywhere.
WARM_CALLS = {"fig17": 1}


@pytest.fixture
def fresh_memory_layer():
    clear_memory_layer()
    yield
    clear_memory_layer()


def test_fast_sweep_measures_each_cell_once(tmp_path, monkeypatch, fresh_memory_layer):
    counts: Counter[str] = Counter()
    events: Counter[str] = Counter()
    simulated: Counter[tuple[str, int, int]] = Counter()
    current = [""]
    measure = InferenceSystem.measure

    def simulating(self, batch, seq_len, *args, **kwargs):
        counts[current[0]] += 1
        simulated[(system_fingerprint(self), batch, seq_len)] += 1
        return measure(self, batch, seq_len, *args, **kwargs)

    vllm_measure = MultiNodeVLLM.measure

    def analytic(self, *args, **kwargs):
        counts[current[0]] += 1
        return vllm_measure(self, *args, **kwargs)

    simulator_run = Simulator.run

    def run_counting_events(sim, *args, **kwargs):
        before = sim.events_processed
        try:
            return simulator_run(sim, *args, **kwargs)
        finally:
            events[current[0]] += sim.events_processed - before

    monkeypatch.setattr(InferenceSystem, "measure", simulating)
    monkeypatch.setattr(MultiNodeVLLM, "measure", analytic)
    monkeypatch.setattr(Simulator, "run", run_counting_events)

    names = [name for name in runner.EXPERIMENTS if name != "serving"]

    def sweep() -> dict[str, tuple[int, int]]:
        counts.clear()
        events.clear()
        store = CalibrationStore(tmp_path / "store")
        for name in names:
            module = runner.EXPERIMENTS[name]
            current[0] = name
            module.run(fast=True, **runner._supported_kwargs(module, {"store": store}))
        return {name: (counts[name], events[name]) for name in names}

    work = sweep()
    table = "\n".join(
        f"  {name:<12} {calls:>3} calls {n_events:>6} events"
        f"  (pinned {EXPECTED_WORK.get(name)})"
        for name, (calls, n_events) in work.items()
    )
    assert work == EXPECTED_WORK, f"work per experiment changed:\n{table}"
    twice = sorted(point for point, n in simulated.items() if n > 1)
    assert not twice, f"points simulated more than once: {twice}"
    assert len(simulated) == 71

    clear_memory_layer()  # a second process: only the disk store is warm
    simulated.clear()
    warm = sweep()
    assert not simulated, f"a warm sweep simulated {sorted(simulated)}"
    assert {name: calls for name, (calls, _) in warm.items() if calls} == WARM_CALLS
