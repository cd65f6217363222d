"""Exact work of the fast figure sweep: ``measure()`` calls and DES events.

Wall time on a shared host is noisy; how many full-simulator measurements
each experiment makes from an empty store, and how many simulator events
they process, is not.  The sweep runs every experiment the runner offers
except ``serving`` (the ``figures-cold`` benchmark operation) in runner
order against one fresh store, so a cell one experiment measured through
:class:`FigurePointCache` serves the later ones.  A change that adds or
saves work changes this table, and the pin names it: a measurement
recipe that regains a warm-up step shows in the events column even where
the call count stays.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.base import InferenceSystem
from repro.baselines.vllm import MultiNodeVLLM
from repro.calibration import CalibrationStore
from repro.calibration.figures import FigurePointCache
from repro.calibration.store import clear_memory_layer
from repro.experiments import runner
from repro.sim.engine import Simulator

#: (``measure()`` calls, simulator events) per experiment, runner order,
#: empty store, default seeds.  Totals: 78 calls, 52,637 events.
EXPECTED_WORK = {
    "fig2": (6, 7533),
    "fig4": (4, 1152),
    "fig10": (14, 5788),
    "fig11": (8, 6284),
    "fig12": (9, 3038),
    "fig13": (6, 3712),
    "fig14": (2, 1154),
    "fig15": (10, 9039),
    "fig16": (5, 3620),
    "fig17": (11, 9280),
    "fig18": (0, 0),
    "table3": (0, 0),
    "estimator": (0, 48),
    "future-csd": (2, 1084),
    "kvtiers": (1, 905),
}


@pytest.fixture
def fresh_memory_layer():
    clear_memory_layer()
    yield
    clear_memory_layer()


def test_fast_sweep_measures_each_cell_once(tmp_path, monkeypatch, fresh_memory_layer):
    counts: Counter[str] = Counter()
    events: Counter[str] = Counter()
    cache_measured: Counter[tuple[str, int, int]] = Counter()
    current = [""]

    def counting(measure):
        def wrapper(self, *args, **kwargs):
            counts[current[0]] += 1
            return measure(self, *args, **kwargs)

        return wrapper

    simulator_run = Simulator.run

    def run_counting_events(sim, *args, **kwargs):
        before = sim.events_processed
        try:
            return simulator_run(sim, *args, **kwargs)
        finally:
            events[current[0]] += sim.events_processed - before

    cache_measure = FigurePointCache.measure

    def tracking(self, batch, seq_len):
        before = self.measurement_count
        point = cache_measure(self, batch, seq_len)
        if self.measurement_count != before:
            cache_measured[(self.fingerprint, batch, seq_len)] += 1
        return point

    monkeypatch.setattr(InferenceSystem, "measure", counting(InferenceSystem.measure))
    monkeypatch.setattr(MultiNodeVLLM, "measure", counting(MultiNodeVLLM.measure))
    monkeypatch.setattr(FigurePointCache, "measure", tracking)
    monkeypatch.setattr(Simulator, "run", run_counting_events)

    store = CalibrationStore(tmp_path / "store")
    names = [name for name in runner.EXPERIMENTS if name != "serving"]
    for name in names:
        module = runner.EXPERIMENTS[name]
        current[0] = name
        module.run(fast=True, **runner._supported_kwargs(module, {"store": store}))

    work = {name: (counts[name], events[name]) for name in names}
    table = "\n".join(
        f"  {name:<12} {calls:>3} calls {n_events:>6} events"
        f"  (pinned {EXPECTED_WORK.get(name)})"
        for name, (calls, n_events) in work.items()
    )
    assert work == EXPECTED_WORK, f"work per experiment changed:\n{table}"
    twice = sorted(cell for cell, n in cache_measured.items() if n > 1)
    assert not twice, f"figure cells measured more than once: {twice}"
