"""measure() monotonicity over the registry systems.

The serving surrogate (:class:`~repro.serving.steptime.CalibratedStepTime`)
caches the *billed* step of each calibration grid cell: ``step_seconds x
batch / effective_batch``, so a placement-clamped batch is time-sliced
into sub-batches at the feasible size.  The raw ``step_seconds`` is not
monotone -- DS+UVM(DRAM) on OPT-66B at batch 16 reads 39.2805 s at
context 4,096 and 39.2735 s at 16,384, as the effective batch falls from
16 to 4 -- so every property here is on the billed step.

A seeded sample of grid cells checks that the billed step never falls
when the batch or the context grows to the next grid point (bilinear
interpolation keeps that property between the cells), and a seeded
sample of arbitrary shapes checks that more SmartSSDs never slow a HILOS
step.  Off the grid the billed step is not monotone (HILOS's X-cache
ratio steps), so no property here draws arbitrary batches or contexts
for one system; the one off-grid shape pinned here is the DRAM placement
clamp's former inversion.
"""

from __future__ import annotations

import random

from repro.baselines.registry import SYSTEM_BUILDERS, build_inference_system
from repro.models import get_model
from repro.serving.steptime import (
    DEFAULT_BATCH_GRID,
    DEFAULT_SEQ_GRID,
    CalibratedStepTime,
)

MODELS = ("OPT-30B", "OPT-66B")
SEED = 2026

#: Grid cells drawn per (system, model); each is compared with its next
#: batch and its next context grid point.
CELLS_PER_SYSTEM = 5

#: Arbitrary (batch, context) shapes drawn per model for the SmartSSD
#: count property.
SHAPES_PER_MODEL = 6


class BilledSteps:
    """Memoised billed steps of one system (``None`` for an OOM shape)."""

    def __init__(self, label: str, model_name: str) -> None:
        self.system = build_inference_system(label, get_model(model_name))
        self._seconds: dict[tuple[int, int], float | None] = {}

    def __call__(self, batch: int, seq_len: int) -> float | None:
        key = (batch, seq_len)
        if key not in self._seconds:
            result = self.system.measure(
                batch,
                seq_len,
                n_steps=CalibratedStepTime.n_steps,
                warmup_steps=CalibratedStepTime.warmup_steps,
            )
            self._seconds[key] = (
                None
                if result.oom
                else result.step_seconds * batch / result.effective_batch
            )
        return self._seconds[key]


def _grid_pairs():
    """Seeded (system, model, cell, next cell) pairs along both grid axes."""
    rng = random.Random(SEED)
    batches, contexts = DEFAULT_BATCH_GRID, DEFAULT_SEQ_GRID
    cells = [(b, s) for b in range(len(batches)) for s in range(len(contexts))]
    for model_name in MODELS:
        for label in SYSTEM_BUILDERS:
            for b, s in rng.sample(cells, CELLS_PER_SYSTEM):
                low = (batches[b], contexts[s])
                if b + 1 < len(batches):
                    yield label, model_name, low, (batches[b + 1], contexts[s])
                if s + 1 < len(contexts):
                    yield label, model_name, low, (batches[b], contexts[s + 1])


def test_billed_step_grows_with_batch_and_context_on_the_grid():
    steps = {}
    compared = 0
    for label, model_name, low, high in _grid_pairs():
        billed = steps.setdefault(
            (label, model_name), BilledSteps(label, model_name)
        )
        before, after = billed(*low), billed(*high)
        if before is None or after is None:
            continue  # an OOM shape has no step to compare
        compared += 1
        assert after >= before, (
            f"{label} {model_name}: billed step falls from {before!r} s at "
            f"(batch, context) {low} to {after!r} s at {high}"
        )
    assert compared >= 60  # OOM skips must not empty the sample


def test_more_smartssds_never_slow_a_step():
    rng = random.Random(SEED)
    for model_name in MODELS:
        hilos = [
            BilledSteps(f"HILOS ({n} SmartSSDs)", model_name) for n in (4, 8, 16)
        ]
        for _ in range(SHAPES_PER_MODEL):
            shape = rng.randint(1, 32), rng.randint(256, 16384)
            seconds = [billed(*shape) for billed in hilos]
            assert None not in seconds, f"HILOS OOM at {shape}"
            assert seconds == sorted(seconds, reverse=True), (
                f"{model_name} at (batch, context) {shape}: HILOS 4/8/16 "
                f"billed steps {seconds}"
            )


def test_dram_clamp_bills_batch_seven_no_dearer_than_eight():
    """FLEX(DRAM), OPT-66B at context 13,010 holds batch 4 but not 7 or 8.
    Batch 7 runs at the power of two below it, 4, and bills 7/4 of that
    step, no more than batch 8 does at 8/4.  (Halving 7 to 3 billed
    19.092 s against 16.381 s at batch 8.)"""
    billed = BilledSteps("FLEX(DRAM)", "OPT-66B")
    seven, eight = billed(7, 13010), billed(8, 13010)
    assert seven is not None and eight is not None
    assert seven <= eight
