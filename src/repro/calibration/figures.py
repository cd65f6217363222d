"""The one cache of measured cells: every simulated ``measure()`` point.

Every figure the repository regenerates (Figs. 2, 4 and 10-17), the kvtiers
sweep's reference point and the serving step-time grids rest on
single-shape ``measure()`` points.  :class:`FigurePointCache` is the one
route to such a point: ``measure(batch, seq_len)`` returns the
:class:`~repro.baselines.base.MeasuredResult` that
``system.measure(batch, seq_len, n_steps=1, warmup_steps=0)`` returns,
equal field for field, while simulating each point at most once ever per
:class:`~repro.calibration.CalibrationStore` directory.

A cell's identity is its system and the step recipe
(:func:`~repro.calibration.system_fingerprint`), not the grid or harness
that reads it, so a point any harness measured serves every other harness
and every serving grid that reads it: through the store's process-wide
memory layer and, across processes, its disk files.  A cell holds what the
simulation produced -- the step, the phase breakdown, the host utilization
and the per-step storage bytes written; the rest of the result follows
from the point and the system's analytic models.  Prefill latency is one
of them: the analytic prefill model is a pure function of the shape
(``tests/core/test_runtime.py::TestPrefillHistoryIndependence``), so it is
computed, memoized per cache, and never stored.

Measurements take one step and no warm-up: the event-level simulators are
deterministic and reach steady state on the first decode step (warm-up
moves step times only at the 1e-14 relative level), so the redundant
warm-up simulation would double every cold run's cost for nothing.

A point the placement cannot hold at all (effective batch 0) is detected
analytically and never simulated; a placement-level OOM (staging buffers
outgrow DRAM) is reported as ``measure()`` reports it and never stored.
"""

from __future__ import annotations

from repro.baselines.base import MeasuredResult
from repro.calibration.fingerprint import fingerprint_payload, system_fingerprint
from repro.calibration.store import CalibrationStore
from repro.sim.metrics import Breakdown, UtilizationSample


class FigurePointCache:
    """``measure()`` for one system, simulating each point once ever.

    With a ``store``, cells are shared through it under :attr:`fingerprint`
    (the system and the class's step recipe, no grid); without one, this
    instance is the whole cache.  A changed system, recipe or library
    version re-measures from scratch.
    """

    #: ``measure()`` step counts of every cell, part of the fingerprint
    #: (see the module docstring for why there is no warm-up).
    n_steps = 1
    warmup_steps = 0

    def __init__(self, system, store: CalibrationStore | None = None) -> None:
        self.system = system
        self.store = store
        #: Full-simulator ``measure()`` runs performed by this instance
        #: (store hits do not count); zero on a warm re-run.
        self.measurement_count = 0
        self._cells: dict[tuple[int, int], dict] = {}
        self._served: set[tuple[int, int]] = set()
        self._prefill: dict[tuple[int, int], float] = {}
        self._fingerprint: str | None = None

    @property
    def fingerprint(self) -> str:
        """Deterministic identity of this system's cells."""
        if self._fingerprint is None:
            self._fingerprint = system_fingerprint(
                self.system, n_steps=self.n_steps, warmup_steps=self.warmup_steps
            )
        return self._fingerprint

    def prewarm(self) -> int:
        """Hydrate from the store; returns the number of cells now held."""
        if self.store is not None:
            self._cells.update(self.store.load_cells(self.fingerprint))
        return len(self._cells)

    @property
    def cached_points(self) -> int:
        """Number of points this cache has served from a cell."""
        return len(self._served)

    def cell(self, batch: int, seq_len: int) -> dict | None:
        """The stored cell of one point, or ``None``; never simulates.

        A local miss re-reads the store's memory layer first: another cache
        of this system may have recorded the point since this one looked.
        """
        key = (batch, seq_len)
        if key not in self._cells:
            self.prewarm()
        return self._cells.get(key)

    def install(self, batch: int, seq_len: int, cell: dict) -> None:
        """Hold a measured cell and record it with a deferred store flush."""
        self._cells[(batch, seq_len)] = cell
        if self.store is not None:
            self.store.record(
                self.fingerprint,
                {(batch, seq_len): cell},
                description=fingerprint_payload(
                    self.system, self.n_steps, self.warmup_steps
                ),
                flush=False,
            )

    def prefill_seconds(self, batch: int, seq_len: int) -> float:
        """The system's analytic prefill latency, memoized."""
        key = (batch, seq_len)
        seconds = self._prefill.get(key)
        if seconds is None:
            seconds = self._prefill[key] = self.system.prefill_seconds(batch, seq_len)
        return seconds

    def measure(self, batch: int, seq_len: int) -> MeasuredResult:
        """One point's measurement, from its cell when one is held."""
        system = self.system
        effective = system.effective_batch(batch, seq_len)
        if effective == 0:
            return MeasuredResult.out_of_memory(
                system.name, system.model.name, batch, seq_len, note="CPU OOM"
            )
        cell = self.cell(batch, seq_len)
        if cell is None:
            result = system.measure(
                batch, seq_len, n_steps=self.n_steps, warmup_steps=self.warmup_steps
            )
            self.measurement_count += 1
            if result.oom:
                # Placement-level OOM: cheap to re-derive, so never stored.
                return result
            cell = {
                "step_seconds": result.step_seconds,
                "breakdown_seconds": dict(result.breakdown.seconds),
                "utilization": result.utilization.as_dict(),
                "storage_logical_written": result.storage_logical_written,
                "storage_physical_written": result.storage_physical_written,
            }
            self.install(batch, seq_len, cell)
        self._served.add((batch, seq_len))
        step = cell["step_seconds"]
        return MeasuredResult(
            system=system.name,
            model=system.model.name,
            requested_batch=batch,
            effective_batch=effective,
            seq_len=seq_len,
            step_seconds=step,
            tokens_per_second=effective / step,
            prefill_seconds=self.prefill_seconds(effective, seq_len),
            breakdown=Breakdown(seconds=dict(cell["breakdown_seconds"])),
            utilization=UtilizationSample(**cell["utilization"]),
            storage_logical_written=cell["storage_logical_written"],
            storage_physical_written=cell["storage_physical_written"],
        )

    def flush(self) -> None:
        """Persist any deferred store writes (sweep boundaries)."""
        if self.store is not None:
            self.store.flush_dirty()
