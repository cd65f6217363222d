"""Fingerprinted caching for the figure harnesses' measurement points.

The figure experiments (fig10's throughput comparison, fig11's batch
sensitivity, fig13-15's sweeps, the kvtiers sweep's tier anchors) measure a
small fixed set of ``(batch, seq_len)`` points per system -- unlike the
serving path they also need the per-phase *breakdown* stacks for the
paper's percentage charts, so they cannot reuse
:class:`~repro.serving.steptime.CalibratedStepTime` directly.

:class:`FigurePointCache` gives them the same once-ever measurement
guarantee: each point's steady-state step time, prefill latency and phase
breakdown are persisted to a :class:`~repro.calibration.CalibrationStore`.
A figure cell's identity is its system, the measurement recipe and the
cell semantics -- not the grid the harness declares around it -- so a
point that any harness measured serves every other harness that plots it,
through the store's process-wide memory layer and, across processes, its
disk files.  The declared grid stays the harness's point set: it bounds
which points the cache serves and what :attr:`~FigurePointCache.cached_points`
counts.  A warm store makes these harnesses measurement-free; tokens/sec
and OOM verdicts are reconstructed from the cached cells plus the
(analytic, cheap) effective batch computation.

Measurements take one step and no warm-up, matching the serving
calibration pipeline: the event-level simulators are deterministic and
reach steady state on the first decode step (warm-up moves step times only
at the 1e-14 relative level), so the redundant warm-up simulation would
double every cold run's cost for nothing.  Harnesses that measure outside
a cache (fig4(c) and fig17(a) read utilization, which cells do not store)
call :func:`measure_direct`, which measures with the same recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calibration.fingerprint import fingerprint_payload, system_fingerprint
from repro.calibration.store import CalibrationStore
from repro.errors import ConfigurationError
from repro.sim.metrics import Breakdown


@dataclass(frozen=True)
class FigurePoint:
    """One cached (or freshly measured) figure measurement point."""

    batch: int
    seq_len: int
    effective_batch: int
    step_seconds: float
    #: Prefill latency captured at measurement time (fig14's split); cached
    #: alongside the step time because the analytic prefill model can read
    #: state ``measure()`` mutates (e.g. HILOS's selected alpha).
    prefill_seconds: float = 0.0
    breakdown: Breakdown = field(default_factory=Breakdown)
    oom: bool = False
    note: str = ""

    @property
    def tokens_per_second(self) -> float:
        """Steady-state decode throughput (0 for OOM points)."""
        if self.oom or self.step_seconds <= 0 or self.step_seconds == float("inf"):
            return 0.0
        return self.effective_batch / self.step_seconds


class FigurePointCache:
    """measure()-compatible caching for a system's figure points.

    ``batch_grid`` x ``seq_grid`` is the harness's declared point set: the
    cache serves exactly those points and counts only those in
    :attr:`cached_points`.  The store identity (:attr:`fingerprint`) is
    the system, the class's step recipe and :attr:`SEMANTICS` -- no grid --
    so every harness plotting the same system shares its measured cells,
    while a changed system, recipe or library version re-measures from
    scratch.  Unlike the interpolating serving model this cache only ever
    serves exact points -- figure harnesses measure the points they plot.
    """

    #: ``measure()`` step counts of every point, part of the fingerprint
    #: (see the module docstring for why there is no warm-up).
    n_steps = 1
    warmup_steps = 0

    def __init__(
        self,
        system,
        batch_grid: tuple[int, ...],
        seq_grid: tuple[int, ...],
        store: CalibrationStore | None = None,
    ) -> None:
        if not batch_grid or not seq_grid:
            raise ConfigurationError("figure grids must be non-empty")
        self.system = system
        self.batch_grid = tuple(sorted(set(batch_grid)))
        self.seq_grid = tuple(sorted(set(seq_grid)))
        self.store = store
        #: Full-simulator ``measure()`` runs performed by this instance
        #: (store hits do not count); zero on a warm re-run.
        self.measurement_count = 0
        self._step: dict[tuple[int, int], float] = {}
        self._prefill: dict[tuple[int, int], float] = {}
        self._breakdown: dict[tuple[int, int], dict[str, float]] = {}
        self._fingerprint: str | None = None

    #: Figure points persist the *raw* steady-state step time (tokens/s is
    #: effective_batch / step), unlike the serving grids, which bill
    #: clamped batches at a scaled step; distinct fingerprint semantics
    #: keep the two cell meanings from ever colliding on one store file.
    #: The prefill suffix marks cells whose prefill sibling is recorded in
    #: the same measurement (fig14's split needs both halves coherent).
    SEMANTICS = "raw-step+prefill+breakdown"

    @property
    def fingerprint(self) -> str:
        """Deterministic identity of this system's figure cells."""
        if self._fingerprint is None:
            self._fingerprint = system_fingerprint(
                self.system,
                n_steps=self.n_steps,
                warmup_steps=self.warmup_steps,
                semantics=self.SEMANTICS,
            )
        return self._fingerprint

    def _in_grid(self, key: tuple[int, int]) -> bool:
        return key[0] in self.batch_grid and key[1] in self.seq_grid

    def prewarm(self) -> int:
        """Hydrate this grid's points from the store; returns points cached.

        The store entry holds every cell any harness measured for this
        system; only the declared grid's points are taken and counted.
        """
        if self.store is not None:
            fingerprint = self.fingerprint
            for local, grid in (
                (self._step, self.store.load_step_grid(fingerprint)),
                (self._prefill, self.store.load_prefill_grid(fingerprint)),
                (self._breakdown, self.store.load_breakdown_grid(fingerprint)),
            ):
                local.update(
                    (key, value) for key, value in grid.items() if self._in_grid(key)
                )
        return len(self._step)

    @property
    def cached_points(self) -> int:
        """Number of grid points currently cached (measured or store-loaded)."""
        return len(self._step)

    def _cached(self, key: tuple[int, int]) -> bool:
        # record() always writes a key's step and prefill cells together,
        # but a hand-edited or truncated store file could hydrate one
        # without the other -- treat that as a miss so both halves come
        # from one coherent measurement (prefill reads measure()-mutated
        # state).
        return key in self._step and key in self._prefill

    def measure(self, batch: int, seq_len: int) -> FigurePoint:
        """The measurement for one grid point, from cache when possible.

        OOM points are detected analytically (capacity planning needs no
        simulation) and never stored; everything else is measured once ever
        per store directory.
        """
        key = (batch, seq_len)
        if not self._in_grid(key):
            raise ConfigurationError(
                f"point ({batch}, {seq_len}) is outside this cache's grid; "
                "figure caches serve exact grid points only"
            )
        effective = self.system.effective_batch(batch, seq_len)
        if effective == 0:
            return FigurePoint(
                batch=batch,
                seq_len=seq_len,
                effective_batch=0,
                step_seconds=float("inf"),
                oom=True,
                note="CPU OOM",
            )
        if not self._cached(key):
            # Another cache of this system may have recorded the point
            # since this one last looked: the store's memory layer serves it.
            self.prewarm()
        if not self._cached(key):
            result = self.system.measure(
                batch, seq_len, n_steps=self.n_steps, warmup_steps=self.warmup_steps
            )
            self.measurement_count += 1
            if result.oom:
                # Placement-level OOM (e.g. staging buffers outgrow DRAM):
                # cheap to re-derive, so report without caching.
                return FigurePoint(
                    batch=batch,
                    seq_len=seq_len,
                    effective_batch=0,
                    step_seconds=float("inf"),
                    prefill_seconds=float("inf"),
                    oom=True,
                    note=result.note,
                )
            self._step[key] = result.step_seconds
            self._prefill[key] = result.prefill_seconds
            self._breakdown[key] = dict(result.breakdown.seconds)
            if self.store is not None:
                self.store.record(
                    self.fingerprint,
                    description=fingerprint_payload(
                        self.system,
                        None,
                        None,
                        self.n_steps,
                        self.warmup_steps,
                        semantics=self.SEMANTICS,
                    ),
                    step_cells={key: self._step[key]},
                    prefill_cells={key: self._prefill[key]},
                    breakdown_cells={key: self._breakdown[key]},
                    flush=False,
                )
        return FigurePoint(
            batch=batch,
            seq_len=seq_len,
            effective_batch=effective,
            step_seconds=self._step[key],
            prefill_seconds=self._prefill[key],
            breakdown=Breakdown(seconds=dict(self._breakdown.get(key, {}))),
        )

    def flush(self) -> None:
        """Persist any deferred store writes (sweep boundaries)."""
        if self.store is not None:
            self.store.flush_dirty()


def measure_direct(system, batch: int, seq_len: int):
    """One uncached ``measure()`` with the figure-cell recipe.

    For harnesses that measure outside a :class:`FigurePointCache`: they
    take its step counts, so a direct and a cached read of one point agree.
    """
    return system.measure(
        batch,
        seq_len,
        n_steps=FigurePointCache.n_steps,
        warmup_steps=FigurePointCache.warmup_steps,
    )
