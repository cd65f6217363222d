"""Fingerprinted caching for the figure harnesses' fixed measurement points.

The figure experiments (fig10's throughput comparison, fig11's batch
sensitivity) measure a small fixed set of ``(batch, seq_len)`` points per
system -- unlike the serving path they also need the per-phase *breakdown*
stacks for the paper's percentage charts, so they cannot reuse
:class:`~repro.serving.steptime.CalibratedStepTime` directly.

:class:`FigurePointCache` gives them the same once-ever measurement
guarantee: each point's steady-state step time and phase breakdown are
persisted to a :class:`~repro.calibration.CalibrationStore` under the same
deterministic fingerprint scheme the serving grids use.  A warm store makes
figure re-runs measurement-free; tokens/sec and OOM verdicts are
reconstructed from the cached cells plus the (analytic, cheap) effective
batch computation.

Measurements take one step and no warm-up, matching the serving
calibration pipeline: the event-level simulators are deterministic and
reach steady state on the first decode step (warm-up moves step times only
at the 1e-14 relative level), so the redundant warm-up simulation would
double every cold run's cost for nothing.
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
    """measure()-compatible caching for a system's fixed figure points.

    Parameters mirror :class:`~repro.serving.steptime.CalibratedStepTime`:
    the (batch, seq) grids plus the class's step counts define the
    fingerprint, so two runs of the same harness hit the same store file
    while a changed sweep (or library version) re-measures from scratch.
    Unlike the interpolating serving model this cache only ever serves
    exact grid points -- figure harnesses measure the points they plot.
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
        self._hydrated = store is None

    #: Figure points persist the *raw* steady-state step time (tokens/s is
    #: effective_batch / step), unlike the serving grids, which bill
    #: clamped batches at a scaled step; distinct fingerprint semantics
    #: keep the two cell meanings from ever colliding on one store file.
    #: The prefill suffix marks cells whose prefill sibling is recorded in
    #: the same measurement (fig14's split needs both halves coherent).
    SEMANTICS = "raw-step+prefill+breakdown"

    @property
    def fingerprint(self) -> str:
        """Deterministic identity of this (system, point grid) combination."""
        if self._fingerprint is None:
            self._fingerprint = system_fingerprint(
                self.system,
                self.batch_grid,
                self.seq_grid,
                n_steps=self.n_steps,
                warmup_steps=self.warmup_steps,
                semantics=self.SEMANTICS,
            )
        return self._fingerprint

    def prewarm(self) -> int:
        """Hydrate the point cache from the store; returns cells now cached."""
        if self.store is not None:
            self._step.update(self.store.load_step_grid(self.fingerprint))
            self._prefill.update(self.store.load_prefill_grid(self.fingerprint))
            self._breakdown.update(self.store.load_breakdown_grid(self.fingerprint))
        self._hydrated = True
        return len(self._step)

    @property
    def cached_points(self) -> int:
        """Number of points currently cached (measured or store-loaded)."""
        return len(self._step)

    def measure(self, batch: int, seq_len: int) -> FigurePoint:
        """The measurement for one grid point, from cache when possible.

        OOM points are detected analytically (capacity planning needs no
        simulation) and never stored; everything else is measured once ever
        per store directory.
        """
        if batch not in self.batch_grid or seq_len not in self.seq_grid:
            raise ConfigurationError(
                f"point ({batch}, {seq_len}) is outside this cache's grid; "
                "figure caches serve exact grid points only"
            )
        if not self._hydrated:
            self.prewarm()
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
        key = (batch, seq_len)
        if key not in self._step or key not in self._prefill:
            # Defensive guard: record() always writes a key's step and
            # prefill cells together, but a hand-edited or truncated store
            # file could hydrate one without the other -- treat that as a
            # miss so both halves come from one coherent measurement
            # (prefill reads measure()-mutated state).
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
                        self.batch_grid,
                        self.seq_grid,
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
