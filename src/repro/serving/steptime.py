"""Iteration-cost models feeding the serving discrete-event simulation.

Simulating every layer of every decode iteration of a multi-hundred-request
drain through the full :class:`~repro.sim.topology.SystemModel` would be
prohibitively slow (hundreds of thousands of per-layer events).  Instead the
serving scheduler treats one *batched decode iteration* as a single timed
event whose duration comes from a :class:`StepTimeModel`:

:class:`CalibratedStepTime`
    Lazily measures the wrapped
    :class:`~repro.baselines.base.InferenceSystem` on a small
    ``(batch, seq_len)`` grid via its full event-level ``measure()`` loop
    and bilinearly interpolates between grid points.  This is the
    Vidur-style split between a calibrated per-iteration latency model and
    a fast request-level simulation, with the paper's own simulator as the
    calibration source.  Its cells come from a
    :class:`~repro.calibration.FigurePointCache`, the one cache of measured
    points, so they are shared with the figure harnesses, across
    experiments and across processes through a
    :class:`~repro.calibration.CalibrationStore`.

:class:`AnalyticStepTime`
    A transparent affine model (fixed cost + per-context-token cost) used by
    unit tests and policy studies that need exactly predictable timings.

A run of iterations of one batch is priced through one series,
:meth:`StepTimeModel.step_series`: a coasting engine
(:mod:`repro.serving.engine`) pulls one element per iteration it skips.
Its values are the per-iteration queries' values; a calibrated model
brackets each grid cell and looks up its corners once for the run of
contexts inside it, instead of once per iteration.
"""

from __future__ import annotations

import abc
import bisect
import math
from typing import Iterable, Iterator

from repro.baselines.base import InferenceSystem
from repro.calibration import CalibrationStore
from repro.calibration.figures import FigurePointCache
from repro.errors import ConfigurationError, SchedulingError

#: Default calibration batch sizes (powers of two up to the paper's batch 32).
DEFAULT_BATCH_GRID = (1, 2, 4, 8, 16, 32)

#: Default calibration context lengths, spanning the Short prompt (256) to
#: well past the Long class's final context (8 542 tokens).
DEFAULT_SEQ_GRID = (256, 1024, 4096, 16384)


def parse_grid(spec: str, name: str = "grid") -> tuple[int, ...]:
    """Parse a comma-separated CLI grid spec (``"1,4,16"``) into a tuple."""
    try:
        values = tuple(int(token) for token in spec.split(",") if token.strip())
    except ValueError:
        raise ConfigurationError(f"{name}: expected comma-separated integers, got {spec!r}") from None
    if not values or any(v < 1 for v in values):
        raise ConfigurationError(f"{name}: grid values must be positive integers ({spec!r})")
    return values


class StepTimeModel(abc.ABC):
    """Cost model for one batched decode iteration and one prefill pass.

    Clamp accounting is part of the interface (not a ``CalibratedStepTime``
    private): the scheduler snapshots :meth:`clamp_counters` before a drain
    and embeds :meth:`grid_clamp_summary` in the report, so any custom
    model gets its off-grid warnings surfaced by overriding the two
    no-op defaults below -- no ``getattr`` probing involved.

    :meth:`step_series` prices successive iterations of one batch; the
    default asks :meth:`step_seconds` once per element, so a model needs
    to override it only to price a run faster, never to change a value.

    A model prices compute only.  KV a tier stack holds below its compute
    tier is re-read at that tier's bandwidth, which the node's tracker
    bills itself (:mod:`repro.serving.kvtiers`); the engine adds those
    seconds to the model's step.
    """

    @abc.abstractmethod
    def step_seconds(self, batch_size: int, seq_len: int) -> float:
        """Seconds for one decode iteration of ``batch_size`` requests whose
        (mean or padded) context length is ``seq_len``."""

    def step_series(
        self, batch_size: int, contexts: Iterable[int]
    ) -> Iterator[float]:
        """Seconds of successive decode iterations of ``batch_size``
        requests, one per element of ``contexts``, yielded lazily.

        Each element equals ``step_seconds(batch_size, context)`` and has
        that query's side effects (clamp counters, calibration
        measurements) when it is pulled, not before: a consumer that stops
        early has queried exactly the iterations it took.
        """
        step_seconds = self.step_seconds
        for seq_len in contexts:
            yield step_seconds(batch_size, seq_len)

    @abc.abstractmethod
    def prefill_seconds(self, batch_size: int, seq_len: int) -> float:
        """Seconds to prefill ``batch_size`` prompts of ``seq_len`` tokens."""

    def clamp_counters(self) -> dict:
        """Monotonic query/clamp counters for windowed (per-drain) accounting.

        Models without a bounded calibration domain have nothing to clamp;
        the default empty snapshot pairs with the default empty summary.
        """
        return {}

    def grid_clamp_summary(self, since: dict | None = None) -> dict:
        """Structured warning about queries outside the model's domain.

        ``since`` is an earlier :meth:`clamp_counters` snapshot windowing
        the counts to one drain.  The default reports nothing.
        """
        return {}

    def flush(self) -> None:
        """Persist any deferred calibration state (drain/sweep boundaries).

        Part of the interface so drain loops can call it unconditionally
        instead of ``getattr``-probing; models without a backing store
        have nothing to persist and inherit this no-op.
        """


class AnalyticStepTime(StepTimeModel):
    """Affine iteration cost: ``base + per_token * seq_len`` per iteration.

    The fixed ``base`` models weight streaming (independent of context), the
    per-token term models KV traffic; both match the shape the calibrated
    model exhibits and make test expectations computable by hand.
    """

    def __init__(
        self,
        base_seconds: float = 1.0,
        per_token_seconds: float = 1e-4,
        prefill_per_token_seconds: float = 1e-3,
    ) -> None:
        for value in (base_seconds, per_token_seconds, prefill_per_token_seconds):
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"step-time coefficients must be finite and non-negative "
                    f"(got {value!r})"
                )
        self.base_seconds = base_seconds
        self.per_token_seconds = per_token_seconds
        self.prefill_per_token_seconds = prefill_per_token_seconds

    def step_seconds(self, batch_size: int, seq_len: int) -> float:
        if batch_size < 1:
            raise SchedulingError("cannot step an empty batch")
        return self.base_seconds + self.per_token_seconds * seq_len

    def prefill_seconds(self, batch_size: int, seq_len: int) -> float:
        return self.prefill_per_token_seconds * seq_len


class CalibratedStepTime(StepTimeModel):
    """Step times interpolated from full-simulator measurements.

    Grid cells are read on demand, so a drain that only ever sees batches
    up to 16 and contexts up to 9K touches a handful of cells rather than
    the whole grid.  Queries outside the grid clamp to the nearest edge;
    clamping is tallied so reports can carry a structured warning instead
    of a log line.

    Cells come from :attr:`cells`, a
    :class:`~repro.calibration.FigurePointCache` over the system and
    ``store``: a point any figure or grid measured is never simulated again
    in the store's directory.  The first read of a grid cell bills it --
    ``step * batch / effective_batch``, see :meth:`_measure` -- into a
    per-instance memo, so every later query is a dict lookup.

    ``batch_grid`` / ``seq_grid`` of ``None`` select the default grids
    (:data:`DEFAULT_BATCH_GRID`, :data:`DEFAULT_SEQ_GRID`).
    """

    #: ``measure()`` step counts of every grid cell: the cell cache's recipe.
    n_steps = FigurePointCache.n_steps
    warmup_steps = FigurePointCache.warmup_steps

    def __init__(
        self,
        system: InferenceSystem,
        batch_grid: tuple[int, ...] | None = None,
        seq_grid: tuple[int, ...] | None = None,
        store: CalibrationStore | None = None,
    ) -> None:
        if batch_grid is None:
            batch_grid = DEFAULT_BATCH_GRID
        if seq_grid is None:
            seq_grid = DEFAULT_SEQ_GRID
        if not batch_grid or not seq_grid:
            raise ConfigurationError("calibration grids must be non-empty")
        self.system = system
        self.batch_grid = tuple(sorted(set(batch_grid)))
        self.seq_grid = tuple(sorted(set(seq_grid)))
        self.cells = FigurePointCache(system, store=store)
        #: Billed step time per grid cell read so far.
        self._cache: dict[tuple[int, int], float] = {}
        # Structured clamp accounting (satisfies "warn without logging").
        self._step_queries = 0
        self._clamped_queries = 0
        self._max_batch_seen = 0
        self._max_seq_seen = 0
        self._min_batch_seen: int | None = None
        self._min_seq_seen: int | None = None

    @property
    def measurement_count(self) -> int:
        """Full-simulator ``measure()`` runs this model's reads caused
        (cells the store already held do not count)."""
        return self.cells.measurement_count

    def prewarm(self) -> int:
        """Hydrate the cell cache from the store, measuring nothing; returns
        how many grid cells it holds (each is billed at its first read)."""
        return sum(
            self.cells.cell(batch, seq_len) is not None
            for batch in self.batch_grid
            for seq_len in self.seq_grid
        )

    # --- grid measurement -------------------------------------------------------

    def _measure(self, batch: int, seq_len: int) -> float:
        key = (batch, seq_len)
        step = self._cache.get(key)
        if step is None:
            result = self.cells.measure(batch, seq_len)
            if result.oom:
                raise SchedulingError(
                    f"{self.system.name} cannot decode batch {batch} at context "
                    f"{seq_len} ({result.note}); tighten the admission budget"
                )
            step = result.step_seconds
            if result.effective_batch < batch:
                # Placement clamped the batch (DRAM-resident KV systems halve
                # until resident state fits): serving `batch` concurrent
                # requests then means time-slicing sequential sub-batches at
                # the feasible size, not a single cheaper small-batch step.
                step *= batch / result.effective_batch
            self._cache[key] = step
        return step

    def flush(self) -> None:
        """Persist any deferred store writes (drain/sweep boundaries)."""
        self.cells.flush()

    @property
    def calibration_points(self) -> int:
        """Number of grid cells billed so far (measured or read from the store)."""
        return len(self._cache)

    # --- clamp accounting -------------------------------------------------------

    def clamp_counters(self) -> dict:
        """Monotonic clamp counters, for windowed (per-drain) accounting."""
        return {
            "step_queries": self._step_queries,
            "clamped_queries": self._clamped_queries,
        }

    def grid_clamp_summary(self, since: dict | None = None) -> dict:
        """Structured note describing queries that fell outside the grid.

        Empty dict when every query was inside; otherwise enough context to
        judge whether the grid needs extending (the report embeds this
        verbatim instead of emitting a log line).  ``since`` (a snapshot
        from :meth:`clamp_counters`) windows the query counts so a drain
        sharing this model with earlier drains reports only its own
        clamping; ``max_batch_seen``/``max_seq_seen`` remain lifetime
        maxima (they exist to size the grid, not to audit one drain).
        """
        base_queries = since["step_queries"] if since else 0
        base_clamped = since["clamped_queries"] if since else 0
        clamped = self._clamped_queries - base_clamped
        if not clamped:
            return {}
        return {
            "step_queries": self._step_queries - base_queries,
            "clamped_queries": clamped,
            "batch_grid_min": self.batch_grid[0],
            "batch_grid_max": self.batch_grid[-1],
            "seq_grid_min": self.seq_grid[0],
            "seq_grid_max": self.seq_grid[-1],
            "min_batch_seen": self._min_batch_seen,
            "max_batch_seen": self._max_batch_seen,
            "min_seq_seen": self._min_seq_seen,
            "max_seq_seen": self._max_seq_seen,
        }

    # --- interpolation ----------------------------------------------------------

    @staticmethod
    def _bracket(grid: tuple[int, ...], value: int) -> tuple[int, int, float]:
        """Neighbouring grid values and the interpolation weight of the upper."""
        if value <= grid[0]:
            return grid[0], grid[0], 0.0
        if value >= grid[-1]:
            return grid[-1], grid[-1], 0.0
        hi_index = bisect.bisect_left(grid, value)
        if grid[hi_index] == value:
            # Exact grid hit: no second row/column measurement needed.
            return value, value, 0.0
        lo, hi = grid[hi_index - 1], grid[hi_index]
        return lo, hi, (value - lo) / (hi - lo)

    def step_seconds(self, batch_size: int, seq_len: int) -> float:
        """One iteration: the one-element :meth:`step_series`."""
        (seconds,) = self.step_series(batch_size, (seq_len,))
        return seconds

    def step_series(
        self, batch_size: int, contexts: Iterable[int]
    ) -> Iterator[float]:
        """Successive iterations, walking ``contexts`` one grid cell at a time.

        The batch is bracketed once.  A context strictly inside the
        current cell reuses its corners, measured and looked up when the
        first element in the cell was pulled; any other context brackets
        afresh (an exact grid hit is a cell of its own, measuring only its
        row, as is each clamped edge).  Each element is blended from its
        own weight ``(context - lo) / (hi - lo)`` in the order of a single
        query, so the values are bit-identical to per-iteration queries,
        and the query counts, clamp counts and min/max-seen fields move
        per element pulled.  Raises, at the first pull, for an empty batch.
        """
        if batch_size < 1:
            raise SchedulingError("cannot step an empty batch")
        b_lo, b_hi, wb = self._bracket(self.batch_grid, batch_size)
        batch_on_grid = self.batch_grid[0] <= batch_size <= self.batch_grid[-1]
        seq_grid = self.seq_grid
        seq_min, seq_max = seq_grid[0], seq_grid[-1]
        measure = self._measure
        # The open cell lo < context < hi the corners below belong to
        # (empty until a context lands strictly inside one).
        lo = hi = 0
        cell = None
        for seq_len in contexts:
            if seq_len < 1:
                raise SchedulingError("context length must be positive")
            self._step_queries += 1
            if batch_size > self._max_batch_seen:
                self._max_batch_seen = batch_size
            if seq_len > self._max_seq_seen:
                self._max_seq_seen = seq_len
            if self._min_batch_seen is None or batch_size < self._min_batch_seen:
                self._min_batch_seen = batch_size
            if self._min_seq_seen is None or seq_len < self._min_seq_seen:
                self._min_seq_seen = seq_len
            if not (batch_on_grid and seq_min <= seq_len <= seq_max):
                # Both directions clamp: above-max queries are billed at the
                # edge cell (underestimate), below-min queries at the smallest
                # cell (overestimate for partial tail batches).
                self._clamped_queries += 1
            if lo < seq_len < hi:
                ws = (seq_len - lo) / (hi - lo)
            else:
                lo, hi, ws = self._bracket(seq_grid, seq_len)
                if (lo, hi) != cell:
                    cell = (lo, hi)
                    t_ll = measure(b_lo, lo)
                    t_lh = measure(b_lo, hi) if hi != lo else t_ll
                    dl = t_lh - t_ll
                    if b_hi != b_lo:
                        t_hl = measure(b_hi, lo)
                        t_hh = measure(b_hi, hi) if hi != lo else t_hl
                        dh = t_hh - t_hl
            low = t_ll + ws * dl
            if b_hi == b_lo:
                yield low
            else:
                high = t_hl + ws * dh
                yield low + wb * (high - low)

    def prefill_seconds(self, batch_size: int, seq_len: int) -> float:
        # The systems' prefill model is analytic (Section 6.4), cheap and a
        # pure function of the shape, so it needs no grid: the cell cache
        # memoizes it.
        return self.cells.prefill_seconds(max(1, batch_size), max(1, seq_len))
