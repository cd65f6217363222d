"""Persistent calibration cache for measured ``measure()`` points.

Measuring one ``(batch, seq_len)`` point runs the full event-level
simulation of the system -- tens of milliseconds per point, times dozens
of points, times every system in a sweep, times every re-run of every
experiment.  A point is a pure function of the system description, so this
package fingerprints that description and persists measured cells:

:func:`system_fingerprint`
    Deterministic digest of model config + hardware topology + step recipe
    + library version: a cell's whole identity.  Two systems with identical
    fingerprints would measure identical cells.

:class:`FigurePointCache`
    The one route to a simulated point: ``measure(batch, seq_len)`` equals
    the direct one-step ``measure()`` field for field and simulates each
    point once ever per store directory.  Every figure harness reads
    through one, and so does every serving step-time grid
    (:class:`~repro.serving.steptime.CalibratedStepTime`).

:class:`CalibrationStore`
    Two-layer cache: a process-wide in-memory layer shared by every
    experiment in the process, over a versioned on-disk JSON store shared by
    every process that uses the same directory.  A warm store makes figure
    and serving re-runs measurement-free.

The store invalidates itself when :data:`repro.__version__` changes (any
release may change simulator behaviour, which silently changes measured
cells) and when the on-disk format version changes.
"""

from repro.calibration.fingerprint import system_fingerprint
from repro.calibration.store import CalibrationStore, default_store, resolve_store

__all__ = [
    "CalibrationStore",
    "FigurePointCache",
    "default_store",
    "prewarm_step_grids",
    "resolve_store",
    "system_fingerprint",
]


def __getattr__(name: str):
    # Lazy: figures/prewarm pull in the simulation stack, which would turn
    # ``import repro`` (whose __init__ imports this package for the store)
    # into a circular import at module load time.
    if name == "FigurePointCache":
        from repro.calibration.figures import FigurePointCache

        return FigurePointCache
    if name == "prewarm_step_grids":
        from repro.calibration.prewarm import prewarm_step_grids

        return prewarm_step_grids
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
