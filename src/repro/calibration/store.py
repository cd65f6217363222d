"""Two-layer persistent store for measured calibration grids.

Layout: one JSON file per fingerprint under the store root::

    <root>/<fingerprint>.json
    {
      "format": 1,
      "repro_version": "1.3.0",
      "fingerprint": "ab12...",
      "description": { ...canonical fingerprint payload... },
      "step_seconds": {"16,4096": 8.579831, ...},
      "prefill_seconds": {"16,8542": 112.4, ...},
      "breakdown_seconds": {"16,4096": {"load_kv": 5.1, ...}, ...}
    }

``breakdown_seconds`` is optional (absent for serving grids): the figure
harnesses persist per-phase second stacks next to each step cell so warm
re-runs can regenerate the paper's breakdown charts without re-simulating.

The in-memory layer is process-wide and keyed by (store root, fingerprint),
so every experiment in one process (e.g. the serving system x policy sweep,
or a ``--jobs`` worker running several figures) that uses the same store
directory shares measurements without touching the disk twice, while
distinct directories remain fully independent caches.

One file collects every cell any harness measured for its fingerprint
(figure cells carry no grid, so e.g. fig10, fig11, fig14 and fig15 all
write HILOS-8 OPT-30B's file), and concurrent ``--jobs`` workers flush
the same files.  A flush therefore holds the root's exclusive lock file
(``.lock``, a POSIX ``flock``) from re-reading the file on disk until its
merged copy replaces it, so no worker's cells are lost to an interleaved
read-merge-write; the temp-file + ``os.replace`` write means no reader
ever sees a torn file.

Entries are invalidated (treated as a miss and overwritten) when either
the on-disk ``format`` or the recorded ``repro_version`` differs from the
running library -- a version bump may change simulator behaviour and hence
every measured number.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
from pathlib import Path

#: On-disk schema version; bump on incompatible layout changes.
STORE_FORMAT = 1

#: Environment variable overriding the default store directory.
STORE_DIR_ENV = "REPRO_CALIBRATION_DIR"

#: Lock file under the store root that serializes flushes across processes.
LOCK_NAME = ".lock"

#: Process-wide in-memory layer, keyed by (resolved store root, fingerprint)
#: so two stores over the same directory share measurements while stores
#: over different directories stay independent (each must see its own
#: misses, or the second store would never be written to disk).
_MEMORY: dict[tuple[str, str], dict] = {}


def _grid_key(batch: int, seq_len: int) -> str:
    return f"{batch},{seq_len}"


def _parse_grid_key(key: str) -> tuple[int, int]:
    batch, seq_len = key.split(",")
    return int(batch), int(seq_len)


def default_store_dir() -> Path:
    """Resolve the store directory (env override, else a user cache dir)."""
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "calibration"


def default_store() -> "CalibrationStore":
    """A store rooted at :func:`default_store_dir` (created lazily)."""
    return CalibrationStore(default_store_dir())


def resolve_store(
    store: "CalibrationStore | None", use_store: bool
) -> "CalibrationStore | None":
    """The one precedence rule every experiment harness applies.

    ``use_store=False`` wins over an explicit store -- "measure from
    scratch" must mean exactly that; otherwise an explicit store is used
    as given, and ``None`` falls back to the shared default store.
    """
    if not use_store:
        return None
    return store if store is not None else default_store()


def clear_memory_layer() -> None:
    """Drop the process-wide layer (tests and long-lived daemons)."""
    _MEMORY.clear()


class CalibrationStore:
    """Fingerprint-keyed persistence for measured step/prefill grids."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._dirty: dict[str, dict | None] = {}
        self._atexit_registered = False

    # --- internal helpers -------------------------------------------------------

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def _load_disk(self, fingerprint: str) -> dict | None:
        """Read one grid file; ``None`` on miss, corruption, or stale version."""
        from repro import __version__

        path = self._path(fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != STORE_FORMAT:
            return None
        if payload.get("repro_version") != __version__:
            return None
        step = payload.get("step_seconds")
        prefill = payload.get("prefill_seconds", {})
        breakdown = payload.get("breakdown_seconds", {})
        if (
            not isinstance(step, dict)
            or not isinstance(prefill, dict)
            or not isinstance(breakdown, dict)
        ):
            return None
        try:
            # Normalize every cell eagerly: a syntactically-valid JSON file
            # with malformed cells (bad grid keys, non-numeric values) is
            # corruption and must read as a miss, not crash later loads.
            entry = {
                "step_seconds": {key: float(value) for key, value in step.items()},
                "prefill_seconds": {key: float(value) for key, value in prefill.items()},
                "breakdown_seconds": {
                    key: {str(phase): float(v) for phase, v in value.items()}
                    for key, value in breakdown.items()
                },
            }
            for grids in entry.values():
                for key in grids:
                    _parse_grid_key(key)
        except (AttributeError, TypeError, ValueError):
            return None
        return entry

    def _memory_key(self, fingerprint: str) -> tuple[str, str]:
        return (str(self.root.resolve()), fingerprint)

    def _entry(self, fingerprint: str) -> dict:
        """The in-memory entry for a fingerprint, hydrated from disk once."""
        key = self._memory_key(fingerprint)
        entry = _MEMORY.get(key)
        if entry is None:
            entry = self._load_disk(fingerprint) or {
                "step_seconds": {},
                "prefill_seconds": {},
                "breakdown_seconds": {},
            }
            entry.setdefault("breakdown_seconds", {})
            _MEMORY[key] = entry
        return entry

    # --- read side --------------------------------------------------------------

    def load_step_grid(self, fingerprint: str) -> dict[tuple[int, int], float]:
        """All persisted step-time cells for a fingerprint."""
        entry = self._entry(fingerprint)
        return {
            _parse_grid_key(key): float(value)
            for key, value in entry["step_seconds"].items()
        }

    def load_prefill_grid(self, fingerprint: str) -> dict[tuple[int, int], float]:
        """All persisted prefill cells for a fingerprint."""
        entry = self._entry(fingerprint)
        return {
            _parse_grid_key(key): float(value)
            for key, value in entry["prefill_seconds"].items()
        }

    def load_breakdown_grid(
        self, fingerprint: str
    ) -> dict[tuple[int, int], dict[str, float]]:
        """All persisted per-phase breakdown stacks for a fingerprint."""
        entry = self._entry(fingerprint)
        return {
            _parse_grid_key(key): {phase: float(v) for phase, v in value.items()}
            for key, value in entry["breakdown_seconds"].items()
        }

    # --- write side -------------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        description: dict | None = None,
        step_cells: dict[tuple[int, int], float] | None = None,
        prefill_cells: dict[tuple[int, int], float] | None = None,
        breakdown_cells: dict[tuple[int, int], dict[str, float]] | None = None,
        flush: bool = True,
    ) -> None:
        """Merge newly measured cells into the memory layer.

        With ``flush=True`` (the default) the grid file is rewritten
        immediately.  ``flush=False`` defers the disk write -- callers with
        a natural batch boundary (a queue drain, a sweep) call
        :meth:`flush_dirty` there; an ``atexit`` hook flushes whatever is
        still pending so a forgotten flush degrades to exit-time
        persistence, never to data loss.
        """
        entry = self._entry(fingerprint)
        if step_cells:
            for (batch, seq_len), value in step_cells.items():
                entry["step_seconds"][_grid_key(batch, seq_len)] = value
        if prefill_cells:
            for (batch, seq_len), value in prefill_cells.items():
                entry["prefill_seconds"][_grid_key(batch, seq_len)] = value
        if breakdown_cells:
            for (batch, seq_len), value in breakdown_cells.items():
                entry["breakdown_seconds"][_grid_key(batch, seq_len)] = dict(value)
        if flush:
            self._flush(fingerprint, entry, description)
            self._dirty.pop(fingerprint, None)
        else:
            self._dirty.setdefault(fingerprint, None)
            if description is not None:
                self._dirty[fingerprint] = description
            if not self._atexit_registered:
                import atexit

                atexit.register(self.flush_dirty)
                self._atexit_registered = True

    def flush_dirty(self) -> int:
        """Write every deferred-dirty fingerprint to disk; returns the count."""
        flushed = 0
        for fingerprint, description in list(self._dirty.items()):
            entry = _MEMORY.get(self._memory_key(fingerprint))
            if entry is not None:
                self._flush(fingerprint, entry, description)
                flushed += 1
            self._dirty.pop(fingerprint, None)
        return flushed

    def _flush(self, fingerprint: str, entry: dict, description: dict | None) -> None:
        from repro import __version__

        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / LOCK_NAME, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when ``lock`` closes
            # Merge the current on-disk cells first: a concurrent worker may
            # have persisted cells this process never measured, and a plain
            # read-modify-write of our in-memory entry would drop them.  Equal
            # fingerprints imply equal values per cell, so merge direction is
            # irrelevant for overlapping keys; stale-version files yield None
            # and are overwritten wholesale.  The lock keeps every other flush
            # out between this read and the replace below.
            on_disk = self._load_disk(fingerprint)
            step = dict(on_disk["step_seconds"]) if on_disk else {}
            prefill = dict(on_disk["prefill_seconds"]) if on_disk else {}
            breakdown = dict(on_disk["breakdown_seconds"]) if on_disk else {}
            step.update(entry["step_seconds"])
            prefill.update(entry["prefill_seconds"])
            breakdown.update(entry["breakdown_seconds"])
            # Adopt the merged view in the memory layer too, so this process
            # also benefits from cells a concurrent worker persisted.
            entry["step_seconds"] = step
            entry["prefill_seconds"] = prefill
            entry["breakdown_seconds"] = breakdown
            payload = {
                "format": STORE_FORMAT,
                "repro_version": __version__,
                "fingerprint": fingerprint,
                "description": description or {},
                "step_seconds": dict(sorted(step.items())),
                "prefill_seconds": dict(sorted(prefill.items())),
                "breakdown_seconds": dict(sorted(breakdown.items())),
            }
            # Atomic replace: a reader, which takes no lock, never sees a torn file.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{fingerprint[:16]}", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True, indent=1)
                os.replace(tmp_name, self._path(fingerprint))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    # --- maintenance ------------------------------------------------------------

    def fingerprints_on_disk(self) -> list[str]:
        """Fingerprints with a (possibly stale) file under the root."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def drop(self, fingerprint: str) -> None:
        """Forget one fingerprint in both layers."""
        _MEMORY.pop(self._memory_key(fingerprint), None)
        try:
            os.unlink(self._path(fingerprint))
        except OSError:
            pass
