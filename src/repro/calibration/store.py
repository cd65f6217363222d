"""Two-layer persistent store for measured calibration cells.

Layout: one JSON file per fingerprint under the store root::

    <root>/<fingerprint>.json
    {
      "format": 2,
      "repro_version": "1.3.0",
      "fingerprint": "ab12...",
      "description": { ...canonical fingerprint payload... },
      "cells": {
        "16,4096": {
          "step_seconds": 8.579831,
          "breakdown_seconds": {"load_kv": 5.1, ...},
          "utilization": {"cpu": 0.12, "gpu": 0.31, "dram_capacity": 0.4},
          "storage_logical_written": 1.2e6,
          "storage_physical_written": 1.6e7
        },
        ...
      }
    }

A cell is what one ``measure(batch, seq_len, n_steps=1, warmup_steps=0)``
simulates at one point -- the step time, the per-phase breakdown, the
host utilization and the per-step storage bytes written -- and is stored
whole: a file with a cell missing any part (or any malformed value) reads
as a miss, so no consumer ever sees half a measurement.  Everything else a
measurement reports follows from the point and the system's analytic
models (effective batch, tokens/s, prefill), so it is not stored.

The in-memory layer is process-wide and keyed by (store root, fingerprint),
so every experiment in one process (e.g. the serving system x policy sweep,
or a ``--jobs`` worker running several figures) that uses the same store
directory shares measurements without touching the disk twice, while
distinct directories remain fully independent caches.

One file collects every cell any harness measured for its fingerprint
(cells carry no grid, so e.g. fig10, fig11, fig14, fig15 and the serving
grids all write HILOS-8's file for a model), and concurrent ``--jobs``
workers flush the same files.  A flush therefore holds the root's
exclusive lock file (``.lock``, a POSIX ``flock``) from re-reading the
file on disk until its merged copy replaces it, so no worker's cells are
lost to an interleaved read-merge-write; the temp-file + ``os.replace``
write means no reader ever sees a torn file.

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
STORE_FORMAT = 2

#: Environment variable overriding the default store directory.
STORE_DIR_ENV = "REPRO_CALIBRATION_DIR"

#: Lock file under the store root that serializes flushes across processes.
LOCK_NAME = ".lock"

#: The host-utilization shares a cell records (``UtilizationSample``'s fields).
UTILIZATION_SHARES = ("cpu", "gpu", "dram_capacity")

#: Process-wide in-memory layer, keyed by (resolved store root, fingerprint)
#: so two stores over the same directory share measurements while stores
#: over different directories stay independent (each must see its own
#: misses, or the second store would never be written to disk).
_MEMORY: dict[tuple[str, str], dict[tuple[int, int], dict]] = {}


def _grid_key(point: tuple[int, int]) -> str:
    return f"{point[0]},{point[1]}"


def _parse_grid_key(key: str) -> tuple[int, int]:
    batch, seq_len = key.split(",")
    return int(batch), int(seq_len)


def _whole_cell(raw: dict) -> dict:
    """A stored cell with every part present and numeric; raises otherwise."""
    return {
        "step_seconds": float(raw["step_seconds"]),
        "breakdown_seconds": {
            str(phase): float(seconds)
            for phase, seconds in raw["breakdown_seconds"].items()
        },
        "utilization": {
            share: float(raw["utilization"][share]) for share in UTILIZATION_SHARES
        },
        "storage_logical_written": float(raw["storage_logical_written"]),
        "storage_physical_written": float(raw["storage_physical_written"]),
    }


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
    """Fingerprint-keyed persistence for measured cells."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._resolved_root = str(self.root.resolve())
        self._dirty: dict[str, dict | None] = {}
        self._atexit_registered = False

    # --- internal helpers -------------------------------------------------------

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def _load_disk(self, fingerprint: str) -> dict[tuple[int, int], dict] | None:
        """Read one file's cells; ``None`` on miss, corruption, or stale version."""
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
        try:
            # Normalize every cell eagerly: a syntactically-valid JSON file
            # with a malformed or partial cell is corruption and must read
            # as a miss, not crash (or half-serve) later loads.
            return {
                _parse_grid_key(key): _whole_cell(cell)
                for key, cell in payload["cells"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def _memory_key(self, fingerprint: str) -> tuple[str, str]:
        return (self._resolved_root, fingerprint)

    def _entry(self, fingerprint: str) -> dict[tuple[int, int], dict]:
        """The in-memory cells of a fingerprint, hydrated from disk once."""
        key = self._memory_key(fingerprint)
        entry = _MEMORY.get(key)
        if entry is None:
            entry = self._load_disk(fingerprint) or {}
            _MEMORY[key] = entry
        return entry

    # --- read side --------------------------------------------------------------

    def load_cells(self, fingerprint: str) -> dict[tuple[int, int], dict]:
        """Every persisted cell of a fingerprint, keyed by ``(batch, seq_len)``."""
        return dict(self._entry(fingerprint))

    def load_step_grid(self, fingerprint: str) -> None:
        """Retired: cells are read whole through :meth:`load_cells`.  Kept,
        with the two aliases below, only because perfbench's tracer looks
        these names up in the class body."""

    load_prefill_grid = load_breakdown_grid = load_step_grid

    # --- write side -------------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        cells: dict[tuple[int, int], dict],
        description: dict | None = None,
        flush: bool = True,
    ) -> None:
        """Merge newly measured whole cells into the memory layer.

        With ``flush=True`` (the default) the file is rewritten
        immediately.  ``flush=False`` defers the disk write -- callers with
        a natural batch boundary (a queue drain, a sweep) call
        :meth:`flush_dirty` there; an ``atexit`` hook flushes whatever is
        still pending so a forgotten flush degrades to exit-time
        persistence, never to data loss.
        """
        entry = self._entry(fingerprint)
        entry.update(cells)
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

    def _flush(
        self,
        fingerprint: str,
        entry: dict[tuple[int, int], dict],
        description: dict | None,
    ) -> None:
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
            # out between this read and the replace below.  The memory layer
            # adopts the merged view too, so this process also benefits from
            # cells a concurrent worker persisted.
            for point, cell in (self._load_disk(fingerprint) or {}).items():
                entry.setdefault(point, cell)
            payload = {
                "format": STORE_FORMAT,
                "repro_version": __version__,
                "fingerprint": fingerprint,
                "description": description or {},
                "cells": {_grid_key(point): entry[point] for point in sorted(entry)},
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
