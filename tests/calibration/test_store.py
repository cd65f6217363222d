"""Tests for the calibration fingerprint scheme and the two-layer store."""

from __future__ import annotations

import json
import multiprocessing

import pytest

import repro
from repro.calibration import CalibrationStore, default_store, system_fingerprint
from repro.calibration.fingerprint import canonical_value, fingerprint_payload
from repro.calibration.store import (
    STORE_DIR_ENV,
    clear_memory_layer,
    default_store_dir,
)
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.errors import ConfigurationError


@pytest.fixture(autouse=True)
def fresh_memory_layer():
    clear_memory_layer()
    yield
    clear_memory_layer()


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def cell(step: float) -> dict:
    """A whole stored cell whose step time is ``step``."""
    return {
        "step_seconds": step,
        "breakdown_seconds": {"load_kv": step / 2, "host_compute": step / 4},
        "utilization": {"cpu": 0.125, "gpu": 0.25, "dram_capacity": 0.5},
        "storage_logical_written": 4096.0,
        "storage_physical_written": 65536.0,
    }


class TestFingerprint:
    def test_deterministic_across_instances(self, tiny_mha):
        a = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        b = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        assert system_fingerprint(a) == system_fingerprint(b)

    def test_sensitive_to_hardware(self, tiny_mha):
        a = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        b = HilosSystem(tiny_mha, HilosConfig(n_devices=4))
        assert system_fingerprint(a) != system_fingerprint(b)

    def test_sensitive_to_model(self, tiny_mha, tiny_gqa):
        a = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        b = HilosSystem(tiny_gqa, HilosConfig(n_devices=2))
        assert system_fingerprint(a) != system_fingerprint(b)

    def test_sensitive_to_steps(self, system):
        base = system_fingerprint(system)
        assert system_fingerprint(system, n_steps=3) != base
        assert system_fingerprint(system, warmup_steps=1) != base

    def test_sensitive_to_symmetry_mode(self, tiny_mha):
        """``"full"`` forces the reference simulator path; a store warmed
        under ``"auto"`` must not answer for it."""
        base = system_fingerprint(HilosSystem(tiny_mha, HilosConfig(n_devices=2)))
        full = HilosSystem(tiny_mha, HilosConfig(n_devices=2))
        full.symmetry = "full"
        assert system_fingerprint(full) != base
        assert fingerprint_payload(full)["symmetry"] == "full"

    def test_payload_names_no_grid_and_no_cell_meaning(self, system):
        """A cell is one simulated point: whichever grid or harness reads
        it, its identity is the system and the step recipe."""
        payload = fingerprint_payload(system)
        assert not {"batch_grid", "seq_grid", "semantics"} & set(payload)
        assert (payload["n_steps"], payload["warmup_steps"]) == (1, 0)

    def test_sensitive_to_library_version(self, system, monkeypatch):
        base = system_fingerprint(system)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert system_fingerprint(system) != base

    def test_payload_is_json_stable(self, system):
        payload = fingerprint_payload(system, n_steps=1, warmup_steps=0)
        assert json.dumps(payload, sort_keys=True)  # round-trips without error
        assert payload["model"]["name"] == system.model.name
        assert payload["hardware"]["n_smartssds"] == 2

    def test_unfingerprintable_value_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_value(object())

    def test_sensitive_to_behavioral_config(self, tiny_mha):
        """Feature flags that change measured numbers must change the
        fingerprint (use_xcache, spill interval, per-layer overhead)."""
        base = system_fingerprint(HilosSystem(tiny_mha, HilosConfig(n_devices=2)))
        assert (
            system_fingerprint(
                HilosSystem(tiny_mha, HilosConfig(n_devices=2, use_xcache=False))
            )
            != base
        )
        assert (
            system_fingerprint(
                HilosSystem(
                    tiny_mha,
                    HilosConfig(n_devices=2, per_layer_overhead_s=0.05),
                )
            )
            != base
        )
        assert (
            system_fingerprint(
                HilosSystem(tiny_mha, HilosConfig(n_devices=2, spill_interval=4))
            )
            != base
        )


class TestStoreRoundTrip:
    def test_round_trip_across_memory_clear(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("f" * 64, {(1, 256): cell(8.5), (2, 512): cell(1.5)})
        clear_memory_layer()
        fresh = CalibrationStore(tmp_path)
        assert fresh.load_cells("f" * 64) == {(1, 256): cell(8.5), (2, 512): cell(1.5)}

    def test_memory_layer_shared_between_instances_on_same_root(self, tmp_path):
        CalibrationStore(tmp_path / "a").record("a" * 64, {(1, 1): cell(2.0)})
        assert CalibrationStore(tmp_path / "a").load_cells("a" * 64) == {(1, 1): cell(2.0)}

    def test_distinct_roots_are_independent_caches(self, tmp_path):
        """The memory layer must not let store A's warmth mask store B's
        misses -- otherwise B would never be written to disk."""
        CalibrationStore(tmp_path / "a").record("a" * 64, {(1, 1): cell(2.0)})
        other = CalibrationStore(tmp_path / "b")
        assert other.load_cells("a" * 64) == {}
        other.record("a" * 64, {(1, 1): cell(3.0)})
        assert other.fingerprints_on_disk() == ["a" * 64]
        # And the first store's view is untouched.
        assert CalibrationStore(tmp_path / "a").load_cells("a" * 64) == {(1, 1): cell(2.0)}

    def test_merge_preserves_existing_cells(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("c" * 64, {(1, 256): cell(1.0)})
        store.record("c" * 64, {(4, 256): cell(2.0)})
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells("c" * 64) == {
            (1, 256): cell(1.0),
            (4, 256): cell(2.0),
        }

    def test_missing_fingerprint_is_empty(self, tmp_path):
        assert CalibrationStore(tmp_path).load_cells("0" * 64) == {}

    def test_drop_forgets_both_layers(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("d" * 64, {(1, 1): cell(3.0)})
        store.drop("d" * 64)
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells("d" * 64) == {}


class TestInvalidation:
    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        store = CalibrationStore(tmp_path)
        store.record("e" * 64, {(1, 1): cell(4.0)})
        clear_memory_layer()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert CalibrationStore(tmp_path).load_cells("e" * 64) == {}

    def test_format_bump_invalidates(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("a1" * 32, {(1, 1): cell(4.0)})
        path = store._path("a1" * 32)
        payload = json.loads(path.read_text())
        payload["format"] = -1
        path.write_text(json.dumps(payload))
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells("a1" * 32) == {}

    def test_corrupted_file_is_a_miss(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("b2" * 32, {(1, 1): cell(4.0)})
        store._path("b2" * 32).write_text("{not json")
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells("b2" * 32) == {}


class TestWholeCells:
    """A cell is stored whole: a file with any part of a cell missing or
    malformed reads as a miss (re-measure), never as half a measurement
    and never as a crash on every later load."""

    @pytest.mark.parametrize(
        "part",
        [
            "step_seconds",
            "breakdown_seconds",
            "utilization",
            "storage_logical_written",
            "storage_physical_written",
        ],
    )
    def test_a_cell_missing_a_part_reads_as_a_miss(self, tmp_path, part):
        store = CalibrationStore(tmp_path)
        store.record("b" * 64, {(1, 256): cell(0.5), (2, 256): cell(1.0)})
        path = store._path("b" * 64)
        payload = json.loads(path.read_text())
        del payload["cells"]["2,256"][part]
        path.write_text(json.dumps(payload))
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells("b" * 64) == {}

    @pytest.mark.parametrize(
        "patch",
        [
            {"nocomma": cell(1.0)},
            {"1,256": {**cell(1.0), "step_seconds": "not a number"}},
            {"1,256": {**cell(1.0), "breakdown_seconds": 5}},
            {"1,256": {**cell(1.0), "breakdown_seconds": {"load_kv": "x"}}},
            {"1,256": {**cell(1.0), "utilization": {"cpu": 0.1, "gpu": 0.2}}},
            {"1,256": 0.5},
        ],
    )
    def test_malformed_cells_read_as_a_miss(self, tmp_path, patch):
        store = CalibrationStore(tmp_path)
        store.record("c" * 64, {(1, 256): cell(0.5)})
        path = store._path("c" * 64)
        payload = json.loads(path.read_text())
        payload["cells"].update(patch)
        path.write_text(json.dumps(payload))
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells("c" * 64) == {}


class TestDeferredFlush:
    def test_deferred_record_not_on_disk_until_flush(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("f3" * 32, {(1, 1): cell(5.0)}, flush=False)
        assert store.fingerprints_on_disk() == []
        assert store.flush_dirty() == 1
        assert store.fingerprints_on_disk() == ["f3" * 32]
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells("f3" * 32) == {(1, 1): cell(5.0)}

    def test_flush_dirty_is_idempotent(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.record("f4" * 32, {(1, 1): cell(5.0)}, flush=False)
        assert store.flush_dirty() == 1
        assert store.flush_dirty() == 0


class TestDefaultStore:
    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "override"))
        assert default_store_dir() == tmp_path / "override"
        assert default_store().root == tmp_path / "override"

    def test_default_is_user_cache(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert default_store_dir().name == "calibration"


class TestConcurrentFlushMerge:
    def test_flush_merges_cells_persisted_by_another_worker(self, tmp_path):
        """A flush must re-merge the on-disk file: a concurrent worker's
        cells may have landed there after this process hydrated its entry."""
        fp = "ab" * 32
        worker_b = CalibrationStore(tmp_path)
        assert worker_b.load_cells(fp) == {}  # hydrates empty entry

        # Worker A (modelled as a separate memory layer) persists two cells.
        clear_memory_layer()
        worker_a = CalibrationStore(tmp_path)
        worker_a.record(fp, {(1, 256): cell(1.0), (4, 256): cell(2.0)})

        # Worker B, still holding its stale (empty) entry, measures and
        # flushes one more cell -- A's cells must survive.
        clear_memory_layer()
        worker_b2 = CalibrationStore(tmp_path)
        worker_b2.record(fp, {(8, 256): cell(3.0)})
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells(fp) == {
            (1, 256): cell(1.0),
            (4, 256): cell(2.0),
            (8, 256): cell(3.0),
        }

    def test_interleaved_flushes_from_two_processes_keep_both_cell_sets(
        self, tmp_path
    ):
        """This process pauses one flush between re-reading the file and
        replacing it while another process flushes other cells of the same
        fingerprint.  The flush lock makes the other process wait for the
        replace, so its merge sees these cells and both sets survive; an
        unlocked flush would finish inside the pause and be overwritten."""
        fp = "cd" * 32
        context = multiprocessing.get_context("fork")
        paused, other_done = context.Event(), context.Event()
        other = context.Process(
            target=_flush_when_set,
            args=(tmp_path, fp, {(8, 256): cell(3.0)}, paused, other_done),
        )
        other.start()
        store = _PausingStore(tmp_path, paused, other_done)
        store.load_cells(fp)  # hydrate first: only the flush reads disk
        store.pause = True
        store.record(fp, {(1, 256): cell(1.0), (4, 256): cell(2.0)})
        other.join(timeout=60)
        assert other.exitcode == 0
        clear_memory_layer()
        assert CalibrationStore(tmp_path).load_cells(fp) == {
            (1, 256): cell(1.0),
            (4, 256): cell(2.0),
            (8, 256): cell(3.0),
        }


class _PausingStore(CalibrationStore):
    """A store whose disk reads, once ``pause`` is set, signal ``paused``
    and wait for ``other_done`` -- at most :attr:`PAUSE_S`, which is what a
    process blocked on the flush lock makes it wait."""

    PAUSE_S = 0.5

    def __init__(self, root, paused, other_done) -> None:
        super().__init__(root)
        self.paused, self.other_done = paused, other_done
        self.pause = False

    def _load_disk(self, fingerprint):
        entry = super()._load_disk(fingerprint)
        if self.pause:
            self.paused.set()
            self.other_done.wait(self.PAUSE_S)
        return entry


def _flush_when_set(root, fingerprint, cells, go, done) -> None:
    """The other process: record and flush ``cells`` once ``go`` is set."""
    go.wait(60)
    CalibrationStore(root).record(fingerprint, cells)
    done.set()
