"""Tests for the engine subsystem: fingerprints, disk store, parallelism.

The session-wide conftest fixture points ``REPRO_CACHE_DIR`` at a
temporary directory, so these tests exercise the real disk layer without
touching a developer's cache.
"""

import os

import pytest

from repro import engine
from repro.cpu.trace import Trace
from repro.engine import MixSpec, RunSpec, TraceSpec
from repro.engine.session import default_session
from repro.engine.store import ResultStore
from repro.experiments import api
from repro.memory.dram import DramConfig

# The default session's memo layers: the same dict objects Session.run
# reads and writes, so clearing/inspecting them observes the truth.
_SESSION = default_session()
_RUN_CACHE = _SESSION._run_memo
_MP_CACHE = _SESSION._mix_memo
_TRACE_CACHE = _SESSION._trace_memo


def _run_workload(workload, scheme, length):
    return _SESSION.run(RunSpec(workload, scheme, length))


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    """Isolated store per test; engine overrides reset afterwards."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    _SESSION.clear(memory=True, disk=False)
    engine.reset_config()
    yield
    _SESSION.clear(memory=True, disk=False)
    engine.reset_config()
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestFingerprint:
    def test_stable_within_process(self):
        dram = DramConfig()
        a = engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, False)
        b = engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, False)
        assert a == b

    def test_sensitive_to_every_field(self):
        dram = DramConfig()
        base = engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, False)
        assert engine.run_fingerprint("w2", "spp", 100, dram, 2 << 20, False) != base
        assert engine.run_fingerprint("w", "bop", 100, dram, 2 << 20, False) != base
        assert engine.run_fingerprint("w", "spp", 200, dram, 2 << 20, False) != base
        assert engine.run_fingerprint("w", "spp", 100, dram, 1 << 20, False) != base
        assert engine.run_fingerprint("w", "spp", 100, dram, 2 << 20, True) != base
        other_dram = DramConfig(speed_grade=2400, channels=2)
        assert engine.run_fingerprint("w", "spp", 100, other_dram, 2 << 20, False) != base

    def test_kind_separates_namespaces(self):
        assert engine.fingerprint("a", x=1) != engine.fingerprint("b", x=1)

    def test_salt_embedded(self):
        # The salt covers simulator sources; same process -> same salt.
        assert engine.code_salt() == engine.code_salt()
        assert len(engine.code_salt()) == 16


class TestResultStore:
    def test_result_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.save_result("ab" + "0" * 62, {"ipc": 1.25}, meta={"kind": "test"})
        assert store.load_result("ab" + "0" * 62) == {"ipc": 1.25}

    def test_missing_is_none(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.load_result("ff" + "0" * 62) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digest = "cd" + "0" * 62
        store.save_result(digest, 42)
        path = store._result_path(digest)
        path.write_bytes(b"not a pickle")
        assert store.load_result(digest) is None

    def test_trace_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        trace = Trace([1, 2], [3, 4], [64, 128], [0, 1])
        store.save_trace("ee" + "0" * 62, trace)
        back = store.load_trace("ee" + "0" * 62)
        assert list(back) == list(trace)

    def test_unwritable_store_degrades_to_no_persist(self, tmp_path, capsys):
        """A broken cache location must never fail the simulation that
        produced the result — saves warn once and become no-ops."""
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        store = ResultStore(blocker)
        store.save_result("ab" + "0" * 62, 1)
        store.save_result("ab" + "0" * 62, 1)  # second save: no second warning
        store.save_trace("cd" + "0" * 62, Trace([0], [1], [64], [0]))
        assert store.load_result("ab" + "0" * 62) is None
        assert capsys.readouterr().err.count("not writable") == 1

    def test_clear_and_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.save_result("ab" + "0" * 62, 1)
        store.save_trace("cd" + "0" * 62, Trace([0], [1], [64], [0]))
        stats = store.stats()
        assert stats["results"] == 1 and stats["traces"] == 1 and stats["bytes"] > 0
        store.clear()
        stats = store.stats()
        assert stats["results"] == 0 and stats["traces"] == 0


class TestGarbageCollection:
    @staticmethod
    def _digest(i):
        return f"{i:02x}" + "0" * 62

    def test_noop_when_under_bound(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.save_result(self._digest(1), b"x" * 100)
        summary = store.gc(1 << 20)
        assert summary["removed"] == 0
        assert summary["kept"] == 1
        assert store.load_result(self._digest(1)) is not None

    def test_evicts_oldest_mtime_first(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i in range(4):
            store.save_result(self._digest(i), b"x" * 4096)
        # Age entries 0 and 1; leave 2 and 3 recent.
        for i in (0, 1):
            path = store._result_path(self._digest(i))
            os.utime(path, (1000 + i, 1000 + i))
        size = store.stats()["bytes"]
        summary = store.gc(size // 2)
        assert summary["removed"] == 2
        assert store.load_result(self._digest(0)) is None
        assert store.load_result(self._digest(1)) is None
        assert store.load_result(self._digest(2)) is not None
        assert store.load_result(self._digest(3)) is not None
        assert summary["remaining_bytes"] <= size // 2

    def test_load_refreshes_recency(self, tmp_path):
        """A hit bumps the artifact's mtime, so recently *used* entries
        survive eviction even when they were written first."""
        store = ResultStore(tmp_path / "s")
        for i in range(3):
            store.save_result(self._digest(i), b"x" * 4096)
            path = store._result_path(self._digest(i))
            os.utime(path, (1000 + i, 1000 + i))
        assert store.load_result(self._digest(0)) is not None  # touch oldest
        summary = store.gc(store.stats()["bytes"] // 2)
        assert summary["removed"] == 2
        assert store.load_result(self._digest(0)) is not None
        assert store.load_result(self._digest(1)) is None
        assert store.load_result(self._digest(2)) is None

    def test_covers_traces_too(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.save_trace(self._digest(7), Trace([0], [1], [64], [0]))
        path = store._trace_path(self._digest(7))
        os.utime(path, (1000, 1000))
        summary = store.gc(0)
        assert summary["removed"] == 1
        assert store.load_trace(self._digest(7)) is None

    def test_zero_bound_empties_store(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i in range(3):
            store.save_result(self._digest(i), i)
        summary = store.gc(0)
        assert summary["removed"] == 3
        assert summary["remaining_bytes"] == 0
        assert store.stats()["bytes"] == 0

    def test_negative_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "s").gc(-1)

    def test_in_progress_temp_files_not_evicted(self, tmp_path):
        """gc racing a live _atomic_write must not yank the temp file."""
        store = ResultStore(tmp_path / "s")
        store.save_result(self._digest(1), b"x" * 4096)
        tmp = store._result_path(self._digest(2)).parent / ".tmp-inflight"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(b"y" * 4096)
        summary = store.gc(0)
        assert tmp.exists()
        assert summary["removed"] == 1  # only the real artifact went

    def test_orphaned_temp_files_reclaimed(self, tmp_path):
        """Temp files older than the grace period are dead writers'
        leftovers and must be evictable, or gc could never reach the
        requested bound."""
        store = ResultStore(tmp_path / "s")
        tmp = store._result_path(self._digest(2)).parent / ".tmp-orphan"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(b"y" * 4096)
        os.utime(tmp, (1000, 1000))  # far older than the grace period
        summary = store.gc(0)
        assert not tmp.exists()
        assert summary["removed"] == 1


class TestDiskPersistence:
    def test_run_survives_memory_cache_clear(self):
        first = _run_workload("ispec06.mcf", "none", 400)
        _RUN_CACHE.clear()
        _TRACE_CACHE.clear()
        second = _run_workload("ispec06.mcf", "none", 400)
        # Distinct objects (disk round-trip), bit-identical payloads.
        assert second is not first
        assert second.to_dict() == first.to_dict()

    def test_trace_survives_memory_cache_clear(self):
        first = _SESSION.trace(TraceSpec("ispec06.mcf", 300))
        _TRACE_CACHE.clear()
        second = _SESSION.trace(TraceSpec("ispec06.mcf", 300))
        assert second is not first
        assert list(second) == list(first)

    def test_mix_survives_memory_cache_clear(self):
        spec = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 200)
        first = _SESSION.run(spec)
        _MP_CACHE.clear()
        second = _SESSION.run(spec)
        assert second is not first
        assert [c.to_dict() for c in second.per_core] == [
            c.to_dict() for c in first.per_core
        ]

    def test_no_cache_mode_skips_disk(self):
        engine.configure(disk_cache=False)
        assert engine.active_store() is None
        _run_workload("ispec06.mcf", "none", 400)
        engine.reset_config()
        store = engine.active_store()
        assert store is not None
        assert store.stats()["results"] == 0


class TestSessionClearInvalidation:
    def test_both_layers_invalidate_together(self):
        """Session.clear() must drop memory AND disk, so a later call
        can never observe a stale cross-process result."""
        _run_workload("ispec06.mcf", "none", 400)
        store = engine.active_store()
        assert store.stats()["results"] == 1
        _SESSION.clear()
        assert not _RUN_CACHE and not _TRACE_CACHE and not _MP_CACHE
        assert store.stats()["results"] == 0
        assert store.stats()["traces"] == 0

    def test_memory_only_clear_preserves_disk(self):
        _run_workload("ispec06.mcf", "none", 400)
        store = engine.active_store()
        _SESSION.clear(memory=True, disk=False)
        assert store.stats()["results"] == 1


class TestParallelExecution:
    def test_sequential_and_parallel_identical(self):
        workloads = ["ispec06.mcf", "hpc.linpack"]
        api.run_grid(_SESSION, workloads, ["none", "spp"], 400, jobs=1)
        sequential = {k: v.to_dict() for k, v in _RUN_CACHE.items()}
        _SESSION.clear()
        api.run_grid(_SESSION, workloads, ["none", "spp"], 400, jobs=2)
        parallel = {k: v.to_dict() for k, v in _RUN_CACHE.items()}
        assert parallel == sequential

    def test_execute_specs_preserves_input_order(self):
        specs = [
            engine.run_spec("ispec06.mcf", "none", 300, DramConfig(), 2 << 20, False),
            engine.run_spec("hpc.linpack", "none", 300, DramConfig(), 2 << 20, False),
        ]
        results = engine.execute_specs(specs, jobs=2)
        assert len(results) == 2
        direct = [
            _run_workload("ispec06.mcf", "none", 300),
            _run_workload("hpc.linpack", "none", 300),
        ]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in direct]

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(ValueError):
            engine.execute_spec(("bogus", 1, 2))


class TestEngineConfig:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cfg = engine.current_config()
        assert cfg.jobs == 1
        assert cfg.disk_cache is True

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cfg = engine.current_config()
        assert cfg.jobs == 4
        assert cfg.disk_cache is False

    def test_configure_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        engine.configure(jobs=2, disk_cache=True)
        cfg = engine.current_config()
        assert cfg.jobs == 2
        assert cfg.disk_cache is True

    def test_session_config_carries_the_kernel_choice(self, monkeypatch):
        # Pool workers are configured from Session.config(); dropping the
        # kernel there would run them under "auto" whatever was chosen.
        engine.configure(kernel="py")
        assert engine.Session(jobs=2).config().kernel == "py"
        engine.reset_config()
        monkeypatch.setenv("REPRO_KERNEL", "object")
        assert engine.Session(jobs=2).config().kernel == "object"


class TestVerifyScrub:
    """`LocalDirBackend.verify`: the loud counterpart of corrupt-as-miss."""

    DIGEST = "ab" + "0" * 62
    DIGEST2 = "cd" + "0" * 62

    @pytest.fixture
    def store(self, tmp_path):
        from repro.engine import LocalDirBackend

        backend = LocalDirBackend(tmp_path / "store")
        backend.save_result(self.DIGEST, {"v": 1})
        backend.save_result(self.DIGEST2, {"v": 2})
        return backend

    def test_clean_store_verifies_clean(self, store):
        report = store.verify()
        assert report["checked"] == 2
        assert report["ok"] == 2
        assert report["corrupt"] == report["foreign"] == 0
        assert report["entries"] == []

    def test_torn_entry_is_reported_corrupt(self, store):
        path = store._result_path(self.DIGEST)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        report = store.verify()
        assert report["corrupt"] == 1 and report["ok"] == 1
        assert report["entries"] == [("corrupt", str(path))]
        assert report["quarantined"] == 0  # reporting never moves files
        assert path.exists()

    def test_misplaced_entry_is_reported_foreign(self, store):
        good = store._result_path(self.DIGEST)
        stray = store.root / "results" / "zz" / good.name
        stray.parent.mkdir(parents=True)
        good.rename(stray)  # wrong shard for its digest
        (store.root / "results" / "no-extension").write_bytes(b"junk")
        report = store.verify()
        assert report["foreign"] == 2

    def test_repair_quarantines_and_restores_honest_misses(self, store):
        path = store._result_path(self.DIGEST)
        path.write_bytes(b"garbage that does not unpickle")
        assert store.load_result(self.DIGEST) is None  # silent miss today
        report = store.verify(repair=True)
        assert report["corrupt"] == 1
        assert report["quarantined"] == 1
        assert not path.exists()
        quarantined = list((store.root / "corrupt").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        assert quarantined[0].read_bytes() == b"garbage that does not unpickle"
        # The healthy entry is untouched and the store verifies clean now.
        assert store.load_result(self.DIGEST2) == {"v": 2}
        assert store.verify()["corrupt"] == 0

    def test_repair_collisions_keep_every_byte(self, store):
        # Two rounds of corruption under the same digest: both rescued
        # copies survive side by side in corrupt/.
        path = store._result_path(self.DIGEST)
        path.write_bytes(b"first corruption")
        store.verify(repair=True)
        store.save_result(self.DIGEST, {"v": 3})
        path.write_bytes(b"second corruption")
        store.verify(repair=True)
        names = sorted(p.name for p in (store.root / "corrupt").iterdir())
        assert names == [path.name, f"{path.name}.1"]

    def test_in_progress_temp_files_are_skipped(self, store):
        (store.root / "results" / "ab" / ".tmp-writer").write_bytes(b"partial")
        report = store.verify()
        assert report["checked"] == 2 and report["ok"] == 2

    def test_trace_entries_are_scrubbed_too(self, store, tmp_path):
        import numpy as np

        from repro.cpu.trace import Trace as _Trace

        trace = _Trace(
            np.array([1], dtype=np.int64),
            np.array([0x400000], dtype=np.int64),
            np.array([0x1000], dtype=np.int64),
            np.array([0], dtype=np.uint8),
        )
        store.save_trace(self.DIGEST, trace)
        assert store.verify()["ok"] == 3
        store._trace_path(self.DIGEST).write_bytes(b"not an npz")
        report = store.verify(repair=True)
        assert report["corrupt"] == 1 and report["quarantined"] == 1

    def test_tiered_backend_scrubs_its_local_tier(self, tmp_path):
        from repro.engine import LocalDirBackend, TieredBackend

        local = LocalDirBackend(tmp_path / "local")
        shared = LocalDirBackend(tmp_path / "shared", touch_on_load=False)
        tiered = TieredBackend(local, shared)
        tiered.save_result(self.DIGEST, {"v": 1})
        local._result_path(self.DIGEST).write_bytes(b"torn")
        report = tiered.verify(repair=True)
        assert report["corrupt"] == 1 and report["quarantined"] == 1
