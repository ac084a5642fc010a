"""One conformance suite every :class:`StoreBackend` must pass.

Backends are the engine's load-bearing persistence abstraction: a
session will happily plug in any object implementing the protocol, so
every implementation — current and future — must agree on the observable
contract.  This suite runs the same assertions against all three shipped
backends:

- ``local``  — :class:`LocalDirBackend` on a tmp directory;
- ``memory`` — :class:`InMemoryBackend`;
- ``tiered`` — :class:`TieredBackend` (local dir over a read-only
  shared dir).

The contract under test: put/get round-trips preserve payloads
bit-for-bit, unknown keys are honest ``None`` misses, overwrites are
last-write-wins, keys are isolated, and every artifact type a spec can
produce (``RunResult``, ``MultiProgramResult``, ``Trace``) survives the
round trip — a hit must be indistinguishable from a fresh computation.

The failure model is pinned here too (see docs/engine.md): the store is
an optimization, so **no** cache failure may surface as an exception
from a simulation run.  Corrupt bytes on disk read as misses and are
recomputed; shared-tier hits promote into the local tier exactly once,
and a read-only shared tier is never written.
"""

import numpy as np
import pytest

from repro.cpu.trace import Trace
from repro.engine import (
    InMemoryBackend,
    LocalDirBackend,
    MixSpec,
    RunSpec,
    Session,
    StoreBackend,
    TieredBackend,
    TraceSpec,
)

#: Well-formed content-addressed keys (64 lowercase hex chars).
DIGEST_A = "aa" + "0" * 62
DIGEST_B = "bb" + "0" * 62

BACKENDS = ("local", "memory", "tiered")


def _tiny_trace():
    return Trace(
        np.array([5, 7, 11], dtype=np.int64),
        np.array([0x400000, 0x400004, 0x400008], dtype=np.int64),
        np.array([0x1000, 0x1040, 0x1080], dtype=np.int64),
        np.array([0, 1, 2], dtype=np.uint8),
    )


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One instance of each shipped backend."""
    if request.param == "local":
        yield LocalDirBackend(tmp_path / "store")
    elif request.param == "memory":
        yield InMemoryBackend()
    else:
        yield TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            LocalDirBackend(tmp_path / "shared", touch_on_load=False),
        )


class TestProtocolConformance:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, StoreBackend)

    def test_result_round_trip(self, backend):
        payload = {"ipc": 1.25, "nested": {"tuple": (1, 2.5, "x")}, "list": [1, 2]}
        backend.save_result(DIGEST_A, payload, meta={"kind": "test"})
        assert backend.load_result(DIGEST_A) == payload

    def test_unknown_key_is_a_none_miss(self, backend):
        assert backend.load_result(DIGEST_A) is None
        assert backend.load_trace(DIGEST_A) is None

    def test_overwrite_is_last_write_wins(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_result(DIGEST_A, {"v": 2})
        assert backend.load_result(DIGEST_A) == {"v": 2}

    def test_saving_identical_payload_twice_is_idempotent(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_result(DIGEST_A, {"v": 1})
        assert backend.load_result(DIGEST_A) == {"v": 1}
        assert backend.stats()["results"] == 1

    def test_keys_are_isolated(self, backend):
        backend.save_result(DIGEST_A, {"who": "a"})
        backend.save_result(DIGEST_B, {"who": "b"})
        assert backend.load_result(DIGEST_A) == {"who": "a"}
        assert backend.load_result(DIGEST_B) == {"who": "b"}

    def test_results_and_traces_are_separate_namespaces(self, backend):
        backend.save_result(DIGEST_A, {"kind": "result"})
        backend.save_trace(DIGEST_A, _tiny_trace())
        assert backend.load_result(DIGEST_A) == {"kind": "result"}
        assert list(backend.load_trace(DIGEST_A)) == list(_tiny_trace())

    def test_trace_round_trip_preserves_arrays(self, backend):
        trace = _tiny_trace()
        backend.save_trace(DIGEST_A, trace)
        back = backend.load_trace(DIGEST_A)
        assert list(back) == list(trace)
        assert back.flags.dtype == trace.flags.dtype

    def test_clear_empties_the_writable_store(self, backend):
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_trace(DIGEST_B, _tiny_trace())
        backend.clear()
        assert backend.load_result(DIGEST_A) is None
        assert backend.load_trace(DIGEST_B) is None

    def test_stats_counts_entries(self, backend):
        empty = backend.stats()
        assert empty["results"] == 0 and empty["traces"] == 0
        backend.save_result(DIGEST_A, {"v": 1})
        backend.save_trace(DIGEST_B, _tiny_trace())
        stats = backend.stats()
        assert stats["results"] == 1
        assert stats["traces"] == 1
        assert stats["bytes"] > 0


class TestSessionResultTypes:
    """Every artifact type a spec produces must survive the round trip.

    A backend hit has to be bit-for-bit indistinguishable from the fresh
    computation, for ``RunResult`` (RunSpec), ``MultiProgramResult``
    (MixSpec) and ``Trace`` (TraceSpec) alike — this is the pickle-safety
    contract of the whole cache.
    """

    def test_run_result_round_trips_bitwise(self, backend):
        session = Session(backend=backend)
        spec = RunSpec("ispec06.mcf", "none", 300)
        fresh = session.run(spec)
        session.clear(disk=False)  # drop the memo; force the backend path
        reloaded = session.run(spec)
        assert reloaded is not fresh
        assert reloaded.to_dict() == fresh.to_dict()

    def test_mix_result_round_trips_bitwise(self, backend):
        session = Session(backend=backend)
        spec = MixSpec("m0", ("ispec06.mcf",) * 4, "none", 150)
        fresh = session.run(spec)
        session.clear(disk=False)
        reloaded = session.run(spec)
        assert reloaded is not fresh
        assert reloaded.global_cycles == fresh.global_cycles
        assert [c.to_dict() for c in reloaded.per_core] == [
            c.to_dict() for c in fresh.per_core
        ]

    def test_trace_round_trips_bitwise(self, backend):
        session = Session(backend=backend)
        spec = TraceSpec("ispec06.mcf", 250)
        fresh = session.trace(spec)
        session.clear(disk=False)
        reloaded = session.trace(spec)
        assert reloaded is not fresh
        assert list(reloaded) == list(fresh)


class TestDiskCorruption:
    """On-disk damage in LocalDirBackend reads as a miss and recomputes."""

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.save_result(DIGEST_A, {"v": 1})
        path = backend._result_path(DIGEST_A)
        path.write_bytes(path.read_bytes()[:11])
        assert backend.load_result(DIGEST_A) is None

    def test_garbage_pickle_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.save_result(DIGEST_A, {"v": 1})
        backend._result_path(DIGEST_A).write_bytes(b"\x80\x05garbage")
        assert backend.load_result(DIGEST_A) is None

    def test_truncated_npz_is_a_miss(self, tmp_path):
        # A truncated .npz raises zipfile.BadZipFile — which is not an
        # OSError; the load must swallow it as a miss, not crash.
        session = Session(backend=LocalDirBackend(tmp_path))
        spec = TraceSpec("ispec06.mcf", 250)
        fresh = session.trace(spec)
        path = session.store._trace_path(spec.fingerprint())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert session.store.load_trace(spec.fingerprint()) is None
        # ...and the session recomputes right through it.
        session.clear(disk=False)
        assert list(session.trace(spec)) == list(fresh)

    def test_garbage_npz_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        path = backend._trace_path(DIGEST_A)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"PK\x03\x04 but not really a zip")
        assert backend.load_trace(DIGEST_A) is None

    def test_corrupt_result_is_recomputed_bitwise(self, tmp_path):
        session = Session(backend=LocalDirBackend(tmp_path))
        spec = RunSpec("ispec06.mcf", "none", 300)
        fresh = session.run(spec)
        path = session.store._result_path(spec.fingerprint())
        path.write_bytes(b"rotten")
        session.clear(disk=False)
        assert session.run(spec).to_dict() == fresh.to_dict()


class _Counting:
    """StoreBackend wrapper counting calls per method (promotion audits)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def shared_across_processes(self):
        return self.inner.shared_across_processes

    def load_result(self, digest):
        self._count("load_result")
        return self.inner.load_result(digest)

    def save_result(self, digest, result, meta=None):
        self._count("save_result")
        return self.inner.save_result(digest, result, meta=meta)

    def load_trace(self, digest):
        self._count("load_trace")
        return self.inner.load_trace(digest)

    def save_trace(self, digest, trace):
        self._count("save_trace")
        return self.inner.save_trace(digest, trace)

    def clear(self):
        self._count("clear")
        return self.inner.clear()

    def stats(self):
        self._count("stats")
        return self.inner.stats()


class TestTieredPromotion:
    def test_shared_hit_promotes_to_local_exactly_once(self):
        shared = _Counting(InMemoryBackend())
        shared.inner.save_result(DIGEST_A, {"v": 1})
        local = _Counting(InMemoryBackend())
        tiered = TieredBackend(local, shared)
        assert tiered.load_result(DIGEST_A) == {"v": 1}
        assert tiered.load_result(DIGEST_A) == {"v": 1}
        # First load read through and promoted; the second was served
        # locally without touching the shared tier again.
        assert local.calls["save_result"] == 1
        assert shared.calls["load_result"] == 1

    def test_read_only_shared_tier_is_never_written(self):
        shared = _Counting(InMemoryBackend())
        shared.inner.save_result(DIGEST_A, {"v": 1})
        local = _Counting(InMemoryBackend())
        tiered = TieredBackend(local, shared)  # default: shared read-only
        tiered.load_result(DIGEST_A)  # promotion
        tiered.save_result("cd" + "0" * 62, {"v": 2})  # ordinary save
        tiered.clear()
        assert "save_result" not in shared.calls
        assert "save_trace" not in shared.calls
        assert "clear" not in shared.calls

    def test_promotion_survives_failing_local_tier(self, tmp_path):
        """A read-only local tier degrades promotion, never the load."""
        shared = LocalDirBackend(tmp_path / "shared")
        shared.save_result(DIGEST_A, {"v": 1})
        local_root = tmp_path / "frozen"
        local_root.mkdir()
        local = LocalDirBackend(local_root)
        local_root.chmod(0o500)  # unwritable: promotion will fail
        try:
            tiered = TieredBackend(local, shared)
            assert tiered.load_result(DIGEST_A) == {"v": 1}
        finally:
            local_root.chmod(0o700)
