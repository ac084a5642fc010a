"""One conformance suite every :class:`StoreBackend` must pass.

Backends are the engine's load-bearing persistence abstraction: a
session will happily plug in any object implementing the protocol, so
every implementation — current and future — must agree on the observable
contract.  This suite runs the same assertions against all four shipped
backends:

- ``local``  — :class:`LocalDirBackend` on a tmp directory;
- ``memory`` — :class:`InMemoryBackend`;
- ``tiered`` — :class:`TieredBackend` (local dir over a read-only
  shared dir);
- ``remote`` — :class:`RemoteBackend` against a :class:`CacheServer`
  spawned in-process on an ephemeral port.

The contract under test: put/get round-trips preserve payloads
bit-for-bit, unknown keys are honest ``None`` misses, overwrites are
last-write-wins, keys are isolated, and every artifact type a spec can
produce (``RunResult``, ``MultiProgramResult``, ``Trace``) survives the
round trip — a hit must be indistinguishable from a fresh computation.
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
from repro.engine.remote import RemoteBackend, serve_background

#: Well-formed content-addressed keys (64 lowercase hex chars).
DIGEST_A = "aa" + "0" * 62
DIGEST_B = "bb" + "0" * 62

BACKENDS = ("local", "memory", "tiered", "remote")


def _tiny_trace():
    return Trace(
        np.array([5, 7, 11], dtype=np.int64),
        np.array([0x400000, 0x400004, 0x400008], dtype=np.int64),
        np.array([0x1000, 0x1040, 0x1080], dtype=np.int64),
        np.array([0, 1, 2], dtype=np.uint8),
    )


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One instance of each shipped backend, torn down cleanly."""
    if request.param == "local":
        yield LocalDirBackend(tmp_path / "store")
    elif request.param == "memory":
        yield InMemoryBackend()
    elif request.param == "tiered":
        yield TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            LocalDirBackend(tmp_path / "shared", touch_on_load=False),
        )
    else:
        server, thread = serve_background(tmp_path / "served")
        try:
            yield RemoteBackend(server.url, timeout=5.0, retries=1, backoff=0.01)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


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

