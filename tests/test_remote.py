"""Remote cache server/client tests: wire protocol, faults, degradation.

The failure model under test (see docs/engine.md): the store is an
optimization, so **no** cache failure may ever surface as an exception
from a simulation run.  Corrupt bytes — on disk or over the wire — read
as misses and are recomputed; a dead, slow or read-only server degrades
to miss/no-op with a one-time warning.  The tiered composition is pinned
too: shared-tier hits promote into the local tier exactly once, and a
read-only shared tier is never written.
"""

import hashlib
import pickle
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.engine import (
    InMemoryBackend,
    LocalDirBackend,
    RunSpec,
    Session,
    TieredBackend,
    TraceSpec,
)
from repro.engine.remote import RemoteBackend, serve_background

DIGEST = "ab" + "0" * 62


@pytest.fixture(autouse=True)
def _fresh_warnings():
    """Reset the warn-once registries so each test observes its warnings."""
    RemoteBackend._warned_unreachable.clear()
    RemoteBackend._warned_read_only.clear()
    yield
    RemoteBackend._warned_unreachable.clear()
    RemoteBackend._warned_read_only.clear()


@pytest.fixture
def served(tmp_path):
    """A live cache server over a tmp dir: ``(server, client, root_dir)``."""
    root = tmp_path / "served"
    server, thread = serve_background(root)
    client = RemoteBackend(server.url, timeout=5.0, retries=1, backoff=0.01)
    yield server, client, root
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


def _fast_client(url):
    """A client tuned to fail fast (sub-second) for dead-server tests."""
    return RemoteBackend(url, timeout=0.3, retries=1, backoff=0.01)


def _stub_server(handler_cls):
    """Serve an arbitrary handler on an ephemeral port (daemon thread)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def _quiet(handler_cls):
    handler_cls.log_message = lambda *a, **k: None
    return handler_cls


class TestWireProtocol:
    def test_head_probes_existence(self, served):
        server, client, _ = served
        client.save_result(DIGEST, {"v": 1})
        status, headers, body = client._request("HEAD", f"/v1/results/{DIGEST}")
        assert status == 200
        assert body == b""
        assert int(headers["content-length"]) > 0

    def test_get_carries_verifiable_checksum(self, served):
        server, client, _ = served
        client.save_result(DIGEST, {"v": 1})
        status, headers, body = client._request("GET", f"/v1/results/{DIGEST}")
        assert status == 200
        assert headers["x-repro-sha256"] == hashlib.sha256(body).hexdigest()
        assert headers["etag"] == f'"sha256:{hashlib.sha256(body).hexdigest()}"'

    def test_server_rejects_malformed_digests(self, served):
        _, client, _ = served
        for bad in ("../../etc/passwd", "ABCDEF", "xyz", "ab"):
            status = client._request("GET", f"/v1/results/{bad}")[0]
            assert status in (400, 404), bad

    def test_server_rejects_unknown_paths(self, served):
        _, client, _ = served
        assert client._request("GET", "/v2/results/" + DIGEST)[0] == 404
        assert client._request("GET", "/v1/blobs/" + DIGEST)[0] == 404

    def test_server_rejects_corrupt_upload(self, served):
        """A PUT whose bytes do not match its checksum must not land."""
        server, client, root = served
        status, _, _ = client._request(
            "PUT",
            f"/v1/results/{DIGEST}",
            body=b"corrupted-in-flight",
            headers={"X-Repro-Sha256": "0" * 64},
        )
        assert status == 422
        assert LocalDirBackend(root).stats()["results"] == 0

    def test_serves_an_existing_local_cache_layout(self, served):
        """The server publishes LocalDirBackend's on-disk layout as-is."""
        server, client, root = served
        LocalDirBackend(root).save_result(DIGEST, {"from": "disk"})
        assert client.load_result(DIGEST) == {"from": "disk"}

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            RemoteBackend("ftp://example.org:8080")
        with pytest.raises(ValueError):
            RemoteBackend("http://")

    def test_accepts_https_urls(self):
        backend = RemoteBackend("https://example.org")
        assert backend.scheme == "https"
        assert backend.port == 443  # https default, not 80
        assert backend.url == "https://example.org:443"

    def test_rejects_url_with_path(self):
        # A dropped path prefix would read as all-404 "misses" and
        # silently disable the cache; refuse it loudly instead.
        with pytest.raises(ValueError):
            RemoteBackend("http://example.org:8080/cache")
        # ...but a bare trailing slash is fine.
        assert RemoteBackend("http://example.org:8080/").port == 8080

    def test_server_rejects_negative_content_length(self, served):
        _, client, root = served
        status = client._request(
            "PUT",
            f"/v1/results/{DIGEST}",
            headers={"Content-Length": "-1"},
        )[0]
        assert status == 400
        assert LocalDirBackend(root).stats()["results"] == 0

    def test_client_survives_pickle(self, served):
        _, client, _ = served
        client.save_result(DIGEST, {"v": 7})
        clone = pickle.loads(pickle.dumps(client))
        assert clone.load_result(DIGEST) == {"v": 7}


class TestReadOnlyServer:
    def test_reads_work_writes_refused(self, tmp_path, capsys):
        root = tmp_path / "served"
        LocalDirBackend(root).save_result(DIGEST, {"v": 1})
        server, thread = serve_background(root, read_only=True)
        try:
            client = RemoteBackend(server.url, timeout=5.0, retries=1, backoff=0.01)
            assert client.load_result(DIGEST) == {"v": 1}
            client.save_result("cd" + "0" * 62, {"v": 2})
            # The write was refused (403), noted once, and never lands.
            assert client._read_only is True
            assert LocalDirBackend(root).stats()["results"] == 1
            assert "read-only" in capsys.readouterr().err
            # Later saves are silent no-ops, loads keep working.
            client.save_result("ef" + "0" * 62, {"v": 3})
            assert client.load_result(DIGEST) == {"v": 1}
            # clear() is likewise refused server-side.
            client.clear()
            assert client.load_result(DIGEST) == {"v": 1}
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


class TestNetworkFaults:
    def test_connection_refused_degrades_to_miss(self, capsys):
        client = _fast_client("http://127.0.0.1:9")  # discard port: nothing listens
        assert client.load_result(DIGEST) is None
        client.save_result(DIGEST, {"v": 1})  # must not raise
        assert client.load_trace(DIGEST) is None
        assert client.stats() == {
            "results": 0,
            "traces": 0,
            "bytes": 0,
            "reachable": False,
        }
        # One warning for the whole burst, not one per operation.
        assert capsys.readouterr().err.count("unavailable") == 1

    def test_run_completes_with_dead_remote(self):
        session = Session(backend=_fast_client("http://127.0.0.1:9"))
        result = session.run(RunSpec("ispec06.mcf", "none", 300))
        assert result.ipc > 0

    def test_breaker_short_circuits_after_degradation(self):
        client = _fast_client("http://127.0.0.1:9")
        assert client.load_result(DIGEST) is None  # opens the breaker

        def _no_connect():
            raise AssertionError("breaker open but a connection was attempted")

        client._checkout = _no_connect
        # Every operation short-circuits without touching the network.
        assert client.load_result(DIGEST) is None
        client.save_result(DIGEST, {"v": 1})
        assert client.load_trace(DIGEST) is None
        assert client.stats()["reachable"] is False

    def test_breaker_recovers_after_cooldown(self, served):
        _, client, _ = served
        client.save_result(DIGEST, {"v": 1})
        client._down_until = time.monotonic() + 0.05  # as if tripped
        assert client.load_result(DIGEST) is None  # open: miss
        time.sleep(0.06)
        assert client.load_result(DIGEST) == {"v": 1}  # recovered
        assert client._down_until == 0.0  # success closes the breaker

    def test_timeout_degrades_to_miss_within_bounds(self):
        @_quiet
        class _Stalled(BaseHTTPRequestHandler):
            def do_GET(self):
                time.sleep(5.0)

        server, url = _stub_server(_Stalled)
        try:
            client = _fast_client(url)
            start = time.perf_counter()
            assert client.load_result(DIGEST) is None
            # Two attempts (retries=1) bounded by 0.3s timeouts each,
            # never the server's 5s stall.
            assert time.perf_counter() - start < 3.0
        finally:
            server.shutdown()
            server.server_close()

    def test_http_500_degrades_to_miss(self):
        @_quiet
        class _Erroring(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_error(500, "boom")

        server, url = _stub_server(_Erroring)
        try:
            assert _fast_client(url).load_result(DIGEST) is None
        finally:
            server.shutdown()
            server.server_close()

    def test_server_killed_mid_suite_falls_back_to_recompute(self, tmp_path):
        """Kill the server between runs: later runs recompute, bit-identical,
        with zero exceptions."""
        server, thread = serve_background(tmp_path / "served")
        url = server.url
        session = Session(
            backend=RemoteBackend(url, timeout=0.3, retries=1, backoff=0.01)
        )
        alive = session.run(RunSpec("ispec06.mcf", "none", 300))
        assert LocalDirBackend(tmp_path / "served").stats()["results"] == 1

        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

        # A fresh machine reading through to the dead server: every
        # remote load misses, the run itself recomputes and matches.
        survivor = Session(
            backend=TieredBackend(
                LocalDirBackend(tmp_path / "local-b"),
                RemoteBackend(url, timeout=0.3, retries=1, backoff=0.01),
            )
        )
        specs = [
            RunSpec("ispec06.mcf", "none", 300),
            RunSpec("ispec06.mcf", "spp", 300),
        ]
        recomputed = survivor.run(specs)
        assert recomputed[0].to_dict() == alive.to_dict()
        assert recomputed[1].ipc > 0


class TestWireCorruption:
    """Bad bytes over the wire must read as misses, never raise."""

    @staticmethod
    def _body_server(body, checksum):
        @_quiet
        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                if checksum is not None:
                    self.send_header("X-Repro-Sha256", checksum)
                self.end_headers()
                self.wfile.write(body)

        return _stub_server(_Handler)

    def test_checksum_mismatch_is_a_miss(self, capsys):
        server, url = self._body_server(b"garbage-bytes", "0" * 64)
        try:
            client = RemoteBackend(url, timeout=1.0, retries=0, backoff=0.01)
            assert client.load_result(DIGEST) is None
            assert "checksum" in capsys.readouterr().err
        finally:
            server.shutdown()
            server.server_close()

    def test_truncated_payload_with_honest_checksum_is_a_miss(self):
        # The payload really was truncated server-side, so its checksum
        # verifies — the unpickle failure must still read as a miss.
        truncated = pickle.dumps({"meta": {}, "result": {"v": 1}})[:10]
        server, url = self._body_server(
            truncated, hashlib.sha256(truncated).hexdigest()
        )
        try:
            client = RemoteBackend(url, timeout=1.0, retries=0, backoff=0.01)
            assert client.load_result(DIGEST) is None
            assert client.load_trace(DIGEST) is None
        finally:
            server.shutdown()
            server.server_close()

    def test_unpicklable_garbage_without_checksum_is_a_miss(self):
        server, url = self._body_server(b"\x00not a pickle\xff", None)
        try:
            client = RemoteBackend(url, timeout=1.0, retries=0, backoff=0.01)
            assert client.load_result(DIGEST) is None
            assert client.load_trace(DIGEST) is None
        finally:
            server.shutdown()
            server.server_close()


class TestDiskCorruption:
    """On-disk damage in LocalDirBackend reads as a miss and recomputes."""

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.save_result(DIGEST, {"v": 1})
        path = backend._result_path(DIGEST)
        path.write_bytes(path.read_bytes()[:11])
        assert backend.load_result(DIGEST) is None

    def test_garbage_pickle_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.save_result(DIGEST, {"v": 1})
        backend._result_path(DIGEST).write_bytes(b"\x80\x05garbage")
        assert backend.load_result(DIGEST) is None

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
        path = backend._trace_path(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"PK\x03\x04 but not really a zip")
        assert backend.load_trace(DIGEST) is None

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
        shared.inner.save_result(DIGEST, {"v": 1})
        local = _Counting(InMemoryBackend())
        tiered = TieredBackend(local, shared)
        assert tiered.load_result(DIGEST) == {"v": 1}
        assert tiered.load_result(DIGEST) == {"v": 1}
        # First load read through and promoted; the second was served
        # locally without touching the shared tier again.
        assert local.calls["save_result"] == 1
        assert shared.calls["load_result"] == 1

    def test_read_only_shared_tier_is_never_written(self):
        shared = _Counting(InMemoryBackend())
        shared.inner.save_result(DIGEST, {"v": 1})
        local = _Counting(InMemoryBackend())
        tiered = TieredBackend(local, shared)  # default: shared read-only
        tiered.load_result(DIGEST)  # promotion
        tiered.save_result("cd" + "0" * 62, {"v": 2})  # ordinary save
        tiered.clear()
        assert "save_result" not in shared.calls
        assert "save_trace" not in shared.calls
        assert "clear" not in shared.calls

    def test_promotion_survives_failing_local_tier(self, tmp_path):
        """A read-only local tier degrades promotion, never the load."""
        shared = LocalDirBackend(tmp_path / "shared")
        shared.save_result(DIGEST, {"v": 1})
        local_root = tmp_path / "frozen"
        local_root.mkdir()
        local = LocalDirBackend(local_root)
        local_root.chmod(0o500)  # unwritable: promotion will fail
        try:
            tiered = TieredBackend(local, shared)
            assert tiered.load_result(DIGEST) == {"v": 1}
        finally:
            local_root.chmod(0o700)


class TestTwoMachineSharing:
    def test_remote_backed_session_fans_out_over_the_pool(self, served, tmp_path):
        """RemoteBackend crosses the process-pool boundary: workers pull
        from and publish to the shared server."""
        server, client, _ = served
        session = Session(backend=client)
        specs = [
            RunSpec("ispec06.mcf", "none", 300),
            RunSpec("hpc.linpack", "none", 300),
        ]
        parallel = [r.to_dict() for r in session.run(specs, jobs=2)]
        assert client.stats()["results"] == 2
        session.clear(disk=False)
        warm = [r.to_dict() for r in session.run(specs)]
        assert warm == parallel
