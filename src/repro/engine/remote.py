"""Remote artifact store: HTTP cache server + ``RemoteBackend`` client.

A small stdlib-only HTTP server that exposes a :class:`LocalDirBackend`
-layout cache directory over the network, and a client backend
implementing the :class:`~repro.engine.backends.StoreBackend` protocol
against it.  Because cache keys are content-addressed and salted (see
:mod:`repro.engine.fingerprint`), artifacts are host-portable by
construction — any machine that can reach the server shares the same
experiment store.

Nothing in the engine's configuration builds this store: it plugs in
like any other backend, explicitly::

    from repro.engine import Session
    from repro.engine.remote import RemoteBackend

    session = Session(backend=RemoteBackend("http://cache-host:8765"))

and the server is started from Python, e.g.
``CacheServer(("0.0.0.0", 8765), "/srv/cache").serve_forever()``.
Importing :mod:`repro.engine` does not import this module.

Wire format ``v1``: ``GET``/``HEAD``/``PUT`` on ``/v1/results/<digest>``
(the pickled ``{"meta", "result"}`` bytes of ``results/<aa>/<digest>.pkl``)
and ``/v1/traces/<digest>`` (the ``.npz`` bytes), ``DELETE
/v1/artifacts`` to clear, and ``GET /v1/stats`` for JSON entry counts.
Artifact bodies travel with their SHA-256 in ``X-Repro-Sha256`` both
ways and are verified before use (``422`` on a bad upload); a read-only
server answers mutations with ``403``.  ``<digest>`` must be 8–64
lowercase hex chars, which also makes path traversal impossible.

The client is engineered for graceful degradation: the remote store is
an optimization, so *any* network, protocol or decode failure is a
cache miss (loads) or a no-op (saves) with a one-time warning on
stderr — never an exception out of a simulation run.
"""

import hashlib
import http.client
import io
import json
import pickle
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.cpu.trace import Trace
from repro.engine.backends import LocalDirBackend

#: Lowercase-hex content-addressed key: full fingerprints are 64 hex
#: chars; shorter test digests are accepted down to 8.
_DIGEST_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: URL path prefix of the artifact namespace.
_API = "/v1"

_KINDS = ("results", "traces")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# -- server ------------------------------------------------------------------


class _CacheRequestHandler(BaseHTTPRequestHandler):
    """One request against the served cache directory.

    The handler reads and writes the *raw artifact bytes* through the
    same path layout as :class:`LocalDirBackend`, so serving
    ``~/.cache/dspatch-repro`` publishes an existing local cache without
    any import/export step.
    """

    server_version = "repro-cache/1"
    # Keep-alive so RemoteBackend's pooled connections are reused.
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _artifact_path(self):
        """Resolve the URL to an on-disk artifact path, or answer an error.

        Returns ``None`` after sending the error response when the URL is
        not a well-formed ``/v1/<kind>/<digest>`` artifact address.
        """
        parts = self.path.split("?", 1)[0].strip("/").split("/")
        if len(parts) != 3 or parts[0] != _API.strip("/") or parts[1] not in _KINDS:
            self.send_error(404, "unknown path")
            return None
        kind, digest = parts[1], parts[2]
        if not _DIGEST_RE.fullmatch(digest):
            self.send_error(400, "digest must be 8-64 lowercase hex chars")
            return None
        store = self.server.store
        if kind == "results":
            return store._result_path(digest)
        return store._trace_path(digest)

    def _send_bytes(self, status, body, content_type="application/octet-stream"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if content_type == "application/octet-stream":
            digest = _sha256(body)
            self.send_header("ETag", f'"sha256:{digest}"')
            self.send_header("X-Repro-Sha256", digest)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def do_GET(self):
        if self.path.split("?", 1)[0] == f"{_API}/stats":
            stats = dict(self.server.store.stats())
            stats["read_only"] = self.server.read_only
            body = json.dumps(stats, sort_keys=True).encode()
            self._send_bytes(200, body, content_type="application/json")
            return
        path = self._artifact_path()
        if path is None:
            return
        try:
            body = path.read_bytes()
        except OSError:
            self.send_error(404, "no such artifact")
            return
        self._send_bytes(200, body)

    do_HEAD = do_GET

    def do_PUT(self):
        path = self._artifact_path()
        if path is None:
            return
        if self.server.read_only:
            self.send_error(403, "server is read-only")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self.send_error(411, "Content-Length required")
            return
        if length < 0:
            # rfile.read(-1) would block until the peer closes, pinning
            # this handler thread forever on a keep-alive connection.
            self.send_error(400, "negative Content-Length")
            return
        body = self.rfile.read(length)
        if len(body) != length:
            self.send_error(400, "truncated request body")
            return
        expected = self.headers.get("X-Repro-Sha256")
        if expected is not None and expected != _sha256(body):
            self.send_error(422, "checksum mismatch")
            return
        try:
            LocalDirBackend._atomic_write(path, lambda f: f.write(body))
        except OSError as exc:
            self.send_error(507, f"cannot store artifact: {exc}")
            return
        self._send_bytes(201, b"")

    def do_DELETE(self):
        if self.path.split("?", 1)[0] != f"{_API}/artifacts":
            self.send_error(404, "unknown path")
            return
        if self.server.read_only:
            self.send_error(403, "server is read-only")
            return
        self.server.store.clear()
        self._send_bytes(204, b"")


class CacheServer(ThreadingHTTPServer):
    """Threaded HTTP server publishing one cache directory.

    ``read_only=True`` turns every mutating verb (PUT/DELETE) into a
    ``403`` — the mode for publishing a curated store (a CI artifact
    cache, a reference-results host) that clients may read but not grow.
    """

    daemon_threads = True

    def __init__(self, address, cache_dir, read_only=False, verbose=False):
        super().__init__(address, _CacheRequestHandler)
        #: Path helpers + atomic writes + stats over the served tree.
        #: Reads must not perturb the owner's LRU order.
        self.store = LocalDirBackend(cache_dir, touch_on_load=False)
        self.read_only = read_only
        self.verbose = verbose

    def handle_error(self, request, client_address):
        """Keep peer-inflicted transport noise (a dropped connection) off
        stderr; anything else is a server bug and reports normally."""
        if isinstance(sys.exc_info()[1], OSError):
            return
        super().handle_error(request, client_address)

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_background(cache_dir, host="127.0.0.1", port=0, read_only=False):
    """Start a server on a daemon thread; returns ``(server, thread)``.

    ``port=0`` binds an ephemeral port; ``server.url`` is the base URL
    and ``server.shutdown()`` stops it.
    """
    server = CacheServer((host, port), cache_dir, read_only=read_only)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


# -- client ------------------------------------------------------------------


class RemoteBackend:
    """:class:`StoreBackend` client for a :class:`CacheServer`.

    Transport discipline:

    - a small pool of keep-alive connections (``pool_size``), shared by
      the session's threads and rebuilt transparently after an error;
    - every request is bounded by ``timeout`` seconds and retried at
      most ``retries`` times with exponential backoff (transport errors
      and 5xx responses retry; 404 is an honest miss and does not);
    - a request that exhausts its retries opens a circuit breaker for
      ``cooldown`` seconds: later operations short-circuit to misses
      instead of each re-paying the full retries x timeout cycle
      against a dead-but-timing-out peer;
    - *no* failure escapes: loads miss and saves no-op after one warning
      per URL per process;
    - a ``403`` on PUT flips the client into read-only mode (the server
      is read-only) and silently stops writing.

    Integrity: responses carry the body's SHA-256 (``X-Repro-Sha256``);
    the client verifies it before decoding, and sends the same header on
    PUT so the server can reject bytes corrupted in flight.  The digest
    *key* is already content-addressed, so a verified payload under the
    right key is the right artifact.

    ``https://`` URLs (a TLS-terminating proxy in front of the server)
    verify against the system trust store.  Instances are picklable
    (connections and locks are rebuilt on unpickling), so remote-backed
    sessions can fan work across the process pool.
    """

    shared_across_processes = True

    #: URLs that already warned (class-level: once per process per
    #: server, not once per instance).
    _warned_unreachable = set()
    _warned_read_only = set()

    def __init__(self, url, timeout=5.0, retries=2, backoff=0.1, pool_size=4, cooldown=30.0):
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("http", "https"):
            raise ValueError(f"RemoteBackend speaks http(s), got {url!r}")
        if not split.hostname:
            raise ValueError(f"remote cache URL has no host: {url!r}")
        if split.path.strip("/"):
            # A silently dropped prefix would turn every request into a
            # 404 "miss" and disable the cache without a word.
            raise ValueError(
                f"remote cache URL must not have a path, got {url!r} "
                "(the server owns the /v1/... namespace)"
            )
        self.scheme = split.scheme
        self.host = split.hostname
        self.port = split.port or (443 if self.scheme == "https" else 80)
        self.url = f"{self.scheme}://{self.host}:{self.port}"
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.pool_size = max(1, int(pool_size))
        self.cooldown = float(cooldown)
        self._down_until = 0.0
        self._read_only = False
        self._init_pool()

    def _init_pool(self):
        self._pool = []
        self._lock = threading.Lock()

    # Connections and locks must not cross pickle (process-pool workers
    # rebuild their own against the same server).
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_pool"], state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_pool()

    # -- transport -----------------------------------------------------------

    def _checkout(self):
        with self._lock:
            if self._pool:
                return self._pool.pop()
        if self.scheme == "https":
            return http.client.HTTPSConnection(self.host, self.port, timeout=self.timeout)
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _checkin(self, conn):
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def _drop_pool(self):
        """Discard pooled connections (they share the failed peer)."""
        with self._lock:
            stale, self._pool = self._pool, []
        for conn in stale:
            conn.close()

    def _request(self, method, target, body=None, headers=None):
        """One bounded-retry request; ``(status, headers, body)`` or ``None``.

        ``None`` means the server is unusable for this operation (after
        retries, or instantly while the breaker is open) and the caller
        must degrade; the one-time warning has already fired.
        """
        if time.monotonic() < self._down_until:
            return None
        last_error = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            conn = None
            try:
                conn = self._checkout()
                conn.request(method, target, body=body, headers=dict(headers or {}))
                response = conn.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException) as exc:
                # Refused/reset connections, timeouts, truncated
                # responses.  The whole pool shares the failed peer;
                # retry on a fresh connection rather than a stale one.
                if conn is not None:
                    conn.close()
                self._drop_pool()
                last_error = exc
                continue
            self._checkin(conn)
            if response.status >= 500:
                last_error = f"HTTP {response.status}"
                continue
            self._down_until = 0.0
            return response.status, {k.lower(): v for k, v in response.getheaders()}, payload
        # Open the breaker: a server that times out (rather than refuses)
        # would otherwise stall every later operation for the full
        # retries x timeout cycle; recovery is retried after cooldown.
        self._down_until = time.monotonic() + self.cooldown
        self._degrade(last_error)
        return None

    def _degrade(self, error):
        if self.url not in RemoteBackend._warned_unreachable:
            RemoteBackend._warned_unreachable.add(self.url)
            print(
                f"warning: remote cache at {self.url} is unavailable ({error}); "
                "treating it as a miss",
                file=sys.stderr,
            )

    def _fetch(self, kind, digest):
        """Verified artifact bytes for one key, or ``None`` on any miss."""
        response = self._request("GET", f"{_API}/{kind}/{digest}")
        if response is None:
            return None
        status, headers, payload = response
        if status != 200:
            return None  # 404 and friends: an honest miss, no warning
        expected = headers.get("x-repro-sha256")
        if expected is not None and expected != _sha256(payload):
            self._degrade("response checksum mismatch")
            return None
        return payload

    def _push(self, kind, digest, payload):
        if self._read_only:
            return
        response = self._request(
            "PUT",
            f"{_API}/{kind}/{digest}",
            body=payload,
            headers={"X-Repro-Sha256": _sha256(payload)},
        )
        if response is not None and response[0] == 403:
            self._read_only = True
            if self.url not in RemoteBackend._warned_read_only:
                RemoteBackend._warned_read_only.add(self.url)
                print(
                    f"note: remote cache at {self.url} is read-only; "
                    "results will not be pushed",
                    file=sys.stderr,
                )

    # -- StoreBackend surface ------------------------------------------------

    def load_result(self, digest):
        """Fetch + unpickle one result; ``None`` on any miss or failure."""
        payload = self._fetch("results", digest)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)["result"]
        except Exception:  # corrupt server-side bytes decode as a miss
            return None

    def save_result(self, digest, result, meta=None):
        """Push one pickled result payload (best-effort)."""
        payload = pickle.dumps(
            {"meta": meta or {}, "result": result}, protocol=pickle.HIGHEST_PROTOCOL
        )
        self._push("results", digest, payload)

    def load_trace(self, digest):
        """Fetch + decode one ``.npz`` trace; ``None`` on any failure."""
        payload = self._fetch("traces", digest)
        if payload is None:
            return None
        try:
            return Trace.load(io.BytesIO(payload))
        except Exception:
            return None

    def save_trace(self, digest, trace):
        """Push one ``.npz``-encoded trace (best-effort)."""
        buffer = io.BytesIO()
        trace.save(buffer)
        self._push("traces", digest, buffer.getvalue())

    def clear(self):
        """Ask the server to clear the store (no-op if refused/offline)."""
        self._request("DELETE", f"{_API}/artifacts")

    def stats(self):
        """The server's entry counts, or zeros when unreachable."""
        response = self._request("GET", f"{_API}/stats")
        if response is not None and response[0] == 200:
            try:
                stats = json.loads(response[2])
                stats.setdefault("reachable", True)
                return stats
            except ValueError:
                pass
        return {"results": 0, "traces": 0, "bytes": 0, "reachable": False}
