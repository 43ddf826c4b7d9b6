"""Consistent-hash routing and the sharded frontend.

The sharded serving tier is a front/worker split:

* N *shard* processes (:mod:`repro.service.shard`), each a full
  :class:`~repro.service.server.AnalysisService` on its own port with
  its own resident :class:`~repro.jrpm.cache.ArtifactCache` and result
  LRU;
* one lightweight *frontend* (:class:`ShardedFrontend`) that owns no
  pipeline state: it parses each ``POST /analyze`` body, routes the
  request's content-addressed key through a :class:`HashRing` to the
  key's primary shard, and proxies the shard's response verbatim
  (adding only an ``X-Jrpm-Shard`` header), so a sharded daemon's
  ``/analyze`` bodies stay byte-identical to a single-shard one.

Routing is *consistent* hashing: every shard projects ``vnodes``
points onto a 64-bit ring and a key belongs to the first point
clockwise of its hash, so adding one shard to an N-shard tier remaps
only ~1/(N+1) of the key space and every other shard's caches stay
warm on their key range.  The first K distinct shards clockwise are
the key's *replica set*; the frontend forwards to the primary with the
remaining replicas named in ``X-Jrpm-Peers``, and the primary pushes
each freshly computed result to those replicas (``POST /push/<key>``),
so the next replica in line is warm when a failover reaches it.  The
ring is fixed for the frontend's lifetime; a result computed while
the push could not reach a replica is recomputed there on failover.

The frontend aggregates ``/healthz`` (503 unless every shard answers
ok) and ``/metrics`` (its own routing metrics, a per-shard breakdown,
and cluster-wide counter sums) and fails over to the next replica when
a shard connection dies.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import signal
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

from repro.jrpm.report import dumps_canonical
from repro.service.metrics import ServiceMetrics, aggregate_snapshots
from repro.service.protocol import (
    PEERS_HEADER,
    SHARD_HEADER,
    ProtocolError,
    error_body,
    parse_analyze_request,
)
from repro.service.server import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_REQUEST_TIMEOUT,
    JsonHandler,
    _BadBody,
)
from repro.service.shard import ShardProcess

#: how long the frontend waits on a shard's /healthz or /metrics
STATUS_TIMEOUT = 5.0


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Nodes are opaque string identifiers.  Each projects ``vnodes``
    points onto a 64-bit ring (SHA-256 of ``"node#i"``); a key is
    owned by the first point clockwise from its own hash.  Adding or
    removing one node moves only the ring arcs adjacent to that node's
    points — ~``1/len(nodes)`` of the key space.
    """

    def __init__(self, nodes: Sequence[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1, got %d" % vnodes)
        self.vnodes = vnodes
        self._nodes: set = set()
        self._points: List[Tuple[int, str]] = []  # sorted (hash, node)
        self._hashes: List[int] = []              # parallel, for bisect
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _reindex(self) -> None:
        self._points.sort()
        self._hashes = [point for point, _ in self._points]

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError("node %r already on the ring" % node)
        self._nodes.add(node)
        self._points.extend(
            (self._hash("%s#%d" % (node, i)), node)
            for i in range(self.vnodes))
        self._reindex()

    def remove(self, node: str) -> None:
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]
        self._reindex()

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def primary(self, key: str) -> str:
        """The node owning ``key``."""
        return self.replicas(key, 1)[0]

    def replicas(self, key: str, k: int) -> List[str]:
        """The first ``k`` distinct nodes clockwise from ``key``'s
        point: the primary first, then its successors (the push
        and failover targets).  Fewer than ``k`` when the ring is smaller."""
        if not self._points:
            raise ValueError("hash ring is empty")
        want = min(k, len(self._nodes))
        start = bisect.bisect_right(self._hashes, self._hash(key))
        found: List[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) == want:
                    break
        return found


class _FrontendHandler(JsonHandler):
    """Routes to the owning :class:`ShardedFrontend`."""

    server_version = "jrpm-frontend/1"

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        started = time.monotonic()
        path = urlparse(self.path).path
        frontend = self.service
        endpoint = path.lstrip("/") or "root"
        if path == "/healthz":
            status, payload = frontend.health()
            self._send_json(status, payload)
        elif path == "/metrics":
            status = 200
            if "application/json" in self.headers.get("Accept", ""):
                self._send_json(200, frontend.metrics_snapshot())
            else:
                self._send_json(200, None,
                                text=frontend.render_prometheus())
        elif path == "/workloads":
            from repro.workloads.registry import workload_names
            status = 200
            self._send_json(200, {"workloads": workload_names(
                include_synthetic=True)})
        else:
            endpoint, status = "other", 404
            self._send_json(404, error_body("no such endpoint: %s"
                                            % path))
        frontend.metrics.observe_request(
            endpoint, status, time.monotonic() - started)

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        started = time.monotonic()
        path = urlparse(self.path).path
        frontend = self.service
        endpoint = "analyze" if path == "/analyze" else "other"
        try:
            body = self._read_body()
        except _BadBody as exc:
            # counted before the response is written, as the shard
            # server does
            frontend.metrics.observe_request(
                endpoint, exc.status, time.monotonic() - started)
            self._send_json(exc.status, error_body(str(exc)),
                            headers={"Connection": "close"})
            return
        if path != "/analyze":
            self._send_json(404, error_body("no such endpoint: %s"
                                            % path))
            frontend.metrics.observe_request(
                "other", 404, time.monotonic() - started)
            return
        status, raw, headers = frontend.route_analyze(body)
        self._send_raw(status, raw, headers)
        frontend.metrics.observe_request(
            "analyze", status, time.monotonic() - started)

    def _send_raw(self, status: int, body: bytes,
                  headers: Dict[str, str]) -> None:
        self.send_response(status)
        self.send_header("Content-Type",
                         headers.pop("Content-Type", "application/json"))
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage


class _FrontendServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128
    service: "ShardedFrontend"


class ShardedFrontend:
    """The routing frontend of an N-shard serving tier.

    ``start()`` spawns the shard processes, builds the hash ring, and
    serves; ``stop()`` snapshots shard metrics, drains the shards
    (SIGTERM), and shuts the frontend down.  API mirrors
    :class:`~repro.service.server.AnalysisService` (``start``,
    ``stop``, ``install_signal_handlers``, ``serve_until_signal``) so
    the CLI treats both uniformly.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 shards: int = 2, replicas: int = 2, vnodes: int = 64,
                 request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 metrics: Optional[ServiceMetrics] = None,
                 metrics_dump: Optional[str] = None,
                 verbose: bool = False,
                 shard_options: Optional[Dict[str, Any]] = None):
        if shards < 1:
            raise ValueError("shards must be >= 1, got %d" % shards)
        if replicas < 1:
            raise ValueError("replicas must be >= 1, got %d" % replicas)
        self.shard_count = shards
        self.replica_count = min(replicas, shards)
        self.vnodes = vnodes
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.metrics_dump = metrics_dump
        self.verbose = verbose
        self.shard_options = dict(shard_options or {})
        self.draining = False
        self._started = time.monotonic()
        self._stop_requested = threading.Event()
        self._stopped = False
        self._final_snapshot: Optional[Dict[str, Any]] = None
        #: shard id ("0".."N-1") -> (host, port); filled by start()
        self.shard_addrs: Dict[str, Tuple[str, int]] = {}
        self._procs: List[ShardProcess] = []
        self.ring: Optional[HashRing] = None
        #: per-thread keep-alive connections, {addr: HTTPConnection}
        self._local = threading.local()
        self._httpd = _FrontendServer((host, port), _FrontendHandler)
        self._httpd.service = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ShardedFrontend":
        """Spawn the shards, build the ring, serve in the background."""
        try:
            for index in range(self.shard_count):
                proc = ShardProcess(index, options=self.shard_options)
                self._procs.append(proc)
                host, port = proc.spawn()
                self.shard_addrs[str(index)] = (host, port)
        except Exception:
            self._terminate_shards()
            raise
        self.ring = HashRing(nodes=sorted(self.shard_addrs),
                             vnodes=self.vnodes)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="jrpm-frontend",
            kwargs={"poll_interval": 0.1}, daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.draining = True
        # capture the cluster's final metrics while the shards can
        # still answer, then let them drain
        self._final_snapshot = self.metrics_snapshot()
        self._terminate_shards(timeout=timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.metrics_dump:
            try:
                with open(self.metrics_dump, "w") as handle:
                    json.dump(self._final_snapshot, handle, indent=2,
                              sort_keys=True)
                    handle.write("\n")
            except OSError:
                pass  # a failed flush must not fail the shutdown

    def _terminate_shards(self, timeout: float = 30.0) -> None:
        for proc in self._procs:
            proc.request_stop()
        for proc in self._procs:
            proc.wait(timeout=timeout)

    def install_signal_handlers(self) -> None:
        def _request_stop(signum, frame):  # noqa: ARG001
            self._stop_requested.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    def serve_until_signal(self) -> None:
        self._stop_requested.wait()
        self.stop(drain=True)

    def request_stop(self) -> None:
        self._stop_requested.set()

    # -- routing ---------------------------------------------------------

    def route_analyze(self, body: bytes
                      ) -> Tuple[int, bytes, Dict[str, str]]:
        """Route one raw ``POST /analyze`` body; returns
        ``(status, response bytes, response headers)``."""
        if self.draining:
            return (503,
                    (dumps_canonical(error_body("service is draining"))
                     + "\n").encode("utf-8"),
                    {})
        try:
            request = parse_analyze_request(body)
        except ProtocolError as exc:
            # reject here, with the exact bytes a shard would produce,
            # instead of spending a round trip on a doomed request
            return (exc.status,
                    (dumps_canonical(error_body(str(exc)))
                     + "\n").encode("utf-8"),
                    {})
        targets = self.ring.replicas(request.key, self.replica_count)
        last_error = "no shards configured"
        for attempt, shard_id in enumerate(targets):
            peers = ",".join("%s:%d" % self.shard_addrs[other]
                             for other in targets if other != shard_id)
            try:
                status, raw, headers = self._forward(
                    shard_id, body, peers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = "shard %s unreachable: %s" % (shard_id, exc)
                self.metrics.inc("shard_errors")
                if attempt + 1 < len(targets):
                    self.metrics.inc("failovers")
                continue
            self.metrics.inc("routed_shard_%s" % shard_id)
            headers[SHARD_HEADER] = shard_id
            return status, raw, headers
        self.metrics.inc("shard_unavailable")
        return (502,
                (dumps_canonical(error_body(
                    "no replica reachable for this key: %s"
                    % last_error)) + "\n").encode("utf-8"),
                {})

    def _forward(self, shard_id: str, body: bytes, peers: str
                 ) -> Tuple[int, bytes, Dict[str, str]]:
        """One proxied exchange on this thread's keep-alive connection
        to ``shard_id``; retries once on a stale pooled connection."""
        addr = self.shard_addrs[shard_id]
        headers = {"Content-Type": "application/json"}
        if peers:
            headers[PEERS_HEADER] = peers
        for retry in (False, True):
            conn = self._connection(addr, fresh=retry)
            try:
                conn.request("POST", "/analyze", body=body,
                             headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except (OSError, http.client.HTTPException):
                self._drop_connection(addr)
                if retry:
                    raise
                continue
            out = {"Content-Type": resp.getheader(
                "Content-Type", "application/json")}
            retry_after = resp.getheader("Retry-After")
            if retry_after is not None:
                out["Retry-After"] = retry_after
            return resp.status, raw, out
        raise OSError("unreachable")  # pragma: no cover - loop returns

    def _connection(self, addr: Tuple[str, int],
                    fresh: bool = False) -> http.client.HTTPConnection:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        conn = pool.get(addr)
        if conn is None or fresh:
            if conn is not None:
                conn.close()
            # generous timeout: an /analyze can legitimately wait the
            # shard's whole request_timeout before answering 504
            conn = pool[addr] = http.client.HTTPConnection(
                addr[0], addr[1], timeout=self.request_timeout + 30.0)
        return conn

    def _drop_connection(self, addr: Tuple[str, int]) -> None:
        pool = getattr(self._local, "pool", None)
        if pool and addr in pool:
            pool.pop(addr).close()

    # -- aggregation -----------------------------------------------------

    def _shard_get(self, addr: Tuple[str, int], path: str,
                   headers: Optional[Dict[str, str]] = None
                   ) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection(addr[0], addr[1],
                                          timeout=STATUS_TIMEOUT)
        try:
            conn.request("GET", path, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """Aggregated health: ok only when every shard answers ok."""
        shards: Dict[str, Any] = {}
        all_ok = True
        for shard_id in sorted(self.shard_addrs):
            addr = self.shard_addrs[shard_id]
            try:
                status, payload = self._shard_get(addr, "/healthz")
            except (OSError, ValueError,
                    http.client.HTTPException) as exc:
                shards[shard_id] = {"up": False, "status": "down",
                                    "error": str(exc)}
                all_ok = False
                continue
            payload["up"] = True
            shards[shard_id] = payload
            if status != 200:
                all_ok = False
        status = ("draining" if self.draining
                  else "ok" if all_ok else "degraded")
        payload = {
            "status": status,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "shard_count": self.shard_count,
            "replicas": self.replica_count,
            "shards": shards,
        }
        return (200 if status == "ok" else 503), payload

    def _shard_snapshots(self) -> Dict[str, Dict[str, Any]]:
        snapshots: Dict[str, Dict[str, Any]] = {}
        for shard_id in sorted(self.shard_addrs):
            addr = self.shard_addrs[shard_id]
            try:
                status, payload = self._shard_get(
                    addr, "/metrics",
                    headers={"Accept": "application/json"})
            except (OSError, ValueError, http.client.HTTPException):
                continue
            if status == 200:
                snapshots[shard_id] = payload
        return snapshots

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The shard-aware /metrics JSON: the frontend's own routing
        metrics, each shard's full snapshot, and cluster-wide sums."""
        shards = self._shard_snapshots()
        return {
            "frontend": self.metrics.to_dict(),
            "shard_count": self.shard_count,
            "replicas": self.replica_count,
            "shards": shards,
            "aggregate": aggregate_snapshots(shards.values()),
        }

    def render_prometheus(self) -> str:
        """Frontend exposition plus per-shard and cluster-wide lines."""
        lines = [self.metrics.render_prometheus().rstrip("\n")]
        shards = self._shard_snapshots()
        lines.append("# HELP jrpm_shard_up Shard liveness as seen by "
                     "the frontend.")
        lines.append("# TYPE jrpm_shard_up gauge")
        for shard_id in sorted(self.shard_addrs):
            lines.append('jrpm_shard_up{shard="%s"} %d'
                         % (shard_id, 1 if shard_id in shards else 0))
        lines.append("# HELP jrpm_shard_counter_total Per-shard "
                     "scheduler counters.")
        lines.append("# TYPE jrpm_shard_counter_total counter")
        for shard_id, snap in sorted(shards.items()):
            for name, value in sorted(
                    snap.get("counters", {}).items()):
                lines.append(
                    'jrpm_shard_counter_total{shard="%s",counter="%s"}'
                    ' %d' % (shard_id, name, value))
        aggregate = aggregate_snapshots(shards.values())
        lines.append("# HELP jrpm_cluster_counter_total Cluster-wide "
                     "counter sums across shards.")
        lines.append("# TYPE jrpm_cluster_counter_total counter")
        for name, value in sorted(aggregate["counters"].items()):
            lines.append('jrpm_cluster_counter_total{counter="%s"} %d'
                         % (name, value))
        return "\n".join(lines) + "\n"
