"""The HTTP daemon: ``jrpm serve``.

Endpoints
---------
``POST /analyze``
    Body per :mod:`repro.service.protocol`; replies 200 with
    ``{"request", "report", "meta"}`` where ``report`` is the exact
    canonical serialization ``jrpm run --json`` prints.  400 on a
    malformed request, 429 + ``Retry-After`` when the queue is at its
    bound, 500 when the pipeline failed, 503 while draining.
``GET /healthz``
    200 ``{"status": "ok", ...}`` while serving; 503 while draining
    (load balancers stop routing before in-flight work is cut off).
``GET /metrics``
    Prometheus text exposition (``Accept: application/json`` for the
    JSON snapshot).
``GET /workloads``
    The bundled workload names (what ``/analyze`` accepts).
``POST /push/<key>``
    Shard-to-shard result-LRU warming: a shard pushes each fresh
    result to the key's replicas so a failover target is warm before
    the primary dies.

Shutdown sequence (SIGTERM/SIGINT or :meth:`AnalysisService.stop`):
mark draining (healthz flips to 503, new /analyze gets 503) → drain
the scheduler (queued and in-flight requests resolve; their handler
threads write responses) → stop the HTTP accept loop → close the
resident executor pool → optionally dump the final metrics snapshot.
Everything is stdlib: ``http.server`` threads in front, the scheduler
behind.
"""

from __future__ import annotations

import http.client
import json
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from repro.jrpm.cache import ArtifactCache
from repro.jrpm.report import (
    ReportSchemaError,
    dumps_canonical,
    validate_report_dict,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PEERS_HEADER,
    ProtocolError,
    error_body,
    parse_analyze_request,
    parse_push_path,
    push_path,
)
from repro.service.scheduler import (
    QueueFullError,
    RequestScheduler,
    SchedulerClosedError,
)

#: default bound on one request's end-to-end wait (queue + compute);
#: generous — admission control, not this, is the overload defense
DEFAULT_REQUEST_TIMEOUT = 600.0

#: default bound on a request body; a hostile Content-Length must not
#: turn into an arbitrary allocation (413 instead)
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: how long a shard waits on a replica's /push before giving up on
#: it; warming replicas is an optimization and must stay cheap
REPLICA_TIMEOUT = 2.0


class _BadBody(Exception):
    """A request body the handler refuses to read.

    After a 413/400 the unread body bytes are still on the wire, so
    the connection cannot be kept alive — the handler must close it.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class JsonHandler(BaseHTTPRequestHandler):
    """Shared plumbing for the daemon's JSON-over-HTTP handlers (the
    single-service :class:`_Handler` and the sharded frontend's):
    canonical JSON responses, bounded keep-alive-safe body reads, and
    quiet logging.  Subclasses route; ``self.server.service`` is the
    owning service object (anything with ``metrics``, ``verbose`` and
    ``max_body_bytes``)."""

    server_version = "jrpm-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: ``end_headers()`` flushes the headers and the body
    #: follows in a second small send, which Nagle's algorithm would
    #: hold until the client's delayed ACK (~40 ms per keep-alive
    #: response)
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------

    @property
    def service(self):
        return self.server.service

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        if self.service.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send_json(self, status: int, payload: Any,
                   headers: Optional[Dict[str, str]] = None,
                   text: Optional[str] = None) -> None:
        body = (text if text is not None
                else dumps_canonical(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type",
                         "text/plain; charset=utf-8" if text is not None
                         else "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length", 0)
        try:
            length = int(raw)
        except ValueError:
            raise _BadBody(400, "malformed Content-Length: %r" % raw)
        if length > self.service.max_body_bytes:
            raise _BadBody(
                413, "request body of %d bytes exceeds the %d-byte "
                     "limit" % (length, self.service.max_body_bytes))
        return self.rfile.read(length) if length > 0 else b""


class _Handler(JsonHandler):
    """Routes to the owning :class:`AnalysisService`."""

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        started = time.monotonic()
        path = urlparse(self.path).path
        service = self.service
        endpoint = path.lstrip("/") or "root"
        if path == "/healthz":
            status, payload = service.health()
            self._send_json(status, payload)
        elif path == "/metrics":
            status = 200
            if "application/json" in self.headers.get("Accept", ""):
                self._send_json(200, service.metrics.to_dict())
            else:
                self._send_json(200, None,
                                text=service.metrics.render_prometheus())
        elif path == "/workloads":
            from repro.workloads.registry import workload_names
            status = 200
            self._send_json(200, {"workloads": workload_names(
                include_synthetic=True)})
        else:
            endpoint, status = "other", 404
            self._send_json(404, error_body("no such endpoint: %s"
                                            % path))
        service.metrics.observe_request(
            endpoint, status, time.monotonic() - started)

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        started = time.monotonic()
        path = urlparse(self.path).path
        service = self.service
        endpoint = "analyze" if path == "/analyze" else "other"
        # the body must be consumed (or the connection condemned)
        # before any response: on an HTTP/1.1 keep-alive connection
        # unread body bytes would be parsed as the next request line
        try:
            body = self._read_body()
        except _BadBody as exc:
            # counted before the response is written, so a client that
            # reads /metrics after it sees it counted
            service.metrics.observe_request(
                endpoint, exc.status, time.monotonic() - started)
            # the unread body is still on the wire: advertise and
            # perform a close (send_header('Connection','close') also
            # flips close_connection)
            self._send_json(exc.status, error_body(str(exc)),
                            headers={"Connection": "close"})
            return
        push_key = parse_push_path(path)
        if push_key is not None:
            status, payload = service.handle_push(push_key, body)
            self._send_json(status, payload)
            service.metrics.observe_request(
                "push", status, time.monotonic() - started)
            return
        if path != "/analyze":
            self._send_json(404, error_body("no such endpoint: %s"
                                            % path))
            service.metrics.observe_request(
                "other", 404, time.monotonic() - started)
            return
        status, payload, headers = service.handle_analyze(
            body, peers=self.headers.get(PEERS_HEADER))
        self._send_json(status, payload, headers=headers)
        service.metrics.observe_request(
            "analyze", status, time.monotonic() - started)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # the stdlib default listen backlog of 5 resets connections under
    # concurrent fan-in; the daemon must absorb bursts of 32+ connects
    # and shed load at the admission queue (429), not at the socket
    request_queue_size = 128
    service: "AnalysisService"


class AnalysisService:
    """The resident analysis daemon: HTTP front, scheduler behind.

    Embeddable: ``AnalysisService(port=0)`` binds an ephemeral port
    (read :attr:`port` after construction), :meth:`start` serves on a
    background thread, :meth:`stop` drains and shuts down.  The CLI
    wraps this with signal handlers and :meth:`serve_until_signal`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 scheduler: Optional[RequestScheduler] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 cache: Optional[ArtifactCache] = None,
                 request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 verbose: bool = False,
                 metrics_dump: Optional[str] = None,
                 **scheduler_kwargs):
        self.metrics = metrics if metrics is not None else \
            (scheduler.metrics if scheduler is not None
             else ServiceMetrics())
        if scheduler is not None:
            self.scheduler = scheduler
        else:
            self.scheduler = RequestScheduler(
                cache=cache, metrics=self.metrics, **scheduler_kwargs)
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.verbose = verbose
        #: path for the shutdown metrics flush (None: no dump)
        self.metrics_dump = metrics_dump
        self.draining = False
        self._started = time.monotonic()
        self._stop_requested = threading.Event()
        self._stopped = False
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.service = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        #: handler threads still writing responses, and a condition to
        #: wait for them during shutdown
        self._active = 0
        self._active_cond = threading.Condition()

    # -- request handling -------------------------------------------------

    def handle_analyze(self, body: bytes, peers: Optional[str] = None
                       ) -> Tuple[int, Dict[str, Any],
                                  Optional[Dict[str, str]]]:
        """Full /analyze logic; returns (status, payload, headers).

        Kept off the handler class so tests can drive it without a
        socket.  ``peers`` is the sharded frontend's comma-separated
        replica list (see :data:`~repro.service.protocol.PEERS_HEADER`).
        """
        with self._active_cond:
            self._active += 1
        try:
            return self._handle_analyze(body, peers)
        finally:
            with self._active_cond:
                self._active -= 1
                self._active_cond.notify_all()

    def _handle_analyze(self, body: bytes, peers: Optional[str] = None
                        ) -> Tuple[int, Dict[str, Any],
                                   Optional[Dict[str, str]]]:
        if self.draining:
            return 503, error_body("service is draining"), None
        try:
            request = parse_analyze_request(body)
        except ProtocolError as exc:
            return exc.status, error_body(str(exc)), None
        try:
            ticket = self.scheduler.submit(request)
        except QueueFullError as exc:
            # header and JSON body must agree: both carry the same
            # ceil'd estimate ("%d" alone would truncate 1.5 -> 1)
            retry_after = max(1, math.ceil(exc.retry_after))
            return (429,
                    error_body(str(exc), retry_after=retry_after),
                    {"Retry-After": "%d" % retry_after})
        except SchedulerClosedError:
            return 503, error_body("service is draining"), None
        waited = time.monotonic()
        outcome = ticket.wait(timeout=self.request_timeout)
        if outcome is None:
            # the computation keeps running (the pool can't cancel
            # it); release this waiter's claim so the scheduler knows
            # the eventual result is an orphan
            ticket.abandon()
            self.metrics.inc("request_timeouts")
            return (504,
                    error_body("request timed out after %.0fs in the "
                               "service" % self.request_timeout),
                    None)
        if outcome.get("status") != "ok":
            payload = error_body(
                outcome.get("error", "pipeline failed"),
                workload=outcome.get("workload"),
                attempts=outcome.get("attempts", 1))
            if outcome.get("trace"):
                payload["trace"] = outcome["trace"]
            return 500, payload, None
        report = outcome["report"]
        try:
            validate_report_dict(report)
        except ReportSchemaError as exc:
            return (500,
                    error_body("internal schema violation: %s" % exc),
                    None)
        if peers and not ticket.cached and not ticket.coalesced:
            # freshly computed here: push the outcome to the key's
            # replicas so their LRUs are warm before any failover
            self._push_replicas(request.key, outcome, peers)
        meta = {
            "cached": ticket.cached,
            "coalesced": ticket.coalesced,
            "wait_s": round(time.monotonic() - waited, 6),
            "attempts": outcome.get("attempts", 1),
        }
        if "batch_size" in outcome:
            meta["batch_size"] = outcome["batch_size"]
            meta["compute_s"] = outcome["compute_s"]
        return (200,
                {"request": request.describe(), "key": request.key,
                 "report": report, "meta": meta},
                None)

    def _push_replicas(self, key: str, outcome: Dict[str, Any],
                       peers: str) -> int:
        """POST a freshly computed outcome to the key's replica shards
        (``POST /push/<key>``) so their result LRUs warm immediately.

        Best-effort: a dead or slow replica costs one bounded timeout
        and a ``replica_push_failures`` tick, never a failed response.
        Returns the number of replicas warmed.
        """
        body = dumps_canonical({"outcome": outcome}).encode("utf-8")
        pushed = 0
        for addr in peers.split(","):
            host, _, port = addr.strip().rpartition(":")
            if not host or not port.isdigit():
                continue
            conn = http.client.HTTPConnection(
                host, int(port), timeout=REPLICA_TIMEOUT)
            try:
                conn.request(
                    "POST", push_path(key), body=body,
                    headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                if resp.status == 200:
                    pushed += 1
                    self.metrics.inc("replica_pushes")
                else:
                    self.metrics.inc("replica_push_failures")
            except (OSError, http.client.HTTPException):
                self.metrics.inc("replica_push_failures")
            finally:
                conn.close()
        return pushed

    def handle_push(self, key: str, body: bytes
                    ) -> Tuple[int, Dict[str, Any]]:
        """Adopt a replica's freshly computed outcome into the local
        result LRU (the receiving side of :meth:`_push_replicas`)."""
        try:
            data = json.loads(body.decode("utf-8"))
            outcome = data["outcome"]
        except (ValueError, UnicodeDecodeError, KeyError, TypeError):
            return 400, error_body(
                "push body must be JSON {\"outcome\": {...}}")
        if not isinstance(outcome, dict) \
                or outcome.get("status") != "ok":
            return 400, error_body(
                "push outcome must be a completed ok result")
        self.scheduler.install_result(key, outcome)
        self.metrics.inc("replica_push_received")
        return 200, {"status": "ok", "key": key}

    def health(self) -> Tuple[int, Dict[str, Any]]:
        payload = {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "queued": self.scheduler.queued,
            "in_flight": self.scheduler.in_flight,
        }
        return (503 if self.draining else 200), payload

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AnalysisService":
        """Serve on a background thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="jrpm-http",
            kwargs={"poll_interval": 0.1}, daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown; see the module docstring for the order."""
        if self._stopped:
            return
        self._stopped = True
        self.draining = True
        # let admitted work finish and its handler threads respond
        self.scheduler.stop(drain=drain, timeout=timeout)
        deadline = time.monotonic() + 5.0
        with self._active_cond:
            while self._active and time.monotonic() < deadline:
                self._active_cond.wait(timeout=0.1)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.metrics_dump:
            try:
                with open(self.metrics_dump, "w") as handle:
                    json.dump(self.metrics.to_dict(), handle, indent=2,
                              sort_keys=True)
                    handle.write("\n")
            except OSError:
                pass  # a failed flush must not fail the shutdown

    # -- signals -----------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT request a graceful stop (drain, then exit).

        Only callable from the main thread (signal module rules); the
        CLI path uses it, embedded users call :meth:`stop` directly.
        """
        def _request_stop(signum, frame):  # noqa: ARG001
            self._stop_requested.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    def serve_until_signal(self) -> None:
        """Block until a signal (or :meth:`request_stop`) arrives, then
        drain and stop."""
        self._stop_requested.wait()
        self.stop(drain=True)

    def request_stop(self) -> None:
        """Programmatic equivalent of SIGTERM."""
        self._stop_requested.set()
