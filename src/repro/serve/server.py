""":class:`CacheServer` — the GC+ sidecar process.

A stdlib :class:`socketserver.ThreadingTCPServer` with a small HTTP/1.1
reader of its own (:class:`_Handler`: one read of the head, one write
per response), wrapped around one shared
:class:`~repro.api.GraphCacheService`.  Connection threads are
cheap and unbounded; *request work* is bounded by a pool of
``GCConfig.max_sessions`` :class:`~repro.api.ServiceSession` handles —
each POST checks a session out, runs (queries through the session,
explain plans and mutations through the service), and returns it.  The
session pool is therefore the sidecar's concurrency limiter: at most
``max_sessions`` requests are in flight at once, and each of them runs
against the cache under the service's one lock, held for its whole call
(``docs/concurrency.md``).

Endpoints (wire format in :mod:`repro.serve.wire`, full reference in
``docs/serving.md``):

========================  ==========================================
``POST /query``           answer one graph query (+ per-query metrics)
``POST /query/batch``     answer a batch through one session
``POST /mutate``          ADD/DEL/UA/UR dataset mutations
``POST /explain``         read-only :class:`QueryPlan` receipt
``GET  /healthz``         liveness (200 while the process serves)
``GET  /readyz``          readiness (503 while draining)
``GET  /metrics``         Prometheus text format
========================  ==========================================

Graceful drain (:meth:`CacheServer.drain`): flip to not-ready (new work
is refused with 503 and ``Connection: close``), stop the accept loop,
wait for in-flight requests to finish (bounded by ``drain_timeout``),
close the session pool, save a snapshot via :mod:`repro.persist` when
the server has a ``snapshot_path``, and close the service.  The
``serve`` CLI wires SIGTERM/SIGINT to exactly this sequence, so a
``kill`` never loses the cache a process spent hours earning.
"""

from __future__ import annotations

import json
import math
import queue
import socketserver
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from repro.api.service import GraphCacheService, ServiceSession
from repro.dataset.change_plan import AppliedOp
from repro.dataset.log import OpType
from repro.persist import SnapshotError
from repro.serve.metrics import ServerStats, render_prometheus
from repro.serve.wire import (
    WireError,
    applied_op_to_wire,
    graph_from_wire,
    plan_to_wire,
    result_to_wire,
    require,
)

__all__ = ["CacheServer", "DrainReport", "MAX_BODY_BYTES", "MAX_HEADERS",
           "MAX_LINE_BYTES", "SESSION_WAIT_SECONDS"]

#: How long a request waits for a pool session before giving up with a
#: 503 — long enough to ride out a burst, short enough that a wedged
#: pipeline surfaces as backpressure instead of a silent pile-up.
SESSION_WAIT_SECONDS = 10.0

#: The largest request body read off a socket; a longer one is refused
#: with 413 before a byte of it is read.  Three orders of magnitude above
#: any graph the wire codec is meant for, and a bound on what one
#: connection thread can be made to buffer.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: The longest request line or header line read, line ending included;
#: a longer one is refused with 414 or 431 (``http.server``'s limits).
MAX_LINE_BYTES = 65536

#: The most header lines a request may carry before it is refused with
#: 431.
MAX_HEADERS = 100

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"
#: path → the one method it answers; any other method is a 405 whose
#: ``Allow`` names it (RFC 9110 §15.5.6)
_ROUTES = {"/metrics": "GET", "/healthz": "GET", "/readyz": "GET",
           "/query": "POST", "/query/batch": "POST", "/mutate": "POST",
           "/explain": "POST"}

#: The request headers the server acts on; every other one is read past.
_ACTED_ON = frozenset((b"content-length", b"connection",
                       b"transfer-encoding", b"expect"))
_STATUS_LINES = {status.value: b"HTTP/1.1 %d %s\r\n" % (
    status.value, status.phrase.encode("latin-1")) for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_BLANK_LINES = (b"\r\n", b"\n")


@dataclass(frozen=True)
class DrainReport:
    """What one graceful drain did (the CLI prints it on shutdown)."""

    in_flight_drained: bool     # False iff drain_timeout expired first
    snapshot_path: str | None   # where the final state was persisted
    snapshot_error: str | None  # why it was not (None on success/skip)
    drain_seconds: float


class _Response(Exception):
    """Early-exit carrying a finished (status, payload) response."""

    def __init__(self, status: int, payload: dict[str, Any]) -> None:
        super().__init__(status)
        self.status = status
        self.payload = payload


def _content_length(raw: str | None) -> int:
    """The body length a request declares, checked before the body is
    read: ``rfile.read`` trusts it, so ``-1`` would wait for EOF and a
    huge value for bytes that never come."""
    if raw is None:
        return 0
    if not (raw.isascii() and raw.isdigit()):
        raise _Response(400, {
            "error": f"Content-Length must be a non-negative integer, "
                     f"got {raw[:40]!r}"})
    digits = raw.lstrip("0") or "0"
    # Compared by digit count first: int() refuses very long strings.
    if (len(digits) > len(str(MAX_BODY_BYTES))
            or int(digits) > MAX_BODY_BYTES):
        raise _Response(413, {
            "error": f"request body of {digits[:40]} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit"})
    return int(digits)


class _Scope:
    """One request's hold on a pool session."""

    __slots__ = ("_server", "_handle")

    def __init__(self, server: "CacheServer") -> None:
        self._server = server

    def __enter__(self) -> ServiceSession:
        server = self._server
        try:
            self._handle = server._pool.get(timeout=SESSION_WAIT_SECONDS)
        except queue.Empty:
            raise _Response(503, {
                "error": f"no session available within "
                         f"{SESSION_WAIT_SECONDS:.0f}s "
                         f"({server._pool_size} in pool)"
            }) from None
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> None:
        self._server._pool.put(self._handle)


class _Flight:
    """One request counted as in flight, for :meth:`CacheServer.drain`.

    Readiness is checked and the count taken in one hold of
    ``_flight_cond``, where drain sets ``_draining``: a request is
    either refused with a 503 or waited for, never neither."""

    __slots__ = ("_server",)

    def __init__(self, server: "CacheServer") -> None:
        self._server = server

    def __enter__(self) -> None:
        server = self._server
        with server._flight_cond:
            if not server.ready:
                raise _Response(503, {"error": "draining"})
            server._in_flight += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._server._flight_cond:
            self._server._in_flight -= 1
            self._server._flight_cond.notify_all()


class _Handler(socketserver.StreamRequestHandler):
    """The HTTP/1.1 shell of one connection: reads a request head and
    its body, delegates to the app, answers in one write, and repeats
    while the connection stays open.  All routing/validation lives on
    :class:`CacheServer` so it is unit-testable without sockets.

    Only the headers in ``_ACTED_ON`` are kept.  A request the shell
    refuses (a malformed head, any ``Transfer-Encoding``, a bad
    ``Content-Length``, a method other than GET/POST) is answered in
    JSON, counted like any other response, and ends the connection:
    the rest of it stays unread.  Otherwise the connection is kept
    alive — under HTTP/1.1 unless the client sends ``Connection:
    close``, under HTTP/1.0 only with ``Connection: keep-alive`` — until
    the server drains.
    """

    timeout = 30                    # reap idle keep-alive connections
    # A 100 Continue and its final response are two writes; with Nagle
    # on, the second stalls behind the client's delayed ACK (~40 ms on
    # loopback).  TCP_NODELAY removes it.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: _Server = self.server  # type: ignore[assignment]
        while True:
            try:
                line = self.rfile.readline(MAX_LINE_BYTES + 1)
            except OSError:         # idle past `timeout`, or reset
                return
            if not line:            # closed by the client
                return
            if line in _BLANK_LINES:
                continue            # RFC 9112 §2.2: ignored before a request
            if not self._exchange(server, line):
                return

    def _exchange(self, server: _Server, line: bytes) -> bool:
        """Answer the request ``line`` starts; True iff the connection
        can carry another one."""
        app = server.app
        started = time.perf_counter()
        # The path a request is counted under until its line is parsed.
        self.command, self.path = "", "-"
        try:
            keep_alive, body = self._read_request(line)
        except _Response as early:
            keep_alive = False
            status, payload, content_type = app._json(early.status,
                                                      early.payload)
        except OSError:     # a reset, or a head that stalled: nobody to answer
            return False
        else:
            try:
                status, payload, content_type = app.handle(
                    self.command, self.path, body)
            # A handler bug must become a one-line 500, never a
            # traceback leaked onto the wire.
            # gclint: allow[broad-except] documented HTTP wire boundary
            except Exception as exc:
                status, content_type = 500, _JSON
                payload = json.dumps({"error": f"internal error: {exc}"}
                                     ).encode("utf-8")
        app.stats.observe_request(self.path, status)
        if self.path == "/query" and self.command == "POST":
            app.stats.observe_query_latency(time.perf_counter() - started)
        if app.draining:
            keep_alive = False      # persuade clients off a dying server
        allow = (b"Allow: %s\r\n" % _ROUTES[self.path].encode("latin-1")
                 if status == 405 else b"")
        head = b"%s%s%sContent-Type: %s\r\nContent-Length: %d\r\n%s\r\n" % (
            _STATUS_LINES[status], server.date_line(), allow,
            content_type.encode("latin-1"), len(payload),
            b"" if keep_alive else b"Connection: close\r\n")
        try:
            self.wfile.write(head + payload)
        except OSError:             # the client is gone
            return False
        return keep_alive

    def _read_request(self, line: bytes) -> tuple[bool, bytes]:
        """Read the request whose request line is ``line`` up to the end
        of its body: sets :attr:`command` and :attr:`path` and returns
        ``(keep_alive, body)``.  A refusal raises :class:`_Response`."""
        if len(line) > MAX_LINE_BYTES:
            raise _Response(414, {
                "error": f"request line longer than {MAX_LINE_BYTES} "
                         f"bytes"})
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
            raise _Response(400, {
                "error": f"malformed request line "
                         f"{line[:80].decode('latin-1')!r}"})
        method, target, version = words
        self.command, self.path = method, urlsplit(target).path
        fields: dict[bytes, bytes] = {}
        for _ in range(MAX_HEADERS + 1):
            field_line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(field_line) > MAX_LINE_BYTES:
                raise _Response(431, {
                    "error": f"header line longer than {MAX_LINE_BYTES} "
                             f"bytes"})
            if not field_line or field_line in _BLANK_LINES:
                break
            raw_name, _, value = field_line.partition(b":")
            name = raw_name.strip().lower()
            if name not in _ACTED_ON:
                continue
            if len(name) != len(raw_name):
                # RFC 9112 §5.1: another parser may read this field
                # (or a folded line) differently.
                raise _Response(400, {
                    "error": f"whitespace around header name "
                             f"{raw_name.decode('latin-1')!r}"})
            # A repeated field is one list (RFC 9110 §5.3), so two
            # Content-Lengths make one that is not a number.
            value = value.strip()
            fields[name] = (fields[name] + b", " + value
                            if name in fields else value)
        else:
            raise _Response(431, {
                "error": f"more than {MAX_HEADERS} header lines"})
        if method not in ("GET", "POST"):
            raise _Response(501, {
                "error": f"method {method!r} not implemented; the "
                         f"endpoints take GET or POST"})
        if b"transfer-encoding" in fields:
            raise _Response(411, {
                "error": "Transfer-Encoding is not accepted; send the "
                         "body with a Content-Length"})
        raw_length = fields.get(b"content-length")
        length = _content_length(
            None if raw_length is None else raw_length.decode("latin-1"))
        connection = fields.get(b"connection")
        options = ({option.strip()
                    for option in connection.lower().split(b",")}
                   if connection else ())
        keep_alive = (b"close" not in options if version == "HTTP/1.1"
                      else b"keep-alive" in options)
        if (length and version == "HTTP/1.1"
                and fields.get(b"expect", b"").lower() == b"100-continue"):
            self.wfile.write(_CONTINUE)
        try:
            body = self.rfile.read(length) if length else b""
        except TimeoutError:        # the reader is unusable from here on
            raise _Response(408, {
                "error": f"request body incomplete after "
                         f"{self.timeout}s"}) from None
        return keep_alive, body


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True  # drain owns lifecycle; stuck sockets can't pin exit
    allow_reuse_address = True

    def __init__(self, address, app: "CacheServer") -> None:
        super().__init__(address, _Handler)
        self.app = app
        self._date = (0, b"")

    def date_line(self) -> bytes:
        """The ``Date`` header line, formatted at most once a second."""
        now = int(time.time())
        second, line = self._date
        if second != now:
            line = b"Date: %s\r\n" % formatdate(now, usegmt=True).encode()
            self._date = (now, line)
        return line


def _drain_budget(seconds: float) -> float:
    """``seconds`` if it is a drain timeout: finite and >= 0 (0
    abandons in-flight requests at once).  ``inf`` overflowed the
    condition wait and ``nan`` never expired, so both are refused."""
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(f"drain timeout must be a finite number of "
                         f"seconds >= 0, got {seconds!r}")
    return seconds


class CacheServer:
    """The sidecar: one service, one session pool, one HTTP listener.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` — tests and the CLI's ``--port-file`` rely on this).
    Usable as a context manager: ``__enter__`` starts, ``__exit__``
    drains, saving the cache to ``snapshot_path`` when one is given.
    """

    def __init__(self, service: GraphCacheService, host: str = "127.0.0.1",
                 port: int = 0, drain_timeout: float = 30.0,
                 snapshot_path: str | Path | None = None) -> None:
        self.service = service
        self.stats = ServerStats()
        self.drain_timeout = _drain_budget(drain_timeout)
        self.snapshot_path = snapshot_path
        self._host = host
        self._requested_port = port
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None
        self._pool: queue.SimpleQueue[ServiceSession] = queue.SimpleQueue()
        self._pool_size = 0
        self._draining = False
        self._drained: DrainReport | None = None
        self._in_flight = 0
        self._flight_cond = threading.Condition()
        self._drain_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CacheServer":
        """Bind the socket, open the session pool, start serving.

        A socket that cannot be bound (port in use, unknown host) raises
        :class:`OSError` before any session is opened."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        self._httpd = _Server((self._host, self._requested_port), self)
        for _ in range(self.service.config.max_sessions):
            self._pool.put(self.service.session())
            self._pool_size += 1
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="gcplus-serve-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    @property
    def ready(self) -> bool:
        return (self._httpd is not None and not self._draining)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float | None = None) -> DrainReport:
        """Graceful shutdown; idempotent (later calls return the first
        report).  See the module docstring for the exact sequence.  A
        ``timeout`` that :class:`CacheServer` would refuse as
        ``drain_timeout`` raises :class:`ValueError` before anything
        stops."""
        budget = (self.drain_timeout if timeout is None
                  else _drain_budget(timeout))
        with self._drain_lock:
            if self._drained is not None:
                return self._drained
            started = time.perf_counter()
            with self._flight_cond:
                self._draining = True
            if self._httpd is not None:
                self._httpd.shutdown()          # stop accepting
                if self._thread is not None:
                    self._thread.join(timeout=5.0)
            deadline = time.monotonic() + budget
            with self._flight_cond:
                while self._in_flight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._flight_cond.wait(remaining)
                drained = self._in_flight == 0
            # Finished (or abandoned) serving: retire the pool.  Session
            # close is slot bookkeeping only — the shared cache state
            # stays intact for the snapshot below.
            while True:
                try:
                    self._pool.get_nowait().close()
                except queue.Empty:
                    break
            snapshot_path: str | None = None
            snapshot_error: str | None = None
            if self.snapshot_path is not None:
                try:
                    snapshot_path = str(self.service.save(self.snapshot_path))
                except (SnapshotError, OSError) as exc:
                    snapshot_error = str(exc)
            self.service.close()
            if self._httpd is not None:
                self._httpd.server_close()
            self._drained = DrainReport(
                in_flight_drained=drained,
                snapshot_path=snapshot_path,
                snapshot_error=snapshot_error,
                drain_seconds=time.perf_counter() - started,
            )
            return self._drained

    # ------------------------------------------------------------------
    # Routing (socket-free, so tests can drive it directly)
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str,
               body: bytes) -> tuple[int, bytes, str]:
        """Serve one request; returns ``(status, payload, content_type)``.

        A known path asked with the other method is a 405; the socket
        shell adds its ``Allow`` header from the same route table."""
        try:
            allowed = _ROUTES.get(path)
            if allowed is None:
                return self._json(404, {"error": f"unknown path {path!r}"})
            if method != allowed:
                return self._json(405, {"error": f"{path} is {allowed}-only"})
            if path == "/metrics":
                text = render_prometheus(self.service, self.stats,
                                         ready=self.ready)
                return 200, text.encode("utf-8"), _PROM
            if path == "/healthz":
                return self._json(200, {"status": "ok",
                                        "draining": self._draining})
            if path == "/readyz":
                if self.ready:
                    return self._json(200, {"ready": True})
                return self._json(503, {"ready": False,
                                        "reason": "draining"})
            with _Flight(self):
                return self._json(*self._serve(path,
                                               self._parse_json(body)))
        except _Response as early:
            return self._json(early.status, early.payload)
        except WireError as exc:
            return self._json(400, {"error": str(exc)})

    def _serve(self, path: str, payload: Any) -> tuple[int, dict[str, Any]]:
        with _Scope(self) as session:
            if path == "/query":
                query = graph_from_wire(require(payload, "graph", dict))
                return 200, result_to_wire(session.execute(query))
            if path == "/query/batch":
                graphs = [graph_from_wire(g)
                          for g in require(payload, "graphs", list)]
                return 200, {"results": [result_to_wire(r)
                                         for r in session.execute_many(graphs)]}
            if path == "/explain":
                query = graph_from_wire(require(payload, "graph", dict))
                return 200, plan_to_wire(self.service.explain(query))
            return 200, self._mutate(payload)

    def _mutate(self, payload: Any) -> dict[str, Any]:
        """One dataset mutation → the :class:`AppliedOp` it resolved to.

        The op vocabulary is the paper's: ``add_graph`` (ADD),
        ``delete_graph`` (DEL), ``add_edge`` (UA), ``remove_edge`` (UR).
        Domain rejections (unknown graph id, duplicate edge) come back
        as 400s — they are client errors, not server faults.
        """
        op = require(payload, "op", str)
        try:
            if op == "add_graph":
                graph = graph_from_wire(require(payload, "graph", dict))
                graph_id = self.service.add_graph(graph)
                applied = AppliedOp(OpType.ADD, graph_id)
            elif op == "delete_graph":
                graph_id = require(payload, "graph_id", int)
                self.service.delete_graph(graph_id)
                applied = AppliedOp(OpType.DEL, graph_id)
            elif op in ("add_edge", "remove_edge"):
                graph_id = require(payload, "graph_id", int)
                u = require(payload, "u", int)
                v = require(payload, "v", int)
                if op == "add_edge":
                    self.service.add_edge(graph_id, u, v)
                    applied = AppliedOp(OpType.UA, graph_id, (u, v))
                else:
                    self.service.remove_edge(graph_id, u, v)
                    applied = AppliedOp(OpType.UR, graph_id, (u, v))
            else:
                raise WireError(
                    f"unknown op {op!r}; choose from add_graph, "
                    f"delete_graph, add_edge, remove_edge"
                )
        except (KeyError, IndexError, ValueError) as exc:
            if isinstance(exc, WireError):
                raise
            # str(KeyError) is the repr of its message: quote-wrapped.
            reason = (exc.args[0] if isinstance(exc, KeyError) and exc.args
                      else exc)
            raise WireError(f"mutation rejected: {reason}") from exc
        return {"applied": applied_op_to_wire(applied)}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_json(body: bytes) -> Any:
        if not body:
            raise WireError("request body must be a JSON object")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            # RecursionError: brackets nested deeper than the decoder's
            # stack — undecodable like any other malformed body.
            raise WireError(f"malformed JSON body: {exc}") from exc

    @staticmethod
    def _json(status: int,
              payload: dict[str, Any]) -> tuple[int, bytes, str]:
        return status, json.dumps(payload).encode("utf-8"), _JSON
