"""End-to-end tests for the HTTP serving sidecar.

Covers the tentpole acceptance path: warm-start from a snapshot, mixed
query/mutation traffic over real sockets, ``/metrics`` agreeing with
the service's own counters, graceful drain persisting a snapshot that
reloads cleanly — plus the probe endpoints, error mapping, and a
subprocess SIGTERM drill of ``python -m repro serve``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs import io as graph_io
from repro.persist import load_snapshot
from repro.serve.server import (MAX_BODY_BYTES, MAX_HEADERS,
                                 MAX_LINE_BYTES, CacheServer)
from repro.serve.wire import graph_to_wire
from repro.workloads.typeb import TypeBConfig, generate_type_b
from tests.graph_helpers import induced_subgraph

#: GC110 / GC111 hold over every test here (tests/lockdep.py).
pytestmark = pytest.mark.usefixtures("lock_discipline")

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def make_graphs(n=40, seed=2017):
    return generate_aids_like(num_graphs=n, mean_vertices=8.0,
                              std_vertices=3.0, max_vertices=14, seed=seed)


def make_queries(graphs, n=30, seed=7):
    workload = generate_type_b(graphs, TypeBConfig(
        num_queries=n, no_answer_probability=0.2,
        answer_pool_size=max(n // 2, 5), no_answer_pool_size=5, seed=seed,
    ))
    return [q.graph for q in workload.queries]


def requests_answered(server, path, status=200):
    """How many requests for ``path`` the server answered with
    ``status``, as its ``/metrics`` counter reads it."""
    requests, _, _, _ = server.stats.snapshot()
    return requests.get((path, status), 0)


@pytest.fixture
def served():
    """A running sidecar over a fresh service; yields (server, service,
    graphs).  Draining (and thus closing) happens on teardown if the
    test did not drain itself."""
    graphs = make_graphs()
    store = GraphStore.from_graphs(graphs)
    service = GraphCacheService(store, GCConfig(
        model="CON", lock_mode="rw", max_sessions=4))
    server = CacheServer(service).start()
    yield server, service, graphs
    server.drain(timeout=5.0)


def request(server, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode()
    finally:
        conn.close()


def parse_prometheus(text):
    samples = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestEndpoints:
    def test_query_answers_match_direct_execution(self, served):
        server, service, graphs = served
        query = induced_subgraph(graphs[0], [0, 1, 2])
        status, payload = request(server, "POST", "/query",
                                  {"graph": graph_to_wire(query)})
        assert status == 200
        # The oracle: the same query straight through the service (the
        # pool holds every session slot, so go around it).
        expected = sorted(service.execute(query).answer)
        assert payload["answer_ids"] == expected
        assert payload["metrics"]["method_tests"] >= 0

    def test_batch(self, served):
        server, _, graphs = served
        wire = graph_to_wire(induced_subgraph(graphs[0], [0, 1]))
        status, payload = request(server, "POST", "/query/batch",
                                  {"graphs": [wire, wire, wire]})
        assert status == 200
        assert len(payload["results"]) == 3
        # Identical queries: identical answers.
        answers = {tuple(r["answer_ids"]) for r in payload["results"]}
        assert len(answers) == 1

    def test_mutate_lifecycle(self, served):
        server, service, graphs = served
        wire = graph_to_wire(graphs[0])
        status, payload = request(server, "POST", "/mutate",
                                  {"op": "add_graph", "graph": wire})
        assert status == 200
        new_id = payload["applied"]["graph_id"]
        assert payload["applied"]["op"] == "ADD"
        assert new_id in service.store

        status, payload = request(server, "POST", "/mutate",
                                  {"op": "delete_graph", "graph_id": new_id})
        assert status == 200
        assert payload["applied"]["op"] == "DEL"
        assert new_id not in service.store

    def test_mutate_edges(self, served):
        server, service, _ = served
        g = service.store.get(0)
        u, v = next(iter(g.non_edges()))
        status, payload = request(server, "POST", "/mutate", {
            "op": "add_edge", "graph_id": 0, "u": u, "v": v})
        assert status == 200
        assert payload["applied"] == {"op": "UA", "graph_id": 0,
                                      "edge": [u, v]}
        status, payload = request(server, "POST", "/mutate", {
            "op": "remove_edge", "graph_id": 0, "u": u, "v": v})
        assert status == 200
        assert payload["applied"]["op"] == "UR"

    def test_explain_is_read_only(self, served):
        server, service, graphs = served
        before = service.counters()["queries"]
        query = induced_subgraph(graphs[0], [0, 1])
        status, payload = request(server, "POST", "/explain",
                                  {"graph": graph_to_wire(query)})
        assert status == 200
        assert payload["candidate_size"] == len(service.store)
        assert "describe" in payload
        assert service.counters()["queries"] == before

    def test_probes(self, served):
        server, _, _ = served
        assert request(server, "GET", "/healthz")[0] == 200
        status, payload = request(server, "GET", "/readyz")
        assert status == 200 and payload["ready"] is True

    def test_error_mapping(self, served):
        server, _, graphs = served
        # Malformed JSON → 400 with a reason, not a traceback, over the
        # socket and through the socket-free seam alike.  The second
        # body nests deeper than the JSON decoder's stack: json.loads
        # raises RecursionError, not JSONDecodeError.
        nested = b'{"graph": ' + b"[" * 200000 + b"]" * 200000 + b"}"
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            for body in (b"{not json", nested):
                status, payload, _ = server.handle("POST", "/query", body)
                assert status == 400
                assert "malformed JSON" in json.loads(payload)["error"]
                conn.request("POST", "/query", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 400
                assert "malformed JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()
        # ...and the server is none the worse for it.
        assert request(server, "POST", "/query",
                       {"graph": graph_to_wire(graphs[0])})[0] == 200
        assert request(server, "GET", "/nope")[0] == 404
        assert request(server, "GET", "/query")[0] == 405
        status, payload = request(server, "POST", "/mutate",
                                  {"op": "delete_graph", "graph_id": 10**6})
        assert status == 400
        assert payload["error"] == (
            "mutation rejected: graph id 1000000 not in dataset "
            "(deleted or never existed)")
        status, payload = request(server, "POST", "/mutate",
                                  {"op": "shrink"})
        assert status == 400
        assert "unknown op" in payload["error"]


    @pytest.mark.parametrize("method,path,allowed", [
        ("POST", "/healthz", "GET"), ("POST", "/readyz", "GET"),
        ("POST", "/metrics", "GET"), ("GET", "/query", "POST"),
        ("GET", "/query/batch", "POST"), ("GET", "/mutate", "POST"),
        ("GET", "/explain", "POST"),
    ])
    def test_a_known_path_asked_with_the_other_method_is_a_405(
            self, served, method, path, allowed):
        """Not a 404 "unknown path", and over the socket the 405 names
        the method the path takes in ``Allow`` (RFC 9110 §15.5.6); the
        connection stays open."""
        server, _, _ = served
        status, payload, _ = server.handle(method, path, b"")
        assert status == 405
        assert json.loads(payload)["error"] == f"{path} is {allowed}-only"
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.request(method, path,
                         body=b"{}" if method == "POST" else None)
            response = conn.getresponse()
            response.read()
            assert response.status == 405
            assert response.getheader("Allow") == allowed
            assert response.getheader("Connection") is None
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
        finally:
            conn.close()
    @pytest.mark.parametrize("path", ["/query", "/explain", "/mutate"])
    def test_non_finite_labels_are_a_400(self, served, path):
        """A NaN label matches nothing under VF2 / VF2+ but itself under
        GraphQL (NaN != NaN), so no endpoint accepts one; the server
        stays healthy after the refusal."""
        server, service, _ = served
        before = len(service.store)
        graph = '{"labels": [NaN, "C"], "edges": [[0, 1]]}'
        body = ('{"op": "add_graph", "graph": %s}' % graph
                if path == "/mutate" else '{"graph": %s}' % graph)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.request("POST", path, body=body.encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "finite" in json.loads(response.read())["error"]
        finally:
            conn.close()
        assert len(service.store) == before
        assert request(server, "GET", "/healthz")[0] == 200


class TestMetricsEndpoint:
    def test_metrics_match_service_counters(self, served):
        """The acceptance criterion: after mixed traffic, ``/metrics``
        and the service's own counters()/summary() tell one story."""
        server, service, graphs = served
        queries = make_queries(graphs, n=20)
        for query in queries:
            assert request(server, "POST", "/query",
                           {"graph": graph_to_wire(query)})[0] == 200
        request(server, "POST", "/mutate",
                {"op": "add_graph", "graph": graph_to_wire(queries[0])})
        for query in queries[:5]:
            request(server, "POST", "/query",
                    {"graph": graph_to_wire(query)})

        status, text = request(server, "GET", "/metrics")
        assert status == 200
        samples = parse_prometheus(text)
        counters = service.counters()
        summary = service.summary()

        assert samples["gcplus_queries_total"] == counters["queries"] == 25
        assert samples["gcplus_cache_hits_total"] == counters["cache_hits"]
        assert samples["gcplus_cache_misses_total"] == counters["cache_misses"]
        assert (samples["gcplus_cache_hits_total"]
                + samples["gcplus_cache_misses_total"]) == 25
        assert samples["gcplus_admissions_total"] == counters["admissions"]
        assert samples["gcplus_evictions_total"] == counters["evictions"]
        assert samples["gcplus_purges_total"] == counters["purges"]
        # The five repeats arrive as new objects off the wire and still
        # run as their resident twins.
        assert (samples["gcplus_interned_queries_total"]
                == counters["interned_queries"] == summary["interned_queries"])
        assert counters["interned_queries"] >= 5
        # One lock per request: no admission is ever skipped, and no
        # metric counts them.
        assert "gcplus_admissions_skipped_total" not in samples
        assert (samples["gcplus_method_tests_total"]
                == summary["total_method_tests"])
        assert samples["gcplus_cache_entries"] == service.cache.cache_size
        assert samples["gcplus_window_entries"] == service.cache.window_size
        assert (samples['gcplus_http_requests_total{path="/query",status="200"}']
                == 25)
        assert samples["gcplus_query_latency_seconds_count"] == 25
        assert samples['gcplus_query_latency_seconds{quantile="0.5"}'] > 0
        assert samples['gcplus_query_latency_seconds{quantile="0.95"}'] > 0


    def test_collector_counters(self, served):
        """``gc.get_stats()`` at scrape time, as monotone counters."""
        server, _, graphs = served

        def scrape():
            status, text = request(server, "GET", "/metrics")
            assert status == 200
            return text, parse_prometheus(text)

        text, before = scrape()
        for name in ("gcplus_gc_collections_total",
                     "gcplus_gc_collected_objects_total",
                     "gcplus_gc_uncollectable_objects_total"):
            assert f"# TYPE {name} counter" in text
        for query in make_queries(graphs, n=10):
            request(server, "POST", "/query", {"graph": graph_to_wire(query)})
        garbage = []
        garbage.append(garbage)         # one cycle, for the collector
        del garbage
        freed = gc.collect()
        assert freed >= 1
        _, after = scrape()
        oldest = 'gcplus_gc_collections_total{generation="2"}'
        assert after[oldest] >= before[oldest] + 1
        collected = 'gcplus_gc_collected_objects_total{generation="2"}'
        assert after[collected] >= before[collected] + freed
        for generation in "012":
            for stem in ("collections", "collected_objects"):
                name = f'gcplus_gc_{stem}_total{{generation="{generation}"}}'
                assert after[name] >= before[name] >= 0
        assert (after["gcplus_gc_uncollectable_objects_total"]
                >= before["gcplus_gc_uncollectable_objects_total"] >= 0)


def read_response(reader):
    """One response off a socket's ``makefile("rb")``: (status, headers,
    payload), the payload decoded when it is JSON."""
    status = int(reader.readline().split()[1])
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = reader.read(int(headers["content-length"]))
    if headers["content-type"] == "application/json":
        payload = json.loads(payload)
    return status, headers, payload


def is_closed(sock) -> bool:
    """Whether the server has closed ``sock`` (after its last response)."""
    sock.settimeout(0.5)
    try:
        return sock.recv(1) == b""
    except TimeoutError:
        return False                    # kept alive: nothing more to read
    except ConnectionResetError:
        return True                     # closed with the request unread


def raw_exchange(server, head: bytes, body: bytes = b""):
    """Send bytes as they are; returns (status, headers, JSON payload)
    and whether the server closed the connection afterwards."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(head + body)
        status, headers, payload = read_response(sock.makefile("rb"))
        return status, headers, payload, is_closed(sock)


def query_request(body: bytes, version: str = "HTTP/1.1",
                  extra: str = "") -> bytes:
    """A ``POST /query`` request with ``body``, as it goes on the wire."""
    return (f"POST /query {version}\r\nHost: x\r\n"
            f"Content-Type: application/json\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body


class TestContentLength:
    """The declared length is validated before a byte of the body is
    read: a bad one used to hang the connection thread (``-1`` reads to
    EOF) or come back as a 500."""

    @staticmethod
    def head(length: str) -> bytes:
        return (f"POST /query HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n").encode("latin-1")

    @pytest.mark.parametrize("length, expected", [
        ("-1", 400), ("abc", 400), ("99999999999", 413),
        (str(MAX_BODY_BYTES + 1), 413), ("9" * 5000, 413), ("\xb2", 400),
    ])
    def test_bad_length_is_refused_unread(self, served, length, expected):
        server, service, _ = served
        # No body follows: an answer proves that none was waited for.
        status, headers, payload, closed = raw_exchange(
            server, self.head(length))
        assert status == expected
        assert "error" in payload
        assert headers["connection"] == "close" and closed
        assert requests_answered(server, "/query", expected) == 1
        assert service.counters()["queries"] == 0
        # The listener is unharmed.
        assert request(server, "GET", "/healthz")[0] == 200

    def test_stalled_body_is_a_408(self, served, monkeypatch, capfd):
        """A body shorter than its Content-Length used to come back as a
        500 on a connection left open, and the connection thread then
        died on its next read with a traceback on stderr."""
        import repro.serve.server as server_module

        server, service, _ = served
        monkeypatch.setattr(server_module._Handler, "timeout", 0.5)
        status, headers, payload, closed = raw_exchange(
            server, self.head("100"), b'{"gr')
        assert status == 408
        assert "request body incomplete" in payload["error"]
        assert headers["connection"] == "close" and closed
        assert requests_answered(server, "/query", 408) == 1
        assert service.counters()["queries"] == 0
        assert capfd.readouterr().err == ""
        # A fresh connection is served as usual.
        assert request(server, "GET", "/healthz")[0] == 200

    def test_body_at_the_cap_is_served(self, served):
        server, service, graphs = served
        body = json.dumps({"graph": graph_to_wire(graphs[0])}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, headers, payload, closed = raw_exchange(
            server, self.head(str(len(body))), body)
        assert status == 200 and 0 in payload["answer_ids"]
        assert "connection" not in headers and not closed

    def test_chunked_body_is_refused_unread(self, served):
        """A chunked body used to get a 400 on a connection left open,
        its chunk-size line then parsed as the next request (an HTML
        400), and a request pipelined behind it never answered."""
        server, service, graphs = served
        body = json.dumps({"graph": graph_to_wire(graphs[0])}).encode()
        head = (b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n")
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        healthz = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        status, headers, payload, closed = raw_exchange(
            server, head, chunked + healthz)
        assert status == 411 and "Transfer-Encoding" in payload["error"]
        assert headers["connection"] == "close" and closed
        assert requests_answered(server, "/query", 411) == 1
        assert requests_answered(server, "/healthz") == 0
        assert service.counters()["queries"] == 0

    @pytest.mark.parametrize("fields", [
        "Content-Length: 2\r\nContent-Length: {n}\r\n",
        "Content-Length: {n}\r\nContent-Length: {n}\r\n",
        "Content-Length : {n}\r\n",
    ], ids=["two-lengths", "same-length-twice", "space-before-colon"])
    def test_ambiguous_length_is_refused_unread(self, served, fields):
        """The first of two Content-Lengths used to win: a 400 for the
        cut-off JSON on a connection left open, with the rest of the
        body read as the next request (RFC 9112 §6.3, §5.1)."""
        server, service, graphs = served
        body = json.dumps({"graph": graph_to_wire(graphs[0])}).encode()
        head = (b"POST /query HTTP/1.1\r\nHost: x\r\n"
                + fields.format(n=len(body)).encode() + b"\r\n")
        status, headers, payload, closed = raw_exchange(server, head, body)
        assert status == 400 and "error" in payload
        assert headers["connection"] == "close" and closed
        assert requests_answered(server, "/query", 400) == 1
        assert service.counters()["queries"] == 0


class TestHTTPShell:
    """The request reader and response writer of the connection threads,
    over raw sockets."""

    @pytest.mark.parametrize("head, status, path", [
        (b"NONSENSE\r\n\r\n", 400, "-"),
        (b"GET /healthz HTTP/9.9\r\n\r\n", 400, "-"),
        (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 414, "-"),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * MAX_LINE_BYTES
         + b"\r\n\r\n", 431, "/healthz"),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"X-Many: 1\r\n" * (MAX_HEADERS + 1) + b"\r\n", 431, "/healthz"),
        (b"PUT /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501, "/query"),
    ], ids=["request-line", "version", "long-request-line", "long-header",
            "many-headers", "method"])
    def test_refusals_are_json_and_counted(self, served, head, status, path):
        """These four used to be http.server's HTML error pages, which
        ``gcplus_http_requests_total`` never saw."""
        server, _, _ = served
        got, headers, payload, closed = raw_exchange(server, head)
        assert got == status
        assert headers["content-type"] == "application/json"
        assert isinstance(payload["error"], str)
        assert headers["connection"] == "close" and closed
        assert requests_answered(server, path, status) == 1
        assert request(server, "GET", "/healthz")[0] == 200

    def test_headers_at_the_limits_are_served(self, served):
        server, _, _ = served
        pad = b"X-Pad: " + b"a" * (MAX_LINE_BYTES - len(b"X-Pad: \r\n"))
        head = (b"GET /healthz HTTP/1.1\r\n" + pad + b"\r\n"
                + b"X-Many: 1\r\n" * (MAX_HEADERS - 1) + b"\r\n")
        status, headers, _, closed = raw_exchange(server, head)
        assert status == 200 and "connection" not in headers and not closed

    def test_expect_100_continue(self, served):
        server, _, graphs = served
        body = json.dumps({"graph": graph_to_wire(graphs[0])}).encode()
        request_bytes = query_request(body, extra="Expect: 100-continue\r\n")
        head = request_bytes[:-len(body)]
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(head)
            reader = sock.makefile("rb")
            # Answered before a byte of the body is sent.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, headers, payload = read_response(reader)
            assert status == 200 and 0 in payload["answer_ids"]
            assert not is_closed(sock)

    @pytest.mark.parametrize("length, expected", [
        ("-1", 400), (str(MAX_BODY_BYTES + 1), 413)])
    def test_no_100_continue_for_a_refused_length(self, served, length,
                                                  expected):
        server, _, _ = served
        head = (f"POST /query HTTP/1.1\r\nHost: x\r\n"
                f"Expect: 100-continue\r\nContent-Length: {length}\r\n\r\n")
        status, headers, _, closed = raw_exchange(server, head.encode())
        assert status == expected
        assert headers["connection"] == "close" and closed

    def test_pipelined_requests_are_answered_in_order(self, served):
        server, _, graphs = served
        body = json.dumps({"graph": graph_to_wire(graphs[0])}).encode()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(query_request(body)
                         + b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n"
                         + query_request(b"{not json"))
            reader = sock.makefile("rb")
            first, second, third = (read_response(reader) for _ in range(3))
            assert first[0] == 200 and 0 in first[2]["answer_ids"]
            assert second[0] == 200 and second[2] == {"ready": True}
            assert third[0] == 400 and "malformed JSON" in third[2]["error"]
            assert not is_closed(sock)

    @pytest.mark.parametrize("version, connection, kept", [
        ("HTTP/1.1", "", True),
        ("HTTP/1.1", "Connection: close\r\n", False),
        ("HTTP/1.0", "", False),
        ("HTTP/1.0", "Connection: keep-alive\r\n", True),
    ], ids=["1.1", "1.1-close", "1.0", "1.0-keep-alive"])
    def test_keep_alive(self, served, version, connection, kept):
        server, _, graphs = served
        body = json.dumps({"graph": graph_to_wire(graphs[0])}).encode()
        status, headers, payload, closed = raw_exchange(
            server, query_request(body, version, connection))
        assert status == 200 and 0 in payload["answer_ids"]
        assert closed is not kept
        assert ("connection" in headers) is not kept

    def test_idle_connection_is_closed_quietly(self, served, monkeypatch,
                                               capfd):
        import repro.serve.server as server_module

        server, _, _ = served
        monkeypatch.setattr(server_module._Handler, "timeout", 0.3)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            started = time.monotonic()
            assert sock.recv(1) == b""
            assert 0.25 < time.monotonic() - started < 5
        assert capfd.readouterr().err == ""
        assert request(server, "GET", "/healthz")[0] == 200

    def test_each_response_is_one_write(self, served, monkeypatch):
        """Head and body leave together: with two writes the second one
        waits on the client's delayed ACK unless both ends turn Nagle
        off."""
        import repro.serve.server as server_module

        server, _, graphs = served
        writes = []
        setup = server_module._Handler.setup

        def spied_setup(handler):
            setup(handler)
            write = handler.wfile.write

            def spy(data):
                writes.append(bytes(data))
                return write(data)
            handler.wfile.write = spy

        monkeypatch.setattr(server_module._Handler, "setup", spied_setup)
        body = json.dumps({"graph": graph_to_wire(graphs[0])}).encode()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(query_request(body)
                         + b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                         + b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            reader = sock.makefile("rb")
            responses = [read_response(reader) for _ in range(3)]
        assert [status for status, _, _ in responses] == [200, 200, 404]
        assert len(writes) == 3
        for write, (status, headers, _) in zip(writes, responses):
            assert write.startswith(b"HTTP/1.1 %d " % status)
            assert b"\r\nDate: " in write
            head, _, payload = write.partition(b"\r\n\r\n")
            assert len(payload) == int(headers["content-length"])

    def test_keep_alive_connection_leaves_no_garbage(self, served):
        """Per request, the shell and the pipeline leave nothing for the
        cyclic collector: 50 and 250 queries over one connection leave
        the same number of objects."""
        server, _, graphs = served
        requests = [query_request(json.dumps(
            {"graph": graph_to_wire(query)}).encode())
            for query in make_queries(graphs, n=50)]

        def garbage_after(count: int) -> int:
            threads = set(threading.enumerate())
            gc.collect()
            gc.disable()
            try:
                with socket.create_connection(("127.0.0.1", server.port),
                                              timeout=10) as sock:
                    with sock.makefile("rb") as reader:
                        for position in range(count):
                            sock.sendall(requests[position % len(requests)])
                            assert read_response(reader)[0] == 200
                for thread in set(threading.enumerate()) - threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                return gc.collect()
            finally:
                gc.enable()

        assert garbage_after(50) == garbage_after(250)


class TestDrain:
    def test_drain_persists_reloadable_snapshot(self, tmp_path):
        graphs = make_graphs()
        queries = make_queries(graphs, n=25)
        snap = tmp_path / "drain.snap.jsonl"
        store = GraphStore.from_graphs(graphs)
        config = GCConfig(model="CON", lock_mode="rw", max_sessions=4)
        service = GraphCacheService(store, config)
        server = CacheServer(service, snapshot_path=snap).start()
        for query in queries:
            request(server, "POST", "/query", {"graph": graph_to_wire(query)})
        entries_before = (service.cache.cache_size
                          + service.cache.window_size)

        report = server.drain(timeout=5.0)
        assert report.in_flight_drained
        assert report.snapshot_error is None
        assert report.snapshot_path == str(snap)
        assert service.closed
        # Idempotent: a second drain returns the same report.
        assert server.drain() is report

        # The snapshot reloads cleanly into a fresh service.
        snapshot = load_snapshot(snap)
        restored_store = GraphStore.from_graphs(graphs)
        with GraphCacheService(restored_store, config) as restored:
            restored.restore(snapshot)
            assert (restored.cache.cache_size
                    + restored.cache.window_size) == entries_before

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan"), -1.0])
    def test_unbounded_drain_timeout_is_refused(self, seconds):
        """``inf`` overflowed the drain's condition wait (no snapshot, the
        service left open) and ``nan`` never expired: both, and a
        negative budget, are refused when the server is built."""
        service = GraphCacheService(GraphStore.from_graphs(make_graphs(5)))
        with pytest.raises(ValueError, match="drain timeout"):
            CacheServer(service, drain_timeout=seconds)
        assert CacheServer(service, drain_timeout=0).drain_timeout == 0
        service.close()

    def test_unbounded_drain_refused_with_a_request_in_flight(self,
                                                              tmp_path):
        """A ``drain(timeout=inf)`` while a query is held in discovery
        raises before anything stops; the server keeps serving, and a
        bounded drain then finishes the query and writes the snapshot."""
        graphs = make_graphs()
        snap = tmp_path / "drain.snap.jsonl"
        service = GraphCacheService(GraphStore.from_graphs(graphs), GCConfig(
            model="CON", lock_mode="rw", max_sessions=4))
        server = CacheServer(service, snapshot_path=snap).start()
        entered, gate = threading.Event(), threading.Event()
        discover = service.discovery.discover

        def held_discover(*args):
            entered.set()
            assert gate.wait(timeout=10)
            return discover(*args)

        service.discovery.discover = held_discover
        wire = graph_to_wire(induced_subgraph(graphs[0], [0, 1]))
        results = []
        client = threading.Thread(target=lambda: results.append(
            request(server, "POST", "/query", {"graph": wire})))
        client.start()
        try:
            assert entered.wait(timeout=10)
            with pytest.raises(ValueError, match="drain timeout"):
                server.drain(timeout=float("inf"))
            assert server.ready and not service.closed
        finally:
            gate.set()
            client.join(timeout=10)
        report = server.drain(timeout=5.0)
        assert [status for status, _ in results] == [200]
        assert report.in_flight_drained
        assert report.snapshot_path == str(snap)
        assert load_snapshot(snap).query_counter == 1
        assert service.closed

    def test_draining_server_refuses_work(self, served):
        server, service, graphs = served
        server.drain(timeout=5.0)
        # The listener socket is closed: connections are refused.
        with pytest.raises(OSError):
            request(server, "GET", "/readyz")

    def test_drain_waits_for_in_flight(self, served):
        """A request mid-pipeline when drain starts completes (its
        response arrives) and the drain reports a full drain."""
        server, service, graphs = served
        wire = graph_to_wire(induced_subgraph(graphs[0], [0, 1, 2]))
        results = {}

        def slow_query():
            results["response"] = request(
                server, "POST", "/query/batch", {"graphs": [wire] * 10})

        thread = threading.Thread(target=slow_query)
        thread.start()
        time.sleep(0.05)   # let the request reach the pipeline
        report = server.drain(timeout=10.0)
        thread.join(timeout=10.0)
        assert report.in_flight_drained
        assert results["response"][0] in (200, 503)


    def test_drain_waits_for_a_request_still_decoding(self, served,
                                                      monkeypatch):
        """A request still decoding its body when drain starts is in
        flight: drain waits for it, it answers 200, and the next request
        is refused as draining.  (Readiness used to be checked before
        the request was counted, so drain neither waited for it nor
        refused it: it returned at once, and the request then waited
        SESSION_WAIT_SECONDS on the retired pool for a 503.)"""
        server, service, graphs = served
        decoding, release = threading.Event(), threading.Event()
        parse = CacheServer._parse_json

        def held_parse(body):
            decoding.set()
            assert release.wait(timeout=10.0)
            return parse(body)

        monkeypatch.setattr(CacheServer, "_parse_json",
                            staticmethod(held_parse))
        body = json.dumps({"graph": graph_to_wire(
            induced_subgraph(graphs[0], [0, 1]))}).encode()
        answers, reports = [], []
        asked = threading.Thread(target=lambda: answers.append(
            server.handle("POST", "/query", body)))
        asked.start()
        assert decoding.wait(timeout=10.0)
        draining = threading.Thread(target=lambda: reports.append(
            server.drain(timeout=10.0)))
        draining.start()
        try:
            draining.join(timeout=0.3)
            assert draining.is_alive(), "drain did not wait for the request"
        finally:
            release.set()
            asked.join(timeout=15.0)
            draining.join(timeout=15.0)
        assert answers[0][0] == 200
        assert reports[0].in_flight_drained
        status, payload, _ = server.handle("POST", "/query", body)
        assert (status, json.loads(payload)) == (503, {"error": "draining"})


class TestWarmStartOverHTTP:
    def test_restart_resumes_hit_rate(self, tmp_path):
        """Phase 1 serves traffic and drains (snapshot); phase 2
        warm-starts a new sidecar from it and hits immediately."""
        graphs = make_graphs()
        queries = make_queries(graphs, n=30)
        snap = tmp_path / "warm.snap.jsonl"
        config = GCConfig(model="CON", lock_mode="rw", max_sessions=4)

        service1 = GraphCacheService(GraphStore.from_graphs(graphs), config)
        server1 = CacheServer(service1, snapshot_path=snap).start()
        for query in queries:
            request(server1, "POST", "/query",
                    {"graph": graph_to_wire(query)})
        assert server1.drain(timeout=5.0).snapshot_path == str(snap)

        service2 = GraphCacheService(GraphStore.from_graphs(graphs), config)
        service2.load(snap)
        server2 = CacheServer(service2).start()
        try:
            hits = 0
            for query in queries[:10]:
                _, payload = request(server2, "POST", "/query",
                                     {"graph": graph_to_wire(query)})
                m = payload["metrics"]
                hits += (m["containing_hits"] + m["contained_hits"]
                         + m["exact_hits"]) > 0
            # Every one of these repeats a phase-1 query: the restored
            # cache must hit right out of the gate.
            assert hits == 10
        finally:
            server2.drain(timeout=5.0)


class TestServeCLISubprocess:
    def test_sigterm_drains_and_persists(self, tmp_path):
        """The CI smoke in miniature: spawn ``python -m repro serve``,
        talk to it over HTTP, SIGTERM it, assert a valid snapshot."""
        dataset = tmp_path / "ds.tve"
        graphs = make_graphs(n=30)
        graph_io.dump_file(dataset, list(enumerate(graphs)))
        snap = tmp_path / "cli.snap.jsonl"
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_SRC) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--dataset", str(dataset), "--port", "0",
             "--port-file", str(port_file),
             "--snapshot-path", str(snap),
             "--drain-timeout", "10"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.communicate()[1]
                time.sleep(0.05)
            assert port_file.exists(), "server never wrote its port file"
            port = int(port_file.read_text().strip())

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()   # drain so keep-alive can reuse the socket
                wire = graph_to_wire(induced_subgraph(graphs[0], [0, 1]))
                conn.request("POST", "/query",
                             body=json.dumps({"graph": wire}).encode(),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["answer_ids"]
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                text = response.read().decode()
                assert "gcplus_queries_total 1" in text
            finally:
                conn.close()

            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=30)
            assert proc.returncode == 0, stderr
            assert "drained" in stdout
            assert "snapshot saved" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # The drain snapshot is valid and reflects the served query.
        snapshot = load_snapshot(snap)
        assert len(snapshot.state.cache) + len(snapshot.state.window) == 1


class TestConcurrentClients:
    def test_mixed_traffic_on_keep_alive_connections(self, tmp_path):
        """Several clients at once, each on its own keep-alive
        connection, interleave ``/query`` with ``add_graph`` and a
        ``delete_graph`` of one of their own adds: every response is a
        200, the service counted exactly the queries sent and hit its
        cache, and the drain finishes in-flight work and leaves a
        snapshot that decodes."""
        graphs = make_graphs()
        queries = [graph_to_wire(q) for q in make_queries(graphs, n=10)]
        snap = tmp_path / "mixed.snap.jsonl"
        service = GraphCacheService(GraphStore.from_graphs(graphs), GCConfig(
            model="CON", lock_mode="rw", max_sessions=4))
        server = CacheServer(service, snapshot_path=snap).start()
        clients, rounds = 4, 15
        statuses: list[int] = []
        queries_sent = [0] * clients
        failures: list[Exception] = []
        go = threading.Barrier(clients)

        def client(cid: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)

            def post(path, payload):
                conn.request("POST", path, body=json.dumps(payload).encode(),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = json.loads(response.read())
                statuses.append(response.status)
                return body

            try:
                added = []
                go.wait()
                for i in range(rounds):
                    post("/query",
                         {"graph": queries[(cid + i) % len(queries)]})
                    queries_sent[cid] += 1
                    if i % 3 == 1:
                        receipt = post("/mutate", {
                            "op": "add_graph",
                            "graph": graph_to_wire(graphs[cid])})
                        added.append(receipt["applied"]["graph_id"])
                    elif i % 3 == 2:
                        post("/mutate", {"op": "delete_graph",
                                         "graph_id": added.pop()})
            except Exception as exc:  # re-raised on the main thread
                failures.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(clients)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            if failures:
                raise failures[0]
            assert len(statuses) == clients * (rounds + 2 * (rounds // 3))
            assert set(statuses) == {200}
            counters = service.counters()
            assert counters["queries"] == sum(queries_sent)
            assert counters["cache_hits"] > 0
        finally:
            report = server.drain(timeout=10.0)
        assert report.in_flight_drained
        assert report.snapshot_error is None
        snapshot = load_snapshot(snap)
        assert len(snapshot.state.cache) + len(snapshot.state.window) > 0


class TestImportFootprint:
    def test_the_server_does_not_load_the_load_generator(self):
        """``http.client`` (and ``ssl`` with it) belongs to a client;
        a serving process imports neither."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_SRC) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        probe = (
            "import sys\n"
            "import repro.cli, repro.serve.server\n"
            "print(sorted({'http.client', 'ssl'} & set(sys.modules)))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout.splitlines()
        assert out == ["[]"]
