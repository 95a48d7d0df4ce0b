"""One pass = rebuild everything from the seed, warm up, replay the stream.

A pass is a pure function of ``(spec, seed)``: same inputs, same cache
state, same allocation pattern every time, so pass-to-pass differences
in a stream position's time are the host's interference and nothing
else.  Three targets answer the queries — the service in-process, a
``python -m repro serve`` subprocess over one keep-alive connection, and
(for tracing the serve layer) ``CacheServer.handle`` without the socket.
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
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import GraphCacheService, GraphStore
from repro.api.service import ServiceSession
from repro.graphs import io as graph_io
from repro.graphs.features import GraphFeatures
from repro.serve.server import CacheServer
from repro.serve.wire import graph_to_wire

import reference
from spans import Tracer
from workloads import CONFIG, Inputs, Spec, build_inputs

SRC = Path(__file__).resolve().parent.parent / "src"

#: Counters that must repeat exactly pass to pass (the estimator's
#: premise); also the source of the exact per-layer counts.
GUARDED = ("method_tests", "internal_tests", "admissions", "evictions",
           "exact_hit_queries", "zero_test_queries", "tests_saved")


@dataclass
class PassResult:
    """Times are at reference speed (see :mod:`reference`), except
    ``wall_s``, the measured stream's raw wall time."""

    setup_s: float
    t_apply: list[float] = field(default_factory=list)
    t_query: list[float] = field(default_factory=list)
    #: per measured position, reference-speed seconds per wall second
    speed: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: sorted answer ids per stream position, warm-up included; ``None``
    #: where the request failed (non-200)
    answers: list[tuple[int, ...] | None] = field(default_factory=list)
    #: seconds the program itself reported, summed over measured queries
    reported: dict[str, float] = field(default_factory=dict)
    warm_counters: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    mutations: int = 0
    request_bytes: int = 0
    response_bytes: int = 0

    @property
    def t_position(self) -> list[float]:
        return [a + q for a, q in zip(self.t_apply, self.t_query)]


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------
class Direct:
    """``GraphCacheService.execute`` called in this interpreter."""

    def __init__(self, inputs: Inputs, outdir: Path) -> None:
        self.service = GraphCacheService(
            GraphStore.from_graphs(inputs.graphs), CONFIG)

    def encode(self, graph):
        return graph

    def send(self, request):
        return self.service.execute(request)

    def decode(self, response):
        m = response.metrics
        return tuple(sorted(response.answer)), {
            "discovery": m.discovery_seconds, "prune": m.prune_seconds,
            "verify": m.verify_seconds, "admission": m.admission_seconds,
            "consistency": m.consistency_seconds}

    def apply(self, plan, position: int) -> int:
        return len(self.service.apply(plan, position))

    def counters(self) -> dict[str, int]:
        return self.service.counters()

    def install(self, tracer: Tracer) -> None:
        tracer.wrap(self.service, "execute", "api.execute")
        tracer.wrap(self.service, "apply", "dataset.apply")
        _trace_pipeline(tracer, self.service)

    def close(self) -> None:
        self.service.close()


def _wire_request(graph) -> bytes:
    return json.dumps({"graph": graph_to_wire(graph)}).encode("utf-8")


def _wire_answer(response):
    status, payload = response
    if status != 200:
        return None, {}
    body = json.loads(payload)
    metrics = body["metrics"]
    return tuple(body["answer_ids"]), {
        "query": metrics["query_ms"] / 1000.0,
        "overhead": metrics["overhead_ms"] / 1000.0}


class Replay:
    """``CacheServer.handle`` called in this interpreter: the serve layer
    without the socket, so that it can be traced from outside."""

    def __init__(self, inputs: Inputs, outdir: Path) -> None:
        self.service = GraphCacheService(
            GraphStore.from_graphs(inputs.graphs),
            CONFIG.replace(lock_mode="rw", max_sessions=2))
        self.server = CacheServer(self.service).start()

    encode = staticmethod(_wire_request)
    decode = staticmethod(_wire_answer)

    def send(self, request):
        status, payload, _ = self.server.handle("POST", "/query", request)
        return status, payload

    def counters(self) -> dict[str, int]:
        return self.service.counters()

    def install(self, tracer: Tracer) -> None:
        import repro.serve.server as server_module

        tracer.wrap(self.server, "handle", "serve.handle")
        tracer.wrap(server_module, "graph_from_wire", "serve.wire_decode")
        tracer.wrap(server_module, "result_to_wire", "serve.wire_encode")
        tracer.wrap(ServiceSession, "execute", "api.execute")
        _trace_pipeline(tracer, self.service)

    def close(self) -> None:
        self.server.drain()


class Http:
    """A ``python -m repro serve`` subprocess, restarted every pass; one
    keep-alive connection, one request in flight."""

    def __init__(self, inputs: Inputs, outdir: Path) -> None:
        dataset = outdir / "http_dataset.tve"
        port_file = outdir / "http_port"
        graph_io.dump_file(dataset, enumerate(inputs.graphs))
        port_file.unlink(missing_ok=True)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([inherited] if inherited else [])))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--dataset", str(dataset), "--port", "0",
             "--port-file", str(port_file), "--max-sessions", "2",
             "--model", CONFIG.model.name, "--matcher", CONFIG.matcher,
             "--cache-capacity", str(CONFIG.cache_capacity),
             "--window-capacity", str(CONFIG.window_capacity)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.conn = None
        try:
            deadline = time.monotonic() + 60
            while not (port_file.exists() and port_file.read_text().strip()):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"serve exited with {self.proc.returncode} "
                        f"before binding a port")
                if time.monotonic() > deadline:
                    raise RuntimeError("serve did not bind a port in 60 s")
                time.sleep(0.01)
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", int(port_file.read_text()), timeout=60)
            self.conn.connect()
            # Headers and body leave as two writes; without this the
            # second waits for the server's delayed ACK (~40 ms).
            self.conn.sock.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
            while self._get("/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("serve not ready in 60 s")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def _get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    encode = staticmethod(_wire_request)
    decode = staticmethod(_wire_answer)

    def send(self, request):
        self.conn.request("POST", "/query", body=request,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def counters(self) -> dict[str, int]:
        """The same tallies as ``service.counters()``, read from
        ``/metrics`` (``gcplus_<name>_total <value>``)."""
        counters = {}
        for line in self._get("/metrics")[1].decode("utf-8").splitlines():
            name, _, value = line.partition(" ")
            if name.startswith("gcplus_") and name.endswith("_total"):
                counters[name[len("gcplus_"):-len("_total")]] = int(float(value))
        return counters

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def _trace_pipeline(tracer: Tracer, service: GraphCacheService) -> None:
    """Wrap the public functions the per-query pipeline calls, layer by
    layer (span names are ``<package>.<what>``)."""
    import repro.api.service as service_module

    cache = service.cache
    tracer.wrap(cache, "ensure_consistency", "cache.consistency")
    tracer.wrap(cache, "admit", "cache.admit")
    tracer.wrap(cache, "credit", "cache.credit")
    tracer.wrap(cache.index, "candidate_supergraphs", "cache.index_lookup",
                count=len)
    tracer.wrap(cache.index, "candidate_subgraphs", "cache.index_lookup",
                count=len)
    tracer.wrap(service.store, "ids_bitset", "dataset.ids_bitset")
    tracer.wrap(GraphFeatures, "of", "graphs.features")
    tracer.wrap(service.discovery, "discover", "runtime.discover")
    tracer.wrap(service.discovery.verifier, "is_subgraph_isomorphic",
                "matching.internal_test", count=int)
    tracer.wrap(service_module, "prune_candidate_set", "runtime.prune")
    tracer.wrap(service.method_m, "verify", "runtime.verify")
    tracer.wrap(service.method_m.matcher, "is_subgraph_isomorphic",
                "matching.method_test", count=int)


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def run_pass(spec: Spec, seed: int, target_class, outdir: Path,
             tracer: Tracer | None = None, after=None) -> PassResult:
    """Seed → ready-to-measure (timed as set-up), then the measured
    stream with a clock around every apply and every query and the
    reference kernel between positions.  ``after(target)`` runs on the
    final state, before the target closes."""
    clock = time.perf_counter

    def bracket() -> list[float]:
        return [reference.sample() for _ in range(reference.WINDOW)]

    # Set-up is three stages, each brought to reference speed by the
    # kernel samples next to it: a slow phase of the host that begins
    # between building the dataset and warming the cache would otherwise
    # be corrected with the wrong factor (seen: +45% on one run).
    before = bracket()
    started = clock()
    inputs = build_inputs(spec, seed)
    built = clock()
    between = bracket()
    constructing = clock()
    plan = inputs.plan
    target = target_class(inputs, outdir)
    try:
        constructed = clock()
        kernel = bracket()
        setup_s = ((built - started) * reference.factor(before + between)
                   + (constructed - constructing)
                   * reference.factor(between + kernel))
        warming = clock()
        requests = [target.encode(graph) for graph in inputs.stream]
        answers = []
        for position in range(spec.warmup):
            if plan is not None:
                target.apply(plan, position)
            answers.append(target.decode(target.send(requests[position]))[0])
            kernel.append(reference.sample())
        warm_wall = clock() - warming - sum(kernel[reference.WINDOW:])
        kernel += bracket()
        setup_s += warm_wall * reference.factor(kernel)
        result = PassResult(setup_s=setup_s, answers=answers,
                            warm_counters=target.counters())
        if tracer is not None:
            target.install(tracer)
        gc.collect()
        kernel = []
        for position in range(spec.warmup, len(requests)):
            request = requests[position]
            kernel.append(reference.sample())
            if tracer is not None:
                tracer.request = position
            t0 = clock()
            if plan is not None:
                result.mutations += target.apply(plan, position)
            t1 = clock()
            response = target.send(request)
            t2 = clock()
            result.t_apply.append(t1 - t0)
            result.t_query.append(t2 - t1)
            answer, reported = target.decode(response)
            answers.append(answer)
            for key, seconds in reported.items():
                result.reported[key] = result.reported.get(key, 0.0) + seconds
            if isinstance(request, bytes):
                result.request_bytes += len(request)
                result.response_bytes += len(response[1])
        kernel.append(reference.sample())
        if tracer is not None:
            tracer.restore()   # before `after`, which is not part of the trace
        result.wall_s = sum(result.t_apply) + sum(result.t_query)
        result.speed = reference.factors(kernel)
        result.t_apply = [t * f for t, f in zip(result.t_apply, result.speed)]
        result.t_query = [t * f for t, f in zip(result.t_query, result.speed)]
        result.counters = target.counters()
        if after is not None:
            after(target)
        return result
    finally:
        if tracer is not None:
            tracer.restore()
        target.close()
