"""Open-loop load generator for the serving sidecar.

Drives mixed query/mutation traffic at a target QPS against a running
:class:`~repro.serve.server.CacheServer` and reports what production
capacity planning needs: sustained (achieved) QPS, tail latency, hit
rate, error count.

Design choices that matter for honest numbers:

* **Open-loop pacing.**  Arrival times are fixed up front on a
  ``start + i/qps`` grid and workers send whenever the next arrival is
  due, *regardless of whether earlier requests came back* — a closed
  loop (wait-then-send) hides queueing delay exactly when the server
  is saturated (coordinated omission).  If the offered rate outruns
  the server, achieved QPS falls below target and latency grows: the
  benchmark shows saturation instead of masking it.
* **Zipf query mix.**  Queries are drawn rank-wise from a pool with
  the paper's §7.1 skew (``α = 1.4`` by default) — the workload shape
  a cache actually earns hits on.
* **Mutation mix.**  A ``mutation_fraction`` of arrivals are dataset
  mutations instead of queries, alternating ``add_graph`` with
  ``delete_graph`` of a previously added id — always-valid ops that
  still force real consistency passes (CON revalidation / EVI purges)
  under load.
* **Per-request hit accounting.**  Hits are read off each response's
  metrics (``containing + contained + exact > 0``), not scraped after
  the fact, so the hit rate covers exactly the requests this run sent.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.graphs.graph import LabeledGraph
from repro.serve.wire import graph_to_wire
from repro.util.stats import percentile
from repro.util.zipf import DEFAULT_ALPHA, ZipfSampler

__all__ = ["LoadgenConfig", "LoadgenReport", "run_loadgen",
           "summarize_latencies"]


def summarize_latencies(latencies: list[float]) -> dict[str, float | None]:
    """p50/p95/p99/max over per-request latencies (seconds), in ms.

    Strict-JSON safe: a zero-sample run yields ``None`` for every
    quantile instead of NaN — ``json.dumps`` happily emits the
    JavaScript-only literal ``NaN`` by default, which then breaks every
    standards-compliant consumer of ``BENCH_serve.json``.  Writers can
    (and do) pass ``allow_nan=False`` to make that structurally
    impossible.
    """
    def _ms(value: float) -> float | None:
        return value * 1000.0 if math.isfinite(value) else None

    return {
        "p50": _ms(percentile(latencies, 50.0)),
        "p95": _ms(percentile(latencies, 95.0)),
        "p99": _ms(percentile(latencies, 99.0)),
        "max": _ms(max(latencies)) if latencies else None,
    }


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: offered rate, duration, mix and fan-out."""

    qps: float = 100.0
    duration_seconds: float = 5.0
    workers: int = 4
    mutation_fraction: float = 0.0   # share of arrivals that mutate
    zipf_alpha: float = DEFAULT_ALPHA
    seed: int = 2017
    timeout_seconds: float = 10.0    # per-request socket timeout

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ValueError(f"qps must be positive, got {self.qps}")
        if self.duration_seconds <= 0:
            raise ValueError(
                f"duration_seconds must be positive, got "
                f"{self.duration_seconds}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 <= self.mutation_fraction < 1.0:
            raise ValueError(
                f"mutation_fraction must be in [0, 1), got "
                f"{self.mutation_fraction}")


@dataclass
class LoadgenReport:
    """What one run measured (``to_dict`` feeds ``BENCH_serve.json``)."""

    offered_qps: float
    achieved_qps: float
    duration_seconds: float
    requests: int
    queries: int
    mutations: int
    errors: int
    hits: int
    hit_rate: float
    #: Quantiles from :func:`summarize_latencies`; ``None`` marks a
    #: quantile with no samples behind it (never NaN).
    latency_ms: dict[str, float | None] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "duration_seconds": self.duration_seconds,
            "requests": self.requests,
            "queries": self.queries,
            "mutations": self.mutations,
            "errors": self.errors,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "latency_ms": self.latency_ms,
        }


class _Recorder:
    """Thread-safe per-request outcome sink."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.queries = 0
        self.mutations = 0
        self.errors = 0
        self.hits = 0

    def record(self, kind: str, seconds: float, ok: bool, hit: bool) -> None:
        with self.lock:
            self.latencies.append(seconds)
            if kind == "query":
                self.queries += 1
            else:
                self.mutations += 1
            if not ok:
                self.errors += 1
            if hit:
                self.hits += 1


def _plan_arrivals(config: LoadgenConfig) -> list[float]:
    """The open-loop arrival grid, as offsets from the run start."""
    total = int(config.qps * config.duration_seconds)
    return [i / config.qps for i in range(total)]


def _plan_requests(config: LoadgenConfig,
                   queries: list[LabeledGraph]) -> list[dict[str, Any]]:
    """Pre-build every request body so workers only do I/O.

    Mutations alternate ``add_graph`` (re-adding a Zipf-sampled query
    graph as a dataset graph) with ``delete_graph`` of an id a previous
    ``add_graph`` in *this run* created — ids the server reports back;
    deletes reference them positionally via ``added_index``.
    """
    rng = random.Random(config.seed)
    sampler = ZipfSampler(len(queries), alpha=config.zipf_alpha, rng=rng)
    plans: list[dict[str, Any]] = []
    pending_adds = 0
    for _ in _plan_arrivals(config):
        if rng.random() < config.mutation_fraction:
            if pending_adds > 0 and rng.random() < 0.5:
                plans.append({"kind": "mutate", "body": {
                    "op": "delete_graph",
                    "added_index": rng.randrange(pending_adds),
                }})
                # Keep it referencable: several deletes may target one
                # added id; the server tolerates double-deletes as 400s
                # only if the id is gone — avoid by consuming the slot.
                pending_adds -= 1
            else:
                graph = queries[sampler.sample()]
                plans.append({"kind": "mutate", "body": {
                    "op": "add_graph", "graph": graph_to_wire(graph),
                }})
                pending_adds += 1
        else:
            graph = queries[sampler.sample()]
            plans.append({"kind": "query", "body": {
                "graph": graph_to_wire(graph),
            }})
    return plans


class _Worker(threading.Thread):
    """Sends arrivals whose index ≡ offset (mod workers), on schedule."""

    def __init__(self, host: str, port: int, plans: list[dict[str, Any]],
                 arrivals: list[float], offset: int, stride: int,
                 start_at: float, recorder: _Recorder,
                 added_ids: list[int], added_lock: threading.Lock,
                 timeout: float) -> None:
        super().__init__(name=f"loadgen-{offset}", daemon=True)
        self._host, self._port = host, port
        self._plans, self._arrivals = plans, arrivals
        self._offset, self._stride = offset, stride
        self._start_at = start_at
        self._recorder = recorder
        self._added_ids, self._added_lock = added_ids, added_lock
        self._timeout = timeout

    def run(self) -> None:
        conn = http.client.HTTPConnection(self._host, self._port,
                                          timeout=self._timeout)
        try:
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # per-request retry will surface a dead server
        try:
            for i in range(self._offset, len(self._plans), self._stride):
                delay = self._start_at + self._arrivals[i] - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                self._send(conn, self._plans[i])
        finally:
            conn.close()

    def _send(self, conn: http.client.HTTPConnection,
              plan: dict[str, Any]) -> None:
        body = dict(plan["body"])
        path = "/query" if plan["kind"] == "query" else "/mutate"
        if body.get("op") == "delete_graph":
            with self._added_lock:
                if self._added_ids:
                    body["graph_id"] = self._added_ids.pop(
                        body.pop("added_index") % len(self._added_ids))
            if "graph_id" not in body:
                # No add completed yet — degrade to an add.  Outside the
                # lock: the add records its id under it, and the lock is
                # not reentrant.
                return self._send(conn, {
                    "kind": "mutate",
                    "body": {"op": "add_graph",
                             "graph": plan.get("fallback_graph")
                             or _TINY_GRAPH},
                })
        started = time.perf_counter()
        ok, hit, payload = self._roundtrip(conn, path, body)
        elapsed = time.perf_counter() - started
        if ok and body.get("op") == "add_graph":
            with self._added_lock:
                self._added_ids.append(payload["applied"]["graph_id"])
        self._recorder.record(plan["kind"], elapsed, ok, hit)

    def _roundtrip(self, conn: http.client.HTTPConnection, path: str,
                   body: dict[str, Any]) -> tuple[bool, bool, dict]:
        encoded = json.dumps(body).encode("utf-8")
        for attempt in (0, 1):   # one retry after a dropped keep-alive
            try:
                conn.request("POST", path, body=encoded,
                             headers={"Content-Type": "application/json"})
                if conn.sock is not None:
                    # Mirror the server's TCP_NODELAY: a paced sender
                    # must not let Nagle batch its next request behind
                    # the previous response's ACK.
                    conn.sock.setsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_NODELAY, 1)
                response = conn.getresponse()
                payload = json.loads(response.read().decode("utf-8"))
                hit = False
                if path == "/query" and response.status == 200:
                    m = payload["metrics"]
                    hit = (m["containing_hits"] + m["contained_hits"]
                           + m["exact_hits"]) > 0
                return response.status == 200, hit, payload
            except (http.client.HTTPException, OSError,
                    json.JSONDecodeError):
                conn.close()
                if attempt == 1:
                    return False, False, {}
        return False, False, {}  # pragma: no cover - loop always returns


_TINY_GRAPH = {"labels": ["C", "C"], "edges": [[0, 1]]}


def run_loadgen(host: str, port: int, queries: list[LabeledGraph],
                config: LoadgenConfig | None = None) -> LoadgenReport:
    """Run one load against a live sidecar; blocks until done."""
    config = config if config is not None else LoadgenConfig()
    if not queries:
        raise ValueError("query pool is empty")
    plans = _plan_requests(config, queries)
    arrivals = _plan_arrivals(config)
    recorder = _Recorder()
    added_ids: list[int] = []
    added_lock = threading.Lock()
    start_at = time.monotonic() + 0.05   # let every worker reach the line
    workers = [
        _Worker(host, port, plans, arrivals, offset, config.workers,
                start_at, recorder, added_ids, added_lock,
                config.timeout_seconds)
        for offset in range(config.workers)
    ]
    wall_started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - wall_started
    latencies = recorder.latencies
    completed = len(latencies)
    return LoadgenReport(
        offered_qps=config.qps,
        achieved_qps=completed / wall if wall > 0 else 0.0,
        duration_seconds=wall,
        requests=completed,
        queries=recorder.queries,
        mutations=recorder.mutations,
        errors=recorder.errors,
        hits=recorder.hits,
        hit_rate=(recorder.hits / recorder.queries
                  if recorder.queries else 0.0),
        latency_ms=summarize_latencies(latencies),
    )
