"""Prometheus text-format metrics for the serving sidecar.

Hand-rendered exposition format (version 0.0.4) — the whole grammar the
sidecar needs is ``# HELP`` / ``# TYPE`` comments and ``name{labels}
value`` sample lines, so a client library would be pure dependency
weight.  Four sources feed one scrape:

* the service's monotonic :meth:`~repro.api.GraphCacheService.counters`
  (queries, cache hits/misses, admissions/renewals/evictions/purges,
  sub-iso test totals) → ``*_total`` counters;
* point-in-time service state (cache/window occupancy, open sessions,
  HD's PIN/PINC regime rounds) → gauges;
* the server's own :class:`ServerStats` (per-path/status request
  counts, a bounded query-latency reservoir) → an HTTP request counter
  and a ``gcplus_query_latency_seconds`` summary with p50/p95/p99;
* the interpreter's own ``gc.get_stats()``, read at scrape time (no
  per-query cost) → ``gcplus_gc_*_total`` counters per generation.  The
  pipeline is written to leave the cyclic collector nothing to free
  (``repro.matching.search``, "No cycle to collect"), and
  a collection has no span: ``rate(gcplus_gc_collected_objects_total)``
  above zero on a live sidecar is how a reintroduced reference cycle
  shows from outside.

Counter semantics are load-bearing: everything exported as ``counter``
never decreases over the process lifetime (purges reset *windowed*
statistics, never these — see ``StatisticsMonitor.counters``), so
``rate()``/``increase()`` over scrapes is meaningful.
"""

from __future__ import annotations

import gc
import math
import threading
from collections import deque

from repro.cache.replacement import HybridPolicy
from repro.util.stats import percentile

__all__ = ["ServerStats", "render_prometheus", "LATENCY_QUANTILES"]

#: The quantiles the latency summary exports (p50/p95 are the ISSUE's
#: reporting floor; p99 rides along for tail-watching dashboards).
LATENCY_QUANTILES = (0.5, 0.95, 0.99)

#: (counters() key, metric name, help text) for the service counters.
_COUNTER_SPECS = (
    ("queries", "gcplus_queries_total",
     "Queries executed through the service (all sessions)"),
    ("cache_hits", "gcplus_cache_hits_total",
     "Queries for which discovery found at least one containment hit"),
    ("cache_misses", "gcplus_cache_misses_total",
     "Queries the cache contributed nothing to"),
    ("admissions", "gcplus_admissions_total",
     "Executed queries admitted into the window"),
    ("evictions", "gcplus_evictions_total",
     "Entries removed by the replacement policy or dropped as the faded "
     "copy of a renewed twin"),
    ("renewals", "gcplus_renewals_total",
     "Re-executed queries whose fresh answer renewed a faded cached twin "
     "instead of being admitted as a copy"),
    ("purges", "gcplus_purges_total",
     "Whole-cache purges (EVI consistency or manual clear)"),
    ("method_tests", "gcplus_method_tests_total",
     "Sub-iso tests executed by the Method-M verifier"),
    ("internal_tests", "gcplus_internal_tests_total",
     "Sub-iso tests spent inside hit discovery"),
    ("tests_saved", "gcplus_tests_saved_total",
     "Sub-iso tests the cache removed from the critical path"),
    ("zero_test_queries", "gcplus_zero_test_queries_total",
     "Queries answered without a single Method-M test"),
    ("exact_hit_queries", "gcplus_exact_hit_queries_total",
     "Queries that found an exact-match cached entry"),
    ("empty_shortcut_queries", "gcplus_empty_shortcut_queries_total",
     "Queries short-circuited by the empty-answer optimal case"),
    ("interned_queries", "gcplus_interned_queries_total",
     "Queries identical to a resident cached query that ran as it, on "
     "its graph, features and compiled plans"),
)


class ServerStats:
    """Thread-safe request instrumentation owned by the HTTP server.

    Request counts are cumulative per ``(path, status)``.  Query
    latencies (wall-clock around the whole ``/query`` request, parsing
    included — what a client actually experiences) keep a cumulative
    count/sum for throughput math plus a bounded reservoir of recent
    samples for the p50/p95/p99 quantiles; ``reservoir`` bounds memory
    regardless of how long the sidecar runs.
    """

    def __init__(self, reservoir: int = 4096) -> None:
        self._lock = threading.Lock()
        self._requests: dict[tuple[str, int], int] = {}
        self._latencies: deque[float] = deque(maxlen=reservoir)
        self._latency_count = 0
        self._latency_sum = 0.0

    def observe_request(self, path: str, status: int) -> None:
        with self._lock:
            key = (path, status)
            self._requests[key] = self._requests.get(key, 0) + 1

    def observe_query_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(seconds)
            self._latency_count += 1
            self._latency_sum += seconds

    def latency_quantiles(self) -> dict[float, float]:
        """Recent-window quantiles in seconds (NaN before any sample)."""
        with self._lock:
            samples = list(self._latencies)
        return {q: percentile(samples, q * 100.0) for q in LATENCY_QUANTILES}

    def snapshot(self):
        with self._lock:
            return (dict(self._requests), list(self._latencies),
                    self._latency_count, self._latency_sum)


def _sample(lines: list[str], name: str, value, labels: str = "") -> None:
    if isinstance(value, float):
        rendered = "NaN" if math.isnan(value) else repr(value)
    else:
        rendered = str(value)
    lines.append(f"{name}{labels} {rendered}")


def _header(lines: list[str], name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def render_prometheus(service, server_stats: ServerStats | None = None,
                      ready: bool | None = None) -> str:
    """One scrape of the sidecar, as Prometheus exposition text.

    ``service`` is the shared :class:`~repro.api.GraphCacheService`;
    ``server_stats``/``ready`` are the HTTP layer's contributions and
    may be omitted when rendering for a service that is not (yet)
    behind a server — the service metrics alone are still a valid
    scrape, which is what the unit tests exercise.
    """
    lines: list[str] = []
    counters = service.counters()
    for key, name, help_text in _COUNTER_SPECS:
        _header(lines, name, "counter", help_text)
        _sample(lines, name, counters[key])

    _header(lines, "gcplus_cache_entries", "gauge",
            "Entries currently in the cache store")
    _sample(lines, "gcplus_cache_entries", service.cache.cache_size)
    _header(lines, "gcplus_window_entries", "gauge",
            "Entries currently in the admission window")
    _sample(lines, "gcplus_window_entries", service.cache.window_size)
    _header(lines, "gcplus_cache_capacity", "gauge",
            "Configured cache capacity")
    _sample(lines, "gcplus_cache_capacity", service.cache.capacity)
    _header(lines, "gcplus_open_sessions", "gauge",
            "ServiceSession handles currently open")
    _sample(lines, "gcplus_open_sessions", service.open_sessions)

    policy = service.cache.policy
    if isinstance(policy, HybridPolicy):
        _header(lines, "gcplus_hd_rounds", "gauge",
                "Eviction rounds won per HD scoring regime since the "
                "last purge")
        _sample(lines, "gcplus_hd_rounds", policy.pin_rounds,
                '{regime="pin"}')
        _sample(lines, "gcplus_hd_rounds", policy.pinc_rounds,
                '{regime="pinc"}')

    generations = gc.get_stats()
    for key, name, help_text in (
            ("collections", "gcplus_gc_collections_total",
             "Runs of the cyclic garbage collector, by generation"),
            ("collected", "gcplus_gc_collected_objects_total",
             "Unreachable objects the cyclic collector freed, by the "
             "generation collected; the query pipeline leaves none")):
        _header(lines, name, "counter", help_text)
        for generation, stats in enumerate(generations):
            _sample(lines, name, stats[key],
                    f'{{generation="{generation}"}}')
    _header(lines, "gcplus_gc_uncollectable_objects_total", "counter",
            "Unreachable objects the cyclic collector could not free")
    _sample(lines, "gcplus_gc_uncollectable_objects_total",
            sum(stats["uncollectable"] for stats in generations))

    if ready is not None:
        _header(lines, "gcplus_ready", "gauge",
                "1 while accepting traffic, 0 while draining")
        _sample(lines, "gcplus_ready", int(ready))

    if server_stats is not None:
        requests, _, count, total = server_stats.snapshot()
        _header(lines, "gcplus_http_requests_total", "counter",
                "HTTP requests served, by path and status")
        for (path, status), n in sorted(requests.items()):
            _sample(lines, "gcplus_http_requests_total", n,
                    f'{{path="{path}",status="{status}"}}')
        _header(lines, "gcplus_query_latency_seconds", "summary",
                "End-to-end /query request latency (recent-window "
                "quantiles, cumulative count/sum)")
        for q, value in server_stats.latency_quantiles().items():
            _sample(lines, "gcplus_query_latency_seconds", value,
                    f'{{quantile="{q}"}}')
        _sample(lines, "gcplus_query_latency_seconds_sum", total)
        _sample(lines, "gcplus_query_latency_seconds_count", count)

    return "\n".join(lines) + "\n"
