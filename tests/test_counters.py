"""Monotonic counter contract for the service/monitor/cache trio.

``/metrics`` exports these as Prometheus *counters*, and Prometheus
rate() arithmetic silently corrupts on any decrease — so the contract
under test is strict: every value from ``counters()`` is cumulative
and never goes down, not even across ``purge_cache()``/``clear()``
(which reset the *cache*, not its history), snapshot restores, or
concurrent recording.
"""

from __future__ import annotations

import threading

from repro.api import GCConfig, GraphCacheService
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.runtime.monitor import StatisticsMonitor

COUNTER_KEYS = (
    "queries", "cache_hits", "cache_misses", "admissions", "evictions",
    "purges", "method_tests", "internal_tests",
    "tests_saved", "interned_queries",
)


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


def make_service(**overrides) -> GraphCacheService:
    config = dict(model="CON", lock_mode="rw")
    config.update(overrides)
    store = GraphStore.from_graphs(
        [path("CCO"), path("CCC"), path("CNO"), path("CCN")])
    return GraphCacheService(store, GCConfig(**config))


def assert_monotone(before: dict, after: dict) -> None:
    for key in COUNTER_KEYS:
        assert after[key] >= before[key], (
            f"counter {key!r} went backwards: {before[key]} -> {after[key]}")


class TestServiceCounters:
    def test_all_keys_present_and_integer(self):
        with make_service() as service:
            counters = service.counters()
        for key in COUNTER_KEYS:
            assert key in counters
            assert isinstance(counters[key], int)

    def test_queries_and_hits_accumulate(self):
        with make_service() as service:
            for _ in range(3):
                service.execute(path("CO"))
            counters = service.counters()
            assert counters["queries"] == 3
            # First execution misses, repeats hit the warmed entry.
            assert counters["cache_hits"] >= 1
            assert counters["cache_misses"] >= 1
            assert (counters["cache_hits"]
                    + counters["cache_misses"]) == counters["queries"]
            # ... and run as it: identical to a resident query.
            assert counters["interned_queries"] == 2

    def test_purge_does_not_reset_history(self):
        with make_service() as service:
            for labels in ("CO", "CC", "CN"):
                service.execute(path(labels))
            before = service.counters()
            service.purge()
            after = service.counters()
            assert_monotone(before, after)
            assert after["purges"] == before["purges"] + 1
            assert after["queries"] == before["queries"]
            # The cache emptied; its lifetime ledger did not.
            assert service.cache.cache_size == 0
            assert service.cache.window_size == 0

    def test_counters_monotone_across_mixed_traffic(self):
        with make_service() as service:
            previous = service.counters()
            added = service.add_graph(path("COO"))
            steps = [
                lambda: service.execute(path("CO")),
                lambda: service.execute(path("CO")),
                lambda: service.purge(),
                lambda: service.execute(path("CC")),
                lambda: service.delete_graph(added),
                lambda: service.execute(path("CC")),
            ]
            for step in steps:
                step()
                current = service.counters()
                assert_monotone(previous, current)
                previous = current

    def test_counters_thread_safe(self):
        """Readers racing executors must never observe hits+misses
        exceeding queries (both are updated under the monitor mutex)."""
        with make_service(max_sessions=4) as service:
            stop = threading.Event()
            violations: list[dict] = []

            def reader():
                while not stop.is_set():
                    c = service.counters()
                    if c["cache_hits"] + c["cache_misses"] > c["queries"]:
                        violations.append(c)

            threads = [threading.Thread(target=reader) for _ in range(2)]
            for t in threads:
                t.start()
            for _ in range(30):
                service.execute(path("CO"))
            stop.set()
            for t in threads:
                t.join()
            assert not violations


class TestMonitorCounters:
    def test_monitor_counters_standalone(self):
        monitor = StatisticsMonitor()
        counters = monitor.counters()
        assert counters["queries"] == 0
        assert counters["cache_hits"] == 0
        assert counters["cache_misses"] == 0

    def test_summary_reports_hit_miss_split(self):
        with make_service() as service:
            service.execute(path("CO"))
            service.execute(path("CO"))
            summary = service.summary()
        assert summary["cache_hits"] + summary["cache_misses"] == 2
