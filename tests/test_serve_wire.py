"""Unit tests for the serving wire codec and Prometheus rendering."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.serve.metrics import ServerStats, render_prometheus
from repro.serve.wire import (
    WireError,
    graph_from_wire,
    graph_to_wire,
    metrics_to_wire,
    plan_to_wire,
    result_to_wire,
)


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


class TestGraphCodec:
    def test_round_trip(self):
        g = path("CCO")
        decoded = graph_from_wire(graph_to_wire(g))
        assert decoded == g

    def test_isolated_vertices_survive(self):
        g = LabeledGraph.from_edges(["C", "N", "O"], [(0, 1)])
        assert graph_from_wire(graph_to_wire(g)) == g

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "expected a JSON object"),
        ({}, "missing required field 'labels'"),
        ({"labels": ["C"]}, "missing required field 'edges'"),
        ({"labels": "CC", "edges": []}, "must be list"),
        ({"labels": [None], "edges": []}, "labels must be"),
        ({"labels": [True], "edges": []}, "labels must be"),
        ({"labels": ["C", "C"], "edges": [[0]]}, "integer pairs"),
        ({"labels": ["C", "C"], "edges": [[0, "1"]]}, "integer pairs"),
        ({"labels": ["C", "C"], "edges": [[0, 5]]}, "out of range"),
        ({"labels": ["C", "C"], "edges": [[0, 0]]}, "self-loops"),
        ({"labels": ["C", "C"], "edges": [[0, 1], [1, 0]]},
         "already present"),
        ({"labels": [math.nan, "C"], "edges": [[0, 1]]}, "finite"),
        ({"labels": ["C", math.inf], "edges": []}, "finite"),
        ({"labels": [-math.inf], "edges": []}, "finite"),
    ])
    def test_rejects_malformed(self, payload, fragment):
        with pytest.raises(WireError, match=fragment):
            graph_from_wire(payload)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e400"])
    def test_non_finite_json_labels_are_rejected(self, literal):
        """``json.loads`` decodes these to non-finite floats; a NaN
        label would make the matchers disagree (NaN != NaN)."""
        payload = json.loads(f'{{"labels": [{literal}, "C"], '
                             f'"edges": [[0, 1]]}}')
        with pytest.raises(WireError, match="finite"):
            graph_from_wire(payload)

    def test_finite_float_labels_still_decode(self):
        g = graph_from_wire(json.loads('{"labels": [1.5, 1e300], '
                                       '"edges": [[0, 1]]}'))
        assert g.labels == (1.5, 1e300)


class TestResultAndPlan:
    @pytest.fixture
    def service(self):
        store = GraphStore.from_graphs([path("CCO"), path("CC")])
        with GraphCacheService(store, GCConfig(model="CON")) as svc:
            yield svc

    def test_result_to_wire(self, service):
        result = service.execute(path("CO"))
        wire = result_to_wire(result)
        assert wire["answer_ids"] == sorted(result.answer)
        assert wire["metrics"]["method_tests"] == result.metrics.method_tests
        assert wire["metrics"]["query_ms"] >= 0.0

    def test_metrics_fields_json_safe(self, service):
        wire = metrics_to_wire(service.execute(path("C")).metrics)
        for value in wire.values():
            assert isinstance(value, (int, float, bool))

    def test_plan_to_wire_carries_structure_and_rendering(self, service):
        service.execute(path("CO"))   # warm one entry
        plan = service.explain(path("CO"))
        wire = plan_to_wire(plan)
        assert wire["candidate_size"] == plan.candidate_size
        assert wire["tests_saved"] == plan.tests_saved
        assert wire["is_hit"] == plan.is_hit
        assert isinstance(wire["steps"], list)
        assert wire["describe"] == plan.describe()


class TestPrometheusRendering:
    def test_counters_and_gauges_present(self):
        store = GraphStore.from_graphs([path("CCO")])
        with GraphCacheService(store, GCConfig(model="CON")) as service:
            service.execute(path("CO"))
            text = render_prometheus(service)
        assert "# TYPE gcplus_queries_total counter" in text
        assert "gcplus_queries_total 1" in text
        assert "gcplus_cache_entries 0" in text
        assert "gcplus_window_entries 1" in text
        # HD regime rounds ride along for the default policy.
        assert 'gcplus_hd_rounds{regime="pin"}' in text

    def test_values_match_service_counters(self):
        store = GraphStore.from_graphs([path("CCO"), path("CCC")])
        with GraphCacheService(store, GCConfig(model="CON")) as service:
            for _ in range(3):
                service.execute(path("CO"))
            counters = service.counters()
            text = render_prometheus(service)
        samples = {
            line.split()[0]: line.split()[1]
            for line in text.splitlines() if not line.startswith("#")
        }
        assert int(samples["gcplus_queries_total"]) == counters["queries"]
        assert int(samples["gcplus_cache_hits_total"]) == counters["cache_hits"]
        assert int(samples["gcplus_cache_misses_total"]) == counters["cache_misses"]
        assert int(samples["gcplus_admissions_total"]) == counters["admissions"]

    def test_server_stats_section(self):
        store = GraphStore.from_graphs([path("CCO")])
        stats = ServerStats()
        stats.observe_request("/query", 200)
        stats.observe_request("/query", 200)
        stats.observe_request("/mutate", 400)
        stats.observe_query_latency(0.002)
        stats.observe_query_latency(0.004)
        with GraphCacheService(store, GCConfig(model="CON")) as service:
            text = render_prometheus(service, stats, ready=True)
        assert 'gcplus_http_requests_total{path="/query",status="200"} 2' in text
        assert 'gcplus_http_requests_total{path="/mutate",status="400"} 1' in text
        assert "gcplus_query_latency_seconds_count 2" in text
        assert "gcplus_ready 1" in text
        assert 'quantile="0.5"' in text

    def test_empty_latency_reservoir_is_nan_not_crash(self):
        stats = ServerStats()
        quantiles = stats.latency_quantiles()
        assert all(math.isnan(v) for v in quantiles.values())
        store = GraphStore.from_graphs([path("CC")])
        with GraphCacheService(store, GCConfig(model="CON")) as service:
            text = render_prometheus(service, stats, ready=False)
        assert 'gcplus_query_latency_seconds{quantile="0.5"} NaN' in text
        assert "gcplus_ready 0" in text

    def test_reservoir_bounded(self):
        stats = ServerStats(reservoir=8)
        for i in range(100):
            stats.observe_query_latency(float(i))
        _, samples, count, total = stats.snapshot()
        assert len(samples) == 8
        assert count == 100
        assert total == sum(range(100))
