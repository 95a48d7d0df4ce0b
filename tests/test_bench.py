"""The statistics monitor the figure harness reads, and the table
helpers (``repro.cli``) that render what ``run`` and the figures print."""

from __future__ import annotations

import pytest

from repro.cli import format_value, render_table


class TestReporting:
    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.14"
        assert format_value(0.001234) == "0.001"
        assert format_value(12345.6) == "12,346"
        assert format_value("text") == "text"

    def test_render_table(self):
        out = render_table("Title", [{"a": 1, "b": 2.5}])
        assert "Title" in out
        assert "a" in out and "b" in out
        assert "2.50" in out

    def test_render_table_empty(self):
        out = render_table("Empty", [], columns=["x"])
        assert "Empty" in out

    def test_column_selection(self):
        out = render_table("T", [{"a": 1, "b": 2}], columns=["b"])
        assert "b" in out
        lines = out.splitlines()
        assert all("a |" not in line for line in lines[2:3])


class TestMonitor:
    def test_query_metrics_properties(self):
        from repro.runtime.monitor import QueryMetrics

        m = QueryMetrics(discovery_seconds=1.0, prune_seconds=2.0,
                         verify_seconds=3.0, analyze_seconds=0.5,
                         validate_seconds=0.25, admission_seconds=0.25)
        assert m.query_seconds == 6.0
        assert m.overhead_seconds == 1.0
        assert m.consistency_seconds == 0.75

    def test_monitor_zero_test_tracking(self):
        from repro.runtime.monitor import QueryMetrics, StatisticsMonitor

        mon = StatisticsMonitor()
        mon.record(QueryMetrics(method_tests=0, exact_hits=1,
                                exact_hit_valid=True))
        mon.record(QueryMetrics(method_tests=5))
        assert mon.queries == 2
        assert mon.zero_test_queries == 1
        assert mon.queries_with_exact_hit == 1
        assert mon.queries_with_valid_exact_hit == 1
        assert mon.total_method_tests == 5

    def test_summary_averages_are_totals_over_queries(self):
        from repro.runtime.monitor import QueryMetrics, StatisticsMonitor

        empty = StatisticsMonitor().summary()
        assert all(empty[key] == 0.0 for key in empty
                   if key.startswith("avg_"))
        mon = StatisticsMonitor()
        mon.record(QueryMetrics(method_tests=1, verify_seconds=0.002,
                                analyze_seconds=0.001,
                                admission_seconds=0.003))
        mon.record(QueryMetrics(method_tests=4, verify_seconds=0.004,
                                purge_seconds=0.002))
        s = mon.summary()
        assert s["avg_query_time_ms"] == pytest.approx(3.0)
        assert s["avg_overhead_ms"] == pytest.approx(3.0)
        assert s["avg_consistency_ms"] == pytest.approx(1.5)
        assert s["avg_purge_ms"] == pytest.approx(1.0)
        assert s["avg_method_tests"] == 2.5
