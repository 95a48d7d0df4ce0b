"""Window, StatisticsManager, replacement policies and QueryIndex tests."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.query_index import QueryIndex
from repro.cache.replacement import (
    HybridPolicy,
    LFUPolicy,
    LRUPolicy,
    PINCPolicy,
    PINPolicy,
    make_policy,
)
from repro.cache.statistics import StatisticsManager
from repro.cache.window import WindowManager
from repro.graphs.graph import LabeledGraph
from tests.conftest import brute_force_subiso, labeled_graphs


def make_entry(entry_id: int, graph: LabeledGraph | None = None,
               created_at: int = 0) -> CacheEntry:
    return CacheEntry(
        entry_id=entry_id,
        query=graph if graph is not None
        else LabeledGraph.from_edges("CO", [(0, 1)]),
        query_type=QueryType.SUBGRAPH,
        answer=0,
        valid=0,
        created_at=created_at,
    )


class TestWindow:
    def test_batches_at_capacity(self):
        w = WindowManager(capacity=3)
        assert w.add(make_entry(0)) is None
        assert w.add(make_entry(1)) is None
        batch = w.add(make_entry(2))
        assert batch is not None
        assert [e.entry_id for e in batch] == [0, 1, 2]
        assert len(w) == 0

    def test_entries_view(self):
        w = WindowManager(capacity=5)
        w.add(make_entry(0))
        assert [e.entry_id for e in w.entries()] == [0]

    def test_clear(self):
        w = WindowManager(capacity=5)
        w.add(make_entry(0))
        w.clear()
        assert len(w) == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            WindowManager(capacity=0)


class TestStatisticsManager:
    def test_register_credit_get(self):
        stats = StatisticsManager()
        stats.register(0, created_at=5)
        stats.credit(0, tests_saved=7, cost_saved=3.5, query_index=9)
        s = stats.get(0)
        assert s.tests_saved == 7
        assert s.cost_saved == 3.5
        assert s.hits == 1
        assert s.last_used == 9
        assert s.created_at == 5

    def test_zero_credit_does_not_touch_recency(self):
        stats = StatisticsManager()
        stats.register(0, created_at=1)
        stats.credit(0, 0, 0.0, query_index=50)
        assert stats.get(0).last_used == 1
        assert stats.get(0).hits == 0

    def test_r_values(self):
        stats = StatisticsManager()
        for i, r in enumerate([4, 0, 9]):
            stats.register(i, 0)
            stats.credit(i, r, 0.0, 0)
        assert stats.r_values([0, 1, 2]) == [4, 0, 9]

    def test_forget(self):
        stats = StatisticsManager()
        stats.register(0, 0)
        stats.forget(0)
        assert 0 not in stats
        stats.forget(0)  # idempotent

    def test_clear_and_len(self):
        stats = StatisticsManager()
        stats.register(0, 0)
        stats.register(1, 0)
        assert len(stats) == 2
        stats.clear()
        assert len(stats) == 0


def stats_with(r_values: list[int],
               c_values: list[float] | None = None) -> StatisticsManager:
    stats = StatisticsManager()
    for i, r in enumerate(r_values):
        stats.register(i, created_at=i)
        c = c_values[i] if c_values is not None else float(r)
        stats.credit(i, r, c, query_index=10 + i)
    return stats


class TestPolicies:
    def test_pin_evicts_lowest_r(self):
        entries = [make_entry(i, created_at=i) for i in range(4)]
        stats = stats_with([5, 1, 9, 3])
        victims = PINPolicy().select_victims(entries, stats, capacity=2)
        assert sorted(v.entry_id for v in victims) == [1, 3]

    def test_pinc_evicts_lowest_c(self):
        entries = [make_entry(i, created_at=i) for i in range(3)]
        stats = stats_with([1, 1, 1], c_values=[9.0, 1.0, 5.0])
        victims = PINCPolicy().select_victims(entries, stats, capacity=2)
        assert [v.entry_id for v in victims] == [1]

    def test_lru_evicts_least_recent(self):
        entries = [make_entry(i, created_at=i) for i in range(3)]
        stats = StatisticsManager()
        for i in range(3):
            stats.register(i, created_at=i)
        stats.credit(0, 1, 1.0, query_index=100)  # entry 0 freshly used
        victims = LRUPolicy().select_victims(entries, stats, capacity=2)
        assert [v.entry_id for v in victims] == [1]

    def test_lfu_evicts_least_frequent(self):
        entries = [make_entry(i, created_at=i) for i in range(3)]
        stats = StatisticsManager()
        for i in range(3):
            stats.register(i, created_at=i)
        for _ in range(3):
            stats.credit(2, 1, 1.0, 0)
        stats.credit(1, 1, 1.0, 0)
        victims = LFUPolicy().select_victims(entries, stats, capacity=2)
        assert [v.entry_id for v in victims] == [0]

    def test_no_eviction_under_capacity(self):
        entries = [make_entry(0)]
        stats = stats_with([1])
        assert PINPolicy().select_victims(entries, stats, 5) == []

    def test_tie_breaks_evict_older(self):
        entries = [make_entry(0, created_at=0), make_entry(1, created_at=9)]
        stats = stats_with([2, 2])
        victims = PINPolicy().select_victims(entries, stats, capacity=1)
        assert [v.entry_id for v in victims] == [0]

    def test_hd_uses_pin_on_high_variance(self):
        # R = [0, 0, 0, 100]: CoV² >> 1 -> PIN scoring.
        entries = [make_entry(i, created_at=i) for i in range(4)]
        stats = stats_with([0, 0, 0, 100], c_values=[50.0, 60.0, 70.0, 0.1])
        hd = HybridPolicy()
        victims = hd.select_victims(entries, stats, capacity=3)
        assert hd.pin_rounds == 1 and hd.pinc_rounds == 0
        # PIN evicts an R=0 entry despite its high C.
        assert victims[0].entry_id in {0, 1, 2}

    def test_hd_uses_pinc_on_low_variance(self):
        # R = [5, 5, 6, 6]: CoV² << 1 -> PINC scoring.
        entries = [make_entry(i, created_at=i) for i in range(4)]
        stats = stats_with([5, 5, 6, 6], c_values=[9.0, 1.0, 8.0, 7.0])
        hd = HybridPolicy()
        victims = hd.select_victims(entries, stats, capacity=3)
        assert hd.pinc_rounds == 1
        assert [v.entry_id for v in victims] == [1]  # lowest C

    def test_hd_score_defaults_to_pin(self):
        stats = stats_with([3])
        assert HybridPolicy().score(make_entry(0), stats) == 3.0

    def test_factory(self):
        for name in ("lru", "lfu", "pin", "pinc", "hd"):
            assert make_policy(name).name == name
        with pytest.raises(ValueError):
            make_policy("arc")

    def test_factory_case_insensitive(self):
        assert make_policy("HD").name == "hd"


class TestQueryIndex:
    def test_add_remove_clear(self):
        index = QueryIndex()
        e = make_entry(0)
        index.add(e)
        assert len(index) == 1
        index.remove(0)
        assert len(index) == 0
        index.remove(0)  # idempotent
        index.add(e)
        index.clear()
        assert len(index) == 0

    def test_direction_semantics(self):
        from repro.graphs.features import GraphFeatures

        small = LabeledGraph.from_edges("CO", [(0, 1)])
        big = LabeledGraph.from_edges("CCO", [(0, 1), (1, 2)])
        index = QueryIndex()
        index.add(make_entry(0, graph=big))
        feats = GraphFeatures.of(small)
        # small could be a subgraph of the cached big query...
        assert [e.entry_id for e in index.candidate_supergraphs(feats)] == [0]
        # ...but the cached big query cannot be contained in small.
        assert index.candidate_subgraphs(feats) == []

    @given(labeled_graphs(max_vertices=5, alphabet="ab"),
           labeled_graphs(max_vertices=5, alphabet="ab"))
    def test_filter_completeness(self, query, cached):
        """True containments always survive the index filter."""
        from repro.graphs.features import GraphFeatures

        index = QueryIndex()
        index.add(make_entry(0, graph=cached))
        feats = GraphFeatures.of(query)
        if brute_force_subiso(query, cached):
            assert index.candidate_supergraphs(feats)
        if brute_force_subiso(cached, query):
            assert index.candidate_subgraphs(feats)
