"""CacheManager tests — consistency protocol, admission, replacement."""

from __future__ import annotations

import pytest

from repro.cache.manager import CacheManager
from repro.cache.models import CacheModel
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from tests.conftest import id_mask, packed_ids


def graph(labels="CO", edges=((0, 1),)) -> LabeledGraph:
    return LabeledGraph.from_edges(list(labels), list(edges))


def store_with(n: int = 3) -> GraphStore:
    return GraphStore.from_graphs([
        LabeledGraph.from_edges("CCO", [(0, 1), (1, 2)]) for _ in range(n)
    ])


def admit_one(manager: CacheManager, store: GraphStore,
              answer: set[int] = frozenset(), at: int = 0):
    return manager.admit(graph(), id_mask(answer), store, at)


class TestConstruction:
    def test_defaults_match_paper(self):
        m = CacheManager()
        assert m.capacity == 100
        assert m.window.capacity == 20
        assert m.policy.name == "hd"
        assert m.model is CacheModel.CON

    def test_policy_by_name_or_instance(self):
        from repro.cache.replacement import LRUPolicy

        assert CacheManager(policy="pin").policy.name == "pin"
        assert CacheManager(policy=LRUPolicy()).policy.name == "lru"

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            CacheManager(capacity=0)


class TestAdmission:
    def test_entry_lands_in_window_and_index(self):
        store = store_with()
        m = CacheManager(window_capacity=5)
        entry = admit_one(m, store)
        assert m.window_size == 1
        assert m.cache_size == 0
        assert len(m.index) == 1
        assert entry.entry_id in m.statistics

    def test_initial_validity_covers_live_ids(self):
        store = store_with(3)
        store.delete_graph(1)
        m = CacheManager()
        entry = admit_one(m, store)
        assert packed_ids(entry.valid) == [0, 2]

    def test_window_promotion_to_cache(self):
        store = store_with()
        m = CacheManager(window_capacity=2, capacity=10)
        admit_one(m, store, at=0)
        admit_one(m, store, at=1)
        assert m.window_size == 0
        assert m.cache_size == 2
        assert len(m.index) == 2

    def test_eviction_trims_to_capacity(self):
        store = store_with()
        m = CacheManager(window_capacity=2, capacity=2, policy="pin")
        for i in range(4):
            admit_one(m, store, at=i)
        assert m.cache_size == 2
        assert len(m.index) == 2
        assert m.evictions == 2
        assert m.admissions == 4

    def test_eviction_prefers_low_r(self):
        store = store_with()
        m = CacheManager(window_capacity=2, capacity=2, policy="pin")
        e0 = admit_one(m, store, at=0)
        e1 = admit_one(m, store, at=1)  # promotes both
        m.credit(e0.entry_id, 10, 10.0, 1)
        e2 = admit_one(m, store, at=2)
        m.credit(e2.entry_id, 5, 5.0, 2)
        admit_one(m, store, at=3)       # promotes; must evict e1 + newest
        surviving = {e.entry_id for e in m.all_entries()}
        assert e0.entry_id in surviving
        assert e1.entry_id not in surviving

    def test_all_entries_covers_cache_and_window(self):
        store = store_with()
        m = CacheManager(window_capacity=2)
        admit_one(m, store, at=0)
        admit_one(m, store, at=1)  # promoted
        admit_one(m, store, at=2)  # in window
        assert len(m.all_entries()) == 3


class TestConsistencyProtocol:
    def test_no_change_is_noop(self):
        store = store_with()
        m = CacheManager()
        report = m.ensure_consistency(store)
        assert not report.dataset_changed
        assert report.entries_validated == 0

    def test_con_validates_all_entries(self):
        store = store_with()
        m = CacheManager(model=CacheModel.CON, window_capacity=10)
        entry = admit_one(m, store, answer={0})
        store.remove_edge(0, 0, 1)  # UR on an answer graph -> invalidate
        report = m.ensure_consistency(store)
        assert report.dataset_changed and not report.purged
        assert report.entries_validated == 1
        assert packed_ids(entry.valid) == [1, 2]

    def test_con_cursor_prevents_revalidation(self):
        store = store_with()
        m = CacheManager(model=CacheModel.CON)
        admit_one(m, store)
        store.add_graph(graph())
        m.ensure_consistency(store)
        report = m.ensure_consistency(store)
        assert not report.dataset_changed

    def test_evi_purges_everything(self):
        store = store_with()
        m = CacheManager(model=CacheModel.EVI, window_capacity=2)
        admit_one(m, store, at=0)
        admit_one(m, store, at=1)
        admit_one(m, store, at=2)
        store.add_graph(graph())
        report = m.ensure_consistency(store)
        assert report.purged
        assert m.cache_size == 0
        assert m.window_size == 0
        assert len(m.index) == 0
        assert len(m.statistics) == 0

    def test_evi_cursor_advances(self):
        store = store_with()
        m = CacheManager(model=CacheModel.EVI)
        store.add_graph(graph())
        m.ensure_consistency(store)
        report = m.ensure_consistency(store)
        assert not report.dataset_changed

    def test_con_extends_indicator_for_added_graphs(self):
        store = store_with(2)
        m = CacheManager(model=CacheModel.CON)
        entry = admit_one(m, store)
        store.add_graph(graph())
        m.ensure_consistency(store)
        assert packed_ids(entry.valid) == [0, 1]   # G2's bit reads 0

    def test_timings_populated(self):
        store = store_with()
        m = CacheManager(model=CacheModel.CON)
        admit_one(m, store)
        store.add_graph(graph())
        report = m.ensure_consistency(store)
        assert report.analyze_seconds >= 0.0
        assert report.validate_seconds >= 0.0


class TestCredit:
    def test_credit_unknown_entry_ignored(self):
        m = CacheManager()
        m.credit(999, 5, 5.0, 0)  # must not raise

    def test_clear(self):
        store = store_with()
        m = CacheManager(window_capacity=2)
        admit_one(m, store, at=0)
        admit_one(m, store, at=1)
        m.clear()
        assert m.cache_size == 0 and m.window_size == 0
        assert len(m.index) == 0

    def test_repr(self):
        assert "model=CON" in repr(CacheManager())
