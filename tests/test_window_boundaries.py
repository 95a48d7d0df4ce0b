"""WindowManager promotion boundaries and QueryIndex window-resident
removal (satellite coverage for the admission-control edge cases)."""

from __future__ import annotations

import pytest

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.query_index import QueryIndex
from repro.cache.window import WindowManager
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


def entry(entry_id: int, labels: str = "CO") -> CacheEntry:
    return CacheEntry(
        entry_id=entry_id,
        query=path(labels),
        query_type=QueryType.SUBGRAPH,
        answer=0,
        valid=0,
        created_at=entry_id,
    )


class TestWindowPromotionBoundary:
    def test_capacity_one_promotes_every_entry(self):
        window = WindowManager(1)
        first = entry(0)
        batch = window.add(first)
        assert batch == [first]
        assert len(window) == 0
        second = entry(1)
        assert window.add(second) == [second]
        assert window.entries() == []

    def test_exact_fill_returns_whole_batch_and_empties(self):
        window = WindowManager(3)
        entries = [entry(i) for i in range(3)]
        assert window.add(entries[0]) is None
        assert window.add(entries[1]) is None
        assert len(window) == 2
        batch = window.add(entries[2])
        assert batch == entries
        assert len(window) == 0

    def test_below_capacity_never_promotes(self):
        window = WindowManager(5)
        for i in range(4):
            assert window.add(entry(i)) is None
        assert len(window) == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowManager(0)


class TestPostPromotionHitEligibility:
    """Paper §4: entries are hit-eligible in the window AND after
    promotion — promotion must not drop them from the query index."""

    def _manager_with(self, window_capacity: int) -> tuple[CacheManager,
                                                           GraphStore]:
        store = GraphStore.from_graphs([path("CCO") for _ in range(3)])
        manager = CacheManager(window_capacity=window_capacity, capacity=10)
        return manager, store

    def _admit(self, manager, store, at, labels="CO"):
        return manager.admit(path(labels), 0,
                             store, at)

    def test_window_resident_is_discoverable(self):
        manager, store = self._manager_with(window_capacity=2)
        admitted = self._admit(manager, store, at=0)
        candidates = manager.index.candidate_supergraphs(
            GraphFeatures.of(path("C")))
        assert admitted.entry_id in {e.entry_id for e in candidates}

    def test_promoted_entry_stays_discoverable(self):
        manager, store = self._manager_with(window_capacity=2)
        first = self._admit(manager, store, at=0)
        second = self._admit(manager, store, at=1)  # fills + promotes
        assert manager.window_size == 0
        assert manager.cache_size == 2
        found = {e.entry_id for e in manager.index.candidate_supergraphs(
            GraphFeatures.of(path("C")))}
        assert {first.entry_id, second.entry_id} <= found

    def test_capacity_one_window_promotes_immediately_and_stays_eligible(self):
        manager, store = self._manager_with(window_capacity=1)
        admitted = self._admit(manager, store, at=0)
        assert manager.window_size == 0
        assert manager.cache_size == 1
        assert admitted.entry_id in {
            e.entry_id for e in manager.all_entries()
        }


class TestQueryIndexWindowResidentRemoval:
    def test_remove_window_resident_entry_from_index(self):
        manager = CacheManager(window_capacity=5)
        store = GraphStore.from_graphs([path("CCO")])
        admitted = manager.admit(path("CO"), 0,
                                 store, 0)
        assert manager.window_size == 1  # still window-resident
        manager.index.remove(admitted.entry_id)
        assert len(manager.index) == 0
        assert manager.index.candidate_supergraphs(
            GraphFeatures.of(path("C"))) == []
        assert manager.index.candidate_subgraphs(
            GraphFeatures.of(path("CCCO"))) == []
        # the window itself still holds the entry (removal is index-only).
        assert manager.window_size == 1

    def test_remove_is_idempotent(self):
        index = QueryIndex()
        e = entry(3)
        index.add(e)
        index.remove(3)
        index.remove(3)  # second removal must not raise
        assert len(index) == 0

    def test_clear_covers_window_residents(self):
        manager = CacheManager(window_capacity=5)
        store = GraphStore.from_graphs([path("CCO")])
        manager.admit(path("CO"), 0, store, 0)
        manager.clear()
        assert len(manager.index) == 0
        assert manager.window_size == 0
