"""The bucketed QueryIndex must be indistinguishable from a brute scan.

Two guarantees are locked here:

* **Equivalence** — for randomized entry populations and probes, both
  lookup directions return *exactly* the candidate pool a linear scan
  over all entries produces (same entries, same order: ascending
  ``entry_id``, which is what the historical dict-scan yielded);
* **Churn hygiene** — admissions, evictions, purges and manager-driven
  window promotion leave no stale bucket or posting state behind
  (:func:`audit` of ``tests/index_audit.py`` cross-checks the inverted
  structures against the entry population after every mutation).
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.query_index import QueryIndex
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from tests.conftest import labeled_graphs
from tests.index_audit import audit


def make_entry(entry_id: int, graph: LabeledGraph) -> CacheEntry:
    return CacheEntry(
        entry_id=entry_id,
        query=graph,
        query_type=QueryType.SUBGRAPH,
        answer=0,
        valid=0,
        created_at=entry_id,
    )


def brute_supergraphs(index: QueryIndex,
                      feats: GraphFeatures) -> list[CacheEntry]:
    """The pre-index linear scan, verbatim (the reference semantics)."""
    return [e for e in index._entries.values()
            if feats.may_be_subgraph_of(e.features)]


def brute_subgraphs(index: QueryIndex,
                    feats: GraphFeatures) -> list[CacheEntry]:
    return [e for e in index._entries.values()
            if e.features.may_be_subgraph_of(feats)]


def assert_pools_identical(index: QueryIndex, probe: LabeledGraph) -> None:
    feats = GraphFeatures.of(probe)
    got_super = index.candidate_supergraphs(feats)
    got_sub = index.candidate_subgraphs(feats)
    # Same entries, same order, same objects.
    assert [e.entry_id for e in got_super] == \
        [e.entry_id for e in brute_supergraphs(index, feats)]
    assert [e.entry_id for e in got_sub] == \
        [e.entry_id for e in brute_subgraphs(index, feats)]
    assert all(a is b for a, b in zip(got_super,
                                      brute_supergraphs(index, feats)))
    assert all(a is b for a, b in zip(got_sub,
                                      brute_subgraphs(index, feats)))


class TestEquivalenceProperties:
    @given(
        cached=st.lists(labeled_graphs(max_vertices=6, alphabet="abc"),
                        min_size=0, max_size=14),
        probe=labeled_graphs(max_vertices=6, alphabet="abc"),
    )
    def test_both_directions_match_linear_scan(self, cached, probe):
        index = QueryIndex()
        for i, graph in enumerate(cached):
            index.add(make_entry(i, graph))
        audit(index)
        assert_pools_identical(index, probe)

    @given(
        cached=st.lists(labeled_graphs(max_vertices=5, alphabet="ab"),
                        min_size=1, max_size=12),
        probe=labeled_graphs(max_vertices=5, alphabet="ab"),
        removals=st.sets(st.integers(0, 11)),
    )
    def test_equivalence_survives_removals(self, cached, probe, removals):
        index = QueryIndex()
        for i, graph in enumerate(cached):
            index.add(make_entry(i, graph))
        for entry_id in removals:
            index.remove(entry_id)  # some ids never existed: no-op
        audit(index)
        assert len(index) == len([i for i in range(len(cached))
                                  if i not in removals])
        assert_pools_identical(index, probe)

    @given(probe=labeled_graphs(max_vertices=4))
    def test_empty_index(self, probe):
        index = QueryIndex()
        feats = GraphFeatures.of(probe)
        assert index.candidate_supergraphs(feats) == []
        assert index.candidate_subgraphs(feats) == []

    def test_label_missing_everywhere_short_circuits(self):
        index = QueryIndex()
        index.add(make_entry(0, LabeledGraph.from_edges("aa", [(0, 1)])))
        probe = GraphFeatures.of(LabeledGraph.from_edges("az", [(0, 1)]))
        assert index.candidate_supergraphs(probe) == []


class TestOversizedGraphs:
    """Feature counts beyond the packed 16-bit fields (gigantic graphs)
    must be served through the unpacked fallback — same pools, no
    crash, clean removal."""

    @staticmethod
    def _giant(label: str = "a") -> LabeledGraph:
        g = LabeledGraph()
        for _ in range(32768):  # one past the packable maximum
            g.add_vertex(label)
        return g

    def test_oversized_entry_is_indexed_and_found(self):
        index = QueryIndex()
        index.add(make_entry(0, LabeledGraph.from_edges("aa", [(0, 1)])))
        index.add(make_entry(1, self._giant()))
        audit(index)
        assert len(index) == 2
        probe = LabeledGraph.from_edges("aa", [])
        assert_pools_identical(index, probe)
        # The giant contains the small 'a'-labeled probe.
        feats = GraphFeatures.of(probe)
        assert [e.entry_id for e in index.candidate_supergraphs(feats)] \
            == [0, 1]

    def test_oversized_probe_falls_back(self):
        index = QueryIndex()
        index.add(make_entry(0, LabeledGraph.from_edges("aa", [(0, 1)])))
        index.add(make_entry(1, self._giant()))
        assert_pools_identical(index, self._giant())

    def test_high_degree_star_goes_to_overflow_population(self):
        """A legal-count but ultra-dense graph (vertex degree beyond the
        per-label field budget) must not inflate the field registry —
        it is served unpacked instead."""
        star = LabeledGraph()
        hub = star.add_vertex("a")
        for _ in range(70):  # degree 70 > the 64-level field budget
            star.add_edge(hub, star.add_vertex("a"))
        index = QueryIndex()
        fields_before = len(index._offsets)
        small = LabeledGraph.from_edges("aa", [(0, 1)])
        index.add(make_entry(0, small))
        index.add(make_entry(1, star))
        audit(index)
        assert 1 in index._oversized
        # The star registered no degree fields of its own.
        assert len(index._offsets) - fields_before < 70
        assert_pools_identical(index, small)
        assert_pools_identical(index, star)
        feats = GraphFeatures.of(small)
        assert [e.entry_id for e in index.candidate_supergraphs(feats)] \
            == [0, 1]

    def test_oversized_entry_removal_and_clear(self):
        index = QueryIndex()
        index.add(make_entry(0, self._giant()))
        index.remove(0)
        audit(index)
        assert len(index) == 0
        index.add(make_entry(1, self._giant()))
        index.clear()
        audit(index)
        assert len(index) == 0


class TestChurnHygiene:
    def test_randomized_churn_leaves_no_stale_postings(self, rng):
        index = QueryIndex()
        alive: set[int] = set()
        next_id = 0
        probe = LabeledGraph.from_edges("abc", [(0, 1), (1, 2)])
        for step in range(300):
            op = rng.random()
            if op < 0.55 or not alive:
                n = rng.randint(1, 5)
                g = LabeledGraph()
                for _ in range(n):
                    g.add_vertex(rng.choice("abcd"))
                for u in range(n):
                    for v in range(u + 1, n):
                        if rng.random() < 0.4:
                            g.add_edge(u, v)
                index.add(make_entry(next_id, g))
                alive.add(next_id)
                next_id += 1
            elif op < 0.9:
                victim = rng.choice(sorted(alive))
                index.remove(victim)
                alive.discard(victim)
            else:
                index.clear()
                alive.clear()
            audit(index)
            assert len(index) == len(alive)
            if step % 25 == 0:
                assert_pools_identical(index, probe)

    def test_clear_empties_inverted_structures(self):
        index = QueryIndex()
        for i in range(10):
            index.add(make_entry(i, LabeledGraph.from_edges("ab", [(0, 1)])))
        index.clear()
        assert len(index) == 0
        assert index._buckets == {}
        audit(index)

    def test_re_add_same_id_replaces_postings(self):
        index = QueryIndex()
        index.add(make_entry(7, LabeledGraph.from_edges("ab", [(0, 1)])))
        # Same id, different graph: old label/bucket state must vanish.
        index.add(make_entry(7, LabeledGraph.from_edges("cd", [(0, 1)])))
        audit(index)
        assert len(index) == 1
        probe = GraphFeatures.of(LabeledGraph.from_edges("ab", [(0, 1)]))
        assert index.candidate_supergraphs(probe) == []

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**16))
    def test_manager_driven_promotion_eviction_churn(self, seed):
        """Admissions through the CacheManager (window promotion +
        policy eviction + purge) keep the index exactly in sync with
        the hit-eligible population."""
        rng = random.Random(seed)
        store = GraphStore.from_graphs(
            [LabeledGraph.from_edges("abc", [(0, 1), (1, 2)])]
        )
        manager = CacheManager(capacity=5, window_capacity=3)
        for i in range(40):
            n = rng.randint(1, 4)
            g = LabeledGraph()
            for _ in range(n):
                g.add_vertex(rng.choice("abc"))
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        g.add_edge(u, v)
            manager.admit(g, 0, store, i)
            audit(manager.index)
            eligible = {e.entry_id for e in manager.all_entries()}
            indexed = {e.entry_id for e in manager.index._entries.values()}
            assert indexed == eligible
        manager.clear(store)
        audit(manager.index)
        assert len(manager.index) == 0
