"""Failure injection and degenerate-input tests for the full engine."""

from __future__ import annotations

import pytest

from repro.api import GraphCacheService
from repro.cache.entry import QueryType
from repro.cache.models import CacheModel
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2plus import VF2PlusMatcher
from repro.runtime.method_m import MethodMRunner
from tests.ullmann import UllmannMatcher


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


class TestEmptyDataset:
    def test_query_against_empty_store(self):
        engine = GraphCacheService(GraphStore(), matcher=VF2PlusMatcher())
        result = engine.execute(path("CO"))
        assert result.answer_ids == frozenset()
        assert result.metrics.method_tests == 0

    def test_baseline_against_empty_store(self):
        runner = MethodMRunner(GraphStore(), VF2PlusMatcher())
        assert runner.execute(path("CO")).answer_ids == frozenset()

    def test_dataset_emptied_mid_stream(self):
        store = GraphStore.from_graphs([path("CO"), path("CC")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        engine.execute(path("C"))
        store.delete_graph(0)
        store.delete_graph(1)
        result = engine.execute(path("C"))
        assert result.answer_ids == frozenset()
        assert result.metrics.method_tests == 0

    def test_dataset_refilled_after_emptying(self):
        store = GraphStore.from_graphs([path("CO")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        engine.execute(path("C"))
        store.delete_graph(0)
        engine.execute(path("C"))
        new_id = store.add_graph(path("CC"))
        result = engine.execute(path("C"))
        assert result.answer_ids == frozenset({new_id})


class TestDegenerateQueries:
    def test_empty_query_subgraph(self):
        store = GraphStore.from_graphs([path("CO")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        result = engine.execute(LabeledGraph())
        # the empty pattern is contained in everything.
        assert result.answer_ids == frozenset({0})

    def test_single_vertex_query(self):
        store = GraphStore.from_graphs([path("CO"), path("NN")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        assert engine.execute(
            LabeledGraph.from_edges("N", [])
        ).answer_ids == frozenset({1})

    def test_disconnected_query(self):
        store = GraphStore.from_graphs([path("CO"), path("CN")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        two_parts = LabeledGraph.from_edges("CO", [])  # no edges
        assert engine.execute(two_parts).answer_ids == frozenset({0})

    def test_query_graph_not_mutated_by_caching(self):
        store = GraphStore.from_graphs([path("CO")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        q = path("CO")
        engine.execute(q)
        q.add_vertex("X")  # caller mutates after execution
        result = engine.execute(path("CO"))
        # the cached entry must be the original 2-vertex query.
        assert result.metrics.method_tests == 0


class TestChurnExtremes:
    def test_change_before_first_query(self):
        store = GraphStore.from_graphs([path("CO")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        store.add_graph(path("CC"))  # log moved before any query
        result = engine.execute(path("C"))
        assert sorted(result.answer_ids) == [0, 1]

    def test_many_changes_between_queries(self):
        store = GraphStore.from_graphs([path("CO")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON)
        engine.execute(path("C"))
        for _ in range(30):
            gid = store.add_graph(path("CC"))
            store.delete_graph(gid)
        result = engine.execute(path("C"))
        assert sorted(result.answer_ids) == [0]

    def test_evi_with_change_every_query(self):
        store = GraphStore.from_graphs([path("CO"), path("CC")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.EVI)
        for i in range(10):
            store.add_graph(path("CN"))
            result = engine.execute(path("C"))
            assert len(result.answer_ids) == 2 + i + 1

    def test_graph_updated_to_empty_edges(self):
        g = path("CCO")
        store = GraphStore.from_graphs([g])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        engine.execute(path("CC"))
        store.remove_edge(0, 0, 1)
        store.remove_edge(0, 1, 2)
        result = engine.execute(path("CC"))
        assert result.answer_ids == frozenset()


class TestSupergraphDegenerates:
    def test_empty_store_supergraph(self):
        engine = GraphCacheService(GraphStore(), matcher=VF2PlusMatcher(),
                                   query_type=QueryType.SUPERGRAPH)
        assert engine.execute(path("CO")).answer_ids == frozenset()

    def test_single_vertex_dataset_graph(self):
        store = GraphStore.from_graphs([LabeledGraph.from_edges("C", [])])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   query_type=QueryType.SUPERGRAPH)
        assert engine.execute(path("CO")).answer_ids == frozenset({0})

    def test_empty_query_supergraph(self):
        store = GraphStore.from_graphs([path("CO")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   query_type=QueryType.SUPERGRAPH)
        # only the empty graph is contained in the empty query; CO isn't.
        assert engine.execute(LabeledGraph()).answer_ids == frozenset()


class TestMatcherSwaps:
    @pytest.mark.parametrize("name", ["vf2", "vf2+", "graphql", "ullmann"])
    def test_any_matcher_as_method_m(self, name):
        from repro.matching import make_matcher

        matcher = (UllmannMatcher() if name == "ullmann"
                   else make_matcher(name))
        store = GraphStore.from_graphs([path("CCO"), path("NN")])
        engine = GraphCacheService(store, matcher=matcher)
        assert sorted(engine.execute(path("CO")).answer_ids) == [0]

    def test_custom_internal_verifier(self):
        store = GraphStore.from_graphs([path("CCO")])
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   internal_verifier=UllmannMatcher())
        engine.execute(path("CO"))
        result = engine.execute(path("CO"))
        assert result.metrics.method_tests == 0
