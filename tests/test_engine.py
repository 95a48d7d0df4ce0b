"""GraphCacheService end-to-end behaviour on small, fully understood inputs."""

from __future__ import annotations

import pytest

from repro.api import GraphCacheService
from repro.cache.entry import QueryType
from repro.cache.models import CacheModel
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2plus import VF2PlusMatcher
from repro.runtime.method_m import MethodMRunner
from tests.conftest import brute_force_answer


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


@pytest.fixture
def store() -> GraphStore:
    return GraphStore.from_graphs([
        path("CCO"),
        path("CCCO"),
        path("CO"),
        LabeledGraph.from_edges("CCO", [(0, 1), (1, 2), (0, 2)]),
        path("NNN"),
    ])


@pytest.fixture
def engine(store) -> GraphCacheService:
    return GraphCacheService(store, matcher=VF2PlusMatcher(),
                             window_capacity=3, cache_capacity=5)


class TestBasicExecution:
    def test_answers_match_ground_truth(self, engine, store):
        for q in (path("CO"), path("CC"), path("N"), path("XX")):
            result = engine.execute(q)
            assert result.answer_ids == frozenset(
                brute_force_answer(store, q, QueryType.SUBGRAPH)
            )

    def test_first_query_tests_whole_dataset(self, engine):
        result = engine.execute(path("CO"))
        assert result.metrics.method_tests == 5
        assert result.metrics.candidate_size == 5
        assert result.metrics.tests_saved == 0

    def test_repeat_query_is_test_free(self, engine):
        first = engine.execute(path("CO"))
        second = engine.execute(path("CO"))
        assert second.answer_ids == first.answer_ids
        assert second.metrics.method_tests == 0
        assert second.metrics.exact_hits == 1
        assert second.metrics.exact_hit_valid
        assert second.metrics.tests_saved == 5

    def test_isomorphic_not_identical_query_is_test_free(self, engine):
        engine.execute(path("CO"))
        flipped = path("OC")  # isomorphic to CO
        result = engine.execute(flipped)
        assert result.metrics.method_tests == 0
        assert sorted(result.answer_ids) == sorted(
            engine.execute(path("CO")).answer_ids
        )

    def test_subgraph_hit_donates(self, engine):
        engine.execute(path("CCO"))   # cached: answers {0, 1, 3}
        result = engine.execute(path("CO"))  # CO ⊆ CCO
        assert result.metrics.containing_hits == 1
        # donated graphs need no test: only the rest of the dataset does.
        assert result.metrics.method_tests == 2
        assert sorted(result.answer_ids) == [0, 1, 2, 3]

    def test_supergraph_hit_filters(self, engine):
        engine.execute(path("CC"))    # cached: answers {0, 1, 3}
        result = engine.execute(path("CCC"))  # CC ⊆ CCC
        assert result.metrics.contained_hits == 1
        # graphs not containing CC cannot contain CCC: G2, G4 skipped.
        assert result.metrics.method_tests == 3
        assert sorted(result.answer_ids) == [1]

    def test_empty_answer_shortcut(self, engine):
        none = path("SS")
        first = engine.execute(none)
        assert first.answer_ids == frozenset()
        result = engine.execute(path("SSS"))  # SS ⊆ SSS
        assert result.metrics.empty_shortcut
        assert result.metrics.method_tests == 0
        assert result.answer_ids == frozenset()

    def test_metrics_time_components(self, engine):
        m = engine.execute(path("CO")).metrics
        assert m.query_seconds == pytest.approx(
            m.discovery_seconds + m.prune_seconds + m.verify_seconds
        )
        assert m.overhead_seconds == pytest.approx(
            m.analyze_seconds + m.validate_seconds + m.admission_seconds
        )

    def test_monitor_aggregates(self, engine):
        engine.execute(path("CO"))
        engine.execute(path("CO"))
        s = engine.monitor.summary()
        assert s["queries"] == 2
        assert s["zero_test_queries"] == 1
        assert s["total_method_tests"] == 5

    def test_repr(self, engine):
        engine.execute(path("CO"))
        assert "queries=1" in repr(engine)


class TestCachingDisabled:
    def test_no_admission(self, store):
        """Bare Method M is :class:`MethodMRunner`: no cache, so a
        repeat costs every test again."""
        runner = MethodMRunner(store, VF2PlusMatcher())
        first = runner.execute(path("CO"))
        result = runner.execute(path("CO"))
        assert result.metrics.method_tests == 5
        assert result.answer_ids == first.answer_ids


class TestDynamicBehaviour:
    def test_con_serves_correct_answers_after_ur(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON)
        engine.execute(path("CCO"))
        store.remove_edge(0, 1, 2)  # G0 loses C-O edge
        result = engine.execute(path("CCO"))
        assert result.answer_ids == frozenset(
            brute_force_answer(store, path("CCO"), QueryType.SUBGRAPH)
        )
        # not an exact-hit-free query: G0's validity faded.
        assert result.metrics.method_tests >= 1

    def test_ur_on_non_answer_graph_keeps_full_validity(self, store):
        """Algorithm 2's UR-exclusive case: g ⊄ G4 survives edge removal,
        so the cached entry stays fully valid and the repeat is free."""
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON)
        engine.execute(path("CO"))
        store.remove_edge(4, 0, 1)  # UR on the NNN graph (not an answer)
        result = engine.execute(path("CO"))
        assert result.metrics.method_tests == 0
        assert sorted(result.answer_ids) == [0, 1, 2, 3]

    def test_ua_on_non_answer_graph_invalidates_it_only(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON)
        engine.execute(path("CO"))
        store.add_edge(4, 0, 2)  # UA on the NNN graph (not an answer)
        result = engine.execute(path("CO"))
        # only the UA-touched graph needs re-testing.
        assert result.metrics.method_tests == 1
        assert sorted(result.answer_ids) == [0, 1, 2, 3]

    def test_evi_restarts_after_change(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.EVI)
        engine.execute(path("CO"))
        store.add_graph(path("CO"))
        result = engine.execute(path("CO"))
        assert result.metrics.method_tests == 6  # cold cache, 6 live graphs
        assert sorted(result.answer_ids) == [0, 1, 2, 3, 5]

    def test_ua_only_preserves_positive_answers(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON)
        engine.execute(path("CO"))  # answers {0, 1, 2, 3}
        store.add_edge(0, 0, 2)     # UA on an answer graph
        result = engine.execute(path("CO"))
        # positive relation survives UA: zero tests via exact-match...
        # except the UA-touched graph is still valid (answer bit set and
        # UA-exclusive), so the entry stays fully valid.
        assert result.metrics.method_tests == 0
        assert sorted(result.answer_ids) == [0, 1, 2, 3]

    def test_add_makes_exact_hit_partial(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON)
        engine.execute(path("CO"))
        new_id = store.add_graph(path("OC"))
        result = engine.execute(path("CO"))
        # only the new graph needs testing.
        assert result.metrics.method_tests == 1
        assert new_id in result.answer_ids

    def test_supergraph_query_type(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   query_type=QueryType.SUPERGRAPH)
        q = path("CCCO")
        result = engine.execute(q)
        assert result.answer_ids == frozenset(
            brute_force_answer(store, q, QueryType.SUPERGRAPH)
        )
        repeat = engine.execute(q)
        assert repeat.metrics.method_tests == 0
        assert repeat.answer_ids == result.answer_ids
