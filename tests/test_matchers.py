"""Sub-iso matcher tests — all four algorithms against a shared oracle.

Four independent implementations (VF2, VF2+, GraphQL — the registry —
and the test suite's Ullmann oracle) are each tested against the
conftest brute-force oracle on fixed corner cases and under hypothesis;
their mutual agreement is itself an assertion (the paper's Figure 5
relies on every Method M producing identical answers).
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.graphs.graph import LabeledGraph
from repro.matching import MATCHERS, make_matcher
from tests.conftest import brute_force_subiso, labeled_graphs
from tests.enumeration import find_embedding, verify_embedding
from tests.ullmann import UllmannMatcher

FACTORIES = {**MATCHERS, "ullmann": UllmannMatcher}
ALL = sorted(FACTORIES)


@pytest.fixture(params=ALL)
def matcher(request):
    return FACTORIES[request.param]()


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


class TestFixedCases:
    def test_empty_query_always_matches(self, matcher, triangle_graph):
        assert matcher.is_subgraph_isomorphic(LabeledGraph(), triangle_graph)

    def test_single_vertex(self, matcher, triangle_graph):
        assert matcher.is_subgraph_isomorphic(
            LabeledGraph.from_edges("O", []), triangle_graph
        )
        assert not matcher.is_subgraph_isomorphic(
            LabeledGraph.from_edges("N", []), triangle_graph
        )

    def test_edge_in_triangle(self, matcher, triangle_graph):
        assert matcher.is_subgraph_isomorphic(path("CC"), triangle_graph)
        assert matcher.is_subgraph_isomorphic(path("CO"), triangle_graph)

    def test_non_induced_semantics(self, matcher, triangle_graph):
        """The C-C-O *path* embeds into the C-C-O triangle (non-induced)."""
        assert matcher.is_subgraph_isomorphic(path("CCO"), triangle_graph)

    def test_query_larger_than_host(self, matcher, path_graph):
        assert not matcher.is_subgraph_isomorphic(path("CCCC"), path_graph)

    def test_injectivity_enforced(self, matcher):
        """Two query A-vertices cannot share one host A-vertex."""
        two_a = LabeledGraph.from_edges("AA", [])
        one_a = LabeledGraph.from_edges("AB", [])
        assert not matcher.is_subgraph_isomorphic(two_a, one_a)

    def test_disconnected_query(self, matcher):
        query = LabeledGraph.from_edges("AB", [])  # two isolated vertices
        host = LabeledGraph.from_edges("ABC", [(0, 1), (1, 2)])
        assert matcher.is_subgraph_isomorphic(query, host)

    def test_disconnected_host(self, matcher):
        query = path("AB")
        host = LabeledGraph.from_edges("ABAB", [(0, 1), (2, 3)])
        assert matcher.is_subgraph_isomorphic(query, host)

    def test_label_rich_mismatch(self, matcher):
        query = path("NS")
        host = path("CCCCO")
        assert not matcher.is_subgraph_isomorphic(query, host)

    def test_triangle_not_in_path(self, matcher):
        triangle = LabeledGraph.from_edges(
            "AAA", [(0, 1), (1, 2), (0, 2)]
        )
        assert not matcher.is_subgraph_isomorphic(triangle, path("AAAA"))

    def test_star_needs_degree(self, matcher):
        star = LabeledGraph.from_edges("AAAA", [(0, 1), (0, 2), (0, 3)])
        assert not matcher.is_subgraph_isomorphic(star, path("AAAA"))
        wheel_host = LabeledGraph.from_edges(
            "AAAAA", [(0, 1), (0, 2), (0, 3), (0, 4)]
        )
        assert matcher.is_subgraph_isomorphic(star, wheel_host)


class TestEmbeddings:
    def test_embedding_is_valid(self, matcher, triangle_graph):
        emb = find_embedding(matcher, path("CCO"), triangle_graph)
        assert emb is not None
        assert verify_embedding(path("CCO"), triangle_graph, emb)

    def test_no_embedding_when_no_match(self, matcher, path_graph):
        assert find_embedding(matcher, path("NN"), path_graph) is None

    def test_empty_query_embedding(self, matcher, path_graph):
        assert find_embedding(matcher, LabeledGraph(), path_graph) == {}


class TestStats:
    def test_test_counter(self, matcher, path_graph):
        matcher.is_subgraph_isomorphic(path("C"), path_graph)
        matcher.is_subgraph_isomorphic(path("N"), path_graph)
        assert matcher.stats.tests == 2
        assert matcher.stats.found == 1

    def test_states_counted_on_search(self, matcher, triangle_graph):
        matcher.is_subgraph_isomorphic(path("CCO"), triangle_graph)
        assert matcher.stats.states >= 1


class TestVerifyEmbedding:
    def test_rejects_wrong_size(self, path_graph):
        assert not verify_embedding(path("CC"), path_graph, {0: 0})

    def test_rejects_non_injective(self, path_graph):
        assert not verify_embedding(path("CC"), path_graph, {0: 0, 1: 0})

    def test_rejects_label_mismatch(self, path_graph):
        assert not verify_embedding(path("CC"), path_graph, {0: 0, 1: 2})

    def test_rejects_missing_edge(self, path_graph):
        assert not verify_embedding(path("CO"), path_graph, {0: 0, 1: 2})

    def test_rejects_out_of_range(self, path_graph):
        assert not verify_embedding(path("C"), path_graph, {0: 99})

    def test_accepts_valid(self, path_graph):
        assert verify_embedding(path("CO"), path_graph, {0: 1, 1: 2})


class TestFactory:
    def test_known_names(self):
        assert sorted(MATCHERS) == ["graphql", "vf2", "vf2+"]
        for name in MATCHERS:
            assert make_matcher(name).name == name

    def test_case_insensitive(self):
        assert make_matcher("VF2").name == "vf2"

    def test_unknown_rejected(self):
        for name in ("nauty", "ullmann"):
            with pytest.raises(ValueError):
                make_matcher(name)


# ----------------------------------------------------------------------
# Property tests: every matcher ≡ the brute-force oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL)
@given(query=labeled_graphs(max_vertices=5),
       host=labeled_graphs(max_vertices=8))
def test_matches_oracle(name, query, host):
    m = FACTORIES[name]()
    assert m.is_subgraph_isomorphic(query, host) == brute_force_subiso(
        query, host
    )


@pytest.mark.parametrize("name", ALL)
@given(query=labeled_graphs(max_vertices=5),
       host=labeled_graphs(max_vertices=8))
def test_embeddings_are_valid(name, query, host):
    m = FACTORIES[name]()
    emb = find_embedding(m, query, host)
    if emb is None:
        assert not brute_force_subiso(query, host)
    else:
        assert verify_embedding(query, host, emb)


@given(query=labeled_graphs(max_vertices=5),
       host=labeled_graphs(max_vertices=7))
def test_all_matchers_agree(query, host):
    votes = {
        name: factory().is_subgraph_isomorphic(query, host)
        for name, factory in FACTORIES.items()
    }
    assert len(set(votes.values())) == 1, f"matchers disagree: {votes}"
