"""Embedding enumeration tests (the matching problem, paper §2)."""

from __future__ import annotations

import math

from hypothesis import given

from repro.graphs.graph import LabeledGraph
from repro.matching.vf2 import VF2Matcher
from tests.conftest import labeled_graphs
from tests.enumeration import (count_embeddings, enumerate_embeddings,
                               verify_embedding)


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


class TestKnownCounts:
    def test_edge_in_triangle(self):
        triangle = LabeledGraph.from_edges("AAA", [(0, 1), (1, 2), (0, 2)])
        # 3 edges × 2 orientations
        assert count_embeddings(path("AA"), triangle) == 6

    def test_single_vertex(self):
        host = path("AAB")
        assert count_embeddings(path("A"), host) == 2
        assert count_embeddings(path("B"), host) == 1
        assert count_embeddings(path("C"), host) == 0

    def test_empty_query_one_embedding(self):
        assert count_embeddings(LabeledGraph(), path("AB")) == 1

    def test_path_in_path(self):
        # A-A in A-A-A: (0,1),(1,0),(1,2),(2,1)
        assert count_embeddings(path("AA"), path("AAA")) == 4

    def test_labels_break_symmetry(self):
        assert count_embeddings(path("AB"), path("AB")) == 1

    def test_complete_graph_count(self):
        k4 = LabeledGraph.from_edges(
            "AAAA", [(u, v) for u in range(4) for v in range(u + 1, 4)]
        )
        # Every injective map of a 3-path's vertices into K4 works.
        assert count_embeddings(path("AAA"), k4) == 4 * 3 * 2

    def test_star_center_degree(self):
        star = LabeledGraph.from_edges("AAAA", [(0, 1), (0, 2), (0, 3)])
        # the 2-star A-A-A: center must map to the hub (deg 3) or... any
        # vertex of degree >= 2 — only the hub.  Leaves: 3 × 2 choices.
        two_star = LabeledGraph.from_edges("AAA", [(0, 1), (0, 2)])
        assert count_embeddings(two_star, star) == 6

    def test_oversized_query(self):
        assert count_embeddings(path("AAAA"), path("AA")) == 0


class TestLimit:
    def test_limit_caps(self):
        k4 = LabeledGraph.from_edges(
            "AAAA", [(u, v) for u in range(4) for v in range(u + 1, 4)]
        )
        assert count_embeddings(path("AA"), k4, limit=5) == 5

    def test_zero_limit(self):
        assert count_embeddings(path("A"), path("A"), limit=0) == 0

    def test_limit_larger_than_total(self):
        assert count_embeddings(path("AB"), path("AB"), limit=99) == 1


@given(query=labeled_graphs(max_vertices=4, alphabet="ab"),
       host=labeled_graphs(max_vertices=6, alphabet="ab"))
def test_every_embedding_is_valid_and_unique(query, host):
    embeddings = list(enumerate_embeddings(query, host))
    seen = set()
    for emb in embeddings:
        assert verify_embedding(query, host, emb)
        key = tuple(sorted(emb.items()))
        assert key not in seen, "duplicate embedding emitted"
        seen.add(key)


@given(query=labeled_graphs(max_vertices=4, alphabet="ab"),
       host=labeled_graphs(max_vertices=6, alphabet="ab"))
def test_nonempty_iff_decision_true(query, host):
    has_embedding = count_embeddings(query, host, limit=1) == 1
    assert has_embedding == VF2Matcher().is_subgraph_isomorphic(query, host)


@given(host=labeled_graphs(max_vertices=6, alphabet="ab"))
def test_single_vertex_count_equals_label_count(host):
    q = LabeledGraph.from_edges("a", [])
    assert count_embeddings(q, host) == host.label_multiset().get("a", 0)


@given(query=labeled_graphs(max_vertices=3, alphabet="a",
                            edge_probability=1.0),
       host=labeled_graphs(max_vertices=5, alphabet="a",
                           edge_probability=1.0))
def test_complete_unlabeled_count_is_falling_factorial(query, host):
    """K_k into K_n has n!/(n-k)! embeddings."""
    k, n = query.num_vertices, host.num_vertices
    expected = math.perm(n, k) if k <= n else 0
    assert count_embeddings(query, host) == expected
