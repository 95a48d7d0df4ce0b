"""LabeledGraph unit and property tests."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.graphs.graph import LabeledGraph
from tests.conftest import labeled_graphs
from tests.graph_helpers import (induced_subgraph, is_connected,
                                 neighbor_labels)


class TestConstruction:
    def test_empty(self):
        g = LabeledGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []
        assert is_connected(g)  # vacuously

    def test_from_edges(self, path_graph):
        assert path_graph.num_vertices == 3
        assert path_graph.num_edges == 2
        assert path_graph.labels == ("C", "C", "O")

    def test_copy_independent(self, path_graph):
        c = path_graph.copy()
        c.add_edge(0, 2)
        assert not path_graph.has_edge(0, 2)
        assert c.num_edges == 3

    def test_add_vertex_returns_id(self):
        g = LabeledGraph()
        assert g.add_vertex("X") == 0
        assert g.add_vertex("Y") == 1


class TestEdges:
    def test_add_edge_symmetric(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 2)

    def test_self_loop_rejected(self):
        g = LabeledGraph.from_edges("AB", [])
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_duplicate_edge_rejected(self, path_graph):
        with pytest.raises(ValueError):
            path_graph.add_edge(1, 0)

    def test_out_of_range_rejected(self, path_graph):
        with pytest.raises(IndexError):
            path_graph.add_edge(0, 9)

    def test_remove_edge(self, path_graph):
        path_graph.remove_edge(0, 1)
        assert not path_graph.has_edge(0, 1)
        assert path_graph.num_edges == 1

    def test_remove_missing_edge_rejected(self, path_graph):
        with pytest.raises(ValueError):
            path_graph.remove_edge(0, 2)

    def test_edges_enumerated_once(self, triangle_graph):
        edges = list(triangle_graph.edges())
        assert len(edges) == 3
        assert all(u < v for u, v in edges)

    def test_has_edge_out_of_range_false(self, path_graph):
        assert not path_graph.has_edge(17, 0)

    def test_non_edges(self, path_graph):
        assert list(path_graph.non_edges()) == [(0, 2)]

    def test_version_bumps_on_mutation(self):
        g = LabeledGraph.from_edges("AB", [(0, 1)])
        v0 = g.version
        g.remove_edge(0, 1)
        assert g.version > v0
        g.set_label(0, "Z")
        assert g.label(0) == "Z"


class TestStructure:
    def test_degree_and_neighbors(self, triangle_graph):
        assert triangle_graph.degree(0) == 2
        assert triangle_graph.neighbors(1) == {0, 2}
        assert sorted(neighbor_labels(triangle_graph, 1)) == ["C", "O"]

    def test_label_multiset(self, triangle_graph):
        assert triangle_graph.label_multiset() == {"C": 2, "O": 1}

    def test_connectivity(self):
        g = LabeledGraph.from_edges("ABCD", [(0, 1), (2, 3)])
        assert not is_connected(g)
        g.add_edge(1, 2)
        assert is_connected(g)

    def test_induced_subgraph(self, triangle_graph):
        sub = induced_subgraph(triangle_graph, [0, 2])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.labels == ("C", "O")

    def test_induced_subgraph_dedupes(self, triangle_graph):
        sub = induced_subgraph(triangle_graph, [1, 1, 2])
        assert sub.num_vertices == 2

    def test_induced_subgraph_bad_vertex(self, triangle_graph):
        with pytest.raises(IndexError):
            induced_subgraph(triangle_graph, [5])


class TestDunder:
    def test_structural_equality(self):
        a = LabeledGraph.from_edges("AB", [(0, 1)])
        b = LabeledGraph.from_edges("AB", [(0, 1)])
        c = LabeledGraph.from_edges("BA", [(0, 1)])
        assert a == b
        assert a != c
        assert a != "not a graph"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(LabeledGraph())

    def test_repr(self, path_graph):
        assert "|V|=3" in repr(path_graph)


@given(labeled_graphs(max_vertices=10))
def test_handshake_lemma(g):
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges


@given(labeled_graphs(max_vertices=8))
def test_copy_equals_original(g):
    assert g.copy() == g


@given(labeled_graphs(max_vertices=8))
def test_edge_and_non_edge_counts_complete(g):
    n = g.num_vertices
    assert g.num_edges + sum(1 for _ in g.non_edges()) == n * (n - 1) // 2
