"""GraphFeatures tests — the filter must never discard a true containment.

The cache's query index relies on ``features(q) ≤ features(G)`` being a
*necessary* condition for ``q ⊆ G``; a false dismissal would make GC+
miss hits (harmless for correctness of answers, but the property is also
load-bearing for the Type B workload generator's "non-empty candidate
set" check, and the paper's FTV framing assumes completeness).
"""

from __future__ import annotations

from hypothesis import given

from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from tests.conftest import brute_force_subiso, labeled_graphs


def feat(g: LabeledGraph) -> GraphFeatures:
    return GraphFeatures.of(g)


class TestBasics:
    def test_counts(self, triangle_graph):
        f = feat(triangle_graph)
        assert f.num_vertices == 3
        assert f.num_edges == 3
        assert f.label_counts == {"'C'": 2, "'O'": 1}

    def test_edge_label_counts_unordered(self):
        a = LabeledGraph.from_edges(["C", "O"], [(0, 1)])
        b = LabeledGraph.from_edges(["O", "C"], [(0, 1)])
        assert feat(a).edge_label_counts == feat(b).edge_label_counts

    def test_self_containment(self, triangle_graph):
        f = feat(triangle_graph)
        assert f.may_be_subgraph_of(f)

    def test_vertex_count_prunes(self):
        small = feat(LabeledGraph.from_edges("A", []))
        tiny = feat(LabeledGraph())
        assert tiny.may_be_subgraph_of(small)
        assert not small.may_be_subgraph_of(tiny)

    def test_label_mismatch_prunes(self):
        a = feat(LabeledGraph.from_edges("A", []))
        b = feat(LabeledGraph.from_edges("B", []))
        assert not a.may_be_subgraph_of(b)

    def test_edge_pair_prunes(self):
        # Same label totals, different edge endpoint pairs.
        ab_edge = feat(LabeledGraph.from_edges(["A", "A", "B"], [(0, 2)]))
        aa_edge = feat(LabeledGraph.from_edges(["A", "A", "B"], [(0, 1)]))
        assert not ab_edge.may_be_subgraph_of(aa_edge)

    def test_degree_sequence_prunes(self):
        # Star K1,3 cannot embed into a path though counts allow it.
        star = feat(LabeledGraph.from_edges(
            "AAAA", [(0, 1), (0, 2), (0, 3)]))
        path = feat(LabeledGraph.from_edges(
            "AAAA", [(0, 1), (1, 2), (2, 3)]))
        assert not star.may_be_subgraph_of(path)

    def test_supergraph_is_mirror(self):
        small = feat(LabeledGraph.from_edges("A", []))
        big = feat(LabeledGraph.from_edges("AA", [(0, 1)]))
        assert small.may_be_subgraph_of(big)
        assert not big.may_be_subgraph_of(small)


@given(labeled_graphs(max_vertices=6), labeled_graphs(max_vertices=8))
def test_no_false_dismissal(query, host):
    """If q ⊆ G then the filter must pass (completeness)."""
    if brute_force_subiso(query, host):
        assert feat(query).may_be_subgraph_of(feat(host))


@given(labeled_graphs(max_vertices=7))
def test_reflexive(g):
    f = feat(g)
    assert f.may_be_subgraph_of(f)


@given(labeled_graphs(max_vertices=5), labeled_graphs(max_vertices=5),
       labeled_graphs(max_vertices=5))
def test_transitive(a, b, c):
    fa, fb, fc = feat(a), feat(b), feat(c)
    if fa.may_be_subgraph_of(fb) and fb.may_be_subgraph_of(fc):
        assert fa.may_be_subgraph_of(fc)
