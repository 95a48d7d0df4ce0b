"""Canonical code and WL-hash tests."""

from __future__ import annotations

from hypothesis import given

from repro.graphs.graph import LabeledGraph
from tests.canonical import MAX_EXACT_VERTICES, canonical_code, wl_hash
from tests.conftest import (
    brute_force_isomorphic,
    graph_permutations,
    labeled_graphs,
)
from tests.graph_helpers import random_labeled_graph
import random


class TestWLHash:
    def test_empty(self):
        assert wl_hash(LabeledGraph()) == wl_hash(LabeledGraph())

    def test_label_sensitivity(self):
        a = LabeledGraph.from_edges("AB", [(0, 1)])
        b = LabeledGraph.from_edges("AA", [(0, 1)])
        assert wl_hash(a) != wl_hash(b)

    def test_structure_sensitivity(self):
        path = LabeledGraph.from_edges("AAA", [(0, 1), (1, 2)])
        triangle = LabeledGraph.from_edges("AAA", [(0, 1), (1, 2), (0, 2)])
        assert wl_hash(path) != wl_hash(triangle)

    @given(graph_permutations())
    def test_isomorphism_invariant(self, pair):
        g, h = pair
        assert wl_hash(g) == wl_hash(h)


class TestCanonicalCode:
    def test_empty(self):
        assert canonical_code(LabeledGraph()) == "exact:empty"

    def test_exact_prefix(self):
        assert canonical_code(LabeledGraph.from_edges("A", [])).startswith(
            "exact:"
        )

    def test_fallback_to_wl_above_limit(self):
        rng = random.Random(3)
        big = random_labeled_graph(MAX_EXACT_VERTICES + 1, 0.1, "ab", rng)
        assert canonical_code(big).startswith("wl:")

    def test_custom_limit(self):
        g = LabeledGraph.from_edges("AB", [(0, 1)])
        assert canonical_code(g, max_exact_vertices=1).startswith("wl:")

    @given(graph_permutations())
    def test_permutation_invariant(self, pair):
        g, h = pair
        assert canonical_code(g) == canonical_code(h)

    @given(labeled_graphs(max_vertices=5, alphabet="ab"),
           labeled_graphs(max_vertices=5, alphabet="ab"))
    def test_complete_on_small_graphs(self, a, b):
        """Equal code ⇔ isomorphic (exact regime)."""
        same_code = canonical_code(a) == canonical_code(b)
        assert same_code == brute_force_isomorphic(a, b)

    def test_distinguishes_label_swap(self):
        a = LabeledGraph.from_edges(["X", "Y", "Y"], [(0, 1), (1, 2)])
        b = LabeledGraph.from_edges(["Y", "X", "Y"], [(0, 1), (1, 2)])
        # a: X at an endpoint; b: X in the middle — not isomorphic.
        assert canonical_code(a) != canonical_code(b)

    def test_equal_for_relabeled_isomorphs(self):
        a = LabeledGraph.from_edges(["X", "Y", "Y"], [(0, 1), (1, 2)])
        c = LabeledGraph.from_edges(["Y", "Y", "X"], [(0, 1), (2, 1)])
        assert canonical_code(a) == canonical_code(c)
