"""Graph generators and serialization tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.graphs import io
from repro.graphs.generators import (
    WeightedLabelSampler,
    random_connected_graph,
    random_tree,
)
from repro.graphs.graph import LabeledGraph
from tests.conftest import labeled_graphs
from tests.graph_helpers import is_connected, random_labeled_graph


class TestWeightedLabelSampler:
    def test_respects_alphabet(self, rng):
        s = WeightedLabelSampler({"C": 5, "O": 1}, rng)
        assert set(s.sample_many(200)) <= {"C", "O"}

    def test_skew(self, rng):
        s = WeightedLabelSampler({"C": 99, "O": 1}, rng)
        draws = s.sample_many(500)
        assert draws.count("C") > draws.count("O")

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            WeightedLabelSampler({}, rng)

    def test_nonpositive_weight_rejected(self, rng):
        with pytest.raises(ValueError):
            WeightedLabelSampler({"C": 0}, rng)


class TestRandomTree:
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_tree_properties(self, n, seed):
        g = random_tree(["A"] * n, random.Random(seed))
        assert g.num_vertices == n
        assert g.num_edges == n - 1
        assert is_connected(g)

    def test_labels_preserved(self, rng):
        g = random_tree(["X", "Y", "Z"], rng)
        assert sorted(g.labels) == ["X", "Y", "Z"]


class TestRandomConnectedGraph:
    @given(st.integers(2, 20), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_connected_with_extra_edges(self, n, extra, seed):
        g = random_connected_graph(["A"] * n, extra, random.Random(seed))
        assert is_connected(g)
        max_edges = n * (n - 1) // 2
        assert g.num_edges == min(n - 1 + extra, max_edges)

    def test_negative_extra_rejected(self, rng):
        with pytest.raises(ValueError):
            random_connected_graph("ABC", -1, rng)


class TestRandomLabeledGraph:
    def test_p_zero_no_edges(self, rng):
        g = random_labeled_graph(10, 0.0, "ab", rng)
        assert g.num_edges == 0

    def test_p_one_complete(self, rng):
        g = random_labeled_graph(6, 1.0, "ab", rng)
        assert g.num_edges == 15

    def test_bad_probability(self, rng):
        with pytest.raises(ValueError):
            random_labeled_graph(3, 1.5, "ab", rng)


class TestIO:
    def test_roundtrip(self, triangle_graph, path_graph):
        text = io.dumps([(0, triangle_graph), (7, path_graph)])
        back = io.loads(text)
        assert back == [(0, triangle_graph), (7, path_graph)]

    @given(labeled_graphs(max_vertices=8, alphabet="CNO"))
    def test_roundtrip_property(self, g):
        assert io.loads(io.dumps([(3, g)])) == [(3, g)]

    def test_accepts_bare_header(self):
        text = "t 4\nv 0 C\nv 1 O\ne 0 1\n"
        [(gid, g)] = io.loads(text)
        assert gid == 4
        assert g.has_edge(0, 1)

    def test_end_sentinel(self):
        text = "t # 0\nv 0 C\nt # -1\n"
        assert len(io.loads(text)) == 1

    def test_sparse_vertex_ids_remapped(self):
        text = "t # 0\nv 10 C\nv 20 O\ne 10 20 0\n"
        [(_, g)] = io.loads(text)
        assert g.num_vertices == 2
        assert g.has_edge(0, 1)

    def test_comments_and_blanks_ignored(self):
        text = "# hi\n\nt # 1\nv 0 C\n"
        assert len(io.loads(text)) == 1

    def test_vertex_before_header_rejected(self):
        with pytest.raises(ValueError):
            io.loads("v 0 C\n")

    def test_edge_before_header_rejected(self):
        with pytest.raises(ValueError):
            io.loads("e 0 1 0\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(ValueError):
            io.loads("t # 0\nx nonsense\n")
        # Short records and non-integer ids name their line as well.
        for text, line in [("t\n", 1), ("t #\n", 1), ("t x\n", 1),
                           ("t # 0\nv\n", 2), ("t # 0\nv x\n", 2),
                           ("t # 0\nv 0 C\ne 0\n", 3),
                           ("t # 0\nv 0 C\nv 1 C\ne 0 y\n", 4)]:
            with pytest.raises(ValueError, match=f"line {line}:"):
                io.loads(text)

    def test_edge_to_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            io.loads("t # 0\nv 0 C\ne 0 3 0\n")

    def test_file_roundtrip(self, tmp_path, path_graph):
        target = tmp_path / "graphs.txt"
        io.dump_file(target, [(0, path_graph)])
        assert io.load_file(target) == [(0, path_graph)]

    def test_multiword_label(self):
        text = "t # 0\nv 0 hello world\n"
        [(_, g)] = io.loads(text)
        assert g.label(0) == "hello world"
