"""Synthetic AIDS-like dataset generator tests."""

from __future__ import annotations

import math

import pytest

from repro.datasets.aids import (
    AIDS_LABEL_WEIGHTS,
    AidsLikeConfig,
    generate_aids_like,
    load_aids_file,
)
from repro.graphs import io
from tests.graph_helpers import is_connected


class TestLabelTable:
    def test_62_labels_like_aids(self):
        assert len(AIDS_LABEL_WEIGHTS) == 62

    def test_carbon_dominates(self):
        total = sum(AIDS_LABEL_WEIGHTS.values())
        assert AIDS_LABEL_WEIGHTS["C"] / total > 0.5


class TestGenerator:
    def test_count_and_determinism(self):
        a = generate_aids_like(num_graphs=40, mean_vertices=12,
                               std_vertices=4, seed=5)
        b = generate_aids_like(num_graphs=40, mean_vertices=12,
                               std_vertices=4, seed=5)
        assert len(a) == 40
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_aids_like(num_graphs=10, mean_vertices=10, seed=1)
        b = generate_aids_like(num_graphs=10, mean_vertices=10, seed=2)
        assert a != b

    def test_size_bounds_respected(self):
        graphs = generate_aids_like(num_graphs=60, mean_vertices=20,
                                    std_vertices=15, min_vertices=5,
                                    max_vertices=30, seed=3)
        for g in graphs:
            assert 5 <= g.num_vertices <= 30

    def test_molecule_like_shape(self):
        """Connected, sparse: |E| slightly above |V| − 1 on average."""
        graphs = generate_aids_like(num_graphs=80, mean_vertices=20,
                                    std_vertices=6, seed=4)
        assert all(is_connected(g) for g in graphs)
        avg_v = sum(g.num_vertices for g in graphs) / len(graphs)
        avg_e = sum(g.num_edges for g in graphs) / len(graphs)
        surplus = avg_e - (avg_v - 1)
        assert 0.5 < surplus < 6.0  # ring edges, mean 2.5 by default

    def test_label_skew_carbon_most_common(self):
        graphs = generate_aids_like(num_graphs=50, mean_vertices=20,
                                    seed=6)
        counts: dict[str, int] = {}
        for g in graphs:
            for lab, n in g.label_multiset().items():
                counts[str(lab)] = counts.get(str(lab), 0) + n
        assert max(counts, key=counts.get) == "C"
        total = sum(counts.values())
        assert counts["C"] / total > 0.5

    def test_config_object(self):
        cfg = AidsLikeConfig(num_graphs=5, mean_vertices=8.0,
                             std_vertices=2.0, max_vertices=20)
        assert len(generate_aids_like(cfg)) == 5

    def test_config_and_overrides_exclusive(self):
        with pytest.raises(TypeError):
            generate_aids_like(AidsLikeConfig(num_graphs=5), num_graphs=3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AidsLikeConfig(num_graphs=0)
        with pytest.raises(ValueError):
            AidsLikeConfig(min_vertices=1)
        with pytest.raises(ValueError):
            AidsLikeConfig(min_vertices=10, max_vertices=5)

    @pytest.mark.parametrize("field,value", [
        ("mean_vertices", math.inf), ("mean_vertices", -math.inf),
        ("mean_vertices", math.nan),
        ("std_vertices", math.inf), ("std_vertices", math.nan),
        ("std_vertices", -1.0),
        ("mean_ring_edges", 0.0), ("mean_ring_edges", -2.5),
        ("mean_ring_edges", math.inf), ("mean_ring_edges", math.nan),
    ])
    def test_size_distribution_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            AidsLikeConfig(**{field: value})

    def test_degenerate_but_valid_distribution(self):
        graphs = generate_aids_like(num_graphs=3, mean_vertices=6.0,
                                    std_vertices=0.0, mean_ring_edges=0.5)
        assert [g.num_vertices for g in graphs] == [6, 6, 6]

    def test_paper_scale_defaults(self):
        cfg = AidsLikeConfig()
        assert cfg.num_graphs == 40_000
        assert cfg.mean_vertices == 45.0
        assert cfg.std_vertices == 22.0
        assert cfg.max_vertices == 245


class TestLoader:
    def test_load_real_format(self, tmp_path):
        graphs = generate_aids_like(num_graphs=6, mean_vertices=8,
                                    std_vertices=2, seed=7)
        target = tmp_path / "aids.txt"
        io.dump_file(target, list(enumerate(graphs)))
        loaded = load_aids_file(target)
        assert loaded == graphs

    def test_load_orders_by_id(self, tmp_path):
        graphs = generate_aids_like(num_graphs=3, mean_vertices=6,
                                    std_vertices=1, seed=8)
        target = tmp_path / "aids.txt"
        io.dump_file(target, [(2, graphs[2]), (0, graphs[0]),
                              (1, graphs[1])])
        assert load_aids_file(target) == graphs
