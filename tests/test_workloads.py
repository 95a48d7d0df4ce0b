"""Type A / Type B workload generator tests."""

from __future__ import annotations

import random

import pytest

from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2plus import VF2PlusMatcher
from repro.workloads import typeb
from repro.workloads.base import DEFAULT_QUERY_SIZES, Query, Workload
from repro.workloads.typea import TypeACategory, bfs_extract, generate_type_a
from repro.workloads.typeb import (
    TypeBConfig,
    generate_type_b,
    random_walk_extract,
)
from tests.conftest import brute_force_subiso
from tests.graph_helpers import is_connected


@pytest.fixture(scope="module")
def dataset() -> list[LabeledGraph]:
    return generate_aids_like(num_graphs=60, mean_vertices=14,
                              std_vertices=5, max_vertices=40, seed=1)


class TestQueryModel:
    def test_size_mismatch_rejected(self):
        g = LabeledGraph.from_edges("CO", [(0, 1)])
        with pytest.raises(ValueError):
            Query(g, size_edges=2)

    def test_workload_iteration(self):
        g = LabeledGraph.from_edges("CO", [(0, 1)])
        wl = Workload("w", [Query(g, 1)])
        assert len(wl) == 1
        assert list(wl)[0].size_edges == 1
        assert "w" in repr(wl)

    def test_default_sizes_match_paper(self):
        assert DEFAULT_QUERY_SIZES == (4, 8, 12, 16, 20)


class TestBFSExtract:
    def chain(self, n: int) -> LabeledGraph:
        return LabeledGraph.from_edges(
            ["C"] * n, [(i, i + 1) for i in range(n - 1)]
        )

    def test_exact_size(self):
        g = self.chain(10)
        q = bfs_extract(g, 0, 4)
        assert q is not None
        assert q.num_edges == 4
        assert is_connected(q)

    def test_deterministic(self, dataset):
        source = dataset[0]
        a = bfs_extract(source, 0, 8)
        b = bfs_extract(source, 0, 8)
        assert a == b

    def test_nesting_property(self, dataset):
        """Smaller extraction from the same start ⊆ larger extraction —
        the hierarchy structure the paper's workloads rely on."""
        source = dataset[1]
        small = bfs_extract(source, 0, 4)
        large = bfs_extract(source, 0, 8)
        if small is not None and large is not None:
            assert brute_force_subiso(small, large)

    def test_extracted_query_is_contained_in_source(self, dataset):
        for start in (0, 2):
            q = bfs_extract(dataset[2], start, 6)
            if q is not None:
                assert brute_force_subiso(q, dataset[2])

    def test_too_small_component_returns_none(self):
        assert bfs_extract(self.chain(3), 0, 10) is None

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            bfs_extract(self.chain(3), 0, 0)


class TestTypeA:
    def test_generates_requested_count_and_sizes(self, dataset):
        wl = generate_type_a(dataset, 30, "ZZ", seed=3)
        assert len(wl) == 30
        assert all(q.size_edges in DEFAULT_QUERY_SIZES for q in wl)
        assert all(q.graph.num_edges == q.size_edges for q in wl)
        assert wl.name == "typeA-ZZ"

    def test_queries_connected(self, dataset):
        wl = generate_type_a(dataset, 20, "UU", seed=4)
        assert all(is_connected(q.graph) for q in wl)

    def test_category_enum_and_string(self, dataset):
        a = generate_type_a(dataset, 5, TypeACategory.ZU, seed=5)
        b = generate_type_a(dataset, 5, "zu", seed=5)
        assert [q.graph for q in a] == [q.graph for q in b]

    def test_determinism(self, dataset):
        a = generate_type_a(dataset, 15, "ZZ", seed=6)
        b = generate_type_a(dataset, 15, "ZZ", seed=6)
        assert [q.graph for q in a] == [q.graph for q in b]

    def test_zipf_skew_repeats_sources(self, dataset):
        zz = generate_type_a(dataset, 60, "ZZ", seed=7)
        uu = generate_type_a(dataset, 60, "UU", seed=7)
        zz_sources = len({q.source_graph for q in zz})
        uu_sources = len({q.source_graph for q in uu})
        assert zz_sources < uu_sources

    def test_queries_have_answers_against_initial_dataset(self, dataset):
        wl = generate_type_a(dataset, 10, "UU", seed=8)
        m = VF2PlusMatcher()
        for q in wl:
            assert q.expected_nonempty
            assert m.is_subgraph_isomorphic(q.graph,
                                            dataset[q.source_graph])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            generate_type_a([], 5)

    def test_bad_count_rejected(self, dataset):
        with pytest.raises(ValueError):
            generate_type_a(dataset, 0)

    def test_impossible_sizes_raise(self):
        tiny = [LabeledGraph.from_edges("CO", [(0, 1)])]
        with pytest.raises(ValueError):
            generate_type_a(tiny, 3, "UU", sizes=(50,), max_attempts=3)

    def test_custom_sizes(self, dataset):
        wl = generate_type_a(dataset, 10, "UU", sizes=(3, 5), seed=9)
        assert all(q.size_edges in (3, 5) for q in wl)


class TestRandomWalkExtract:
    def test_exact_size_and_connected(self, dataset):
        rng = random.Random(5)
        q = random_walk_extract(dataset[0], 0, 5, rng)
        if q is not None:
            assert q.num_edges == 5
            assert is_connected(q)
            assert brute_force_subiso(q, dataset[0])

    def test_isolated_start_returns_none(self):
        g = LabeledGraph.from_edges("CO", [])
        assert random_walk_extract(g, 0, 2, random.Random(0)) is None

    def test_bad_size_rejected(self, dataset):
        with pytest.raises(ValueError):
            random_walk_extract(dataset[0], 0, 0, random.Random(0))


class TestTypeB:
    def test_zero_percent_workload(self, dataset):
        wl = generate_type_b(dataset, num_queries=25,
                             no_answer_probability=0.0,
                             answer_pool_size=20, seed=11)
        assert len(wl) == 25
        assert wl.name == "typeB-0%"
        assert all(q.expected_nonempty for q in wl)
        assert wl.metadata["no_answer_pool"] == 0

    def test_fifty_percent_mixes_pools(self, dataset):
        wl = generate_type_b(dataset, num_queries=60,
                             no_answer_probability=0.5,
                             answer_pool_size=20, no_answer_pool_size=8,
                             seed=12)
        share = sum(1 for q in wl if q.expected_nonempty is False) / len(wl)
        assert 0.25 < share < 0.75
        assert wl.name == "typeB-50%"

    def test_no_answer_queries_really_have_no_answer(self, dataset):
        wl = generate_type_b(dataset, num_queries=30,
                             no_answer_probability=0.5,
                             answer_pool_size=10, no_answer_pool_size=5,
                             seed=13)
        m = VF2PlusMatcher()
        checked = 0
        for q in wl:
            if q.expected_nonempty is False and checked < 3:
                checked += 1
                assert not any(
                    m.is_subgraph_isomorphic(q.graph, g) for g in dataset
                )
        assert checked > 0

    def test_answer_pool_queries_match_source(self, dataset):
        wl = generate_type_b(dataset, num_queries=20,
                             no_answer_probability=0.0,
                             answer_pool_size=12, seed=14)
        m = VF2PlusMatcher()
        for q in list(wl)[:5]:
            assert m.is_subgraph_isomorphic(q.graph,
                                            dataset[q.source_graph])

    def test_zipf_selection_repeats_queries(self, dataset):
        wl = generate_type_b(dataset, num_queries=80,
                             no_answer_probability=0.0,
                             answer_pool_size=40, seed=15)
        distinct = len({id(q) for q in wl})
        assert distinct < 80  # Zipf must repeat pool entries

    def test_determinism(self, dataset):
        a = generate_type_b(dataset, num_queries=20,
                            no_answer_probability=0.2,
                            answer_pool_size=10, no_answer_pool_size=4,
                            seed=16)
        b = generate_type_b(dataset, num_queries=20,
                            no_answer_probability=0.2,
                            answer_pool_size=10, no_answer_pool_size=4,
                            seed=16)
        assert [q.graph for q in a] == [q.graph for q in b]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TypeBConfig(no_answer_probability=1.5)
        with pytest.raises(ValueError):
            TypeBConfig(num_queries=0)

    def test_config_and_overrides_mutually_exclusive(self, dataset):
        with pytest.raises(TypeError):
            generate_type_b(dataset, TypeBConfig(), num_queries=5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            generate_type_b([], num_queries=5)

    def test_int_labelled_dataset_fills_its_no_answer_pool(self):
        """Relabels come from the dataset's own label objects: over ints
        a relabelled query has candidates, as it has over strings."""
        graphs = generate_aids_like(num_graphs=40, mean_vertices=10,
                                    std_vertices=3, max_vertices=16, seed=3)
        alphabet = sorted({g.label(v) for g in graphs for v in g.vertices()})
        code = {label: i for i, label in enumerate(alphabet)}
        ints = [LabeledGraph.from_edges([code[label] for label in g.labels],
                                        sorted(g.edges()))
                for g in graphs]
        wl = generate_type_b(ints, num_queries=20, no_answer_probability=0.5,
                             answer_pool_size=10, no_answer_pool_size=5,
                             seed=4)
        assert wl.metadata["no_answer_pool"] == 5
        no_answer = [q for q in wl if q.expected_nonempty is False]
        assert no_answer
        assert all(isinstance(label, int)
                   for q in no_answer for label in q.graph.labels)

    def test_one_label_dataset_is_refused_before_any_walk(self,
                                                          monkeypatch):
        """With one distinct label every relabelling is the walk itself,
        which matches its source graph: refused up front, with the
        reason, and no walk or relabelled query is ever tested."""
        calls = []
        monkeypatch.setattr(typeb, "random_walk_extract",
                            lambda *a: calls.append("walk"))
        monkeypatch.setattr(typeb, "_has_empty_answer",
                            lambda *a: calls.append("test"))
        clique = LabeledGraph.from_edges(
            "C" * 8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        with pytest.raises(ValueError, match="one distinct label"):
            generate_type_b([clique], num_queries=5,
                            no_answer_probability=0.5)
        assert calls == []
