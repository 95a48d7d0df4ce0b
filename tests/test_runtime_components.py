"""MethodM, processors (hit discovery) and pruner (formulas 1-5) tests."""

from __future__ import annotations

import pytest

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.query_index import QueryIndex
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2 import VF2Matcher
from repro.runtime.method_m import MethodM, MethodMRunner
from repro.runtime.processors import HitDiscovery
from repro.runtime.pruner import prune_candidate_set
from tests.conftest import id_mask, packed_ids


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


def entry_for(entry_id: int, query: LabeledGraph, answer: set[int],
              valid: set[int], query_type=QueryType.SUBGRAPH) -> CacheEntry:
    return CacheEntry(
        entry_id=entry_id, query=query, query_type=query_type,
        answer=id_mask(answer),
        valid=id_mask(valid),
        created_at=0,
    )


@pytest.fixture
def store() -> GraphStore:
    #  G0: C-C-O path, G1: C-C, G2: O only, G3: C-C-O triangle
    return GraphStore.from_graphs([
        path("CCO"),
        path("CC"),
        LabeledGraph.from_edges("O", []),
        LabeledGraph.from_edges("CCO", [(0, 1), (1, 2), (0, 2)]),
    ])


class TestMethodM:
    def test_subgraph_semantics(self, store):
        mm = MethodM(VF2Matcher(), store)
        answer, tests = mm.verify(path("CO"), store.ids_bitset(),
                                  QueryType.SUBGRAPH)
        assert packed_ids(answer) == [0, 3]
        assert tests == 4

    def test_supergraph_semantics(self, store):
        mm = MethodM(VF2Matcher(), store)
        answer, tests = mm.verify(path("CCO"), store.ids_bitset(),
                                  QueryType.SUPERGRAPH)
        # graphs contained in the C-C-O path: G0, G1, G2 (not triangle)
        assert packed_ids(answer) == [0, 1, 2]
        assert tests == 4

    def test_restricted_candidates(self, store):
        mm = MethodM(VF2Matcher(), store)
        answer, tests = mm.verify(path("CO"), id_mask({0, 1}),
                                  QueryType.SUBGRAPH)
        assert packed_ids(answer) == [0]
        assert tests == 2

    def test_deleted_candidate_skipped(self, store):
        candidates = store.ids_bitset()
        store.delete_graph(3)
        mm = MethodM(VF2Matcher(), store)
        answer, tests = mm.verify(path("CO"), candidates,
                                  QueryType.SUBGRAPH)
        assert packed_ids(answer) == [0]
        assert tests == 3

    def test_runner_executes_whole_dataset(self, store):
        runner = MethodMRunner(store, VF2Matcher())
        result = runner.execute(path("CO"))
        assert sorted(result.answer_ids) == [0, 3]
        assert result.metrics.method_tests == 4
        assert result.metrics.candidate_size == 4
        assert result.metrics.verify_seconds > 0.0


def discover(query, index):
    return HitDiscovery().discover(query, index, GraphFeatures.of(query))


class TestHitDiscovery:
    def test_finds_both_directions(self, store):
        index = QueryIndex()
        big = entry_for(0, path("CCO"), {0}, {0, 1, 2, 3})
        small = entry_for(1, path("C"), {0, 1, 3}, {0, 1, 2, 3})
        index.add(big)
        index.add(small)
        hits = discover(path("CC"), index)
        assert [e.entry_id for e in hits.containing] == [0]  # CC ⊆ CCO
        assert [e.entry_id for e in hits.contained] == [1]   # C ⊆ CC
        assert hits.exact == []
        assert hits.internal_tests == 2
        assert len(hits.containing) + len(hits.contained) == 2

    def test_exact_match_in_both_lists(self, store):
        index = QueryIndex()
        same = entry_for(0, path("CC"), set(), {0})
        index.add(same)
        hits = discover(path("CC"), index)
        assert [e.entry_id for e in hits.containing] == [0]
        assert [e.entry_id for e in hits.contained] == [0]
        assert [e.entry_id for e in hits.exact] == [0]
        # one verification certifies both directions
        assert hits.internal_tests == 1

    def test_unrelated_entry_ignored(self, store):
        index = QueryIndex()
        index.add(entry_for(0, path("NN"), set(), set()))
        hits = discover(path("CC"), index)
        assert hits.containing == hits.contained == []

    def test_empty_index(self):
        hits = discover(path("CC"), QueryIndex())
        assert hits.containing == hits.contained == []
        assert hits.internal_tests == 0


class TestPrunerSubgraph:
    """Formulas (1), (2) — donation from containing entries."""

    def test_donation_removes_valid_answers(self):
        # g ⊆ g'; g' answered {0, 3} but only 0 still valid.
        g_prime = entry_for(7, path("CCO"), {0, 3}, {0, 1, 2})
        cs = id_mask({0, 1, 2, 3})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(containing=[g_prime]), universe_size=4,
        )
        assert packed_ids(outcome.answer_free) == [0]
        assert packed_ids(outcome.candidates) == [1, 2, 3]
        assert packed_ids(outcome.contributions[7]) == [0]

    def test_filter_restricts_candidates(self):
        # g'' ⊆ g with answer {0}, fully valid -> only 0 can answer g.
        g_second = entry_for(9, path("C"), {0}, {0, 1, 2, 3})
        cs = id_mask({0, 1, 2, 3})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(contained=[g_second]), universe_size=4,
        )
        assert outcome.answer_free == 0
        assert packed_ids(outcome.candidates) == [0]
        assert packed_ids(outcome.contributions[9]) == [1, 2, 3]

    def test_filter_keeps_invalid_bits(self):
        # invalid relations cannot prune (¬CGvalid ∪ Answer keeps id 2).
        g_second = entry_for(9, path("C"), {0}, {0, 1, 3})
        cs = id_mask({0, 1, 2, 3})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(contained=[g_second]), universe_size=4,
        )
        assert packed_ids(outcome.candidates) == [0, 2]

    def test_combined_donation_then_filter(self):
        g_prime = entry_for(1, path("CCO"), {0, 3}, {0, 1, 2, 3})
        g_second = entry_for(2, path("C"), {0, 1, 3}, {0, 1, 2, 3})
        cs = id_mask({0, 1, 2, 3})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(containing=[g_prime], contained=[g_second]),
            universe_size=4,
        )
        assert packed_ids(outcome.answer_free) == [0, 3]
        assert packed_ids(outcome.candidates) == [1]
        assert packed_ids(outcome.contributions[2]) == [2]

    def test_multiple_donors_union(self):
        a = entry_for(1, path("CCO"), {0}, {0, 1, 2, 3})
        b = entry_for(2, path("CCC"), {3}, {0, 1, 2, 3})
        cs = id_mask({0, 1, 2, 3})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(containing=[a, b]), universe_size=4,
        )
        assert packed_ids(outcome.answer_free) == [0, 3]

    def test_multiple_filters_intersect(self):
        a = entry_for(1, path("C"), {0, 1}, {0, 1, 2, 3})
        b = entry_for(2, path("O"), {1, 2}, {0, 1, 2, 3})
        cs = id_mask({0, 1, 2, 3})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(contained=[a, b]), universe_size=4,
        )
        assert packed_ids(outcome.candidates) == [1]

    def test_no_hits_no_pruning(self):
        cs = id_mask({0, 1})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs, DiscoveryResult(), universe_size=2
        )
        assert packed_ids(outcome.candidates) == [0, 1]
        assert outcome.answer_free == 0
        assert outcome.contributions == {}


class TestPrunerSupergraph:
    """The mirrored role assignment for supergraph workloads."""

    def test_contained_entries_donate(self):
        # supergraph query g; g'' ⊆ g with valid answer {0}: G0 ⊆ g'' ⊆ g.
        g_second = entry_for(3, path("C"), {0}, {0, 1},
                             query_type=QueryType.SUPERGRAPH)
        cs = id_mask({0, 1})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUPERGRAPH, cs,
            DiscoveryResult(contained=[g_second]), universe_size=2,
        )
        assert packed_ids(outcome.answer_free) == [0]
        assert packed_ids(outcome.candidates) == [1]

    def test_containing_entries_filter(self):
        # g ⊆ g'; G1 ⊄ g' (valid) ⇒ G1 ⊄ g.
        g_prime = entry_for(4, path("CCO"), {0}, {0, 1},
                            query_type=QueryType.SUPERGRAPH)
        cs = id_mask({0, 1})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUPERGRAPH, cs,
            DiscoveryResult(containing=[g_prime]), universe_size=2,
        )
        assert packed_ids(outcome.candidates) == [0]


class TestOptimalCases:
    def test_exact_hit_flag(self):
        exact = entry_for(5, path("CC"), {0}, {0, 1})
        cs = id_mask({0, 1})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(containing=[exact], contained=[exact],
                            exact=[exact]),
            universe_size=2,
        )
        assert outcome.exact_hit
        # formulas collapse the candidate set to nothing:
        assert outcome.candidates == 0
        assert packed_ids(outcome.answer_free) == [0]

    def test_exact_hit_requires_full_validity(self):
        stale = entry_for(5, path("CC"), {0}, {0})  # id 1 invalid
        cs = id_mask({0, 1})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(containing=[stale], contained=[stale],
                            exact=[stale]),
            universe_size=2,
        )
        assert not outcome.exact_hit
        # the invalid graph must still be verified:
        assert packed_ids(outcome.candidates) == [1]

    def test_empty_shortcut_flag(self):
        empty = entry_for(6, path("C"), set(), {0, 1})
        cs = id_mask({0, 1})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(contained=[empty]), universe_size=2,
        )
        assert outcome.empty_shortcut
        assert outcome.candidates == 0
        assert outcome.answer_free == 0

    def test_empty_shortcut_requires_full_validity(self):
        stale = entry_for(6, path("C"), set(), {0})
        cs = id_mask({0, 1})
        from repro.runtime.processors import DiscoveryResult

        outcome = prune_candidate_set(
            QueryType.SUBGRAPH, cs,
            DiscoveryResult(contained=[stale]), universe_size=2,
        )
        assert not outcome.empty_shortcut
        assert packed_ids(outcome.candidates) == [1]
