"""CacheEntry and Cache Validator (Algorithm 2) tests.

Includes a line-by-line replay of the paper's Figure 2 running example.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.models import CacheModel
from repro.cache.query_index import QueryIndex
from repro.cache.validator import validate_con
from repro.dataset.log import OpType, UpdateLog
from repro.dataset.log_analyzer import analyze_log
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.runtime.processors import HitDiscovery
from tests.conftest import id_mask, packed_ids
from tests.reference_pruner import possible_answer, valid_answer
from tests.reference_validator import refresh_validity


def entry(answer: set[int], valid: set[int],
          query_type: QueryType = QueryType.SUBGRAPH,
          entry_id: int = 0) -> CacheEntry:
    return CacheEntry(
        entry_id=entry_id,
        query=LabeledGraph.from_edges("CO", [(0, 1)]),
        query_type=query_type,
        answer=id_mask(answer),
        valid=id_mask(valid),
        created_at=0,
    )


def counters_from(*ops: tuple[OpType, int]):
    log = UpdateLog()
    for op, gid in ops:
        edge = (0, 1) if op in (OpType.UA, OpType.UR) else None
        log.append(op, gid, edge)
    counters, _ = analyze_log(log, 0)
    return counters


class TestCacheEntry:
    def test_query_copied(self):
        g = LabeledGraph.from_edges("CO", [(0, 1)])
        e = CacheEntry(0, g, QueryType.SUBGRAPH, 0, 0, 0)
        g.add_vertex("X")
        assert e.query.num_vertices == 2
        assert e.num_vertices == 2 and e.num_edges == 1

    def test_valid_answer(self):
        e = entry(answer={0, 1, 2}, valid={1, 2, 3})
        assert packed_ids(valid_answer(e)) == [1, 2]

    def test_possible_answer(self):
        # formula (4): ¬CGvalid ∪ Answer over the universe
        e = entry(answer={0}, valid={0, 1})
        assert packed_ids(possible_answer(e, 4)) == [0, 2, 3]

    def test_fully_valid(self):
        e = entry(answer=set(), valid={0, 1, 2})
        assert e.fully_valid(id_mask({0, 1, 2}))
        assert e.fully_valid(id_mask({0, 2}))
        assert not e.fully_valid(id_mask({0, 3}))

    def test_exact_match_size_check(self):
        """A verified containment is an exact match iff the sizes are
        equal: the same ``CO`` entry is exact for ``CO``, and only
        contained in ``CON``."""
        index = QueryIndex()
        index.add(entry(answer=set(), valid=set()))
        for query, exact in (("CO", 1), ("CON", 0)):
            graph = LabeledGraph.from_edges(query, [(0, 1)])
            hits = HitDiscovery().discover(graph, index,
                                           GraphFeatures.of(graph))
            assert (len(hits.contained), len(hits.exact)) == (1, exact)

    def test_repr(self):
        assert "answers=" in repr(entry(answer={1}, valid={1}))


class TestAlgorithm2Subgraph:
    """Validity refresh under subgraph semantics (the paper's case)."""

    def test_ua_exclusive_keeps_positive(self):
        e = entry(answer={0}, valid={0})
        refresh_validity(e, counters_from((OpType.UA, 0)))
        assert e.valid >> 0 & 1  # g ⊆ G0 survives adding edges to G0

    def test_ua_exclusive_invalidates_negative(self):
        e = entry(answer=set(), valid={0})
        refresh_validity(e, counters_from((OpType.UA, 0)))
        assert not e.valid >> 0 & 1  # g ⊄ G0 may flip when G0 gains edges

    def test_ur_exclusive_keeps_negative(self):
        e = entry(answer=set(), valid={0})
        refresh_validity(e, counters_from((OpType.UR, 0)))
        assert e.valid >> 0 & 1

    def test_ur_exclusive_invalidates_positive(self):
        e = entry(answer={0}, valid={0})
        refresh_validity(e, counters_from((OpType.UR, 0)))
        assert not e.valid >> 0 & 1

    def test_mixed_ua_ur_invalidates_everything(self):
        e = entry(answer={0}, valid={0})
        refresh_validity(e, counters_from((OpType.UA, 0), (OpType.UR, 0)))
        assert not e.valid >> 0 & 1

    def test_del_invalidates(self):
        e = entry(answer={0}, valid={0})
        refresh_validity(e, counters_from((OpType.DEL, 0)))
        assert not e.valid >> 0 & 1

    def test_add_extends_with_false(self):
        e = entry(answer={0}, valid={0})
        refresh_validity(e, counters_from((OpType.ADD, 1)))
        assert e.valid >> 0 & 1      # untouched graph keeps validity
        assert not e.valid >> 1 & 1  # relation to the new graph unknown

    def test_untouched_graphs_unaffected(self):
        e = entry(answer={0, 2}, valid={0, 1, 2})
        refresh_validity(e, counters_from((OpType.UR, 1)))
        assert e.valid >> 0 & 1 and e.valid >> 2 & 1
        assert e.valid >> 1 & 1   # G1 not in the answer: UR keeps it

    def test_invalid_bit_never_resurrects(self):
        e = entry(answer={0}, valid=set())
        refresh_validity(e, counters_from((OpType.UA, 0)))
        assert not e.valid >> 0 & 1

    def test_returns_invalidation_count(self):
        e = entry(answer={0, 1}, valid={0, 1})
        turned_off = refresh_validity(
            e, counters_from((OpType.UR, 0), (OpType.UR, 1)))
        assert turned_off == 2


class TestAlgorithm2Supergraph:
    """The inverted polarity for supergraph-semantics entries."""

    def test_ur_exclusive_keeps_positive(self):
        e = entry(answer={0}, valid={0},
                  query_type=QueryType.SUPERGRAPH)
        refresh_validity(e, counters_from((OpType.UR, 0)))
        assert e.valid >> 0 & 1  # G0 ⊆ g survives removing edges from G0

    def test_ur_exclusive_invalidates_negative(self):
        e = entry(answer=set(), valid={0},
                  query_type=QueryType.SUPERGRAPH)
        refresh_validity(e, counters_from((OpType.UR, 0)))
        assert not e.valid >> 0 & 1

    def test_ua_exclusive_keeps_negative(self):
        e = entry(answer=set(), valid={0},
                  query_type=QueryType.SUPERGRAPH)
        refresh_validity(e, counters_from((OpType.UA, 0)))
        assert e.valid >> 0 & 1  # G0 ⊄ g survives G0 growing

    def test_ua_exclusive_invalidates_positive(self):
        e = entry(answer={0}, valid={0},
                  query_type=QueryType.SUPERGRAPH)
        refresh_validity(e, counters_from((OpType.UA, 0)))
        assert not e.valid >> 0 & 1


class TestFigure2Example:
    """Replays the paper's Figure 2 CON-cache running example.

    Initial dataset {G0..G3}; query g' has answer {G2, G3}.  At T2 the
    dataset gains G4 (ADD) and G3 loses edges (UR).  At T4, G0 is deleted
    and G1 gains edges (UA).
    """

    def test_timeline(self):
        g_prime = entry(answer={2, 3}, valid={0, 1, 2, 3},
                        entry_id=1)

        # T2: ADD G4, UR on G3.
        refresh_validity(
            g_prime, counters_from((OpType.ADD, 4), (OpType.UR, 3)))
        # Paper: Answer 1 1 1 0 0 / CGvalid 0 0 1 x x -> validity holds
        # exactly on {G0, G1, G2}: G3's positive faded under UR, G4 unknown.
        assert packed_ids(g_prime.valid) == [0, 1, 2]
        assert packed_ids(g_prime.answer) == [2, 3]  # Answer is immutable

        # T3: g'' executes against {G0..G4}, answer {G2, G3}.
        g_second = entry(answer={2, 3}, valid={0, 1, 2, 3, 4},
                         entry_id=2)

        # T4: DEL G0, UA on G1.
        t4 = counters_from((OpType.DEL, 0), (OpType.UA, 1))
        refresh_validity(g_prime, t4)
        refresh_validity(g_second, t4)

        # Paper's final validity for g': {G2} (G0 deleted, G1 negative
        # faded under UA, G3/G4 already unknown).
        assert packed_ids(g_prime.valid) == [2]
        # Paper's final validity for g'': {G2, G3, G4} — wait: the figure
        # shows CGvalid x 1 1 0 for ids 1..4 with G1 faded and G4 still
        # *unknown-for-g''*?  No: g'' was created at T3 with validity on
        # all of {G0..G4}; at T4 only G0 (DEL) and G1 (UA, negative
        # answer bit... G1 not in answer -> fades) are touched, so G2,
        # G3, G4 retain validity.
        assert packed_ids(g_second.valid) == [2, 3, 4]


class TestCacheValidator:
    def test_validate_con_counts(self):
        entries = [entry(answer={0}, valid={0}, entry_id=i)
                   for i in range(3)]
        assert validate_con(entries, counters_from((OpType.UR, 0))) == 3
        assert [e.valid for e in entries] == [0, 0, 0]

    def test_validate_con_noop_when_empty(self):
        entries = [entry(answer=set(), valid={0})]
        counters, _ = analyze_log(UpdateLog(), 0)
        assert validate_con(entries, counters) == 0
        assert entries[0].valid == 1

    def test_validate_con_extends_even_without_counters(self):
        """An ADD-only log leaves every indicator as it was: the new
        graph's bit already reads 0 (Algorithm 2's extend)."""
        e = entry(answer=set(), valid={0})
        turned_off = validate_con([e], counters_from((OpType.ADD, 3)))
        assert (e.valid, turned_off) == (1, 0)

    @given(
        indicators=st.lists(
            st.tuples(st.sets(st.integers(0, 11)), st.sets(st.integers(0, 11)),
                      st.sampled_from(list(QueryType))),
            max_size=6),
        ops=st.lists(st.tuples(st.sampled_from(list(OpType)),
                               st.integers(0, 13)), max_size=10),
    )
    def test_validate_con_equals_refresh_validity(self, indicators, ops):
        """The pass's mask algebra against Algorithm 2 entry by entry,
        id by id: same bits, same turned-off count — both semantics, ids
        touched by every mix of operations, some past every indicator."""
        def population():
            return [entry(answer, valid, query_type, n)
                    for n, (answer, valid, query_type)
                    in enumerate(indicators)]

        counters = counters_from(*ops)
        expected, got = population(), population()
        turned_off = sum(refresh_validity(e, counters) for e in expected)
        assert validate_con(got, counters) == turned_off
        assert [(e.valid, e.answer) for e in got] \
            == [(e.valid, e.answer) for e in expected]

    def test_purge_evi(self):
        """EVI reflects any change by clearing cache and window, and
        counts the pass as having seen the whole log."""
        store = GraphStore.from_graphs(
            [LabeledGraph.from_edges("CO", [(0, 1)])])
        manager = CacheManager(model=CacheModel.EVI, window_capacity=2)
        for i in range(3):
            manager.admit(LabeledGraph.from_edges("CO", [(0, 1)]), 1,
                          store, i)
        assert manager.cache_size + manager.window_size == 3
        store.remove_edge(0, 0, 1)
        report = manager.ensure_consistency(store)
        assert report.purged and manager.purges == 1
        assert manager.all_entries() == [] and len(manager.index) == 0
        assert manager.pending_log_records(store) == 0
