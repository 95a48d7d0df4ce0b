"""Retrospective revalidation tests (the §8 future-work extension)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GraphCacheService
from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.models import CacheModel
from repro.cache.revalidation import (
    RetrospectiveRevalidator,
    revalidate_entry,
)
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2 import VF2Matcher
from repro.matching.vf2plus import VF2PlusMatcher
from repro.util.bitset import BitSet
from tests.conftest import brute_force_answer
from tests.test_consistency import run_interleaving


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


@pytest.fixture
def store() -> GraphStore:
    return GraphStore.from_graphs([path("CCO"), path("CO"), path("NNN")])


def stale_entry(store: GraphStore) -> CacheEntry:
    """An entry whose bits are all invalid (e.g. after heavy churn)."""
    return CacheEntry(
        entry_id=0, query=path("CO"), query_type=QueryType.SUBGRAPH,
        answer=BitSet(store.max_id + 1),
        valid=BitSet(store.max_id + 1),
        created_at=0,
    )


class TestRevalidateEntry:
    def test_restores_answer_and_validity(self, store):
        entry = stale_entry(store)
        spent = revalidate_entry(entry, store, VF2Matcher())
        assert spent == 3
        assert sorted(entry.answer) == [0, 1]   # CO ⊆ G0, G1
        assert sorted(entry.valid) == [0, 1, 2]
        assert entry.fully_valid(store.ids_bitset())

    def test_budget_respected(self, store):
        entry = stale_entry(store)
        spent = revalidate_entry(entry, store, VF2Matcher(), max_tests=1)
        assert spent == 1
        assert entry.valid.cardinality() == 1

    def test_noop_when_fully_valid(self, store):
        entry = stale_entry(store)
        revalidate_entry(entry, store, VF2Matcher())
        assert revalidate_entry(entry, store, VF2Matcher()) == 0

    def test_supergraph_semantics(self, store):
        entry = CacheEntry(
            entry_id=0, query=path("CCO"),
            query_type=QueryType.SUPERGRAPH,
            answer=BitSet(store.max_id + 1),
            valid=BitSet(store.max_id + 1), created_at=0,
        )
        revalidate_entry(entry, store, VF2Matcher())
        # graphs contained in C-C-O: G0 and G1.
        assert sorted(entry.answer) == [0, 1]

    def test_skips_dead_ids(self, store):
        entry = stale_entry(store)
        store.delete_graph(1)
        spent = revalidate_entry(entry, store, VF2Matcher())
        assert spent == 2
        assert not entry.valid.get(1)


class TestRevalidator:
    def test_zero_budget_is_noop(self, store):
        r = RetrospectiveRevalidator(0)
        cache = CacheManager()
        report = r.run_round(cache, store, VF2Matcher())
        assert report.tests_spent == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetrospectiveRevalidator(-1)

    def test_prefers_high_r_entries(self, store):
        cache = CacheManager(window_capacity=10)
        low = cache.admit(path("NN"), BitSet(3), store, 0)
        high = cache.admit(path("CO"), BitSet(3), store, 1)
        cache.credit(high.entry_id, 50, 50.0, 1)
        # Invalidate both entries everywhere.
        low.valid.clear()
        high.valid.clear()
        r = RetrospectiveRevalidator(3)  # exactly one entry's worth
        report = r.run_round(cache, store, VF2Matcher())
        assert report.entries_touched == 1
        assert high.fully_valid(store.ids_bitset())
        assert not low.fully_valid(store.ids_bitset())

    def test_totals_accumulate(self, store):
        cache = CacheManager(window_capacity=10)
        entry = cache.admit(path("CO"), BitSet(3), store, 0)
        entry.valid.clear()
        r = RetrospectiveRevalidator(10)
        r.run_round(cache, store, VF2Matcher())
        assert r.total_tests == 3
        assert r.total_bits_restored == 3


class TestEngineIntegration:
    def test_repeat_is_renewed_for_free(self, store):
        """A re-issued query re-earns its entry's validity by itself:
        the repeat pays for the touched graph and admission writes the
        fresh result into the faded twin, so the retro round that
        follows finds nothing to spend its budget on."""
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON, retro_budget=10)
        engine.execute(path("CO"))
        store.add_edge(2, 0, 2)  # UA on the NNN graph (not an answer):
        # Algorithm 2 must invalidate that bit (a negative relation can
        # flip under edge addition).
        mid = engine.execute(path("CO"))
        assert mid.metrics.method_tests == 1
        final = engine.execute(path("CO"))
        assert final.metrics.method_tests == 0
        assert mid.answer_ids == final.answer_ids
        assert engine.cache.renewals == 1
        assert engine.monitor.total_retro_tests == 0

    def test_retro_still_pays_where_the_query_is_not_reissued(self):
        """Where retro still earns its keep: the faded entry's own query
        does not come back (so nothing renews it), yet a *different*
        query that it filters profits from the re-earned bit."""
        def run(retro_budget: int):
            engine = GraphCacheService(
                GraphStore.from_graphs([path("CCO"), path("CO"),
                                        path("NNN")]),
                matcher=VF2PlusMatcher(), model=CacheModel.CON,
                retro_budget=retro_budget)
            engine.execute(path("CO"))
            engine.store.add_edge(2, 0, 2)   # fades CO's bit toward G2
            engine.execute(path("NN"))       # unrelated; its retro round
            # re-tests CO against G2 off the critical path...
            larger = engine.execute(path("CCO"))  # ...so CO ⊄ G2 prunes
            # G2 from CCO's candidates again
            assert engine.cache.renewals == 0
            return larger, engine.monitor.total_retro_tests

        with_retro, retro_tests = run(retro_budget=10)
        without, none = run(retro_budget=0)
        assert with_retro.answer_ids == without.answer_ids == {0}
        assert retro_tests > 0 and none == 0
        assert with_retro.metrics.method_tests \
            < without.metrics.method_tests

    def test_retro_tests_are_not_method_tests(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                   model=CacheModel.CON, retro_budget=5)
        engine.execute(path("CO"))
        store.remove_edge(0, 0, 1)
        result = engine.execute(path("CO"))
        assert result.metrics.retro_tests >= 0
        assert result.metrics.overhead_seconds >= result.metrics.retro_seconds

    def test_disabled_by_default(self, store):
        engine = GraphCacheService(store, matcher=VF2PlusMatcher())
        assert engine.revalidator is None
        engine.execute(path("CO"))
        assert engine.monitor.total_retro_tests == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_consistency_holds_with_revalidation(seed):
    """The headline property: answers stay exactly correct with retro on."""
    rng = random.Random(seed)
    from repro.graphs.generators import random_labeled_graph
    from tests.test_consistency import ALPHABET, random_change

    pool = [random_labeled_graph(rng.randint(2, 6), 0.4, ALPHABET, rng)
            for _ in range(8)]
    store = GraphStore.from_graphs(pool)
    engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                               model=CacheModel.CON, cache_capacity=5,
                               window_capacity=2, retro_budget=4)
    for _ in range(50):
        if rng.random() < 0.35:
            random_change(store, pool, rng)
        else:
            q = random_labeled_graph(rng.randint(1, 4), 0.5, ALPHABET, rng)
            got = engine.execute(q).answer_ids
            want = brute_force_answer(store, q, QueryType.SUBGRAPH)
            assert got == frozenset(want)


def test_interleaving_helper_importable():
    """Regression guard for the cross-module helper reuse above."""
    run_interleaving(1, CacheModel.CON, QueryType.SUBGRAPH, steps=10)
