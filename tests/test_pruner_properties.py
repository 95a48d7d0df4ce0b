"""Formula-level property tests of the Candidate Set Pruner.

These exercise Lemmas 1–5 mechanically: build *real* cache entries by
executing queries against a live store, churn the dataset, run the
validator, then check that every pruning decision is justified by
ground truth:

* every donated graph (``answer_free``) truly satisfies the new query
  (no false positives — Lemma 1);
* every graph the filter removes truly does NOT satisfy it (no false
  negatives — Lemmas 2/5);
* contributions partition exactly the ids removed from the candidate
  set.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.models import CacheModel
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.matching.vf2plus import VF2PlusMatcher
from repro.runtime.method_m import MethodM
from repro.runtime.processors import DiscoveryResult, HitDiscovery
from repro.runtime.pruner import prune_candidate_set
from tests.conftest import brute_force_subiso, id_mask, packed_ids
from tests.graph_helpers import random_labeled_graph
from tests.reference_pruner import reference_prune_candidate_set
from tests.test_consistency import ALPHABET, random_change


def build_scenario(seed: int):
    """A store with real cached entries and pending churn, plus a query."""
    rng = random.Random(seed)
    pool = [random_labeled_graph(rng.randint(2, 6), 0.4, ALPHABET, rng)
            for _ in range(8)]
    store = GraphStore.from_graphs(pool)
    cache = CacheManager(model=CacheModel.CON, capacity=10,
                         window_capacity=3)
    method_m = MethodM(VF2PlusMatcher(), store)

    # Execute and cache a handful of queries against the live store.
    for i in range(rng.randint(2, 6)):
        cache.ensure_consistency(store)
        q = random_labeled_graph(rng.randint(1, 4), 0.5, ALPHABET, rng)
        answer, _ = method_m.verify(q, store.ids_bitset(),
                                    QueryType.SUBGRAPH)
        cache.admit(q, answer, store, i)
        if rng.random() < 0.5:
            random_change(store, pool, rng)

    cache.ensure_consistency(store)
    query = random_labeled_graph(rng.randint(1, 4), 0.5, ALPHABET, rng)
    return store, cache, query


def discover(query, index):
    return HitDiscovery().discover(query, index, GraphFeatures.of(query))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pruning_decisions_are_justified(seed):
    store, cache, query = build_scenario(seed)
    hits = discover(query, cache.index)
    cs = store.ids_bitset()
    outcome = prune_candidate_set(QueryType.SUBGRAPH, cs, hits,
                                  store.max_id + 1)

    truth = {
        gid for gid, g in store.items() if brute_force_subiso(query, g)
    }
    donated = set(packed_ids(outcome.answer_free))
    kept = set(packed_ids(outcome.candidates))
    removed_by_filter = set(packed_ids(cs)) - donated - kept

    # Lemma 1: donations are true answers (no false positives).
    assert donated <= truth, f"false positives donated: {donated - truth}"
    # Lemmas 2/5: filtered-out graphs are true non-answers.
    assert removed_by_filter.isdisjoint(truth), (
        f"false negatives filtered: {removed_by_filter & truth}"
    )
    # Completeness: donated ∪ kept covers every true answer.
    assert truth <= donated | kept

    # Contribution accounting: every contribution id was either donated
    # or removed; live contributions never overlap the kept set.
    for entry_id, saved in outcome.contributions.items():
        assert set(packed_ids(saved)) <= donated | removed_by_filter, (
            f"entry {entry_id} credited for ids still being tested"
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_discovery_finds_all_true_containments(seed):
    """The feature filter + verifier pipeline misses no containment."""
    store, cache, query = build_scenario(seed)
    hits = discover(query, cache.index)
    containing_ids = {e.entry_id for e in hits.containing}
    contained_ids = {e.entry_id for e in hits.contained}
    for entry in cache.all_entries():
        if brute_force_subiso(query, entry.query):
            assert entry.entry_id in containing_ids
        if brute_force_subiso(entry.query, query):
            assert entry.entry_id in contained_ids


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validity_bits_always_reflect_truth(seed):
    """After validation, every set validity bit is a true statement."""
    store, cache, _ = build_scenario(seed)
    for entry in cache.all_entries():
        for gid in packed_ids(entry.valid):
            if gid not in store:
                raise AssertionError(
                    f"valid bit set for deleted graph {gid}"
                )
            holds = brute_force_subiso(entry.query, store.get(gid))
            recorded = bool(entry.answer >> gid & 1)
            assert holds == recorded, (
                f"valid bit {gid} contradicts ground truth: recorded "
                f"{recorded}, actual {holds}"
            )


# ----------------------------------------------------------------------
# The pruner == the pruner one formula step at a time
# ----------------------------------------------------------------------
def outcome_fields(outcome):
    """Every field, the per-entry maps in key order."""
    return (outcome.answer_free, outcome.candidates,
            list(outcome.contributions.items()),
            list(outcome.donations.items()), list(outcome.filtered.items()),
            outcome.exact_hit, outcome.empty_shortcut)


def test_pruner_maps_hold_integers():
    """The per-entry maps are the packed integers themselves, not sets:
    the pipeline only counts them."""
    store, cache, query = build_scenario(7)
    hits = discover(query, cache.index)
    outcome = prune_candidate_set(QueryType.SUBGRAPH, store.ids_bitset(),
                                  hits, store.max_id + 1)
    for per_entry in (outcome.contributions, outcome.donations,
                      outcome.filtered):
        assert all(type(bits) is int for bits in per_entry.values())


@pytest.mark.parametrize("query_type", list(QueryType))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pruner_equals_reference_on_real_hits(query_type, seed):
    store, cache, query = build_scenario(seed)
    hits = discover(query, cache.index)
    args = (query_type, store.ids_bitset(), hits, store.max_id + 1)
    assert outcome_fields(prune_candidate_set(*args)) \
        == outcome_fields(reference_prune_candidate_set(*args))


_indicator = st.sets(st.integers(0, 9))


@given(
    indicators=st.lists(st.tuples(_indicator, _indicator), max_size=5),
    roles=st.lists(st.sampled_from(["containing", "contained", "exact"]),
                   min_size=5, max_size=5),
    candidates=_indicator, live=st.none() | _indicator,
    universe_size=st.integers(0, 12),
    query_type=st.sampled_from(list(QueryType)),
)
def test_pruner_equals_reference_on_arbitrary_indicators(
        indicators, roles, candidates, live, universe_size, query_type):
    """Hit lists no discovery would produce — indicators with ids past
    the id universe, candidate sets narrower than the live ids — where
    only the formulas themselves are left to agree."""
    graph = random_labeled_graph(2, 1.0, ALPHABET, random.Random(0))
    hits = DiscoveryResult()
    for entry_id, ((answer, valid), role) in enumerate(zip(indicators, roles)):
        entry = CacheEntry(entry_id, graph, query_type, id_mask(answer),
                           id_mask(valid), created_at=0)
        if role != "contained":
            hits.containing.append(entry)
        if role != "containing":
            hits.contained.append(entry)
        if role == "exact":
            hits.exact.append(entry)
    args = (query_type, id_mask(candidates), hits, universe_size,
            id_mask(live) if live is not None else None)
    assert outcome_fields(prune_candidate_set(*args)) \
        == outcome_fields(reference_prune_candidate_set(*args))
