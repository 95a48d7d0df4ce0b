"""End-to-end consistency property tests — the paper's Theorems 3 and 6.

GC+ must return *exactly* the ground-truth answer set for every query —
no false positives (Lemmas 1, 4), no false negatives (Lemmas 2, 5) —
under arbitrary interleavings of queries and dataset changes, for both
cache models and both query semantics.  Hypothesis drives randomized
interleavings; a failure here would be a soundness bug in the validity
tracking or the pruning formulas.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GraphCacheService
from repro.cache.entry import QueryType
from repro.cache.models import CacheModel
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2plus import VF2PlusMatcher
from tests.conftest import brute_force_answer, packed_ids
from tests.graph_helpers import random_labeled_graph
from tests.reference_pruner import valid_answer

ALPHABET = "abc"


def random_change(store: GraphStore, pool: list[LabeledGraph],
                  rng: random.Random) -> None:
    """One random ADD/DEL/UA/UR against the live store (best effort)."""
    choice = rng.randrange(4)
    live = sorted(store.ids())
    if choice == 0:
        store.add_graph(rng.choice(pool))
    elif choice == 1 and live:
        store.delete_graph(rng.choice(live))
    elif choice == 2 and live:
        gid = rng.choice(live)
        non_edges = list(store.get(gid).non_edges())
        if non_edges:
            store.add_edge(gid, *rng.choice(non_edges))
    elif live:
        gid = rng.choice(live)
        edges = list(store.get(gid).edges())
        if edges:
            store.remove_edge(gid, *rng.choice(edges))


def run_interleaving(seed: int, model: CacheModel, query_type: QueryType,
                     steps: int = 60, change_probability: float = 0.3,
                     cache_capacity: int = 5, window_capacity: int = 2,
                     policy: str = "hd") -> None:
    rng = random.Random(seed)
    pool = [random_labeled_graph(rng.randint(2, 7), 0.4, ALPHABET, rng)
            for _ in range(10)]
    store = GraphStore.from_graphs(pool)
    engine = GraphCacheService(
        store, matcher=VF2PlusMatcher(), model=model, query_type=query_type,
        cache_capacity=cache_capacity, window_capacity=window_capacity,
        policy=policy,
    )
    for _ in range(steps):
        if rng.random() < change_probability:
            random_change(store, pool, rng)
        else:
            query = random_labeled_graph(rng.randint(1, 5), 0.5,
                                         ALPHABET, rng)
            got = engine.execute(query).answer_ids
            want = brute_force_answer(store, query, query_type)
            assert got == frozenset(want), (
                f"seed={seed} model={model} type={query_type}: "
                f"got {sorted(got)}, want {sorted(want)}"
            )


@pytest.mark.parametrize("model", [CacheModel.CON, CacheModel.EVI])
@pytest.mark.parametrize(
    "query_type", [QueryType.SUBGRAPH, QueryType.SUPERGRAPH]
)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_answers_always_match_ground_truth(model, query_type, seed):
    run_interleaving(seed, model, query_type)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       policy=st.sampled_from(["lru", "lfu", "pin", "pinc", "hd"]))
def test_correct_under_every_replacement_policy(seed, policy):
    run_interleaving(seed, CacheModel.CON, QueryType.SUBGRAPH,
                     steps=40, policy=policy)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_correct_with_tiny_cache(seed):
    """Heavy eviction pressure must never affect answers."""
    run_interleaving(seed, CacheModel.CON, QueryType.SUBGRAPH,
                     steps=40, cache_capacity=1, window_capacity=1)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_correct_under_pure_churn(seed):
    """Change on almost every step (worst case for CON validity)."""
    run_interleaving(seed, CacheModel.CON, QueryType.SUBGRAPH,
                     steps=50, change_probability=0.7)


@pytest.mark.parametrize("model", [CacheModel.CON, CacheModel.EVI])
def test_long_deterministic_interleaving(model):
    """One long fixed-seed soak per model (stable regression anchor)."""
    run_interleaving(20170321, model, QueryType.SUBGRAPH, steps=150,
                     change_probability=0.25)


def test_models_agree_with_each_other():
    """CON and EVI must produce identical answers on the same stream."""
    seed = 99
    for query_type in (QueryType.SUBGRAPH, QueryType.SUPERGRAPH):
        answers = {}
        for model in (CacheModel.CON, CacheModel.EVI):
            rng = random.Random(seed)
            pool = [random_labeled_graph(rng.randint(2, 6), 0.4,
                                         ALPHABET, rng)
                    for _ in range(8)]
            store = GraphStore.from_graphs(pool)
            engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                                       model=model, query_type=query_type,
                                       cache_capacity=4, window_capacity=2)
            collected = []
            for _ in range(60):
                if rng.random() < 0.3:
                    random_change(store, pool, rng)
                else:
                    q = random_labeled_graph(rng.randint(1, 4), 0.5,
                                             ALPHABET, rng)
                    collected.append(engine.execute(q).answer_ids)
            answers[model] = collected
        assert answers[CacheModel.CON] == answers[CacheModel.EVI]


def test_con_validity_is_sound_but_not_complete():
    """CGvalid may under-approximate (conservative) but never
    over-approximate: every valid-marked positive must really hold."""
    from repro.matching.vf2 import VF2Matcher

    rng = random.Random(4242)
    pool = [random_labeled_graph(rng.randint(2, 6), 0.4, ALPHABET, rng)
            for _ in range(8)]
    store = GraphStore.from_graphs(pool)
    engine = GraphCacheService(store, matcher=VF2PlusMatcher(),
                               model=CacheModel.CON, cache_capacity=6,
                               window_capacity=2)
    oracle = VF2Matcher()
    for step in range(80):
        if rng.random() < 0.4:
            random_change(store, pool, rng)
        else:
            engine.execute(
                random_labeled_graph(rng.randint(1, 4), 0.5, ALPHABET, rng)
            )
        engine.cache.ensure_consistency(store)
        for entry in engine.cache.all_entries():
            for gid in packed_ids(valid_answer(entry)):
                assert gid in store, (
                    f"step {step}: valid answer bit for dead graph {gid}"
                )
                assert oracle.is_subgraph_isomorphic(
                    entry.query, store.get(gid)
                ), f"step {step}: stale positive marked valid (graph {gid})"
