"""Method M and the store's live-id set after both moved onto integers.

* :meth:`GraphStore.ids_bitset` is the store's live ids — the same set
  as when it was rebuilt from the graph dict — after every step of
  random ADD/DEL/UA/UR sequences;
* :meth:`MethodM.verify` returns the answer bits and test count of the
  per-id loop it replaced (``tests/reference_method_m.py``) on any
  candidate set: deleted ids, ids past ``max_id``, the empty set, under
  both query types.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.cache.entry import QueryType
from repro.dataset.store import GraphStore
from repro.matching.vf2plus import VF2PlusMatcher
from repro.runtime.method_m import MethodM
from repro.util.bits import bit_ids
from tests.conftest import id_mask
from tests.graph_helpers import random_labeled_graph
from tests.reference_method_m import reference_verify_ids
from tests.test_consistency import ALPHABET


def check_ids(store: GraphStore) -> None:
    """``ids_bitset`` is what rebuilding it from the dict gives."""
    assert store.ids_bitset() == id_mask(store.ids())


def mutate(store: GraphStore, rng: random.Random) -> None:
    """One random ADD / DEL / UA / UR (a no-op where none applies)."""
    kind = rng.choice("ADUR")
    live = sorted(store.ids())
    if kind == "A" or not live:
        store.add_graph(random_labeled_graph(rng.randint(1, 5), 0.5,
                                             ALPHABET, rng))
        return
    gid = rng.choice(live)
    graph = store.get(gid)
    if kind == "D":
        store.delete_graph(gid)
    elif kind == "U":
        missing = list(graph.non_edges())
        if missing:
            store.add_edge(gid, *rng.choice(missing))
    else:
        present = list(graph.edges())
        if present:
            store.remove_edge(gid, *rng.choice(present))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), initial=st.integers(0, 6),
       steps=st.integers(0, 30))
def test_ids_bitset_is_the_live_ids_after_every_step(seed, initial, steps):
    rng = random.Random(seed)
    store = (GraphStore.from_graphs(
        random_labeled_graph(rng.randint(1, 5), 0.5, ALPHABET, rng)
        for _ in range(initial)) if initial else GraphStore())
    check_ids(store)
    for _ in range(steps):
        mutate(store, rng)
        check_ids(store)


def test_an_empty_store_has_no_ids():
    store = GraphStore()
    assert store.ids_bitset() == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       candidates=st.sets(st.integers(0, 24)),
       query_type=st.sampled_from(list(QueryType)))
def test_verify_equals_the_per_id_loop(seed, candidates, query_type):
    """Candidate ids up to 24 over a store of at most 12 ids ever
    assigned, some deleted: dead ids and ids past ``max_id`` occur."""
    rng = random.Random(seed)
    store = GraphStore.from_graphs(
        random_labeled_graph(rng.randint(1, 6), 0.5, ALPHABET, rng)
        for _ in range(rng.randint(0, 12)))
    for gid in sorted(store.ids()):
        if rng.random() < 0.3:
            store.delete_graph(gid)
    query = random_labeled_graph(rng.randint(1, 4), 0.6, ALPHABET, rng)
    ids = id_mask(candidates)

    matcher = VF2PlusMatcher()
    answer, tests = MethodM(matcher, store).verify(query, ids, query_type)
    expected, expected_tests = reference_verify_ids(
        matcher.is_subgraph_isomorphic, store, query, bit_ids(ids),
        query_type is QueryType.SUBGRAPH)
    assert (answer, tests) == (expected, expected_tests)
    assert tests == len(candidates & set(store.ids()))


def test_verify_of_nothing_is_nothing():
    store = GraphStore.from_graphs([random_labeled_graph(3, 0.5, ALPHABET,
                                                         random.Random(1))])
    for query_type in QueryType:
        answer, tests = MethodM(VF2PlusMatcher(), store).verify(
            store.get(0), 0, query_type)
        assert (answer, tests) == (0, 0)
