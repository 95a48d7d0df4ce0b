"""Renewal: a re-executed query writes its fresh answer into its faded
cached twin instead of being admitted as another copy.

Three tiers, as for the consistency protocol itself: the manager's
bookkeeping in isolation, the service pipeline on hand-made streams, and
a hypothesis property over random interleavings of repeated / relabelled
queries and dataset changes (``tests/test_consistency.py``'s oracle
loop, plus the truthfulness of every resident ``CGvalid`` bit).  The
concurrent cases live in ``tests/test_concurrent_service.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GCConfig, GraphCacheService
from repro.cache.entry import QueryType
from repro.cache.manager import CacheManager
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2 import VF2Matcher
from tests.conftest import (brute_force_answer, brute_force_isomorphic,
                            id_mask)
from tests.graph_helpers import random_labeled_graph
from tests.index_audit import audit
from tests.test_consistency import ALPHABET, random_change


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        labels, [(i, i + 1) for i in range(len(labels) - 1)]
    )


def relabelled(graph: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """An isomorphic copy under a random vertex permutation."""
    perm = list(graph.vertices())
    rng.shuffle(perm)
    inverse = {v: i for i, v in enumerate(perm)}
    return LabeledGraph.from_edges(
        [graph.label(v) for v in perm],
        [(inverse[u], inverse[v]) for u, v in graph.edges()],
    )


# ----------------------------------------------------------------------
# (a) Manager level
# ----------------------------------------------------------------------
QUERY = path("CO")


def answer_of(store: GraphStore) -> int:
    return id_mask(brute_force_answer(store, QUERY, QueryType.SUBGRAPH))


class Copies:
    """Three faded copies of one query — ids 0 and 1 promoted to the
    cache, id 3 in the window between two unrelated residents (2, 4) —
    and a fully valid copy (5) admitted after the change."""

    def __init__(self) -> None:
        self.store = GraphStore.from_graphs(
            [path("CCO"), path("CO"), path("NNN")])
        self.manager = CacheManager(window_capacity=2, capacity=10)
        before = answer_of(self.store)
        self.e0 = self.manager.admit(QUERY, before, self.store, 0)
        self.e1 = self.manager.admit(QUERY, before, self.store, 1)
        self.manager.window.capacity = 10   # the rest stays in the window
        self.other = self.manager.admit(path("NN"), 0, self.store, 2)
        self.e3 = self.manager.admit(QUERY, before, self.store, 3)
        self.last = self.manager.admit(path("NNN"), 0, self.store, 4)
        self.manager.credit(self.e0.entry_id, 10, 2.5, 5)
        self.manager.credit(self.e1.entry_id, 4, 1.25, 6)
        self.manager.credit(self.e3.entry_id, 3, 0.5, 7)
        self.manager.credit(self.e3.entry_id, 2, 0.25, 8)
        # UA on the NNN graph: a negative subgraph relation may flip, so
        # Algorithm 2 turns bit 2 off in every entry that recorded one.
        self.store.add_edge(2, 0, 2)
        self.manager.ensure_consistency(self.store)
        self.valid_twin = self.manager.admit(QUERY, answer_of(self.store),
                                             self.store, 9)

    def resident(self) -> list[int]:
        """The ids in the cache or the window."""
        return sorted([*self.manager._cache,
                       *(e.entry_id for e in self.manager.window.entries())])

    @property
    def twins(self) -> list:
        return [self.e3, self.valid_twin, self.e1, self.e0]   # any order


class TestManagerRenewal:
    def test_setup_is_what_the_cases_assume(self):
        c = Copies()
        live = c.store.ids_bitset()
        assert sorted(c.manager._cache) == [0, 1]
        assert [e.entry_id for e in c.manager.window.entries()] == [2, 3, 4, 5]
        assert not any(e.fully_valid(live) for e in (c.e0, c.e1, c.e3))
        assert c.valid_twin.fully_valid(live)

    def test_survivor_is_the_lowest_id_faded_twin(self):
        c = Copies()
        fresh = answer_of(c.store)
        got = c.manager.admit(QUERY, fresh, c.store, 20, twins=c.twins)
        assert got is c.e0
        assert c.e0.entry_id == 0 and c.e0.created_at == 0
        assert 0 in c.manager._cache            # position kept
        assert c.e0.answer == fresh
        assert c.e0.valid == c.store.ids_bitset()
        assert c.e0.fully_valid(c.store.ids_bitset())

    def test_no_entry_is_created(self):
        c = Copies()
        before = (c.manager.admissions, c.manager._next_entry_id)
        c.manager.admit(QUERY, answer_of(c.store), c.store, 20, twins=c.twins)
        assert (c.manager.admissions, c.manager._next_entry_id) == before
        assert c.manager.renewals == 1

    def test_survivor_absorbs_exactly_the_dropped_statistics(self):
        c = Copies()
        c.manager.admit(QUERY, answer_of(c.store), c.store, 20, twins=c.twins)
        stats = c.manager.statistics.get(0)
        assert stats.tests_saved == 10 + 4 + 3 + 2
        assert stats.cost_saved == 2.5 + 1.25 + 0.5 + 0.25
        assert stats.hits == 1 + 1 + 2
        assert stats.last_used == 20
        assert stats.created_at == 0

    def test_dropped_twins_leave_cache_and_window_alike(self):
        c = Copies()
        c.manager.admit(QUERY, answer_of(c.store), c.store, 20, twins=c.twins)
        assert sorted(c.manager._cache) == [0]
        # FIFO order of the remaining window residents is untouched.
        assert [e.entry_id for e in c.manager.window.entries()] == [2, 4, 5]
        assert len(c.manager.index) == 4
        assert 1 not in c.manager.statistics
        assert 3 not in c.manager.statistics
        assert c.manager.evictions == 2
        audit(c.manager.index)

    def test_fully_valid_twin_stays(self):
        c = Copies()
        before = (c.valid_twin.answer, c.valid_twin.valid)
        c.manager.admit(QUERY, answer_of(c.store), c.store, 20, twins=c.twins)
        assert c.valid_twin.entry_id in c.manager.statistics
        assert c.valid_twin.answer is before[0]
        assert c.valid_twin.valid is before[1]

    def test_events_mirror_residency(self):
        """The counted cache events — admissions, evictions — follow
        the ids resident in the cache and the window."""
        c = Copies()
        assert c.resident() == [0, 1, 2, 3, 4, 5]
        assert (c.manager.admissions, c.manager.evictions) == (6, 0)
        c.manager.admit(QUERY, answer_of(c.store), c.store, 20, twins=c.twins)
        # Dropped copies are evictions; the renewal itself changes no
        # residency and is no admission.
        assert c.resident() == [0, 2, 4, 5]
        assert (c.manager.admissions, c.manager.evictions) == (6, 2)

    def test_single_faded_twin_emits_nothing(self):
        c = Copies()
        c.manager.admit(QUERY, answer_of(c.store), c.store, 20,
                        twins=[c.e1, c.valid_twin])
        assert c.resident() == [0, 1, 2, 3, 4, 5]
        assert c.manager.admissions == 6
        assert c.manager.renewals == 1 and c.manager.evictions == 0
        assert c.e1.fully_valid(c.store.ids_bitset())
        assert not c.e0.fully_valid(c.store.ids_bitset())   # not passed in

    def test_twins_already_gone_are_skipped(self):
        """A twin no longer resident when it is passed in neither
        survives nor is dropped a second time."""
        c = Copies()
        del c.manager._cache[0]                 # as _promote evicts
        c.manager.index.remove(0)
        c.manager.statistics.forget(0)
        got = c.manager.admit(QUERY, answer_of(c.store), c.store, 20,
                              twins=c.twins)
        assert got is c.e1
        assert c.manager.evictions == 1         # only id 3 was dropped
        assert not c.e0.fully_valid(c.store.ids_bitset())   # untouched

    def test_all_faded_twins_gone_is_a_plain_admission(self):
        c = Copies()
        c.manager.clear()
        got = c.manager.admit(QUERY, answer_of(c.store), c.store, 20,
                              twins=c.twins)
        assert got.entry_id == 6 and got.created_at == 20
        assert c.manager.renewals == 0
        assert c.manager.admissions == 7
        assert c.resident() == [6]

    def test_only_fully_valid_twins_is_a_plain_admission(self):
        c = Copies()
        got = c.manager.admit(QUERY, answer_of(c.store), c.store, 20,
                              twins=[c.valid_twin])
        assert got.entry_id == 6
        assert c.manager.renewals == 0
        assert c.valid_twin.entry_id in c.manager.statistics


class TestWindowRemove:
    def test_keeps_fifo_order_and_ignores_unknown_ids(self):
        c = Copies()
        window = c.manager.window
        window.remove(3)
        window.remove(99)
        assert [e.entry_id for e in window.entries()] == [2, 4, 5]
        assert len(window) == 3


# ----------------------------------------------------------------------
# (b) Service level
# ----------------------------------------------------------------------
def service_over(*graphs: LabeledGraph, **config) -> GraphCacheService:
    return GraphCacheService(GraphStore.from_graphs(list(graphs)),
                             GCConfig(**config))


CHANGES = {
    # Each one fades the CO entry of the service below.
    "UA": lambda s: s.add_edge(2, 0, 2),       # negative relation, G2
    "UR": lambda s: s.remove_edge(0, 0, 1),    # positive relation, G0
    "ADD": lambda s: s.add_graph(path("OC")),  # unknown relation, G3
}


class TestServiceRenewal:
    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_repeat_after_a_change_renews(self, change):
        with service_over(path("CCO"), path("CO"), path("NNN")) as service:
            service.execute(path("CO"))
            CHANGES[change](service)
            repeat = service.execute(path("CO"))
            counters = service.counters()
            assert counters["admissions"] == 1
            assert counters["renewals"] == 1
            assert counters["evictions"] == 0
            # The repeat paid for exactly the graph the change touched...
            assert repeat.metrics.exact_hits == 1
            assert repeat.metrics.method_tests == 1
            (entry,) = service.cache.all_entries()
            assert entry.entry_id == 0 and entry.created_at == 0
            assert entry.answer == repeat.answer_bits
            assert entry.fully_valid(service.store.ids_bitset())
            # ...and the next one pays for nothing.
            again = service.execute(path("CO"))
            assert again.metrics.method_tests == 0
            assert again.metrics.exact_hit_valid
            assert again.answer_ids == repeat.answer_ids
            assert again.answer_ids == frozenset(brute_force_answer(
                service.store, path("CO"), QueryType.SUBGRAPH))

    def test_a_del_alone_fades_nothing(self):
        with service_over(path("CCO"), path("CO"), path("NNN")) as service:
            service.execute(path("CO"))
            service.delete_graph(1)
            repeat = service.execute(path("CO"))
            assert repeat.metrics.method_tests == 0
            assert repeat.answer_ids == {0}
            counters = service.counters()
            assert counters["renewals"] == 0
            assert counters["admissions"] == 2   # a copy, as the paper's GC+

    @pytest.mark.parametrize("config,churn", [
        (dict(model="CON"), False),
        (dict(model="EVI"), False),
        (dict(model="EVI"), True),
    ])
    def test_never_renews_without_a_faded_twin(self, config, churn):
        pool = [path("CO"), path("CC"), path("OC"), path("CCO")]
        with service_over(path("CCO"), path("CO"), path("NNN"), path("CCOC"),
                          cache_capacity=4, window_capacity=2,
                          **config) as service:
            for step in range(24):
                if churn and step % 5 == 4:
                    service.add_graph(path("COC"))
                service.execute(pool[step % 3 if step % 7 else 3])
            counters = service.counters()
            assert counters["renewals"] == 0
            assert counters["admissions"] == 24

    @pytest.mark.parametrize("query_type", ["subgraph", "supergraph"])
    def test_relabelled_query_renews_like_an_identical_one(self, query_type):
        rng = random.Random(7)
        query = LabeledGraph.from_edges("CCON", [(0, 1), (1, 2), (1, 3)])
        graphs = [path("CCO"), path("CN"),
                  LabeledGraph.from_edges("CCONC", [(0, 1), (1, 2), (1, 3),
                                                    (3, 4)])]

        def run(repeat: LabeledGraph):
            service = service_over(*graphs, query_type=query_type)
            with service:
                service.execute(query)
                # UR on G2 (contains the query) fades a subgraph-semantics
                # positive; UA on G0 (contained in the query) fades the
                # negative there and the supergraph-semantics positive.
                service.remove_edge(2, 3, 4)
                service.add_edge(0, 0, 2)
                result = service.execute(repeat)
                (entry,) = service.cache.all_entries()
                after = service.execute(repeat)
                assert after.metrics.method_tests == 0
                counters = service.counters()
                # The one count that may tell the two kinds of repeat
                # apart (tests/test_interning.py).
                del counters["interned_queries"]
                return (counters, result.answer_ids,
                        result.metrics.method_tests, entry.answer,
                        entry.valid, after.answer_ids)

        identical = run(query.copy())
        for _ in range(5):
            twin = relabelled(query, rng)
            assert brute_force_isomorphic(query, twin)
            assert run(twin) == identical
        counters = identical[0]
        assert counters["renewals"] == 1 and counters["admissions"] == 2

    def test_repeat_is_renewed_for_free(self):
        """A re-issued query re-earns its entry's validity by itself:
        the repeat pays for the touched graph on its own critical path
        and admission writes the fresh result into the faded twin."""
        with service_over(path("CCO"), path("CO"), path("NNN")) as service:
            service.execute(path("CO"))
            # UA on the NNN graph (not an answer): Algorithm 2 must fade
            # that bit (a negative relation can flip under edge addition).
            service.add_edge(2, 0, 2)
            mid = service.execute(path("CO"))
            assert mid.metrics.method_tests == 1
            final = service.execute(path("CO"))
            assert final.metrics.method_tests == 0
            assert mid.answer_ids == final.answer_ids
            assert service.cache.renewals == 1

    def test_an_entry_whose_query_does_not_come_back_stays_faded(self):
        """Renewal is the only way a bit comes back: a faded entry whose
        own query is not re-issued keeps its hole, and a *different*
        query it filters pays for the touched graph itself.  (The case
        the retired budgeted re-test round was for — see
        docs/config-fidelity.md, "Retired".)"""
        with service_over(path("CCO"), path("CO"), path("NNN")) as service:
            service.execute(path("CO"))
            service.add_edge(2, 0, 2)        # fades CO's bit toward G2
            service.execute(path("NN"))      # unrelated
            (faded,) = [e for e in service.cache.all_entries()
                        if e.query.labels == path("CO").labels]
            assert not faded.valid >> 2 & 1
            larger = service.execute(path("CCO"))
            # A valid CO ⊄ G2 would prune G2 from CCO's candidates; the
            # unknown relation cannot, so G2 is tested beside G0 and G1.
            assert larger.answer_ids == {0}
            assert larger.metrics.method_tests == 3
            assert service.cache.renewals == 0


# ----------------------------------------------------------------------
# (c) Property: random repeated / relabelled streams under churn
# ----------------------------------------------------------------------
def assert_valid_bits_truthful(service: GraphCacheService, where: str):
    """*valid bit ⇒ the recorded relation holds against the current
    dataset* — for positives and negatives, against a direct matcher."""
    matcher = VF2Matcher()
    store = service.store
    for entry in service.cache.all_entries():
        for gid in store.ids():
            if not entry.valid >> gid & 1:
                continue
            graph = store.get(gid)
            if entry.query_type is QueryType.SUBGRAPH:
                holds = matcher.is_subgraph_isomorphic(entry.query, graph)
            else:
                holds = matcher.is_subgraph_isomorphic(graph, entry.query)
            recorded = bool(entry.answer >> gid & 1)
            assert recorded == holds, (
                f"{where}: entry {entry.entry_id} claims a valid "
                f"{recorded} toward graph {gid}, truth {holds}")


@pytest.mark.parametrize("query_type",
                         [QueryType.SUBGRAPH, QueryType.SUPERGRAPH])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_renewal_keeps_answers_and_validity_exact(query_type, seed):
    rng = random.Random(seed)
    graphs = [random_labeled_graph(rng.randint(2, 7), 0.4, ALPHABET, rng)
              for _ in range(8)]
    pool = [random_labeled_graph(rng.randint(1, 4), 0.5, ALPHABET, rng)
            for _ in range(4)]
    store = GraphStore.from_graphs(graphs)
    service = GraphCacheService(store, GCConfig(
        model="CON", query_type=query_type, cache_capacity=6,
        window_capacity=3))
    with service:
        for step in range(60):
            where = f"seed={seed} type={query_type} step={step}"
            if rng.random() < 0.35:
                random_change(store, graphs, rng)
                service.refresh()
            else:
                query = relabelled(rng.choice(pool), rng)
                got = service.execute(query).answer_ids
                want = brute_force_answer(store, query, query_type)
                assert got == frozenset(want), where
                # Right after one of its queries ran, a class holds no
                # faded resident at all (hence never two): a faded twin
                # was renewed and its faded copies dropped, or the query
                # was admitted fresh.
                live = store.ids_bitset()
                faded = [e.entry_id for e in service.cache.all_entries()
                         if brute_force_isomorphic(e.query, query)
                         and not e.fully_valid(live)]
                assert not faded, f"{where}: faded copies {faded}"
            assert_valid_bits_truthful(service, where)
        counters = service.counters()
        assert counters["admissions"] + counters["renewals"] \
            == counters["queries"]


# ----------------------------------------------------------------------
# (f) Snapshots
# ----------------------------------------------------------------------
def describe(service: GraphCacheService):
    """Everything a snapshot must carry, per resident, in residency
    order (cache by id, window FIFO)."""
    cache = service.cache
    residents = ([cache._cache[i] for i in sorted(cache._cache)]
                 + cache.window.entries())
    rows = []
    for entry in residents:
        stats = cache.statistics.get(entry.entry_id)
        rows.append((entry.entry_id, entry.created_at, entry.answer,
                     entry.valid, stats.tests_saved, stats.cost_saved,
                     stats.hits, stats.last_used))
    return rows, [e.entry_id for e in cache.window.entries()]


def test_snapshot_round_trips_a_renewed_entry_and_a_thinned_window(tmp_path):
    config = GCConfig(model="CON", cache_capacity=10, window_capacity=6)
    snapshot = tmp_path / "renewed.snap.jsonl"

    def churned_store() -> GraphStore:
        store = GraphStore.from_graphs([path("CCO"), path("CO"), path("NNN")])
        store.add_edge(2, 0, 2)
        return store

    def next_queries(service: GraphCacheService):
        rows = []
        for query in (path("CO"), path("NO"), path("CC")):
            result = service.execute(query)
            rows.append((result.answer_ids, result.metrics.method_tests,
                         result.metrics.exact_hits))
        return rows, describe(service), service.counters()["admissions"]

    with service_over(path("CCO"), path("CO"), path("NNN"),
                      **config.to_dict()) as service:
        for query in (path("CO"), path("NN"), path("CO"), path("CC")):
            service.execute(query)
        service.add_edge(2, 0, 2)       # fades both CO copies (and CC)
        service.execute(path("CO"))     # renews 0, drops 2 from the window
        assert service.counters()["renewals"] == 1
        assert service.counters()["evictions"] == 1
        saved = describe(service)
        assert saved[1] == [0, 1, 3]
        service.save(snapshot)
        want = next_queries(service)

    with GraphCacheService(churned_store(), config) as restored:
        restored.load(snapshot)
        assert describe(restored) == saved
        rows, state, admissions = next_queries(restored)
    assert rows == want[0]
    assert rows[0][1:] == (0, 1)        # the renewed entry: zero-test hit
    assert state == want[1]             # same ids: next_entry_id survived
    # The restored process admitted only the tail's new queries.
    assert admissions == want[2] - 4


def test_interleaving_helper_importable():
    """``tests/test_consistency.py``'s oracle loop, which section (c)
    builds on, stays importable and runs from here."""
    from repro.cache.models import CacheModel
    from tests.test_consistency import run_interleaving

    run_interleaving(1, CacheModel.CON, QueryType.SUBGRAPH, steps=10)
