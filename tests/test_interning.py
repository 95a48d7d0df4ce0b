"""Interning: an arrival identical to a resident cached query runs *as*
that resident — its graph, features, packed signature and compiled
plans — and a new entry of that structure shares the resident's graph.

It is compile work that is saved, never a sub-iso test, so the bar is
that nothing countable moves: (a) answers, counters and both matchers'
work equal a run in which the structural lookup always misses; (b) the
caller's object is neither read after the call nor written at all;
(c) only what :class:`GraphFeatures` *and* the matchers cannot tell
apart interns; (d) entries that share one graph come and go one by one.
The concurrent cases live in ``tests/test_concurrent_service.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GCConfig, GraphCacheService
from repro.cache.entry import QueryType
from repro.cache.manager import CacheManager
from repro.cache.query_index import QueryIndex
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.matching import MATCHERS
from repro.matching.plans import HostTable
from tests.conftest import brute_force_answer
from tests.graph_helpers import random_labeled_graph
from tests.index_audit import audit
from tests.test_consistency import ALPHABET, random_change
from tests.test_renewal import describe, path, relabelled


def rebuilt(graph: LabeledGraph) -> LabeledGraph:
    """The same query sent again: a new object, built the same way."""
    return LabeledGraph.from_edges(graph.labels, sorted(graph.edges()))


def never(query: LabeledGraph) -> None:
    """Stub for :meth:`QueryIndex.identical_resident`: the parent's path."""
    return None


def work(service: GraphCacheService):
    """Everything countable: the ops counters (less the one that names
    the path taken) and both matchers' ``(tests, states, found)``."""
    counters = service.counters()
    interned = counters.pop("interned_queries")
    method, internal = service.matcher.stats, service.discovery.verifier.stats
    return interned, (counters,
                      (method.tests, method.states, method.found),
                      (internal.tests, internal.states, internal.found))


# ----------------------------------------------------------------------
# (a) Interning changes no answer and no count
# ----------------------------------------------------------------------
def replay(seed: int, config: GCConfig, intern: bool):
    """One seeded stream — repeats, relabelled twins, fresh queries,
    dataset changes in between — with every answer checked against the
    brute-force oracle.  Graphs stay under eight vertices, where a
    neighbour set iterates in id order however it was built: matcher
    ``states`` then cannot depend on which of two equal graphs is
    searched."""
    rng = random.Random(seed)
    graphs = [random_labeled_graph(rng.randint(2, 7), 0.4, ALPHABET, rng)
              for _ in range(8)]
    pool = [random_labeled_graph(rng.randint(1, 5), 0.5, ALPHABET, rng)
            for _ in range(4)]
    store = GraphStore.from_graphs(graphs)
    answers = []
    with GraphCacheService(store, config) as service:
        if not intern:
            service.cache.index.identical_resident = never
        for step in range(50):
            kind = rng.random()
            if kind < 0.25:
                random_change(store, graphs, rng)
                continue
            if kind < 0.65:
                query = rebuilt(rng.choice(pool))
            elif kind < 0.85:
                query = relabelled(rng.choice(pool), rng)
            else:
                query = random_labeled_graph(rng.randint(1, 5), 0.5,
                                             ALPHABET, rng)
            got = service.execute(query).answer_ids
            assert got == frozenset(brute_force_answer(
                store, query, config.query_type)), f"seed={seed} step={step}"
            assert query._memo is None
            audit(service.cache.index)
            answers.append(got)
        return answers, work(service)


@pytest.mark.parametrize("matcher", tuple(MATCHERS))
@pytest.mark.parametrize("query_type", ["subgraph", "supergraph"])
@pytest.mark.parametrize("model", ["CON", "EVI"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_interning_changes_no_answer_and_no_count(model, query_type,
                                                  matcher, seed):
    config = GCConfig(model=model, query_type=query_type, matcher=matcher,
                      cache_capacity=6, window_capacity=3)
    answers, (interned, counted) = replay(seed, config, intern=True)
    plain_answers, (none, plain_counted) = replay(seed, config, intern=False)
    assert none == 0
    assert answers == plain_answers
    assert counted == plain_counted


def test_the_streams_above_do_intern():
    config = GCConfig(cache_capacity=6, window_capacity=3)
    assert sum(replay(seed, config, intern=True)[1][0]
               for seed in range(5)) > 20


# ----------------------------------------------------------------------
# (b) The caller's object
# ----------------------------------------------------------------------
DATASET = [path("abc"), path("abcd"), path("cab"),
           LabeledGraph.from_edges("abc", [(0, 1), (1, 2), (0, 2)])]


class TestCallerOwnsTheQuery:
    def test_no_memo_left_on_miss_or_hit_and_the_residents_survives(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            first, again = path("abc"), path("abc")
            assert not service.execute(first).metrics.interned
            assert first._memo is None
            (entry,) = service.cache.all_entries()
            assert entry.query is not first
            entry.query.derived("probe", lambda graph: object())
            before = dict(entry.query._memo)

            result = service.execute(again)
            assert result.metrics.interned
            assert again._memo is None
            # The arrival ran on the resident's graph: what was there
            # is still there, and the pattern plan was compiled on it.
            memo = entry.query._memo
            assert all(memo[key] is value for key, value in before.items())
            assert "vf2+" in memo
            plan = memo["vf2+"]
            service.execute(path("abc"))
            assert entry.query._memo["vf2+"] is plan
            assert service.counters()["interned_queries"] == 2

    def test_mutating_it_afterwards_changes_nothing_cached(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            query = path("abc")
            first = service.execute(query)
            service.execute(query)          # interned: shares the entry's
            residents = service.cache.all_entries()
            assert len({id(e.query) for e in residents}) == 1
            query.add_edge(0, 2)
            query.set_label(0, "c")
            assert all(e.query == path("abc") for e in residents)
            audit(service.cache.index)
            assert not service.execute(query).metrics.interned
            again = service.execute(path("abc"))
            assert again.metrics.interned
            assert again.answer == first.answer
            assert again.metrics.method_tests == 0


class TestPlansFollowTheQueryIntoTheCache:
    """What the matchers built on the caller's graph while it ran — its
    VF2+ plan, its host table — moves into the entry admission creates,
    so discovery does not compile the query again: moved, never shared,
    and only into a new entry."""

    @staticmethod
    def spy(matcher, seen: list, side: int, key: object) -> None:
        """Record what argument ``side`` of every test holds under
        ``key`` once the test is done."""
        test = matcher.is_subgraph_isomorphic

        def spied(pattern, host):
            result = test(pattern, host)
            seen.append(((pattern, host)[side]._memo or {}).get(key))
            return result
        matcher.is_subgraph_isomorphic = spied

    def test_the_entry_holds_the_plan_the_pipeline_compiled(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            plans: list = []
            self.spy(service.matcher, plans, 0, "vf2+")
            query = path("abc")
            service.execute(query)
            assert query._memo is None
            (entry,) = service.cache.all_entries()
            assert entry.query is not query
            assert plans and all(plan is plans[0] for plan in plans)
            assert entry.query._memo["vf2+"] is plans[0]

    def test_the_entry_holds_the_host_table_discovery_built(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            service.execute(path("ab"))
            tables: list = []
            self.spy(service.discovery.verifier, tables, 1, HostTable)
            query = path("abc")       # a supergraph of the resident "ab"
            result = service.execute(query)
            assert result.metrics.contained_hits == 1
            assert query._memo is None
            entry = max(service.cache.all_entries(),
                        key=lambda e: e.entry_id)
            assert tables[-1] is not None
            assert entry.query._memo[HostTable] is tables[-1]

    def test_an_interned_arrival_leaves_the_residents_memo_as_it_was(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            service.execute(path("abc"))
            (entry,) = service.cache.all_entries()
            memo = entry.query._memo
            before = dict(memo)
            again = path("abc")
            assert service.execute(again).metrics.interned
            assert again._memo is None
            assert entry.query._memo is memo
            assert all(memo[key] is value for key, value in before.items())

    def test_a_renewal_leaves_the_residents_memo_as_it_was(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            service.execute(path("abc"))
            (entry,) = service.cache.all_entries()
            memo = entry.query._memo
            before = dict(memo)
            service.add_graph(path("cba"))      # the entry's bits fade
            twin = path("cba")          # isomorphic, numbered otherwise
            result = service.execute(twin)
            assert not result.metrics.interned
            assert service.counters()["renewals"] == 1
            assert twin._memo is None
            assert service.cache.all_entries() == [entry]
            assert entry.query._memo is memo
            assert all(memo[key] is value for key, value in before.items())

    def test_mutating_the_caller_afterwards_reaches_no_moved_plan(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            query = path("abc")
            service.execute(query)
            (entry,) = service.cache.all_entries()
            memo = entry.query._memo
            plan = memo["vf2+"]
            query.add_edge(0, 2)
            query.set_label(1, "d")
            assert entry.query._memo is memo and memo["vf2+"] is plan
            assert plan.labels == ("a", "b", "c")
            assert plan.required == (("a", 1), ("b", 1), ("c", 1))
            assert entry.query == path("abc")
            again = service.execute(path("abc"))
            assert again.metrics.interned
            assert entry.query._memo["vf2+"] is plan

    def test_a_snapshot_leaves_every_residents_memo_as_it_was(
            self, tmp_path):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            service.execute(path("ab"))
            service.execute(path("abc"))    # the host of a test of "ab"
            entries = service.cache.all_entries()
            memos = [entry.query._memo for entry in entries]
            before = [dict(memo) for memo in memos]
            assert all("vf2+" in memo for memo in before)
            assert any(HostTable in memo for memo in before)
            service.cache.snapshot_state()
            service.save(tmp_path / "cache.snap")
            assert service.cache.all_entries() == entries
            for entry, memo, values in zip(entries, memos, before):
                assert entry.query._memo is memo
                assert memo.keys() == values.keys()
                assert all(memo[key] is value
                           for key, value in values.items())


# ----------------------------------------------------------------------
# (c) What counts as identical
# ----------------------------------------------------------------------
class SameRepr:
    """Labels that print alike and compare by value: equal features,
    different graphs to a matcher."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SameRepr) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return "SameRepr()"


def edge(a, b) -> LabeledGraph:
    return LabeledGraph.from_edges([a, b], [(0, 1)])


class TestWhatCountsAsIdentical:
    def test_labels_that_hash_alike_but_print_apart_do_not_intern(self):
        # 1 == 1.0 == True and they hash alike; GraphFeatures keys
        # labels by repr, so their features — and candidate pools — differ.
        kinds = [1, 1.0, True, "1"]
        assert len({repr(k) for k in kinds}) == 4
        store = GraphStore.from_graphs([edge(k, k) for k in kinds])
        with GraphCacheService(store, cache_capacity=20,
                               window_capacity=20) as service:
            for kind in kinds:
                result = service.execute(edge(kind, kind))
                assert not result.metrics.interned, kind
            index = service.cache.index
            for kind in kinds:
                resident = index.identical_resident(edge(kind, kind))
                assert resident is not None
                assert repr(resident.query.label(0)) == repr(kind)
                assert resident.features == GraphFeatures.of(edge(kind, kind))
                assert service.execute(edge(kind, kind)).metrics.interned
            audit(index)

    def test_equal_labels_from_different_objects_intern(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            service.execute(path("ab"))
            other = LabeledGraph.from_edges(
                ["".join(["a"]), "".join(["b"])], [(1, 0)])
            assert service.execute(other).metrics.interned

    def test_a_relabelling_is_a_twin_but_not_identical(self):
        with GraphCacheService(GraphStore.from_graphs(DATASET)) as service:
            service.execute(path("abc"))
            result = service.execute(path("cba"))
            assert result.metrics.exact_hits == 1
            assert not result.metrics.interned

    def test_labels_that_print_alike_but_differ_do_not_intern(self):
        one, two = SameRepr(1), SameRepr(2)
        store = GraphStore.from_graphs([edge(one, one), edge(two, two)])
        with GraphCacheService(store) as service:
            assert set(service.execute(edge(one, one)).answer) == {0}
            result = service.execute(edge(two, two))
            assert set(result.answer) == {1}
            assert not result.metrics.interned
            assert service.execute(edge(SameRepr(2),
                                        SameRepr(2))).metrics.interned
            audit(service.cache.index)

    def test_an_unpackable_resident_interns_through_the_fallback(self):
        # 70 leaves: past the per-label degree levels the packed
        # signature holds, so the entry lives in the unpacked population.
        star = LabeledGraph.from_edges(
            "a" * 71, [(0, leaf) for leaf in range(1, 71)])
        bigger = star.copy()
        bigger.add_edge(bigger.add_vertex("b"), 0)
        store = GraphStore.from_graphs([star, bigger, path("aa")])
        with GraphCacheService(store) as service:
            first = service.execute(star)
            index = service.cache.index
            assert len(index._oversized) == 1
            again = service.execute(rebuilt(star))
            assert again.metrics.interned
            assert again.metrics.exact_hit_valid
            assert again.metrics.method_tests == 0
            assert set(again.answer) == set(first.answer) == {0, 1}
            assert len(index._oversized) == 2   # filed next to its twin
            audit(index)
            assert set(service.execute(path("aa")).answer) == {0, 1, 2}


# ----------------------------------------------------------------------
# (d) Entries that share one graph
# ----------------------------------------------------------------------
def sharing_manager():
    """Three entries on one graph (ids 0, 1, 3) and one apart (2)."""
    store = GraphStore.from_graphs([path("CCO"), path("CO"), path("NNN")])
    manager = CacheManager(window_capacity=10, capacity=10)
    answer = 0b011
    first = manager.admit(path("CO"), answer, store, 0)
    copies = [first,
              manager.admit(path("CO"), answer, store, 1, same_as=first)]
    other = manager.admit(path("NN"), 0, store, 2)
    copies.append(manager.admit(path("CO"), answer, store, 3,
                                same_as=manager.index.identical_resident(
                                    path("CO"))))
    return store, manager, copies, other


class TestSharedGraphs:
    def test_admission_shares_graph_features_and_signature_group(self):
        _, manager, copies, other = sharing_manager()
        index = manager.index
        assert len({id(e.query) for e in copies}) == 1
        assert len({id(e.features) for e in copies}) == 1
        assert len({id(index._sigs[e.entry_id]) for e in copies}) == 1
        assert other.query is not copies[0].query
        assert index.identical_resident(path("CO")) is copies[0]
        audit(index)

    def test_entries_leave_one_by_one(self):
        _, manager, copies, other = sharing_manager()
        index = manager.index
        for gone, oldest_left in zip(copies, copies[1:] + [None]):
            index.remove(gone.entry_id)
            audit(index)
            assert index.identical_resident(path("CO")) is oldest_left
            assert index.identical_resident(path("NN")) is other
        assert [e.entry_id for e in index.candidate_subgraphs(
            GraphFeatures.of(path("CON")))] == []
        manager.clear()
        audit(index)
        assert index.identical_resident(path("NN")) is None
        assert not index._identical

    def test_renewal_drops_copies_and_keeps_the_shared_graph(self):
        store, manager, copies, _ = sharing_manager()
        graph = copies[0].query
        store.remove_edge(1, 0, 1)          # fades the positive toward G1
        manager.ensure_consistency(store)
        fresh = 0b001
        survivor = manager.admit(path("CO"), fresh, store, 9, twins=copies,
                                 same_as=copies[0])
        audit(manager.index)
        assert survivor is copies[0] and survivor.query is graph
        assert manager.renewals == 1 and manager.evictions == 2
        assert manager.index.identical_resident(path("CO")) is survivor
        assert [e.entry_id for e in manager.all_entries()] == [0, 2]

    def test_a_twin_evicted_before_admission_still_lends_its_graph(self):
        store, manager, copies, _ = sharing_manager()
        for entry in copies:
            manager.index.remove(entry.entry_id)
        entry = manager.admit(path("CO"), 0b011,
                              store, 9, same_as=copies[0])
        assert entry.query is copies[0].query
        assert manager.index.identical_resident(path("CO")) is entry
        audit(manager.index)

    def test_a_bare_index_files_identical_entries_together(self):
        _, _, copies, other = sharing_manager()
        index = QueryIndex()
        for entry in (*copies, other):
            index.add(entry)
            audit(index)
        # A fresh arrival and the residents' shared features (which
        # carry the memoised signature) find the same pools.
        for features in (GraphFeatures.of(path("CO")), copies[0].features):
            assert index.candidate_supergraphs(features) == copies
            assert index.candidate_subgraphs(features) == copies

    def test_snapshot_round_trip_keeps_answers_and_counts(self, tmp_path):
        config = GCConfig(model="CON", cache_capacity=6, window_capacity=3)
        snapshot = tmp_path / "interned.snap.jsonl"
        pool = [path("ab"), path("abc"), path("ca"), path("abcd")]
        stream = [pool[i % 3 if i % 5 else 3] for i in range(14)]

        def tail(service: GraphCacheService):
            rows = [(r.answer_ids, r.metrics.method_tests,
                     r.metrics.internal_tests, r.metrics.interned)
                    for r in map(service.execute, map(rebuilt, stream[:6]))]
            audit(service.cache.index)
            return rows, describe(service), work(service)[1][0]

        with GraphCacheService(GraphStore.from_graphs(DATASET),
                               config) as service:
            for query in stream:
                service.execute(rebuilt(query))
            assert service.counters()["interned_queries"] > 0
            entries = service.cache.all_entries()
            assert len({id(e.query) for e in entries}) < len(entries)
            state = describe(service)
            counters = service.counters()
            service.save(snapshot)
            expected = tail(service)
        with GraphCacheService(GraphStore.from_graphs(DATASET),
                               config) as restored:
            restored.load(snapshot)
            audit(restored.cache.index)
            assert describe(restored) == state
            # The monitor's tallies are the process's, not the cache's.
            rows, residents, after = tail(restored)
            assert (rows, residents) == expected[:2]
            for name in ("admissions", "evictions", "renewals"):
                assert after[name] == expected[2][name] - counters[name]

    def test_a_restored_cache_shares_graphs_as_the_saved_one(self, tmp_path):
        """Restore files each entry on the graph of the identical entry
        restored before it, as admission does, so a round trip keeps the
        number of distinct graph objects (one set of compiled plans per
        distinct query) — and changes no answer and no count."""
        config = GCConfig(model="CON", cache_capacity=6, window_capacity=3)
        snapshot = tmp_path / "shared.snap.jsonl"
        pool = [path("ab"), path("abc"), path("ca"), path("abcd")]
        stream = [pool[i % 3 if i % 5 else 3] for i in range(14)]

        def graphs(service: GraphCacheService):
            entries = service.cache.all_entries()
            return len(entries), len({id(e.query) for e in entries})

        def tail(service: GraphCacheService):
            rows = [(r.answer_ids, r.metrics.method_tests,
                     r.metrics.internal_tests, r.metrics.interned)
                    for r in map(service.execute, map(rebuilt, stream))]
            interned, (counters, method, internal) = work(service)
            return rows, graphs(service), method, internal

        def fresh() -> GraphCacheService:
            return GraphCacheService(GraphStore.from_graphs(DATASET), config)

        with fresh() as service:
            for query in stream:
                service.execute(rebuilt(query))
            saved = graphs(service)
            assert saved[1] < saved[0]
            service.save(snapshot)
            baseline = work(service)[1]
            expected = tail(service)
        with fresh() as restored:
            restored.load(snapshot)
            audit(restored.cache.index)
            assert graphs(restored) == saved
            index = restored.cache.index
            for entry in restored.cache.all_entries():
                resident = index.identical_resident(entry.query)
                assert entry.query is resident.query
                assert entry.features is resident.features
            rows, shared, method, internal = tail(restored)
        # The restored service's matchers start from zero.
        assert (rows, shared) == expected[:2]
        assert [b - a for a, b in zip(baseline[1], expected[2])] == \
            list(method)
        assert [b - a for a, b in zip(baseline[2], expected[3])] == \
            list(internal)

