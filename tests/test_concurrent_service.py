"""Deterministic concurrency tests for the shared-cache serving layer.

Two tiers of scrutiny:

* **Event-driven interleavings** — 2-thread schedules forced through
  explicit events (never sleeps-as-synchronisation): admissions racing
  at a window boundary, and a purge or a dataset mutation issued while
  a query holds the service lock, which must land after that query's
  admission.
* **Whole-trace oracle runs** — seeded N-thread × M-query replays with
  interleaved ChangePlan mutations whose answers must equal an
  independent sequential replay per stream index (the acceptance run:
  8 threads × 500 Type B queries), with structural invariants asserted
  at every epoch barrier by the driver.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.workloads.typeb import TypeBConfig, generate_type_b
from tests.concurrent_driver import (
    ConcurrentDriver,
    assert_quiescent_invariants,
    sequential_replay,
)

#: GC110 / GC111 hold over every test here (tests/lockdep.py).
pytestmark = pytest.mark.usefixtures("lock_discipline")


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        labels, [(i, i + 1) for i in range(len(labels) - 1)]
    )


DATASET = [path("CCO"), path("CCN"), path("CO"), path("CN"), path("CCON")]


def small_service(**overrides) -> GraphCacheService:
    defaults = dict(lock_mode="rw", max_sessions=8)
    defaults.update(overrides)
    return GraphCacheService(GraphStore.from_graphs(DATASET),
                             GCConfig(**defaults))


# ----------------------------------------------------------------------
# Session surface
# ----------------------------------------------------------------------
class TestSessions:
    def test_sessions_share_one_cache(self):
        service = small_service()
        with service.session() as a, service.session() as b:
            a.execute(path("CO"))
            b.execute(path("CO"))
            # Second execution hit the first session's cached entry.
            assert service.cache.admissions == 2
            assert service.monitor.queries == 2
        service.close()

    def test_max_sessions_enforced_and_slot_freed(self):
        service = small_service(max_sessions=1)
        first = service.session()
        with pytest.raises(RuntimeError, match="max_sessions"):
            service.session()
        first.close()
        with service.session():
            pass  # slot freed
        service.close()

    def test_auto_mode_upgrades_lock_on_first_session(self):
        service = small_service(lock_mode="auto")
        assert isinstance(service._lock, contextlib.nullcontext)
        with service.session():
            assert isinstance(service._lock, type(threading.Lock()))
        service.close()

    def test_closing_service_closes_sessions(self):
        service = small_service()
        session = service.session()
        service.close()
        assert session.closed
        with pytest.raises(RuntimeError):
            session.execute(path("CO"))

    def test_closed_session_refuses_queries(self):
        service = small_service()
        session = service.session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.execute(path("CO"))
        assert service.open_sessions == 0
        service.close()


# ----------------------------------------------------------------------
# Event-driven interleavings (explicit coordination, no sleeps)
# ----------------------------------------------------------------------
def _pause_discovery(service: GraphCacheService):
    """Make the next query stop inside ``discovery.discover`` — that is,
    while it holds the service lock — until the returned ``gate`` is
    set; ``entered`` is set once it got there."""
    entered, gate = threading.Event(), threading.Event()
    original = service.discovery.discover

    def held_discover(*args):
        entered.set()
        assert gate.wait(timeout=10)
        return original(*args)

    service.discovery.discover = held_discover
    return entered, gate


class TestInterleavings:
    def test_two_thread_admission_promotes_exactly_once(self):
        """Two queries in flight together at a window boundary: the two
        admissions serialise, the full window promotes exactly once, and
        the cache respects capacity."""
        service = small_service(window_capacity=2, cache_capacity=1)

        results: dict[str, frozenset] = {}

        def run(name: str, query: LabeledGraph, session) -> None:
            results[name] = frozenset(session.execute(query).answer_ids)

        with service.session() as sa, service.session() as sb:
            ta = threading.Thread(target=run, args=("a", path("CO"), sa))
            tb = threading.Thread(target=run, args=("b", path("CN"), sb))
            ta.start()
            tb.start()
            ta.join(timeout=10)
            tb.join(timeout=10)
        assert not (ta.is_alive() or tb.is_alive()), "deadlocked pipeline"

        assert results["a"] == {0, 2, 4}
        assert results["b"] == {1, 3}
        # Both admissions landed; the filled window promoted once and the
        # replacement policy trimmed the cache back to capacity.
        assert service.cache.admissions == 2
        assert service.cache.evictions == 1
        assert service.cache.cache_size == 1
        assert service.cache.window_size == 0
        assert_quiescent_invariants(service)
        service.close()

    def test_purge_blocks_behind_in_flight_query(self):
        """A purge issued while a query holds the service lock waits for
        the whole query, admission included, so it leaves an empty
        cache."""
        service = small_service()
        service.execute(path("CO"))  # seed one entry
        entered, gate = _pause_discovery(service)
        purge_done = threading.Event()

        def purge_thread():
            service.purge()
            purge_done.set()

        tq = threading.Thread(target=service.execute, args=(path("CN"),))
        tq.start()
        assert entered.wait(timeout=10)
        tp = threading.Thread(target=purge_thread)
        tp.start()
        # Liveness probe: while the query holds the lock the purge must
        # be parked on it.
        assert not purge_done.wait(timeout=0.2)
        gate.set()
        tq.join(timeout=10)
        tp.join(timeout=10)
        assert not (tq.is_alive() or tp.is_alive()), "deadlocked pipeline"
        assert purge_done.is_set()
        assert service.cache.admissions == 2
        assert service.cache.cache_size + service.cache.window_size == 0
        assert_quiescent_invariants(service)
        service.close()

    def test_mutation_lands_after_the_in_flight_admission(self):
        """A DEL issued while a query is paused in discovery returns only
        after that query's admission: the query is admitted, against the
        dataset it was answered on, and nothing is skipped."""
        service = small_service()
        before = service.counters()
        entered, gate = _pause_discovery(service)
        seen_by_delete: list[int] = []

        def delete_thread():
            service.delete_graph(4)
            seen_by_delete.append(service.counters()["admissions"])

        td = threading.Thread(target=delete_thread)

        class Query(LabeledGraph):
            __slots__ = ()

            def move_derived(self, copy: LabeledGraph) -> None:
                # Admission handing the query's plans to its new entry,
                # after the answer, gives the waiting DEL every chance
                # to run: a design that let go of the cache there would
                # let it finish.
                super().move_derived(copy)
                td.join(timeout=0.1)

        query = Query.from_edges("CO", [(0, 1)])
        results: list = []
        tq = threading.Thread(
            target=lambda: results.append(service.execute(query)))
        tq.start()
        assert entered.wait(timeout=10)
        td.start()
        td.join(timeout=0.2)
        assert td.is_alive()   # parked on the service lock
        gate.set()
        tq.join(timeout=10)
        td.join(timeout=10)
        assert not (tq.is_alive() or td.is_alive()), "deadlocked pipeline"

        # The delete returned after the admission had happened.
        assert seen_by_delete == [before["admissions"] + 1]
        (result,) = results
        assert result.answer_ids == {0, 2, 4}   # answered before the DEL
        after = service.counters()
        assert after["admissions"] == before["admissions"] + 1
        assert after["queries"] == after["admissions"] + after["renewals"]
        (entry,) = service.cache.all_entries()
        assert entry.created_at == 0
        assert entry.valid >> 4 & 1        # CGvalid taken before the DEL
        follow_up = service.execute(path("CO"))
        assert follow_up.answer_ids == {0, 2}
        assert_quiescent_invariants(service)
        service.close()


# ----------------------------------------------------------------------
# Whole-trace oracle runs
# ----------------------------------------------------------------------
def _trace(num_graphs: int, num_queries: int, *, dataset_seed: int,
           workload_seed: int, plan_seed: int, num_batches: int):
    graphs = generate_aids_like(
        num_graphs=num_graphs, mean_vertices=7.0, std_vertices=2.5,
        max_vertices=12, seed=dataset_seed,
    )
    workload = generate_type_b(graphs, TypeBConfig(
        num_queries=num_queries, no_answer_probability=0.2,
        answer_pool_size=max(num_queries // 5, 10),
        no_answer_pool_size=max(num_queries // 20, 5),
        seed=workload_seed,
    ))
    queries = [q.graph for q in workload.queries]
    plan = ChangePlan.generate(graphs, num_queries=num_queries,
                               num_batches=num_batches, ops_per_batch=6,
                               seed=plan_seed)
    return graphs, queries, plan


class TestOracleRuns:
    @pytest.mark.parametrize("threads,model", [(2, "CON"), (4, "CON"),
                                               (4, "EVI")])
    def test_threaded_runs_match_sequential_replay(self, threads, model):
        graphs, queries, plan = _trace(
            60, 80, dataset_seed=101, workload_seed=202, plan_seed=303,
            num_batches=4,
        )
        oracle = sequential_replay(graphs, queries, plan,
                                   GCConfig(model=model))
        service = GraphCacheService(
            GraphStore.from_graphs(graphs),
            GCConfig(model=model, lock_mode="rw", max_sessions=threads),
        )
        try:
            outcome = ConcurrentDriver(service, threads).run(queries, plan)
            assert_quiescent_invariants(service)
        finally:
            service.close()
        assert outcome.answers == oracle.answers  # per stream index
        assert outcome.answer_multiset() == oracle.answer_multiset()
        assert outcome.applied_ops == oracle.applied_ops

    def test_acceptance_8_threads_500_type_b_queries(self):
        """The acceptance trace: 500-query Type B workload, interleaved
        mutations, 8 threads — answer multiset (and in fact every
        per-index answer) identical to a sequential replay."""
        graphs, queries, plan = _trace(
            120, 500, dataset_seed=2017, workload_seed=424242,
            plan_seed=77, num_batches=6,
        )
        oracle = sequential_replay(graphs, queries, plan, GCConfig())
        service = GraphCacheService(
            GraphStore.from_graphs(graphs),
            GCConfig(lock_mode="rw", max_sessions=8),
        )
        try:
            outcome = ConcurrentDriver(service, 8).run(queries, plan)
            assert_quiescent_invariants(service)
            # Every matcher call runs under the service lock, so the
            # matcher's own tally is exact under 8 sessions.
            assert (service.matcher.stats.tests
                    == service.counters()["method_tests"])
        finally:
            service.close()
        assert outcome.answer_multiset() == oracle.answer_multiset()
        assert outcome.answers == oracle.answers
        assert outcome.applied_ops > 0, "the trace must mutate the dataset"

    def test_renewals_under_8_sessions_match_sequential_replay(self):
        """A churned stream (a mutation batch every ten queries) served
        by 8 sessions under a short switch interval: repeats of faded
        queries from different sessions interleave, renewing twins and
        dropping copies, and every per-index answer still equals the
        sequential replay's."""
        graphs, queries, plan = _trace(
            120, 400, dataset_seed=2017, workload_seed=1919,
            plan_seed=38, num_batches=40,
        )
        oracle = sequential_replay(graphs, queries, plan, GCConfig())
        service = GraphCacheService(
            GraphStore.from_graphs(graphs),
            GCConfig(lock_mode="rw", max_sessions=8),
        )
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            outcome = ConcurrentDriver(service, 8).run(queries, plan)
            assert_quiescent_invariants(service)
            counters = service.counters()
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert outcome.answers == oracle.answers
        assert outcome.applied_ops > 0
        assert counters["renewals"] > 0, "the trace must exercise renewal"
        # One lock per query: every query is admitted or renews a twin.
        assert (counters["admissions"]
                + counters["renewals"]) == counters["queries"]

    def test_interning_under_8_sessions_matches_sequential_replay(self):
        """The churned trace again, every arrival a new object (as over
        HTTP): 8 sessions resolve arrivals against the structural map
        while admissions, evictions and renewals rewrite it, run them
        on residents' graphs — reading and filling one memo as pattern
        and as host at once — and share those graphs between entries.
        Per-index answers equal the sequential replay's."""
        graphs, queries, plan = _trace(
            120, 400, dataset_seed=2017, workload_seed=1919,
            plan_seed=38, num_batches=40,
        )
        queries = [LabeledGraph.from_edges(q.labels, sorted(q.edges()))
                   for q in queries]
        oracle = sequential_replay(graphs, queries, plan, GCConfig())
        service = GraphCacheService(
            GraphStore.from_graphs(graphs),
            GCConfig(lock_mode="rw", max_sessions=8),
        )
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            outcome = ConcurrentDriver(service, 8).run(queries, plan)
            assert_quiescent_invariants(service)
            counters = service.counters()
            entries = service.cache.all_entries()
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert outcome.answers == oracle.answers
        assert outcome.applied_ops > 0
        assert counters["interned_queries"] > 0
        assert len({id(e.query) for e in entries}) < len(entries), (
            "the trace must leave entries that share a graph")
        assert all(q._memo is None for q in queries)

    def test_shared_graph_memos_keep_sequential_test_counts(self):
        """The acceptance trace again, for what queries share *besides*
        the cache: 8 sessions test the same dataset graphs
        against the same cached entries at once, each publishing label
        counts and matcher plans on them that the others then read,
        while mutation batches drop them in between.  With admission
        switched off after a sequential warm-up the cached population is
        fixed, so the sub-iso test counts — not only the answers — are
        schedule-independent and must be the one-session run's."""
        graphs, queries, plan = _trace(
            120, 500, dataset_seed=2017, workload_seed=424242,
            plan_seed=77, num_batches=6,
        )
        counted = ("queries", "method_tests", "internal_tests",
                   "tests_saved", "cache_hits")

        def one_run(threads: int):
            service = GraphCacheService(
                GraphStore.from_graphs(graphs),
                GCConfig(lock_mode="rw", max_sessions=8),
            )
            interval = sys.getswitchinterval()
            try:
                for query in queries[:60]:
                    service.execute(query)
                # Freeze the cached population: admit nothing more.
                service.cache.admit = lambda *args, **kwargs: None
                before = service.counters()
                sys.setswitchinterval(1e-5)  # many more interleavings
                outcome = ConcurrentDriver(service, threads).run(queries,
                                                                 plan)
                after = service.counters()
            finally:
                sys.setswitchinterval(interval)
                service.close()
            assert outcome.applied_ops > 0
            return outcome.answers, {name: after[name] - before[name]
                                     for name in counted}

        answers, counts = one_run(8)
        assert counts["cache_hits"] > 0 and counts["internal_tests"] > 0
        assert (answers, counts) == one_run(1)

    def test_driver_is_repeatable(self):
        """Same trace, two driver runs on fresh services: identical
        answers (schedule nondeterminism never leaks into results)."""
        graphs, queries, plan = _trace(
            40, 60, dataset_seed=9, workload_seed=8, plan_seed=7,
            num_batches=3,
        )

        def one_run():
            service = GraphCacheService(
                GraphStore.from_graphs(graphs),
                GCConfig(lock_mode="rw", max_sessions=4),
            )
            try:
                return ConcurrentDriver(service, 4).run(queries, plan)
            finally:
                service.close()

        assert one_run().answers == one_run().answers
