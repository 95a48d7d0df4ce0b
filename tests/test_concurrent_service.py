"""Deterministic concurrency tests for the shared-cache serving layer.

Three tiers of scrutiny:

* **RWLock semantics** — shared readers, exclusive writer, write
  reentrancy, upgrade refusal: the primitives everything else trusts.
* **Barrier-driven interleavings** — 2-thread schedules forced through
  explicit barriers/events (never sleeps-as-synchronisation): both
  threads provably inside the read phase together, admissions racing at
  a window boundary, a purge blocked behind an in-flight query, and a
  dataset mutation landing in the read→write gap (the admission-skip
  path).
* **Whole-trace oracle runs** — seeded N-thread × M-query replays with
  interleaved ChangePlan mutations whose answers must equal an
  independent sequential replay per stream index (the acceptance run:
  8 threads × 500 Type B queries), with structural invariants asserted
  at every epoch barrier by the driver.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.util.rwlock import NullRWLock, RWLock
from repro.workloads.typeb import TypeBConfig, generate_type_b
from tests.concurrent_driver import (
    ConcurrentDriver,
    assert_quiescent_invariants,
    sequential_replay,
)


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
# RWLock semantics
# ----------------------------------------------------------------------
class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # deadlocks (→ timeout) unless shared

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order: list[str] = []
        writer_in = threading.Event()
        release_writer = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                release_writer.wait(5)
                order.append("writer done")

        def reader():
            writer_in.wait(5)
            with lock.read():
                order.append("reader ran")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        writer_in.wait(5)
        tr.start()
        # The reader must be parked behind the writer; let it prove it.
        release_writer.set()
        tw.join(timeout=10)
        tr.join(timeout=10)
        assert order == ["writer done", "reader ran"]

    def test_write_reentrant_for_owner(self):
        lock = RWLock()
        with lock.write():
            with lock.write():
                with lock.read():  # nested read inside write: no-op
                    pass
        # Fully released: another thread can acquire immediately.
        acquired = threading.Event()

        def prober():
            with lock.write():
                acquired.set()

        t = threading.Thread(target=prober)
        t.start()
        t.join(timeout=10)
        assert acquired.is_set()

    def test_write_held_read_survives_out_of_order_release(self):
        """Releasing a write-held read *after* the write lock must not
        corrupt the shared reader count (regression: it used to drive
        the count to -1, deadlocking every future writer)."""
        lock = RWLock()
        lock.acquire_write()
        lock.acquire_read()
        lock.release_write()
        lock.release_read()
        acquired = threading.Event()

        def prober():
            with lock.write():
                acquired.set()

        t = threading.Thread(target=prober)
        t.start()
        t.join(timeout=10)
        assert acquired.is_set()

    def test_upgrade_refused(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_unbalanced_release_refused(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_null_lock_is_inert(self):
        lock = NullRWLock()
        with lock.read(), lock.write():
            pass


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
        assert isinstance(service.cache.lock, NullRWLock)
        with service.session():
            assert isinstance(service.cache.lock, RWLock)
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
# Barrier-driven interleavings (explicit coordination, no sleeps)
# ----------------------------------------------------------------------
def _sync_discovery(service: GraphCacheService, barrier: threading.Barrier):
    """Make every pipeline rendezvous inside the read phase: discovery
    waits on ``barrier``, so all parties provably hold the read lock
    simultaneously before racing onward to admission."""
    original = service.discovery.discover

    def discover(*args):
        barrier.wait(timeout=10)
        return original(*args)

    service.discovery.discover = discover
    return original


class TestInterleavings:
    def test_two_thread_admission_promotes_exactly_once(self):
        """Two queries in-flight together at a window boundary: both
        read phases overlap (proven by the barrier), the two admissions
        serialise, the full window promotes exactly once, and the cache
        respects capacity."""
        service = small_service(window_capacity=2, cache_capacity=1)
        barrier = threading.Barrier(2, timeout=10)
        _sync_discovery(service, barrier)
        promotions: list = []
        evictions: list = []
        service.on_promotion(promotions.append)
        service.on_eviction(evictions.append)

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
        assert len(promotions) == 1
        assert len(promotions[0].entry_ids) == 2
        assert len(evictions) == 1
        assert service.cache.cache_size == 1
        assert service.cache.window_size == 0
        assert_quiescent_invariants(service)
        service.close()

    def test_purge_blocks_behind_in_flight_query(self):
        """`CacheManager.clear` while a query holds the read lock must
        serialise, not corrupt: the purge provably does not complete
        until the read phase releases."""
        service = small_service()
        service.execute(path("CO"))  # seed one entry

        entered = threading.Event()
        gate = threading.Event()
        original = service.discovery.discover

        def held_discover(*args):
            entered.set()
            assert gate.wait(timeout=10)
            return original(*args)

        service.discovery.discover = held_discover
        purge_done = threading.Event()

        def query_thread():
            service.execute(path("CN"))

        def purge_thread():
            service.purge()
            purge_done.set()

        tq = threading.Thread(target=query_thread)
        tq.start()
        assert entered.wait(timeout=10)
        tp = threading.Thread(target=purge_thread)
        tp.start()
        # Liveness probe: while the query holds the read lock the purge
        # must be parked on the write lock.
        assert not purge_done.wait(timeout=0.2)
        gate.set()
        tq.join(timeout=10)
        tp.join(timeout=10)
        assert purge_done.is_set()
        # Legal outcomes: purge before the query's admission (1 entry
        # left) or after it (0 entries).  Never a corrupted in-between.
        assert service.cache.cache_size + service.cache.window_size <= 1
        assert_quiescent_invariants(service)
        service.close()

    def test_admission_skipped_when_dataset_moves_in_the_gap(self):
        """A mutation landing between a query's read phase and its
        admission makes the computed entry stale; the pipeline must
        decline to cache it (answers are unaffected)."""
        service = small_service()
        store = service.store
        armed = {"on": False}

        class GapLock(RWLock):
            def acquire_write(self) -> None:
                if armed["on"]:
                    armed["on"] = False
                    # Simulates another client's ADD sneaking in just
                    # before this query's admission write-acquisition.
                    store.add_graph(path("CCO"))
                super().acquire_write()

        service.cache.lock = GapLock()
        armed["on"] = True
        result = service.execute(path("CO"))
        assert result.metrics.admission_skipped
        assert result.answer_ids == {0, 2, 4}  # pre-mutation answer
        assert service.cache.admissions == 0
        assert service.monitor.admissions_skipped == 1
        # The next query reconciles and caches normally again.
        follow_up = service.execute(path("CO"))
        assert not follow_up.metrics.admission_skipped
        assert follow_up.answer_ids == {0, 2, 4, 5}
        assert service.cache.admissions == 1
        assert_quiescent_invariants(service)
        service.close()

    def _faded_twin_then_gap(self, in_the_gap, **overrides):
        """One cached CO entry faded by a UA, then a repeat of CO whose
        read→write gap runs ``in_the_gap(service)`` — another client's
        work landing just before this query's admission."""
        service = small_service(**overrides)
        service.execute(path("CO"))
        service.add_edge(1, 0, 2)   # C-C-N gains C–N: CO's negative fades
        armed = {"on": False}

        class GapLock(RWLock):
            def acquire_write(self) -> None:
                if armed["on"]:
                    armed["on"] = False
                    in_the_gap(service)
                super().acquire_write()

        service.refresh()
        (twin,) = service.cache.all_entries()
        assert not twin.fully_valid(service.store.ids_bitset())
        service.cache.lock = GapLock()
        armed["on"] = True
        result = service.execute(path("CO"))
        assert result.metrics.exact_hits == 1
        assert result.answer_ids == {0, 2, 4}
        return service, twin, result

    def test_twin_evicted_in_the_gap_falls_back_to_admission(self):
        """The twins were collected under the read lock; one evicted
        before the write phase is ignored, and the query is admitted as
        a new entry instead of renewing a non-resident."""
        evicted: list = []

        def evict_the_twin(service):
            # Capacity 1, window 1, LRU: the other client's admission
            # promotes at once and trims the older entry — the twin.
            service.on_eviction(lambda e: evicted.extend(e.entry_ids))
            service.execute(path("CN"))

        service, twin, result = self._faded_twin_then_gap(
            evict_the_twin, cache_capacity=1, window_capacity=1,
            policy="lru")
        assert twin.entry_id in evicted
        assert not result.metrics.admission_skipped
        assert service.cache.renewals == 0
        assert service.cache.admissions == 3
        # The non-resident twin was left alone.
        assert not twin.fully_valid(service.store.ids_bitset())
        assert twin.entry_id not in service.cache.statistics
        assert_quiescent_invariants(service)
        service.close()

    def test_twin_renewed_by_another_session_in_the_gap(self):
        """Two sessions repeat the same faded query at once: the first
        to reach the write phase renews the twin, the second finds it
        fully valid and admits a copy — one renewal, never two."""
        service, twin, result = self._faded_twin_then_gap(
            lambda service: service.execute(path("CO")))
        assert not result.metrics.admission_skipped
        assert service.cache.renewals == 1
        assert service.cache.admissions == 2
        assert twin.fully_valid(service.store.ids_bitset())
        assert_quiescent_invariants(service)
        service.close()

    def test_moved_log_in_the_gap_still_skips_the_renewal(self):
        """The gap rule comes first: an answer computed against a
        superseded dataset state must not be written into the twin."""
        service, twin, result = self._faded_twin_then_gap(
            lambda service: service.store.add_graph(path("CCO")))
        assert result.metrics.admission_skipped
        assert service.cache.renewals == 0
        assert service.cache.admissions == 1
        assert not twin.valid.get(1)            # still faded, untouched
        # The next repeat reconciles, then renews against the new state.
        follow_up = service.execute(path("CO"))
        assert follow_up.answer_ids == {0, 2, 4, 5}
        assert service.cache.renewals == 1
        assert twin.fully_valid(service.store.ids_bitset())
        assert_quiescent_invariants(service)
        service.close()

    def test_identical_twin_evicted_in_the_gap_still_lends_its_graph(self):
        """A repeat runs as its resident twin; another client's
        admission evicts that twin between the repeat's read phase and
        its own admission.  Cached graphs are immutable, so the new
        entry still shares the evicted one's graph — and is filed in
        the index from scratch, its twin's signature group being gone."""
        # Window 2, capacity 1, LRU: the other client's admission fills
        # the window, both promote, and the older one — the twin — goes.
        service = small_service(cache_capacity=1, window_capacity=2,
                                policy="lru")
        service.execute(path("CO"))
        (twin,) = service.cache.all_entries()
        evicted: list = []
        service.on_eviction(lambda e: evicted.extend(e.entry_ids))
        armed = {"on": False}

        class GapLock(RWLock):
            def acquire_write(self) -> None:
                if armed["on"]:
                    armed["on"] = False
                    service.execute(path("CN"))
                super().acquire_write()

        service.cache.lock = GapLock()
        armed["on"] = True
        result = service.execute(path("CO"))
        assert result.metrics.interned and result.metrics.exact_hits == 1
        assert result.answer_ids == {0, 2, 4}
        assert twin.entry_id in evicted
        assert not result.metrics.admission_skipped
        index = service.cache.index
        entry = index.identical_resident(path("CO"))
        assert entry is not twin and entry.query is twin.query
        assert twin.entry_id not in service.cache.statistics
        assert_quiescent_invariants(service)
        follow_up = service.execute(path("CO"))
        assert follow_up.metrics.interned
        assert follow_up.metrics.method_tests == 0
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
        finally:
            service.close()
        assert outcome.answer_multiset() == oracle.answer_multiset()
        assert outcome.answers == oracle.answers
        assert outcome.applied_ops > 0, "the trace must mutate the dataset"

    def test_renewals_under_8_sessions_match_sequential_replay(self):
        """A churned stream (a mutation batch every ten queries) served
        by 8 sessions under a short switch interval: repeats renew
        faded twins concurrently — read-phase twin lists go stale,
        copies are dropped under other sessions' feet — and every
        per-index answer still equals the sequential replay's."""
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
        assert (counters["admissions"] + counters["renewals"]
                + counters["admissions_skipped"]) == counters["queries"]

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
        """The acceptance trace again, for what the read phase shares
        *besides* the cache: 8 sessions test the same dataset graphs
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
                service.caching_enabled = False
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
