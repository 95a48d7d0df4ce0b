"""GraphCacheService: sessions, batching, explain plans, shim."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GCConfig, GraphCacheService, QueryPlan
from repro.cache.entry import QueryType
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.vf2plus import VF2PlusMatcher
from repro.persist import load_snapshot
from tests.conftest import brute_force_answer
from tests.graph_helpers import random_labeled_graph
from tests.test_consistency import ALPHABET, random_change
from tests.test_interning import rebuilt
from tests.test_renewal import describe, relabelled
from tests.ullmann import UllmannMatcher


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


DATASET = [
    path("CCO"),
    path("CCCO"),
    path("CO"),
    LabeledGraph.from_edges("CCO", [(0, 1), (1, 2), (0, 2)]),
    path("NNN"),
]


@pytest.fixture
def store() -> GraphStore:
    return GraphStore.from_graphs(DATASET)


@pytest.fixture
def service(store) -> GraphCacheService:
    return GraphCacheService(
        store, GCConfig(cache_capacity=5, window_capacity=3)
    )


class TestSession:
    def test_answers_match_ground_truth(self, service, store):
        for q in (path("CO"), path("CC"), path("N"), path("XX")):
            result = service.execute(q)
            assert result.answer_ids == frozenset(
                brute_force_answer(store, q, QueryType.SUBGRAPH)
            )

    def test_context_manager_closes(self, store):
        with GraphCacheService(store) as service:
            service.execute(path("CO"))
        assert service.closed
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(path("CO"))
        with pytest.raises(RuntimeError, match="closed"):
            service.explain(path("CO"))
        with pytest.raises(RuntimeError, match="closed"):
            service.add_graph(path("CC"))

    def test_reentering_closed_session_rejected(self, store):
        service = GraphCacheService(store)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.__enter__()

    def test_overrides_via_kwargs(self, store):
        service = GraphCacheService(store, model="EVI", cache_capacity=7)
        assert service.cache.model.name == "EVI"
        assert service.cache.capacity == 7

    def test_matcher_instance_wins_over_config_name(self, store):
        matcher = VF2PlusMatcher()
        service = GraphCacheService(store, GCConfig(matcher="graphql"),
                                    matcher=matcher)
        assert service.matcher is matcher
        # the config reflects the effective matcher, so to_dict()
        # reconstructs the system that actually ran.
        assert service.config.matcher == "vf2+"
        rebuilt = GraphCacheService(store,
                                    GCConfig.from_dict(
                                        service.config.to_dict()))
        assert rebuilt.matcher.name == "vf2+"
        # An instance the registry cannot name still runs; the config
        # keeps the name it was given.
        oracle = UllmannMatcher()
        custom = GraphCacheService(store, GCConfig(matcher="graphql"),
                                   matcher=oracle)
        assert custom.matcher is oracle
        assert custom.config.matcher == "graphql"

    def test_repr(self, service):
        service.execute(path("CO"))
        assert "queries=1" in repr(service)
        service.close()
        assert "closed" in repr(service)


class TestExecuteMany:
    def test_exactly_one_consistency_pass_per_batch(self, service, store,
                                                    monkeypatch):
        passes = []
        original = service.cache.ensure_consistency
        monkeypatch.setattr(
            service.cache, "ensure_consistency",
            lambda s: passes.append(1) or original(s),
        )
        store.add_graph(path("CC"))  # pending change to reconcile
        results = service.execute_many(
            [path("CO"), path("CC"), path("CCO"), path("N")]
        )
        assert len(results) == 4
        assert len(passes) == 1

    def test_batch_reconciles_pending_changes(self, service, store):
        service.execute(path("CO"))
        new_id = store.add_graph(path("OC"))
        results = service.execute_many([path("CO"), path("CO")])
        assert new_id in results[0].answer_ids
        assert results[0].answer_ids == results[1].answer_ids

    def test_batch_answers_equal_per_query_execution(self, store):
        queries = [path("CO"), path("CC"), path("CCO"), path("CO")]
        batch = GraphCacheService(GraphStore.from_graphs(DATASET))
        single = GraphCacheService(GraphStore.from_graphs(DATASET))
        batched = batch.execute_many(queries)
        looped = [single.execute(q) for q in queries]
        assert ([r.answer_ids for r in batched]
                == [r.answer_ids for r in looped])

    def test_consistency_cost_lands_on_first_result(self, service, store):
        store.add_graph(path("CC"))
        service.execute(path("CO"))  # warm the cache so validation runs
        store.add_graph(path("CC"))
        first, second = service.execute_many([path("CO"), path("CO")])
        assert second.metrics.consistency_seconds == 0.0

    def test_empty_batch(self, service):
        assert service.execute_many([]) == []

    def test_mid_batch_mutation_is_still_consistent(self, service, store):
        """Batching must never trade correctness: a mutation smuggled in
        mid-batch (here via a generator side effect) re-triggers the
        consistency protocol instead of serving stale donations."""
        service.execute(path("CO"))  # G0 cached as an answer of CO

        def stream():
            yield path("CO")
            service.remove_edge(0, 1, 2)  # G0 loses its C-O edge
            yield path("CO")

        before, after = service.execute_many(stream())
        assert 0 in before.answer_ids
        assert 0 not in after.answer_ids
        assert after.answer_ids == frozenset(
            brute_force_answer(store, path("CO"), QueryType.SUBGRAPH)
        )

    def test_batch_accepts_generators(self, service):
        results = service.execute_many(path(s) for s in ("CO", "CC"))
        assert len(results) == 2


class TestExplain:
    def test_plan_reports_hits_and_formulas(self, service):
        service.execute(path("CCO"))
        plan = service.explain(path("CO"))
        assert isinstance(plan, QueryPlan)
        assert plan.is_hit
        assert len(plan.containing_hits) == 1
        assert plan.candidate_size == 5
        # the cached CCO entry answers {0, 1, 3} — all donated via (1).
        assert plan.test_free_answers == frozenset({0, 1, 3})
        assert plan.reduced_candidates == frozenset({2, 4})
        assert plan.tests_saved == 3
        assert any(step.formula.startswith("(1)") for step in plan.steps)
        assert "3 tests saved" in plan.describe()

    def test_zero_effect_hits_produce_no_steps(self, service, store):
        """A hit whose valid donations all faded stays in the hit lists
        but must not claim a '(1) ... 0 graph(s)' formula application."""
        service.execute(path("CO"))       # answers {0, 1, 2, 3}
        for gid in (0, 1, 2, 3):          # delete every answer graph
            store.delete_graph(gid)
        service.refresh()
        plan = service.explain(LabeledGraph.from_edges("C", []))
        assert len(plan.containing_hits) == 1  # still a discovered hit
        assert plan.test_free_answers == frozenset()
        assert all("(1)" not in step.formula for step in plan.steps)
        assert all(step.affected_ids for step in plan.steps)

    def test_exact_hit_plan(self, service):
        service.execute(path("CO"))
        plan = service.explain(path("CO"))
        assert plan.exact_hit
        assert plan.reduced_candidates == frozenset()
        assert "zero tests" in plan.describe()

    def test_explain_does_not_mutate_state(self, service, store):
        service.execute(path("CCO"))
        before = (
            service.cache.cache_size,
            service.cache.window_size,
            len(service.cache.index),
            len(service.cache.statistics),
            service.monitor.queries,
            service._query_counter,
            service.cache.admissions,
        )
        stats_before = {
            e.entry_id: service.cache.statistics.get(e.entry_id).tests_saved
            for e in service.cache.all_entries()
        }
        for _ in range(3):
            service.explain(path("CO"))
            service.explain(path("CCO"))
        after = (
            service.cache.cache_size,
            service.cache.window_size,
            len(service.cache.index),
            len(service.cache.statistics),
            service.monitor.queries,
            service._query_counter,
            service.cache.admissions,
        )
        assert before == after
        for e in service.cache.all_entries():
            assert (service.cache.statistics.get(e.entry_id).tests_saved
                    == stats_before[e.entry_id])

    def test_explain_does_not_consume_pending_changes(self, service, store):
        service.execute(path("CO"))
        store.add_graph(path("CC"))
        plan = service.explain(path("CO"))
        assert plan.pending_log_records == 1
        assert "pending validation" in plan.describe()
        # the real execution still reconciles the change afterwards.
        again = service.explain(path("CO"))
        assert again.pending_log_records == 1
        result = service.execute(path("CO"))
        assert result.metrics.method_tests == 1  # only the new graph
        assert service.explain(path("CO")).pending_log_records == 0

    def test_an_identical_arrival_is_planned_as_the_resident(
            self, service, monkeypatch):
        """As ``execute`` runs it: discovery sees the resident's graph."""
        service.execute(path("CCO"))
        (entry,) = service.cache.all_entries()
        searched = []
        discover = service.discovery.discover
        monkeypatch.setattr(
            service.discovery, "discover",
            lambda run, *rest: searched.append(run) or discover(run, *rest))
        query = path("CCO")
        plan = service.explain(query)
        assert [run is entry.query for run in searched] == [True]
        assert plan.exact_hit and plan.exact_hits == (entry.entry_id,)
        assert query._memo is None


def explain_then_execute(seed: int, config: GCConfig) -> int:
    """One seeded stream — repeats, relabelled twins, fresh queries,
    ADD/DEL/UA/UR in between — where every query is explained right
    before it executes, against the cache as it stands (``refresh()``
    first, so ``execute`` runs no consistency pass of its own).  The
    plan must be the one that runs, and explaining must change nothing.
    Returns how many of the queries ran interned."""
    rng = random.Random(seed)
    graphs = [random_labeled_graph(rng.randint(2, 7), 0.4, ALPHABET, rng)
              for _ in range(8)]
    pool = [random_labeled_graph(rng.randint(1, 5), 0.5, ALPHABET, rng)
            for _ in range(4)]
    store = GraphStore.from_graphs(graphs)
    interned = 0
    with GraphCacheService(store, config) as service:
        for step in range(40):
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
            service.refresh()
            before = (service.counters(), repr(service.summary()),
                      describe(service))
            plan = service.explain(query)
            assert query._memo is None
            assert (service.counters(), repr(service.summary()),
                    describe(service)) == before, f"seed={seed} step={step}"

            m = service.execute(query).metrics
            assert (plan.candidate_size, len(plan.containing_hits),
                    len(plan.contained_hits), len(plan.exact_hits),
                    plan.internal_tests, len(plan.reduced_candidates),
                    plan.tests_saved, plan.exact_hit, plan.empty_shortcut,
                    plan.pending_log_records) == (
                m.candidate_size, m.containing_hits, m.contained_hits,
                m.exact_hits, m.internal_tests, m.pruned_candidate_size,
                m.tests_saved, m.exact_hit_valid, m.empty_shortcut,
                0), f"seed={seed} step={step}"
            interned += m.interned
    return interned


@pytest.mark.parametrize("query_type", ["subgraph", "supergraph"])
@pytest.mark.parametrize("model", ["CON", "EVI"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_explain_is_the_plan_execute_runs(model, query_type, seed):
    explain_then_execute(seed, GCConfig(model=model, query_type=query_type,
                                        cache_capacity=6, window_capacity=3))


def test_the_explained_streams_do_intern():
    config = GCConfig(cache_capacity=6, window_capacity=3)
    assert sum(explain_then_execute(seed, config) for seed in range(5)) > 10


class TestMutationAPI:
    def test_passthroughs_log_to_store(self, service, store):
        gid = service.add_graph(path("COC"))
        service.add_edge(gid, 0, 2)
        service.remove_edge(gid, 0, 2)
        service.delete_graph(gid)
        assert store.log.last_seq == 4
        assert gid not in store

    def test_apply_change_plan(self, service, store):
        plan = ChangePlan.generate(DATASET, num_queries=10, num_batches=2,
                                   ops_per_batch=2, seed=7)
        applied = service.apply(plan, query_index=9)
        assert len(applied) == sum(len(b.intents) for b in plan.batches) == 4
        result = service.execute(path("CO"))
        assert result.answer_ids == frozenset(
            brute_force_answer(store, path("CO"), QueryType.SUBGRAPH)
        )

    def test_refresh_runs_consistency_now(self, service, store):
        service.execute(path("CO"))
        store.add_graph(path("CC"))
        report = service.refresh()
        assert report.dataset_changed
        assert service.cache.pending_log_records(store) == 0


class TestPurgeTiming:
    """Satellite: EVI purge time is reported as purge, not validation."""

    def test_report_fields(self, store):
        service = GraphCacheService(store, GCConfig(model="EVI"))
        service.execute(path("CO"))
        store.add_graph(path("CC"))
        report = service.cache.ensure_consistency(store)
        assert report.purged
        assert report.purge_seconds > 0.0
        assert report.validate_seconds == 0.0

    def test_metrics_and_monitor(self, store):
        service = GraphCacheService(store, GCConfig(model="EVI"))
        service.execute(path("CO"))
        store.add_graph(path("CC"))
        metrics = service.execute(path("CO")).metrics
        assert metrics.purge_seconds > 0.0
        assert metrics.validate_seconds == 0.0
        assert metrics.consistency_seconds == pytest.approx(
            metrics.purge_seconds
        )
        assert metrics.overhead_seconds >= metrics.purge_seconds
        assert service.summary()["avg_purge_ms"] > 0.0

    def test_con_reports_no_purge_time(self, service, store):
        service.execute(path("CO"))
        store.add_graph(path("CC"))
        metrics = service.execute(path("CO")).metrics
        assert metrics.purge_seconds == 0.0
        assert metrics.validate_seconds >= 0.0


@pytest.mark.usefixtures("lock_discipline")
class TestCloseLifecycle:
    """close() is idempotent and safe against in-flight autosaves."""

    def test_double_close_is_a_no_op(self, store):
        service = GraphCacheService(store)
        service.execute(path("CO"))
        service.close()
        service.close()   # must not raise, re-close sessions, or re-fire
        assert service.closed

    def test_close_from_two_threads_races_cleanly(self, store):
        import threading

        service = GraphCacheService(store)
        service.execute(path("CO"))
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def closer():
            barrier.wait()
            try:
                service.close()
            except BaseException as exc:  # noqa: BLE001 - recording
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert service.closed

    def test_close_waits_for_in_flight_autosave(self, store, tmp_path,
                                                monkeypatch):
        """An autosave mid-write when close() lands must finish its
        write before close() returns — no torn snapshot, no crash."""
        import threading

        import repro.api.service as service_module

        entered = threading.Event()
        release = threading.Event()
        finished = threading.Event()
        real_save = service_module.save_snapshot

        def blocking_save(target, snapshot):
            entered.set()
            assert release.wait(timeout=10.0), "close() never released us"
            result = real_save(target, snapshot)
            finished.set()
            return result

        monkeypatch.setattr(service_module, "save_snapshot", blocking_save)
        snap = tmp_path / "auto.snap.jsonl"
        service = GraphCacheService(store)
        service.autosave(snap, 1)
        # One admission (window insert) trips the autosave, which runs
        # on the querying thread once it released the service lock; do
        # it from a helper thread so the main thread can close() mid-save.
        query_thread = threading.Thread(
            target=service.execute, args=(path("CO"),))
        query_thread.start()
        assert entered.wait(timeout=10.0), "autosave never started"

        close_done = threading.Event()

        def closer():
            service.close()
            close_done.set()

        close_thread = threading.Thread(target=closer)
        close_thread.start()
        # close() must be parked on the save lock, not finished.
        assert not close_done.wait(timeout=0.3)
        release.set()
        close_thread.join(timeout=10.0)
        query_thread.join(timeout=10.0)
        assert close_done.is_set()
        assert finished.is_set(), "close() returned before the save wrote"
        assert service.closed
        # The snapshot the autosave was writing is on disk and valid.
        snapshot = load_snapshot(snap)
        assert len(snapshot.state.window) + len(snapshot.state.cache) == 1

    def test_save_allowed_after_close(self, store, tmp_path):
        service = GraphCacheService(store)
        service.execute(path("CO"))
        service.close()
        target = service.save(tmp_path / "late.snap.jsonl")
        assert load_snapshot(target).query_counter == 1

    def test_queries_refused_after_close(self, store):
        service = GraphCacheService(store)
        service.close()
        with pytest.raises(RuntimeError):
            service.execute(path("CO"))
