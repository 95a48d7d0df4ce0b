"""Regression tests for the cache-bookkeeping fixes.

* manual purge advances the consistency cursor (no spurious pass);
* the §6.3 optimal-case checks test validity against the *live* id set,
  not whatever candidate set the caller happened to pass;
* ``EntryStats.last_used`` recency semantics (admission counts as the
  first use) are what the LRU policy actually consumes.
"""

from __future__ import annotations

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import NOOP_CONSISTENCY, CacheManager
from repro.cache.replacement import LRUPolicy
from repro.cache.statistics import EntryStats, StatisticsManager
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.runtime.processors import DiscoveryResult
from repro.runtime.pruner import prune_candidate_set
from tests.conftest import id_mask


def two_graph_store() -> GraphStore:
    return GraphStore.from_graphs([
        LabeledGraph.from_edges("CCO", [(0, 1), (1, 2)]),
        LabeledGraph.from_edges("CO", [(0, 1)]),
    ])


class TestManualPurgeCursor:
    @pytest.mark.parametrize("model", ["EVI", "CON"])
    def test_purge_reflects_pending_changes(self, model):
        store = two_graph_store()
        with GraphCacheService(store, GCConfig(model=model)) as service:
            service.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
            service.add_graph(LabeledGraph.from_edges("CC", [(0, 1)]))
            assert service.cache.pending_log_records(store) == 1
            service.purge()
            # The purge counts as having reflected the logged change:
            # nothing is pending, the next consistency pass is a no-op.
            assert service.cache.pending_log_records(store) == 0
            assert service.refresh() is NOOP_CONSISTENCY

    def test_no_spurious_pass_after_manual_purge(self):
        """Pre-fix, the first query after a manual purge re-ran the EVI
        purge on the already-empty cache and reported ``purged=True``,
        polluting the Figure-6 overhead breakdown."""
        store = two_graph_store()
        with GraphCacheService(store, GCConfig(model="EVI")) as service:
            service.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
            service.add_graph(LabeledGraph.from_edges("CC", [(0, 1)]))
            service.purge()
            result = service.execute(
                LabeledGraph.from_edges("CO", [(0, 1)]))
            assert result.metrics.purge_seconds == 0.0
            assert service.monitor.purge_seconds == 0.0

    def test_manager_clear_without_store_keeps_cursor(self):
        """The no-argument form stays available (the EVI protocol purges
        through it and advances the cursor itself)."""
        store = two_graph_store()
        manager = CacheManager()
        manager.admit(LabeledGraph.from_edges("CO", [(0, 1)]),
                      0, store, 0)
        store.add_graph(LabeledGraph.from_edges("CC", [(0, 1)]))
        manager.clear()
        assert manager.pending_log_records(store) == 1
        manager.clear(store)
        assert manager.pending_log_records(store) == 0

    def test_purge_counts_and_empties_cache(self):
        store = two_graph_store()
        with GraphCacheService(store, GCConfig()) as service:
            service.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
            assert service.counters()["purges"] == 0
            service.purge()
            assert service.cache.cache_size == 0
            assert service.cache.window_size == 0
            assert service.counters()["purges"] == 1


class TestPrunerLiveIds:
    """§6.3: "fully valid" means valid towards *all* graphs in the
    current dataset — not merely the candidate set Method M considers."""

    def _exact_entry(self, valid_ids, answer_ids) -> CacheEntry:
        g = LabeledGraph.from_edges("CO", [(0, 1)])
        return CacheEntry(
            entry_id=0, query=g, query_type=QueryType.SUBGRAPH,
            answer=id_mask(answer_ids),
            valid=id_mask(valid_ids),
            created_at=0,
        )

    def test_exact_hit_not_reported_when_validity_lags_live_set(self):
        # Entry is valid on {0, 1} but the live dataset is {0, 1, 2}.
        entry = self._exact_entry(valid_ids=[0, 1], answer_ids=[0])
        discovery = DiscoveryResult(containing=[entry], contained=[entry],
                                    exact=[entry])
        live = id_mask([0, 1, 2])
        narrowed = id_mask([0, 1])
        # A narrowed candidate set must not fool the optimal-case check.
        outcome = prune_candidate_set(QueryType.SUBGRAPH, narrowed,
                                      discovery, 4, live_ids=live)
        assert not outcome.exact_hit

    def test_exact_hit_reported_when_fully_valid_on_live_set(self):
        entry = self._exact_entry(valid_ids=[0, 1, 2], answer_ids=[0])
        discovery = DiscoveryResult(containing=[entry], contained=[entry],
                                    exact=[entry])
        live = id_mask([0, 1, 2])
        outcome = prune_candidate_set(QueryType.SUBGRAPH, live,
                                      discovery, 4, live_ids=live)
        assert outcome.exact_hit

    def test_empty_shortcut_uses_live_ids(self):
        entry = self._exact_entry(valid_ids=[0, 1], answer_ids=[])
        discovery = DiscoveryResult(contained=[entry])
        live = id_mask([0, 1, 2])
        narrowed = id_mask([0, 1])
        outcome = prune_candidate_set(QueryType.SUBGRAPH, narrowed,
                                      discovery, 4, live_ids=live)
        assert not outcome.empty_shortcut
        # Without live_ids the check falls back to cs_m (exact for SI
        # methods, whose CS_M is the whole live dataset) — test-locking
        # the documented default.
        outcome = prune_candidate_set(QueryType.SUBGRAPH, narrowed,
                                      discovery, 4)
        assert outcome.empty_shortcut


class TestGraphStoreFeaturesMemo:
    """What a dataset graph's memo (:meth:`LabeledGraph.derived`) holds
    — features here, a matcher's host tables on the query path — lasts
    until a store mutation of that graph."""

    @staticmethod
    def features(store, graph_id):
        return store.get(graph_id).derived("features", GraphFeatures.of)

    def test_memo_returns_same_instance_until_mutation(self):
        store = two_graph_store()
        first = self.features(store, 0)
        assert first.num_vertices == 3
        assert self.features(store, 0) is first  # memoized
        store.add_edge(0, 0, 2)  # UA bumps the graph's version
        refreshed = self.features(store, 0)
        assert refreshed is not first
        assert refreshed.num_edges == 3

    def test_edge_removal_invalidates(self):
        store = two_graph_store()
        before = self.features(store, 0)
        store.remove_edge(0, 1, 2)
        assert self.features(store, 0).num_edges == before.num_edges - 1

    def test_delete_drops_memo_and_raises(self):
        store = two_graph_store()
        self.features(store, 1)
        store.delete_graph(1)
        with pytest.raises(KeyError):
            self.features(store, 1)

    def test_matches_direct_computation(self):
        store = two_graph_store()
        assert self.features(store, 1) == GraphFeatures.of(store.get(1))


class TestLRURecencySemantics:
    def test_register_seeds_last_used_with_created_at(self):
        stats = StatisticsManager()
        stats.register(1, created_at=17)
        assert stats.get(1).last_used == 17
        assert stats.get(1).created_at == 17

    def test_bare_entry_stats_keeps_never_used_sentinel(self):
        assert EntryStats().last_used == -1

    def test_zero_credit_does_not_touch_recency(self):
        stats = StatisticsManager()
        stats.register(1, created_at=3)
        stats.credit(1, tests_saved=0, cost_saved=0.0, query_index=9)
        assert stats.get(1).last_used == 3
        assert stats.get(1).hits == 0

    def test_contribution_refreshes_recency(self):
        stats = StatisticsManager()
        stats.register(1, created_at=3)
        stats.credit(1, tests_saved=2, cost_saved=1.0, query_index=9)
        assert stats.get(1).last_used == 9
        assert stats.get(1).hits == 1

    def test_lru_prefers_evicting_stale_over_fresh_admission(self):
        """Admission-as-first-use: a brand-new entry outranks an old
        entry that never contributed since its own admission."""
        stats = StatisticsManager()
        stats.register(0, created_at=0)   # old, never used again
        stats.register(1, created_at=50)  # freshly admitted
        g = LabeledGraph.from_edges("CO", [(0, 1)])
        entries = [
            CacheEntry(0, g, QueryType.SUBGRAPH, 0, 0, 0),
            CacheEntry(1, g, QueryType.SUBGRAPH, 0, 0, 50),
        ]
        victims = LRUPolicy().select_victims(entries, stats, capacity=1)
        assert [v.entry_id for v in victims] == [0]


class TestHDRegimeTallies:
    """HybridPolicy's pin/pinc round counters reset on purge and are
    surfaced through the service summary (and therefore RunResult)."""

    @staticmethod
    def churn(service, n):
        for k in range(n):
            service.execute(LabeledGraph.from_edges(
                "C" * (k + 2), [(i, i + 1) for i in range(k + 1)]))

    def test_rounds_reset_on_purge(self):
        store = two_graph_store()
        config = GCConfig(model="CON", cache_capacity=1, window_capacity=1)
        with GraphCacheService(store, config) as svc:
            self.churn(svc, 3)
            policy = svc.cache.policy
            assert policy.pin_rounds + policy.pinc_rounds > 0
            svc.purge()
            assert policy.pin_rounds == 0
            assert policy.pinc_rounds == 0

    def test_summary_surfaces_hd_rounds(self):
        store = two_graph_store()
        config = GCConfig(model="CON", cache_capacity=1, window_capacity=1)
        with GraphCacheService(store, config) as svc:
            self.churn(svc, 3)
            summary = svc.summary()
            assert summary["hd_pin_rounds"] == svc.cache.policy.pin_rounds
            assert summary["hd_pinc_rounds"] == svc.cache.policy.pinc_rounds
            assert summary["hd_pin_rounds"] + summary["hd_pinc_rounds"] > 0

    def test_non_hd_policies_carry_no_regime_keys(self):
        store = two_graph_store()
        with GraphCacheService(store, GCConfig(model="CON",
                                               policy="pin")) as svc:
            svc.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
            summary = svc.summary()
            assert "hd_pin_rounds" not in summary
            assert "hd_pinc_rounds" not in summary
