"""Snapshot & warm-start persistence (``repro.persist``).

The headline property: a service restored from a mid-trace snapshot is
*indistinguishable* from the uninterrupted service for the remainder of
the trace — bit-identical answers, the same per-query test counts and
hit anatomy, the same cache population after every query.  Plus: codec
validation, config-fingerprint rejection, restore-after-mutation
reconciliation (CON revalidates, EVI purges), window FIFO preservation,
and autosaving.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.statistics import EntryStats
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.persist import (
    FINGERPRINT_FIELDS,
    CacheState,
    EntryRecord,
    Snapshot,
    SnapshotFormatError,
    SnapshotMismatchError,
    config_fingerprint,
    decode_snapshot,
    encode_snapshot,
    load_snapshot,
)
from repro.util.bits import bit_ids
from repro.workloads.typeb import TypeBConfig, generate_type_b

#: GC110 / GC111 hold over every test here (tests/lockdep.py).
pytestmark = pytest.mark.usefixtures("lock_discipline")

NUM_QUERIES = 60

CONFIG = GCConfig(model="CON", cache_capacity=10, window_capacity=4)


@pytest.fixture(scope="module")
def trace():
    """A small but busy trace: Zipf-repeating Type B queries (so the
    cache hits, credits and evicts) over an evolving dataset."""
    graphs = generate_aids_like(num_graphs=40, mean_vertices=8.0,
                                std_vertices=3.0, max_vertices=14, seed=11)
    workload = generate_type_b(graphs, TypeBConfig(
        num_queries=NUM_QUERIES, no_answer_probability=0.2,
        answer_pool_size=25, no_answer_pool_size=8, seed=5,
    ))
    queries = [q.graph for q in workload.queries]
    plan = ChangePlan.generate(graphs, num_queries=NUM_QUERIES,
                               num_batches=3, ops_per_batch=4, seed=7)
    return graphs, queries, plan


def run_span(service, queries, plan, start, stop):
    """Execute queries ``start..stop`` (applying due mutations), returning
    one observation row per query."""
    rows = []
    for i in range(start, stop):
        if plan is not None:
            service.apply(plan, i)
        result = service.execute(queries[i])
        m = result.metrics
        rows.append((frozenset(result.answer), m.method_tests,
                     m.containing_hits, m.contained_hits, m.exact_hits,
                     m.tests_saved))
    return rows


def population(service):
    """(sorted cache ids, window ids in FIFO order)."""
    cache = service.cache
    return (sorted(cache._cache), [e.entry_id
                                   for e in cache.window.entries()])


def trajectory(service, queries, plan, start, stop):
    """:func:`run_span`, plus the :func:`population` after each query:
    every promotion and eviction shows in it."""
    rows, populations = [], []
    for i in range(start, stop):
        rows += run_span(service, queries, plan, i, i + 1)
        populations.append(population(service))
    return rows, populations


class TestMidTraceRoundTrip:
    """Save mid-trace, restore in a fresh process-equivalent service,
    replay the remainder: everything matches the uninterrupted run."""

    @pytest.mark.parametrize("model,cut", [
        ("CON", 7),              # cut inside the first window
        ("CON", NUM_QUERIES // 2),
        ("CON", NUM_QUERIES - 1),
        ("EVI", NUM_QUERIES // 2),
    ])
    def test_restored_run_matches_uninterrupted(self, trace, tmp_path,
                                                model, cut):
        graphs, queries, plan = trace
        config = CONFIG.replace(model=model)

        # Reference: one uninterrupted run over the whole trace.  Each
        # run takes a rewound copy of the plan (cursor 0, fresh draws).
        plan = dataclasses.replace(plan)
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               config) as reference:
            head = run_span(reference, queries, plan, 0, cut)
            tail, expected_trajectory = trajectory(reference, queries, plan,
                                                   cut, NUM_QUERIES)
            expected_population = population(reference)
        del head  # only the suffix is compared; the head anchors the cut

        # Interrupted run: execute the head, snapshot, tear down.
        snapshot_path = tmp_path / f"{model}-{cut}.snap.jsonl"
        plan = dataclasses.replace(plan)
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               config) as interrupted:
            run_span(interrupted, queries, plan, 0, cut)
            interrupted.save(snapshot_path)

        # Process-equivalent restart: a fresh store replayed to the cut
        # (the dataset is durable in a real deployment; the snapshot
        # only carries *derived* state), a fresh service, restore.
        store = GraphStore.from_graphs(graphs)
        plan = dataclasses.replace(plan)
        for i in range(cut):
            plan.apply_due(store, i)
        with GraphCacheService(store, config) as restored:
            restored.load(snapshot_path)
            assert restored._query_counter == cut
            tail2, trajectory2 = trajectory(restored, queries, plan, cut,
                                            NUM_QUERIES)
            assert tail2 == tail, (
                "restored replay diverged from the uninterrupted run"
            )
            assert trajectory2 == expected_trajectory, (
                "promotion/eviction trajectory diverged after restore"
            )
            assert population(restored) == expected_population

    def test_restore_preserves_benefit_statistics(self, trace, tmp_path):
        graphs, queries, _ = trace
        path = tmp_path / "stats.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, 30)
            expected = {
                e.entry_id: service.cache.statistics.get(e.entry_id)
                for e in service.cache.all_entries()
            }
            assert any(s.tests_saved > 0 for s in expected.values()), (
                "trace produced no credited entries; test is vacuous"
            )
            service.save(path)
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as restored:
            restored.load(path)
            for entry_id, stats in expected.items():
                assert restored.cache.statistics.get(entry_id) == stats


class TestCodec:
    def seed_snapshot_text(self, trace, tmp_path, queries_to_run=12):
        graphs, queries, _ = trace
        path = tmp_path / "codec.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, queries_to_run)
            service.save(path)
        return path.read_text(encoding="utf-8")

    def test_reencode_is_bit_identical(self, trace, tmp_path):
        text = self.seed_snapshot_text(trace, tmp_path)
        assert encode_snapshot(decode_snapshot(text)) == text

    def test_every_field_round_trips(self):
        """Each field of the persisted dataclasses holds a non-default
        value and survives the codec.  A field added to ``Snapshot``,
        ``CacheState`` or ``EntryStats`` fails here until it is set below
        and the codec carries it; ``Snapshot.version`` has one legal
        value and is exempt."""
        def record(entry_id, stats):
            entry = CacheEntry(
                entry_id=entry_id,
                query=LabeledGraph.from_edges("CON", [(0, 1), (1, 2)]),
                query_type=QueryType.SUPERGRAPH,
                answer=0b10010,
                valid=0b11011,
                created_at=entry_id + 1,
            )
            return EntryRecord(entry=entry, stats=stats)

        stats = [EntryStats(tests_saved=7, cost_saved=2.5, hits=3,
                            last_used=11, created_at=4),
                 EntryStats(tests_saved=1, cost_saved=0.25, hits=1,
                            last_used=9, created_at=8)]
        state = CacheState(
            cache=[record(2, stats[0])], window=[record(5, stats[1])],
            next_entry_id=9, log_cursor=6, policy_name="pin",
            pin_rounds=2, pinc_rounds=5,
        )
        snapshot = Snapshot(
            fingerprint=config_fingerprint(GCConfig(model="EVI",
                                                    policy="pin")),
            query_counter=17,
            state=state,
            dataset={"digest": "ab" * 32, "max_id": 5, "live_graphs": 4},
        )
        for value in (snapshot, state, *stats):
            for f in dataclasses.fields(value):
                if value is snapshot and f.name == "version":
                    continue
                if f.default is not dataclasses.MISSING:
                    default = f.default
                elif f.default_factory is not dataclasses.MISSING:
                    default = f.default_factory()
                else:
                    continue
                assert getattr(value, f.name) != default, (
                    f"{type(value).__name__}.{f.name} is left at its "
                    f"default; set it so the round trip checks it")
        assert decode_snapshot(encode_snapshot(snapshot)) == snapshot

    def test_rejects_foreign_format(self):
        with pytest.raises(SnapshotFormatError, match="format"):
            decode_snapshot('{"format":"something-else","version":1}\n')

    def test_rejects_future_version(self, trace, tmp_path):
        text = self.seed_snapshot_text(trace, tmp_path)
        bumped = text.replace('"version":1', '"version":99', 1)
        with pytest.raises(SnapshotFormatError, match="version"):
            decode_snapshot(bumped)

    def test_rejects_truncation(self, trace, tmp_path):
        text = self.seed_snapshot_text(trace, tmp_path)
        lines = text.splitlines()
        with pytest.raises(SnapshotFormatError, match="truncated"):
            decode_snapshot("\n".join(lines[:-1]) + "\n")

    def test_rejects_duplicate_entry(self, trace, tmp_path):
        text = self.seed_snapshot_text(trace, tmp_path)
        lines = text.splitlines()
        with pytest.raises(SnapshotFormatError, match="duplicate"):
            decode_snapshot("\n".join(lines + [lines[-1]]) + "\n")

    def test_rejects_truncated_query_record(self, trace, tmp_path):
        """A short ``e`` record in an entry's embedded query is a format
        error, not an ``IndexError``."""
        lines = self.seed_snapshot_text(trace, tmp_path).splitlines()
        record = json.loads(lines[1])
        record["query"] = "t # 0\nv 0 C\ne 0\n"
        lines[1] = json.dumps(record)
        with pytest.raises(SnapshotFormatError,
                           match="bad query graph: line 3"):
            decode_snapshot("\n".join(lines) + "\n")

    def test_rejects_empty_and_non_json(self):
        with pytest.raises(SnapshotFormatError, match="empty"):
            decode_snapshot("")
        with pytest.raises(SnapshotFormatError, match="JSON"):
            decode_snapshot("t # 0\nv 0 C\n")


class TestOldSnapshotsKeepLoading:
    """``tests/fixtures/snapshot_v1_churned.jsonl`` was written while
    each indicator still carried a logical length, and every ``size`` in
    it exceeds its indicator's ``bit_length()``.

    It was made like this: the dataset of ``python -m repro gen-dataset``
    with ``DATASET`` below; a CON service (cache 6, window 4) ran 18
    Type B queries (no-answer share 20%, pools 10 / 5, seed 1); then the
    first edge of graphs 23, 3 and 7 was removed and added back (UR + UA
    on one graph fades every bit toward it, and the graph ends as it
    was) and a consistency pass ran.  Because the churn restored every
    graph it touched, the state was saved with log cursor 0, so it
    restores over a freshly generated dataset — the library here and
    ``python -m repro snapshot load`` in CI alike.
    """

    FIXTURE = Path(__file__).parent / "fixtures" / "snapshot_v1_churned.jsonl"
    #: ``gen-dataset`` parameters of the fixture's dataset
    DATASET = dict(num_graphs=24, mean_vertices=8.0, std_vertices=3.0,
                   max_vertices=14, seed=5)
    WIDE = [2, 3, 4, 7, 8, 11, 12, 13, 15, 18, 19, 21]
    #: entry id -> Answer ids, residency order (cache by id, window FIFO)
    ANSWERS = {0: WIDE, 1: [15], 3: [7, 11, 15], 5: [], 6: [15], 7: WIDE,
               16: WIDE, 17: []}
    #: every entry's CGvalid: all 24 ids but the three the churn touched
    VALID = [i for i in range(24) if i not in (3, 7, 23)]

    def restored(self):
        store = GraphStore.from_graphs(generate_aids_like(**self.DATASET))
        snapshot = load_snapshot(self.FIXTURE)
        service = GraphCacheService(
            store, GCConfig.from_dict(snapshot.fingerprint))
        report = service.load(self.FIXTURE)
        return service, report

    def test_restores_the_same_entries_answers_and_validity(self):
        service, report = self.restored()
        with service:
            assert not report.dataset_changed
            cache = service.cache
            residents = ([cache._cache[i] for i in sorted(cache._cache)]
                         + cache.window.entries())
            assert [e.entry_id for e in cache.window.entries()] == [16, 17]
            assert {e.entry_id: list(bit_ids(e.answer))
                    for e in residents} == self.ANSWERS
            assert [e.entry_id for e in residents] == list(self.ANSWERS)
            assert all(list(bit_ids(e.valid)) == self.VALID
                       for e in residents)

    def test_every_size_in_it_exceeds_the_bit_length(self):
        for line in self.FIXTURE.read_text().splitlines()[1:]:
            record = json.loads(line)
            for name in ("answer", "valid"):
                indicator = record[name]
                assert indicator["size"] > int(indicator["hex"], 16) \
                    .bit_length()

    def test_re_encoding_differs_only_in_size(self):
        text = self.FIXTURE.read_text()
        again = encode_snapshot(decode_snapshot(text))
        old, new = text.splitlines(), again.splitlines()
        assert len(old) == len(new)
        # Besides the sizes, only the retired key goes: decode drops it.
        header = json.loads(old[0])
        assert header["fingerprint"].pop("caching_enabled") is True
        assert header == json.loads(new[0])
        for old_line, new_line in zip(old[1:], new[1:]):
            before, after = json.loads(old_line), json.loads(new_line)
            for name in ("answer", "valid"):
                bits = int(after[name]["hex"], 16)
                assert after[name]["size"] == bits.bit_length()
                before[name]["size"] = after[name]["size"]
            assert before == after
        assert encode_snapshot(decode_snapshot(again)) == again


class TestFingerprintRejection:
    @pytest.mark.parametrize("override,field", [
        (dict(model="EVI"), "model"),
        (dict(policy="pin"), "policy"),
        (dict(cache_capacity=11), "cache_capacity"),
        (dict(query_type="supergraph"), "query_type"),
        (dict(matcher="vf2"), "matcher"),
    ])
    def test_differing_semantics_are_rejected(self, trace, tmp_path,
                                              override, field):
        graphs, queries, _ = trace
        path = tmp_path / "fp.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, 8)
            service.save(path)
        other = GraphCacheService(GraphStore.from_graphs(graphs),
                                  CONFIG.replace(**override))
        with other, pytest.raises(SnapshotMismatchError, match=field):
            other.load(path)

    @pytest.mark.parametrize("extra,restores", [
        ({"internal_verifier": None, "retro_budget": 5}, True),
        ({"internal_verifier": "ullmann"}, True),
        ({"bogus": 1}, False),
        ({"caching_enabled": True}, True),
        ({"caching_enabled": False}, True),
        ({"caching_enabled": "false"}, True),
    ])
    def test_only_retired_header_keys_are_ignored(self, trace, tmp_path,
                                                  extra, restores):
        """A file written while ``internal_verifier`` / ``retro_budget``
        / ``caching_enabled`` existed still restores, whatever their
        value; any other key this service does not know is a
        mismatch."""
        graphs, queries, _ = trace
        path = tmp_path / "old.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, 8)
            service.save(path)
        header, _, entries = path.read_text(encoding="utf-8").partition("\n")
        header = json.loads(header)
        header["fingerprint"].update(extra)
        path.write_text(json.dumps(header) + "\n" + entries,
                        encoding="utf-8")
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as other:
            if restores:
                other.load(path)
                assert other.cache.cache_size + other.cache.window_size == 8
            else:
                with pytest.raises(SnapshotMismatchError, match="bogus"):
                    other.load(path)

    def test_performance_knobs_do_not_reject(self, trace, tmp_path):
        """lock_mode / max_sessions are not semantics: a snapshot moves
        freely across them, and the fingerprint is exactly the semantic
        fields."""
        assert FINGERPRINT_FIELDS == (
            "model", "query_type", "matcher", "cache_capacity",
            "window_capacity", "policy",
        )
        graphs, queries, _ = trace
        path = tmp_path / "perf.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, 8)
            service.save(path)
        relaxed = CONFIG.replace(lock_mode="rw", max_sessions=2)
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               relaxed) as other:
            other.load(path)
            assert other.cache.cache_size + other.cache.window_size == 8


class TestRestoreReconciliation:
    """A dataset log that moved while the snapshot was on disk is
    reconciled through the consistency protocol on load."""

    def answers_for(self, graphs, mutate, query, config=CONFIG):
        store = GraphStore.from_graphs(graphs)
        mutate(store)
        with GraphCacheService(store, config) as fresh:
            return fresh.execute(query).answer_ids

    def test_con_revalidates_against_missed_suffix(self, trace, tmp_path):
        graphs, queries, _ = trace
        path = tmp_path / "recon.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, 20)
            service.save(path)

        store = GraphStore.from_graphs(graphs)
        victim = next(iter(store.ids()))
        with GraphCacheService(store, CONFIG) as restored:
            restored.delete_graph(victim)
            report = restored.load(path)
            assert report.dataset_changed and not report.purged
            assert report.entries_validated == (
                restored.cache.cache_size + restored.cache.window_size
            )
            assert restored.cache.pending_log_records(store) == 0
            # No restored entry may claim validity toward the deleted id.
            for entry in restored.cache.all_entries():
                assert not entry.valid >> victim & 1
            # Answers equal a never-snapshotted service over the same
            # mutated dataset (correctness is end-to-end, not just bits).
            for query in queries[20:30]:
                expected = self.answers_for(
                    graphs, lambda s: s.delete_graph(victim), query)
                assert restored.execute(query).answer_ids == expected

    def test_evi_purges_on_missed_changes(self, trace, tmp_path):
        graphs, queries, _ = trace
        config = CONFIG.replace(model="EVI")
        path = tmp_path / "evi.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               config) as service:
            run_span(service, queries, None, 0, 20)
            service.save(path)
        store = GraphStore.from_graphs(graphs)
        with GraphCacheService(store, config) as restored:
            restored.add_graph(LabeledGraph.from_edges("CC", [(0, 1)]))
            report = restored.load(path)
            assert report.purged
            assert restored.cache.cache_size == 0
            assert restored.cache.window_size == 0
            assert restored.cache.pending_log_records(store) == 0

    def test_unchanged_log_is_noop(self, trace, tmp_path):
        graphs, queries, _ = trace
        path = tmp_path / "noop.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, 10)
            service.save(path)
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as restored:
            report = restored.load(path)
            assert not report.dataset_changed

    def test_foreign_dataset_same_log_position_is_rejected(self, trace,
                                                           tmp_path):
        """The silent-corruption case: a different dataset whose log is
        at the same position (two freshly loaded stores, both at seq 0)
        must be rejected by the content fingerprint — restoring would
        alias Answer/CGvalid bits onto foreign graph ids."""
        graphs, queries, _ = trace
        path = tmp_path / "foreign-ds.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            run_span(service, queries, None, 0, 10)
            service.save(path)
        other_graphs = generate_aids_like(
            num_graphs=len(graphs), mean_vertices=8.0, std_vertices=3.0,
            max_vertices=14, seed=999,   # same size, different content
        )
        other = GraphCacheService(GraphStore.from_graphs(other_graphs),
                                  CONFIG)
        with other, pytest.raises(SnapshotMismatchError,
                                  match="different dataset"):
            other.load(path)

    def test_cursor_beyond_log_is_rejected(self, trace, tmp_path):
        """A snapshot whose log cursor exceeds the store's log belongs
        to a different dataset and must not restore."""
        graphs, queries, _ = trace
        path = tmp_path / "foreign.snap.jsonl"
        store = GraphStore.from_graphs(graphs)
        with GraphCacheService(store, CONFIG) as service:
            service.add_graph(LabeledGraph.from_edges("CC", [(0, 1)]))
            run_span(service, queries, None, 0, 5)
            service.save(path)
        other = GraphCacheService(GraphStore.from_graphs(graphs), CONFIG)
        with other, pytest.raises(SnapshotMismatchError, match="log"):
            other.load(path)


class TestWindowRestore:
    def test_window_fifo_order_survives(self, trace, tmp_path):
        graphs, queries, _ = trace
        config = GCConfig(model="CON", cache_capacity=50,
                          window_capacity=6)
        path = tmp_path / "fifo.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               config) as service:
            run_span(service, queries, None, 0, 3)
            window_ids = [e.entry_id
                          for e in service.cache.window.entries()]
            assert len(window_ids) == 3
            service.save(path)
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               config) as restored:
            restored.load(path)
            assert [e.entry_id for e in restored.cache.window.entries()] \
                == window_ids
            run_span(restored, queries, None, 3, 6)
            # The window filled and promoted once into the empty cache;
            # the batch leads with the restored residents, in their
            # original FIFO order (the cache keeps promotion order).
            assert restored.cache.window_size == 0
            assert restored.cache.cache_size == 6
            assert list(restored.cache._cache)[:3] == window_ids


class TestManagerRestoreValidation:
    def test_policy_name_mismatch(self):
        manager = CacheManager(policy="pin")
        with pytest.raises(ValueError, match="policy"):
            manager.restore_state(CacheState(policy_name="hd"))

    def test_overfull_window_rejected_before_mutation(self, trace,
                                                      tmp_path):
        graphs, queries, _ = trace
        donor_config = GCConfig(model="CON", window_capacity=10)
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               donor_config) as donor:
            run_span(donor, queries, None, 0, 5)
            state = donor.cache.snapshot_state()
        target = CacheManager(window_capacity=4)
        with pytest.raises(ValueError, match="window"):
            target.restore_state(state)
        # The failed restore must not have clobbered the live state.
        assert target.cache_size == 0 and target.window_size == 0


class TestAutosave:
    def test_autosave_writes_periodically(self, trace, tmp_path):
        graphs, queries, _ = trace
        path = tmp_path / "auto.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            service.autosave(path, 4)
            run_span(service, queries, None, 0, 3)
            assert not path.exists(), "autosave fired before N admissions"
            run_span(service, queries, None, 3, 4)
            assert path.exists()
            first = load_snapshot(path)
            assert first.query_counter == 4
            run_span(service, queries, None, 4, 8)
            assert load_snapshot(path).query_counter == 8
        # The autosaved file warm-starts a fresh service.
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as revived:
            revived.load(path)
            assert revived._query_counter == 8

    def test_autosave_trigger_positions(self, trace, tmp_path):
        """Every third admission saves, on the thread of the query that
        made it; renewals (the ChangePlan fades cached answers, so
        re-executed queries renew at positions 2, 20, 22-24, 26, 52 and
        55) are no admissions and do not count, and retargeting keeps
        the count.  The positions are pinned: a change to what counts
        moves them."""
        graphs, queries, plan = trace
        first, second = tmp_path / "a.snap.jsonl", tmp_path / "b.snap.jsonl"
        seen = {first: [], second: []}
        renewed = []
        plan = dataclasses.replace(plan)    # rewound: cursor 0, fresh draws
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            service.autosave(first, 3)
            for i in range(NUM_QUERIES):
                if i == 20:
                    # one admission (query 19) since the save at 18
                    service.autosave(second, 3)
                renewals = service.cache.renewals
                run_span(service, queries, plan, i, i + 1)
                if service.cache.renewals > renewals:
                    renewed.append(i)
                for path, saves in seen.items():
                    if path.exists():
                        counter = load_snapshot(path).query_counter
                        if not saves or saves[-1] != counter:
                            saves.append(counter)
        assert renewed == [2, 20, 22, 23, 24, 26, 52, 55]
        # query_counter is the position of the saving query plus one
        assert seen[first] == [4, 7, 10, 13, 16, 19]
        assert seen[second] == [26, 30, 33, 36, 39, 42, 45, 48, 51, 55, 59]

    def test_autosave_never_writes_without_caching(self, trace, tmp_path):
        """Autosave counts admissions, not queries: a cache that admits
        nothing (its ``admit`` a no-op here) is never saved."""
        graphs, queries, _ = trace
        path = tmp_path / "never.snap.jsonl"
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            service.cache.admit = lambda *args, **kwargs: None
            service.autosave(path, 1)
            run_span(service, queries, None, 0, 10)
            assert service.cache.admissions == 0
        assert not path.exists()

    def test_autosave_failure_does_not_crash_serving(self, trace,
                                                     tmp_path):
        """Persistence is a serving knob: an autosave whose target
        directory vanished warns and keeps serving instead of failing
        the query that happened to trigger it."""
        graphs, queries, _ = trace
        doomed = tmp_path / "gone" / "auto.snap.jsonl"
        doomed.parent.mkdir()
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            service.autosave(doomed, 2)
            doomed.parent.rmdir()
            with pytest.warns(RuntimeWarning, match="autosave"):
                rows = run_span(service, queries, None, 0, 4)
            assert len(rows) == 4, "queries failed alongside the autosave"
            assert not doomed.exists()

    @pytest.mark.parametrize("errno_", [errno.ENOSPC, errno.EROFS],
                             ids=["disk-full", "read-only"])
    def test_autosave_on_a_full_or_read_only_disk(self, trace, tmp_path,
                                                  monkeypatch, errno_):
        """Tests run as root, where a ``chmod``-ed directory stays
        writable, so the failure is injected where the write meets the
        OS: a full disk fails ``fsync`` after the temp file was written,
        a read-only one fails creating it.  Either way the query that
        crossed the threshold answers as a service without autosave
        does, the previous snapshot stays byte for byte, no ``*.tmp`` is
        left, and the next crossing retries."""
        graphs, queries, _ = trace
        target = tmp_path / "auto.snap.jsonl"
        attempts = []

        def fail(*args, **kwargs):
            attempts.append(errno_)
            raise OSError(errno_, os.strerror(errno_))

        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service, \
                GraphCacheService(GraphStore.from_graphs(graphs),
                                  CONFIG) as plain:
            service.autosave(target, 2)
            assert (run_span(service, queries, None, 0, 2)
                    == run_span(plain, queries, None, 0, 2))
            previous = target.read_bytes()
            if errno_ == errno.ENOSPC:
                monkeypatch.setattr(os, "fsync", fail)
            else:
                monkeypatch.setattr(tempfile, "NamedTemporaryFile", fail)
            with pytest.warns(RuntimeWarning, match="autosave"):
                rows = run_span(service, queries, None, 2, 4)
            assert attempts == [errno_]
            assert rows == run_span(plain, queries, None, 2, 4)
            assert target.read_bytes() == previous
            assert list(tmp_path.glob("*.tmp")) == []
            monkeypatch.undo()              # the disk recovers
            run_span(service, queries, None, 4, 6)
            assert load_snapshot(target).query_counter == 6
            assert list(tmp_path.glob("*.tmp")) == []

    def test_autosave_requires_snapshot_path(self, trace, tmp_path):
        """The target is an argument of ``autosave`` (no config field can
        carry one: ``test_api_config``) and the period a positive count."""
        graphs, _, _ = trace
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            with pytest.raises(TypeError):
                service.autosave(every=5)
            for every in (0, -1, True, 2.5):
                with pytest.raises(ValueError, match="every"):
                    service.autosave(tmp_path / "x.jsonl", every)

    def test_save_without_any_path_raises(self, trace):
        graphs, _, _ = trace
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            with pytest.raises(TypeError):
                service.save()
            with pytest.raises(TypeError):
                service.load()

    def test_load_missing_file_raises_oserror(self, trace, tmp_path):
        graphs, _, _ = trace
        with GraphCacheService(GraphStore.from_graphs(graphs),
                               CONFIG) as service:
            with pytest.raises(OSError):
                service.load(tmp_path / "nope.jsonl")
