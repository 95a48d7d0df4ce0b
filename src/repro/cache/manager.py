"""Cache Manager — the orchestrating facade of the cache subsystem.

Responsibilities (paper §4):

* own the cache store (capacity 100 by default) and the window (20);
* expose all hit-eligible entries (cache ∪ window) through the query
  index;
* run the consistency protocol on query arrival: if the dataset log moved
  past the reflected-up-to cursor, either purge (EVI) or analyze +
  validate (CON);
* perform admission control and replacement when the window promotes a
  batch — or, when a re-executed query finds a resident isomorphic twin
  whose ``CGvalid`` has faded, renew that twin in place instead of
  admitting another copy (``docs/config-fidelity.md``, "Renewal") — the
  only path that ever turns a ``CGvalid`` bit back on;
* keep per-entry benefit statistics for the replacement policies.

The manager is single-threaded by contract and takes no lock: the
service calls it only while holding its own lock
(``docs/concurrency.md``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.models import CacheModel
from repro.cache.query_index import QueryIndex
from repro.cache.replacement import (
    HybridPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.cache.statistics import StatisticsManager
from repro.cache.validator import validate_con
from repro.cache.window import WindowManager
from repro.dataset.log_analyzer import analyze_log
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.persist.state import CacheState, EntryRecord

if TYPE_CHECKING:   # import cycle: repro.api builds on repro.cache
    from repro.api.config import GCConfig

__all__ = ["CacheManager", "ConsistencyReport", "NOOP_CONSISTENCY"]

DEFAULT_CACHE_CAPACITY = 100  # paper §7.1
DEFAULT_WINDOW_CAPACITY = 20  # paper §7.1


@dataclass(frozen=True)
class ConsistencyReport:
    """What one consistency pass did (for the overhead breakdown)."""

    dataset_changed: bool
    purged: bool                 # EVI cleared the cache
    entries_validated: int       # CON entries refreshed
    analyze_seconds: float       # Algorithm 1 time
    validate_seconds: float      # Algorithm 2 time (all entries)
    purge_seconds: float = 0.0   # EVI indiscriminate-purge time


#: A pass that found nothing to do (shared to avoid per-query garbage).
NOOP_CONSISTENCY = ConsistencyReport(False, False, 0, 0.0, 0.0)


class CacheManager:
    """The GC+ Cache Manager subsystem."""

    def __init__(self, model: CacheModel = CacheModel.CON,
                 query_type: QueryType = QueryType.SUBGRAPH,
                 capacity: int = DEFAULT_CACHE_CAPACITY,
                 window_capacity: int = DEFAULT_WINDOW_CAPACITY,
                 policy: ReplacementPolicy | str = "hd") -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.model = model
        self.query_type = query_type
        self.capacity = capacity
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.window = WindowManager(window_capacity)
        self.statistics = StatisticsManager()
        self.index = QueryIndex()
        self._cache: dict[int, CacheEntry] = {}
        self._next_entry_id = 0
        self._log_cursor = 0
        # Instrumentation for Figure 6's overhead breakdown and the
        # serving layer's ops counters.  All four are cumulative and
        # monotone over the manager's lifetime: :meth:`clear` increments
        # ``purges`` but never resets any of them.  ``evictions`` counts
        # the policy's victims and the faded copies a renewal drops.
        self.evictions = 0
        self.admissions = 0
        self.renewals = 0
        self.purges = 0

    @classmethod
    def from_config(cls, config: GCConfig) -> "CacheManager":
        """Build a manager from a :class:`repro.api.config.GCConfig`."""
        return cls(
            model=config.model,
            query_type=config.query_type,
            capacity=config.cache_capacity,
            window_capacity=config.window_capacity,
            policy=config.policy,
        )

    # ------------------------------------------------------------------
    # Consistency protocol (paper §5) — run on every query arrival
    # ------------------------------------------------------------------
    def ensure_consistency(self, store: GraphStore) -> ConsistencyReport:
        """Reflect any unprocessed dataset changes into the cache.

        EVI: indiscriminate purge.  CON: Algorithm 1 (log analysis) +
        Algorithm 2 (validity refresh on every cache/window entry).
        """
        if store.log.last_seq <= self._log_cursor:
            return NOOP_CONSISTENCY

        started = perf_counter()
        if self.model is CacheModel.EVI:
            self.clear(store)
            return ConsistencyReport(True, True, 0, 0.0, 0.0,
                                     purge_seconds=perf_counter() - started)

        counters, self._log_cursor = analyze_log(store.log, self._log_cursor)
        analyzed = perf_counter()
        entries = self.all_entries()
        validating = perf_counter()
        validate_con(entries, counters)
        return ConsistencyReport(
            dataset_changed=True,
            purged=False,
            entries_validated=len(entries),
            analyze_seconds=analyzed - started,
            validate_seconds=perf_counter() - validating,
        )

    def pending_log_records(self, store: GraphStore) -> int:
        """Dataset log records not yet reflected into the cache — zero
        right after :meth:`ensure_consistency` ran."""
        return max(store.log.last_seq - self._log_cursor, 0)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def all_entries(self) -> list[CacheEntry]:
        """Hit-eligible entries: cache ∪ window (paper §4)."""
        return list(self._cache.values()) + self.window.entries()

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def window_size(self) -> int:
        return len(self.window)

    # ------------------------------------------------------------------
    # Admission (paper §4: executed queries enter the window, batches
    # promote to the cache, replacement trims to capacity)
    # ------------------------------------------------------------------
    def admit(self, query: LabeledGraph, answer: int,
              store: GraphStore, query_index: int,
              features: GraphFeatures | None = None,
              twins: Sequence[CacheEntry] = (),
              same_as: CacheEntry | None = None) -> CacheEntry:
        """Cache an executed query's fresh answer: renew a faded twin,
        or else create an entry and admit it.

        ``answer`` is snapshot semantics (frozen); ``CGvalid`` starts as
        the set of all currently live dataset ids — the entry "holds
        validity towards its relation with all graphs in current dataset"
        (paper §5.2, Figure 2).  ``features`` lets callers that already
        computed the query's monotone features (the service does, for
        hit discovery) avoid a recomputation here.

        ``twins`` are the entries hit discovery certified isomorphic to
        ``query``; one no longer resident is ignored.  If a resident
        twin's ``CGvalid`` no longer covers the live ids
        the fresh answer is written into it (:meth:`_renew`) and no new
        entry is created; with no faded twin — always, without churn and
        under EVI — the query is admitted as a new entry, next to any
        fully valid twins.

        ``same_as`` is the entry the caller found to hold exactly this
        query (:meth:`QueryIndex.identical_resident`): the new entry
        shares that entry's graph and features instead of copying
        ``query`` — one graph, one set of compiled plans per distinct
        cached query, however many copies the window admits.
        """
        live = store.ids_bitset()
        faded = [twin for twin in twins
                 if twin.entry_id in self.statistics
                 and not twin.fully_valid(live)]
        if faded:
            return self._renew(faded, answer, live, query_index)
        entry = CacheEntry(
            entry_id=self._next_entry_id,
            query=query,
            query_type=self.query_type,
            answer=answer,
            valid=live,
            created_at=query_index,
            features=features,
            same_as=same_as,
        )
        if same_as is None:
            # What the matchers built on the caller's graph (plans,
            # compiled orders, its host table) holds for the entry's
            # copy: the entry keeps it, and the caller's object keeps
            # none.  Only here: a snapshot's entry copies move nothing.
            query.move_derived(entry.query)
        self._next_entry_id += 1
        self.statistics.register(entry.entry_id, query_index)
        self.index.add(entry)
        self.admissions += 1
        promoted = self.window.add(entry)
        if promoted is not None:
            self._promote(promoted)
        return entry

    def _renew(self, faded: list[CacheEntry], answer: int, live: int,
               query_index: int) -> CacheEntry:
        """Write a re-executed query's fresh result into its lowest-id
        faded twin and drop the other faded twins.

        Exact because isomorphic queries have equal answers: where the
        survivor's bit was still valid the two answers agree, where it
        was not the fresh one is now known, so *valid bit ⇒ the recorded
        relation holds against the current dataset* is preserved and the
        dropped copies could never again contribute anything the
        survivor does not.  The survivor keeps its id, ``created_at``,
        cache/window position and accrued statistics and absorbs the
        dropped copies'; the indicators are *replaced*, never edited, so
        a reader can never observe a half-written one.  Residency of the
        survivor does not change; each dropped copy counts as an
        eviction.
        """
        survivor, *copies = sorted(faded, key=lambda twin: twin.entry_id)
        survivor.answer = answer
        survivor.valid = live
        dropped = tuple(copy.entry_id for copy in copies)
        for entry_id in dropped:
            if self._cache.pop(entry_id, None) is None:
                self.window.remove(entry_id)
            self.index.remove(entry_id)
            self.statistics.absorb(survivor.entry_id, entry_id)
        self.statistics.get(survivor.entry_id).last_used = query_index
        self.evictions += len(dropped)
        self.renewals += 1
        return survivor

    def _promote(self, batch: list[CacheEntry]) -> None:
        """Merge a full window batch into the cache and evict down to
        capacity using the replacement policy."""
        for entry in batch:
            self._cache[entry.entry_id] = entry
        population = list(self._cache.values())
        victims = self.policy.select_victims(
            population, self.statistics, self.capacity
        )
        for victim in victims:
            del self._cache[victim.entry_id]
            self.index.remove(victim.entry_id)
            self.statistics.forget(victim.entry_id)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Benefit crediting (feeds PIN/PINC/HD)
    # ------------------------------------------------------------------
    def credit(self, entry_id: int, tests_saved: int, cost_saved: float,
               query_index: int) -> None:
        if entry_id in self.statistics:
            self.statistics.credit(entry_id, tests_saved, cost_saved,
                                   query_index)

    def credit_all(self, contributions: Mapping[int, int],
                   cost_per_test: float, query_index: int) -> None:
        """Credit every entry that contributed to one query — the ids it
        saved, packed into an integer (bit *i* ⟺ graph id *i*, as
        :attr:`PruneOutcome.contributions
        <repro.runtime.pruner.PruneOutcome.contributions>` holds them),
        at ``cost_per_test`` each."""
        for entry_id, saved in contributions.items():
            count = saved.bit_count()
            if count and entry_id in self.statistics:
                self.statistics.credit(entry_id, count,
                                       count * cost_per_test,
                                       query_index)

    # ------------------------------------------------------------------
    # Snapshot capture / restore (the persistence subsystem's substrate;
    # the file codec lives in :mod:`repro.persist.snapshot`)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> CacheState:
        """A decoupled point-in-time capture of the whole cache state.

        Entries and statistics are deep-copied (see
        :class:`~repro.persist.state.CacheState`), so the capture stays
        frozen while the live cache keeps evolving.
        """
        cache_records = [
            self._capture(self._cache[entry_id])
            for entry_id in sorted(self._cache)
        ]
        window_records = [self._capture(entry)
                          for entry in self.window.entries()]
        pin_rounds = pinc_rounds = 0
        if isinstance(self.policy, HybridPolicy):
            pin_rounds = self.policy.pin_rounds
            pinc_rounds = self.policy.pinc_rounds
        return CacheState(
            cache=cache_records,
            window=window_records,
            next_entry_id=self._next_entry_id,
            log_cursor=self._log_cursor,
            policy_name=self.policy.name,
            pin_rounds=pin_rounds,
            pinc_rounds=pinc_rounds,
        )

    def _capture(self, entry: CacheEntry) -> EntryRecord:
        return EntryRecord(entry=self._copy_entry(entry),
                           stats=self.statistics.snapshot(entry.entry_id))

    @staticmethod
    def _copy_entry(entry: CacheEntry,
                    same_as: CacheEntry | None = None) -> CacheEntry:
        # The CacheEntry constructor copies the query (or, given
        # ``same_as``, shares that entry's graph and features).  The
        # indicators (ints) and the features are immutable and shared.
        return CacheEntry(
            entry_id=entry.entry_id,
            query=entry.query,
            query_type=entry.query_type,
            answer=entry.answer,
            valid=entry.valid,
            created_at=entry.created_at,
            features=entry.features,
            same_as=same_as,
        )

    def _restore_entry(self, record: EntryRecord) -> CacheEntry:
        """File one captured entry in the (partly restored) index, on
        the graph of the resident already holding its query if there is
        one — as :meth:`admit` files an arrival that ran as a resident —
        so identical cached queries share one graph after a restore as
        before it."""
        resident = self.index.identical_resident(record.entry.query)
        entry = self._copy_entry(record.entry, same_as=resident)
        self.index.add(entry)
        self.statistics.restore(entry.entry_id, record.stats)
        return entry

    def restore_state(self, state: CacheState) -> None:
        """Replace the entire cache state with a captured one.

        **Silent**: no admission/eviction/purge counter moves — a
        restore is state transplantation, not cache activity.
        The bucketed :class:`QueryIndex` is rebuilt from the restored
        entries (it is derived state; persisting it would only create a
        second source of truth to keep honest).  The caller is
        responsible for config compatibility (the service checks the
        snapshot fingerprint first) and for reconciling a dataset log
        that moved past ``state.log_cursor`` — running the normal
        consistency protocol after the restore is exactly that.

        Raises :class:`ValueError` for states that no live manager of
        this shape could have produced (overfull cache/window, colliding
        or out-of-range entry ids, foreign policy name).
        """
        if state.policy_name != self.policy.name:
            raise ValueError(
                f"state was captured under policy "
                f"{state.policy_name!r}, this manager runs "
                f"{self.policy.name!r}"
            )
        if len(state.cache) > self.capacity:
            raise ValueError(
                f"state holds {len(state.cache)} cache entries, capacity "
                f"is {self.capacity}"
            )
        if len(state.window) >= self.window.capacity:
            # Checked up front (not only inside window.restore) so a bad
            # state is rejected before any live state has been cleared.
            raise ValueError(
                f"state holds {len(state.window)} window entries, window "
                f"capacity is {self.window.capacity}"
            )
        seen: set[int] = set()
        for record in state.cache + state.window:
            entry_id = record.entry.entry_id
            if entry_id in seen:
                raise ValueError(f"duplicate entry id {entry_id} in state")
            if entry_id >= state.next_entry_id:
                raise ValueError(
                    f"entry id {entry_id} is not below next_entry_id "
                    f"{state.next_entry_id}"
                )
            seen.add(entry_id)
        self._cache.clear()
        self.index.clear()
        self.statistics.clear()
        for record in state.cache:
            entry = self._restore_entry(record)
            self._cache[entry.entry_id] = entry
        self.window.restore([self._restore_entry(record)
                             for record in state.window])
        self._next_entry_id = state.next_entry_id
        self._log_cursor = state.log_cursor
        if isinstance(self.policy, HybridPolicy):
            self.policy.pin_rounds = state.pin_rounds
            self.policy.pinc_rounds = state.pinc_rounds

    # ------------------------------------------------------------------
    # Purge (EVI, or manual reset)
    # ------------------------------------------------------------------
    def clear(self, store: GraphStore | None = None) -> None:
        """Drop every entry (cache, window, index, statistics).

        When the purging caller passes the ``store``, the log cursor
        advances to the log's current tail: an empty cache is trivially
        consistent with *any* dataset state, so the purge also counts as
        having reflected every change logged so far.  Without this, the
        first query after a manual purge ran a spurious consistency pass
        (EVI re-"purged" the already-empty cache and reported
        ``purged=True``), polluting the Figure-6 overhead breakdown.
        EVI's consistency pass purges through this same call.
        """
        self._cache.clear()
        self.window.clear()
        self.index.clear()
        self.statistics.clear()
        self.purges += 1
        # The policy's accumulated state (HD's PIN/PINC regime
        # tallies) describes the population just purged; a fresh
        # cache restarts the tallies so ablation reports never mix
        # regime counts across purge boundaries.
        self.policy.reset()
        if store is not None:
            self._log_cursor = store.log.last_seq

    def __repr__(self) -> str:
        return (
            f"CacheManager(model={self.model}, cache={len(self._cache)}/"
            f"{self.capacity}, window={len(self.window)}/"
            f"{self.window.capacity}, policy={self.policy.name})"
        )
