"""Statistics Manager — per-entry benefit metadata (paper §4, §7.1).

The replacement policies score cached graphs using:

* ``R`` — *"the total number of subgraph isomorphism tests alleviated by
  the said graph"* (PIN's ranking, §7.1);
* ``C`` — accumulated **estimated cost** of the alleviated tests (PINC's
  extension).  The paper estimates cost "by a heuristic [25]"; we use the
  classic search-space proxy for one sub-iso test of query ``q`` against
  graph ``G``: ``|V(q)| · |V(G)|`` (the size of the VF2 candidate-pair
  space), accumulated over every test an entry alleviates.  Any monotone
  work proxy preserves PINC's behaviour: it exists to discriminate cheap
  saved tests from expensive ones.

The manager also tracks recency and hit frequency for the LRU/LFU
baseline policies inherited from GC.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = ["EntryStats", "StatisticsManager"]


@dataclass
class EntryStats:
    """Benefit counters for one cached query.

    ``last_used`` is the LRU recency signal: the stream index of the
    entry's most recent *use*.  Admission counts as the first use —
    :meth:`StatisticsManager.register` seeds it with ``created_at`` so a
    brand-new entry is never the instant LRU victim — and each crediting
    contribution (``tests_saved > 0``) refreshes it.  The ``-1`` default
    therefore only ever appears on a bare, unregistered ``EntryStats()``
    and means "not yet admitted"; no replacement policy observes it.
    """

    tests_saved: int = 0      # R
    cost_saved: float = 0.0   # C
    hits: int = 0             # times the entry pruned something (for LFU)
    last_used: int = -1       # query index of last use (see class doc)
    created_at: int = 0


class StatisticsManager:
    """Keyed by ``entry_id``; survives entries moving window → cache and
    being renewed in place, and is dropped on policy eviction (a query
    re-admitted after its entry was evicted starts fresh, as in GC).
    The counters of a faded copy that a renewal drops are not lost: they
    are folded into the surviving twin (:meth:`absorb`).

    Carries no lock of its own: it is reached only through
    :class:`~repro.cache.manager.CacheManager`, which the service calls
    only while holding its one lock (see ``docs/concurrency.md``).
    """

    def __init__(self) -> None:
        self._stats: dict[int, EntryStats] = {}

    def register(self, entry_id: int, created_at: int) -> None:
        """Start tracking a newly admitted entry; the admission itself
        counts as the entry's first use (LRU recency — see
        :class:`EntryStats`)."""
        self._stats[entry_id] = EntryStats(created_at=created_at,
                                           last_used=created_at)

    def forget(self, entry_id: int) -> None:
        self._stats.pop(entry_id, None)

    def restore(self, entry_id: int, stats: EntryStats) -> None:
        """Reinstate a previously captured :class:`EntryStats` verbatim
        (snapshot restore) — unlike :meth:`register`, the accrued R/C
        counters and recency survive, which is the whole point of
        warm-starting the replacement policies."""
        self._stats[entry_id] = dataclasses.replace(stats)

    def snapshot(self, entry_id: int) -> EntryStats:
        """A decoupled copy of one entry's counters (snapshot capture)."""
        return dataclasses.replace(self._stats[entry_id])

    def credit(self, entry_id: int, tests_saved: int, cost_saved: float,
               query_index: int) -> None:
        """Record that an entry alleviated ``tests_saved`` sub-iso tests of
        estimated total cost ``cost_saved`` while serving the query at
        ``query_index``."""
        stats = self._stats[entry_id]
        stats.tests_saved += tests_saved
        stats.cost_saved += cost_saved
        if tests_saved > 0:
            stats.hits += 1
            stats.last_used = query_index

    def absorb(self, survivor_id: int, dropped_id: int) -> None:
        """Fold a dropped isomorphic copy's accrued R / C / hits into the
        surviving twin and stop tracking the copy (renewal — the benefit
        was earned by the one query both entries cache)."""
        dropped = self._stats.pop(dropped_id)
        stats = self._stats[survivor_id]
        stats.tests_saved += dropped.tests_saved
        stats.cost_saved += dropped.cost_saved
        stats.hits += dropped.hits

    def get(self, entry_id: int) -> EntryStats:
        return self._stats[entry_id]

    def r_values(self, entry_ids: list[int]) -> list[int]:
        """The R distribution over the given entries (HD's CoV input)."""
        return [self._stats[eid].tests_saved for eid in entry_ids]

    def clear(self) -> None:
        self._stats.clear()

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._stats

    def __len__(self) -> int:
        return len(self._stats)
