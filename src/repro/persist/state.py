"""In-memory capture of the cache subsystem's full state.

:meth:`repro.cache.manager.CacheManager.snapshot_state` produces a
:class:`CacheState`; :meth:`~repro.cache.manager.CacheManager.restore_state`
consumes one.  The capture is **decoupled**: every entry is copied (its
``Answer`` and ``CGvalid`` ints are immutable, so they are shared) and
every :class:`~repro.cache.statistics.EntryStats` is cloned, so a captured
state is a true point-in-time value — the live cache can keep mutating
(or be torn down) without affecting it, and vice versa.

The on-disk JSON-lines form of this state lives in
:mod:`repro.persist.snapshot`; this module is the neutral middle layer
so the cache subsystem never depends on any serialisation format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.entry import CacheEntry
from repro.cache.statistics import EntryStats

__all__ = ["EntryRecord", "CacheState"]


@dataclass(frozen=True)
class EntryRecord:
    """One hit-eligible entry plus its accrued benefit counters."""

    entry: CacheEntry
    stats: EntryStats


@dataclass(frozen=True)
class CacheState:
    """Everything the Cache Manager needs to resume exactly where a
    previous process left off.

    * ``cache`` — the promoted population, ascending ``entry_id`` (the
      order carries no semantics: replacement tie-breaks are a total
      order over ``(score, created_at, entry_id)``);
    * ``window`` — the pending admission batch **in FIFO order** (order
      *does* matter here: it determines the next promotion batch);
    * ``next_entry_id`` — so restored and future entries never collide;
    * ``log_cursor`` — how far into the dataset log the captured state
      had reflected; a restore against a log that moved past this cursor
      reconciles through the normal consistency protocol;
    * ``policy_name`` + the HD regime tallies (``pin_rounds`` /
      ``pinc_rounds``), which are part of the replacement policy's
      observable state for ablation reporting.
    """

    cache: list[EntryRecord] = field(default_factory=list)
    window: list[EntryRecord] = field(default_factory=list)
    next_entry_id: int = 0
    log_cursor: int = 0
    policy_name: str = "hd"
    pin_rounds: int = 0
    pinc_rounds: int = 0
