"""Cache lifecycle events for the service-layer hook registry.

Monitoring and ops code used to reach into ``CacheManager`` private
fields to observe admissions and evictions; the service now emits typed
:class:`CacheEvent` records instead.  The :class:`CacheManager` calls a
single listener; :class:`~repro.api.service.GraphCacheService` fans each
event out to the callbacks registered through ``on_admission`` /
``on_eviction`` / ``on_purge`` / ``on_promotion``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["CacheEventKind", "CacheEvent"]


class CacheEventKind(enum.Enum):
    """What happened inside the cache subsystem."""

    ADMISSION = "admission"    # an executed query entered the window
    PROMOTION = "promotion"    # a full window batch merged into the cache
    EVICTION = "eviction"      # removed by the policy or dropped by a renewal
    PURGE = "purge"            # the whole cache+window was cleared (EVI)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CacheEvent:
    """One cache lifecycle occurrence.

    ``entry_ids`` are the affected cache-entry ids (one for an admission,
    the batch for a promotion, the victims for an eviction, everything
    cleared for a purge).  ``query_index`` is the stream position that
    triggered the event when one exists (admissions), else ``None``.
    """

    kind: CacheEventKind
    entry_ids: tuple[int, ...]
    query_index: int | None = None

    def __str__(self) -> str:
        where = (f" at query {self.query_index}"
                 if self.query_index is not None else "")
        return f"{self.kind.value}({len(self.entry_ids)} entries){where}"
