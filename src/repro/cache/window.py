"""Window Manager — cache admission control (paper §4).

*"a Window Manager for cache admission control [...] where queries are
batched to enter cache"*.  Every executed query lands in the window
(default capacity 20, the paper's setting); when the window fills, the
whole batch is promoted toward the cache and the replacement policy
trims the combined population back to the cache capacity.

Crucially, the paper includes window residents among hit-eligible
"cached graphs": *"cached graphs/queries by default cover those previous
queries in both cache and window"*, so the window exposes its entries to
the query index just like the cache proper.
"""

from __future__ import annotations

from repro.cache.entry import CacheEntry

__all__ = ["WindowManager"]


class WindowManager:
    """A FIFO batch of recently executed queries awaiting admission."""

    def __init__(self, capacity: int = 20) -> None:
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: list[CacheEntry] = []

    def add(self, entry: CacheEntry) -> list[CacheEntry] | None:
        """Append an entry; when the window fills, return the whole batch
        for promotion (the window empties)."""
        self._entries.append(entry)
        if len(self._entries) >= self.capacity:
            batch = self._entries
            self._entries = []
            return batch
        return None

    def remove(self, entry_id: int) -> None:
        """Drop one resident (a faded copy a renewal superseded); the
        rest keep their FIFO order.  Unknown ids are ignored."""
        self._entries = [entry for entry in self._entries
                         if entry.entry_id != entry_id]

    def entries(self) -> list[CacheEntry]:
        return list(self._entries)

    def restore(self, entries: list[CacheEntry]) -> None:
        """Reinstate a captured window population in FIFO order (snapshot
        restore).  A live window always holds fewer entries than its
        capacity — :meth:`add` promotes the batch the moment it fills —
        so a full-or-larger restore can only come from a corrupt or
        foreign snapshot and is rejected."""
        if len(entries) >= self.capacity:
            raise ValueError(
                f"cannot restore {len(entries)} window entries into a "
                f"window of capacity {self.capacity}; a live window is "
                f"always below capacity"
            )
        self._entries = list(entries)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"WindowManager({len(self._entries)}/{self.capacity})"
