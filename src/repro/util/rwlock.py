"""Reader-writer locks for the concurrent serving layer.

The GC+ pipeline splits cleanly into read-side and write-side phases
(see ``docs/concurrency.md``): hit discovery, candidate pruning and
Method-M verification only *read* cache and dataset state, while
admission, eviction, window promotion, consistency reconciliation and
dataset mutations *write* it.  A reader-writer lock lets many queries
run their read phases simultaneously while serialising every mutation.

Two implementations share one interface:

* :class:`RWLock` — a writer-preferring shared/exclusive lock.  The
  write side is **reentrant for the owning thread** (the consistency
  protocol purges through :meth:`CacheManager.clear`, which itself
  write-locks), and lock-order violations that would deadlock —
  upgrading a read hold to a write hold — raise :class:`RuntimeError`
  instead of hanging.
* :class:`NullRWLock` — the zero-cost no-op used by single-session
  services (``GCConfig.lock_mode`` ``"auto"`` until the first
  :meth:`~repro.api.service.GraphCacheService.session` call), so
  the sequential reproduction path pays nothing for the concurrency
  layer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["RWLock", "NullRWLock"]


class RWLock:
    """Shared-read / exclusive-write lock with writer preference.

    Writer preference (arriving readers queue behind a *waiting* writer)
    keeps dataset mutations and consistency passes from starving under a
    heavy query stream.  Per-thread hold state is tracked so that:

    * a thread holding the write lock may acquire it again (depth
      counted) — nested write-side operations compose;
    * a thread holding the write lock may take the read lock (it already
      excludes everyone, so the nested read is a no-op);
    * a thread holding only a *read* lock that asks for the write lock
      raises :class:`RuntimeError` — an upgrade can never be granted to
      two readers at once, so granting it to one is a deadlock generator.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0            # threads currently inside the read side
        self._writer: int | None = None   # ident of the writing thread
        self._write_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()   # per-thread read-hold depth

    # ------------------------------------------------------------------
    def _read_holds(self) -> int:
        return getattr(self._local, "reads", 0)

    def _write_read_holds(self) -> int:
        return getattr(self._local, "write_reads", 0)

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Nested read inside our own write hold: already
                # exclusive.  Tracked separately from plain read holds so
                # its release never touches the shared reader count —
                # even if (against LIFO convention) the write lock is
                # released before this read.
                self._local.write_reads = self._write_read_holds() + 1
                return
            if self._read_holds():
                # Re-entrant read: bypass the writer-preference gate so a
                # waiting writer can never deadlock our nested read.
                self._readers += 1
                self._local.reads += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            self._local.reads = 1

    def release_read(self) -> None:
        with self._cond:
            write_reads = self._write_read_holds()
            if write_reads and (self._writer == threading.get_ident()
                                or self._read_holds() == 0):
                self._local.write_reads = write_reads - 1
                return
            holds = self._read_holds()
            if holds <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._local.reads = holds - 1
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
                return
            if self._read_holds():
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock; release "
                    "the read side first (see docs/concurrency.md)"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._write_depth = 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write by a non-owning thread")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read(self):
        """``with lock.read():`` — shared critical section."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """``with lock.write():`` — exclusive critical section."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def __repr__(self) -> str:
        return (f"RWLock(readers={self._readers}, writer={self._writer}, "
                f"waiting={self._writers_waiting})")


class NullRWLock:
    """Interface-compatible no-op lock for single-session services.

    :meth:`read` and :meth:`write` return the lock itself, which is its
    own context manager: ``with lock.read() as held:`` binds ``held`` to
    the lock, as with :class:`RWLock`, but an acquisition allocates
    nothing — no generator, no context-manager object — because the
    sequential path takes several per query.  Holds are not tracked, so
    they nest to any depth, and an exception in the body propagates
    unchanged (``__exit__`` returns ``None``).
    """

    def acquire_read(self) -> None:
        pass

    def release_read(self) -> None:
        pass

    def acquire_write(self) -> None:
        pass

    def release_write(self) -> None:
        pass

    def read(self) -> "NullRWLock":
        """``with lock.read():`` — no-op."""
        return self

    def write(self) -> "NullRWLock":
        """``with lock.write():`` — no-op."""
        return self

    def __enter__(self) -> "NullRWLock":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None

    def __repr__(self) -> str:
        return "NullRWLock()"
