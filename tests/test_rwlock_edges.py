"""Direct edge-case coverage for ``repro.util.rwlock.RWLock``.

The concurrent-service suite exercises the lock through the cache
pipeline; these tests pin the lock's own contract where it was only
covered indirectly: release underflow on the write-reentrant path, the
read→write upgrade refusal, and writer-preference ordering under an
arriving-reader stream.
"""

from __future__ import annotations

import threading

import pytest

from repro.util.rwlock import NullRWLock, RWLock


class TestReleaseUnderflow:
    def test_write_reentrancy_then_underflow(self):
        lock = RWLock()
        lock.acquire_write()
        lock.acquire_write()           # reentrant: depth 2
        lock.release_write()
        lock.release_write()           # balanced
        with pytest.raises(RuntimeError, match="non-owning"):
            lock.release_write()       # underflow: no hold left

    def test_release_write_without_any_acquire(self):
        lock = RWLock()
        with pytest.raises(RuntimeError, match="non-owning"):
            lock.release_write()

    def test_release_write_by_foreign_thread(self):
        lock = RWLock()
        lock.acquire_write()
        errors: list[BaseException] = []

        def foreign():
            try:
                lock.release_write()
            except BaseException as exc:   # pragma: no branch
                errors.append(exc)

        thread = threading.Thread(target=foreign)
        thread.start()
        thread.join()
        assert len(errors) == 1 and isinstance(errors[0], RuntimeError)
        lock.release_write()           # the owner's release still works

    def test_release_read_without_acquire(self):
        lock = RWLock()
        with pytest.raises(RuntimeError, match="matching acquire"):
            lock.release_read()

    def test_read_release_balanced_then_underflow(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()            # reentrant read
        lock.release_read()
        lock.release_read()
        with pytest.raises(RuntimeError, match="matching acquire"):
            lock.release_read()

    def test_write_held_nested_read_released_out_of_order(self):
        # The documented "against LIFO convention" branch: the nested
        # read taken under a write hold may be released *after* the
        # write hold itself without corrupting the shared reader count.
        lock = RWLock()
        lock.acquire_write()
        lock.acquire_read()            # nested under our own write
        lock.release_write()
        lock.release_read()            # out of order, still balanced
        # The lock must be fully free: a fresh writer on another thread
        # can take it immediately.
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=5)
        assert acquired.is_set()


class TestUpgradeRefusal:
    def test_acquire_write_under_read_raises(self):
        lock = RWLock()
        lock.acquire_read()
        with pytest.raises(RuntimeError, match="upgrade"):
            lock.acquire_write()
        # The refusal must leave the lock coherent: finish the read,
        # then the same thread may write.
        lock.release_read()
        lock.acquire_write()
        lock.release_write()

    def test_upgrade_via_context_managers(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                with lock.write():   # noqa: SIM117 — the nesting IS the test
                    pass   # pragma: no cover

    def test_refused_upgrade_does_not_leak_writers_waiting(self):
        # The failed upgrade must not leave _writers_waiting stuck — a
        # later arriving reader would block forever against a phantom
        # writer.
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                lock.acquire_write()
        done = threading.Event()

        def reader():
            with lock.read():
                done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=5)
        assert done.is_set()

    def test_write_then_read_is_not_an_upgrade(self):
        lock = RWLock()
        with lock.write():
            with lock.read():      # downgrade-style nesting is legal
                pass
            with lock.write():     # and write reentrancy composes
                pass


class TestWriterPreference:
    def test_waiting_writer_beats_arriving_reader(self):
        """Reader holds; writer queues; a *later* reader must not
        overtake the waiting writer (starvation protection)."""
        lock = RWLock()
        order: list[str] = []
        order_mutex = threading.Lock()
        reader_in = threading.Event()
        writer_waiting = threading.Event()
        late_reader_started = threading.Event()

        def first_reader():
            with lock.read():
                reader_in.set()
                # Hold until both the writer and the late reader are
                # queued behind us.
                writer_waiting.wait(5)
                late_reader_started.wait(5)
                # Give the late reader a beat to (incorrectly) slip in.
                import time
                time.sleep(0.05)

        def writer():
            reader_in.wait(5)
            writer_waiting.set()
            lock.acquire_write()
            with order_mutex:
                order.append("writer")
            lock.release_write()

        def late_reader():
            writer_waiting.wait(5)
            late_reader_started.set()
            with lock.read():
                with order_mutex:
                    order.append("late-reader")

        threads = [threading.Thread(target=t)
                   for t in (first_reader, writer, late_reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert order == ["writer", "late-reader"]

    def test_reentrant_read_bypasses_writer_gate(self):
        """A thread already inside the read side must be able to take a
        nested read even with a writer queued — otherwise the waiting
        writer deadlocks the reader it is waiting for."""
        lock = RWLock()
        reader_in = threading.Event()
        writer_waiting = threading.Event()
        nested_ok = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                writer_waiting.wait(5)
                with lock.read():      # must not queue behind the writer
                    nested_ok.set()

        def writer():
            reader_in.wait(5)
            # Signal *after* we are provably queued: acquire_write blocks,
            # so flip the event from a helper just before the call.
            writer_waiting.set()
            lock.acquire_write()
            lock.release_write()

        threads = [threading.Thread(target=reader),
                   threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert nested_ok.is_set()

    def test_null_lock_is_a_true_noop(self):
        lock = NullRWLock()
        # Wildly unbalanced usage must never raise: the null lock is
        # the zero-cost single-session path.
        lock.release_write()
        lock.release_read()
        with lock.read():
            with lock.write():     # "upgrade" is fine on the null lock
                pass


class TestNullLockContext:
    """``read()`` / ``write()`` return the null lock itself, which is its
    own context manager: it must still behave like the generator-based
    managers it replaced."""

    def test_both_sides_yield_the_lock(self):
        lock = NullRWLock()
        with lock.read() as held:
            assert held is lock
        with lock.write() as held:
            assert held is lock

    def test_holds_nest(self):
        lock = NullRWLock()
        with lock.write() as outer:
            with lock.read() as inner:
                with lock.write() as innermost:
                    assert outer is inner is innermost is lock
        with lock.read(), lock.read():
            pass

    @pytest.mark.parametrize("side", ["read", "write"])
    def test_exceptions_propagate(self, side):
        lock = NullRWLock()
        with pytest.raises(KeyError, match="boom"):
            with getattr(lock, side)():
                raise KeyError("boom")
        # ... and leave the lock usable.
        with getattr(lock, side)() as held:
            assert held is lock
