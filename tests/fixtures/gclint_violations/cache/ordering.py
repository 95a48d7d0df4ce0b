"""Seeded lock-ordering violation (never imported).

Two call chains acquire the same two locks in opposite orders (GC110
cycle).
"""


class OrderingManager:
    def __init__(self, lock, mutex):
        self.lock = lock
        self._mutex = mutex

    def locked_then_mutexed(self):
        # Chain 1: lock is held while _mutex is acquired.
        with self.lock:
            with self._mutex:
                return 1

    def mutexed_then_locked(self):
        # Chain 2: _mutex is held while lock is acquired —
        # GC110: opposite order to chain 1, a deadlock-capable cycle.
        with self._mutex:
            with self.lock:
                return 2
