"""Seeded lock-discipline and determinism violations (never imported).

Each marked line must be caught by gclint; tests/test_analysis.py
asserts the exact rule ids fire against this file.
"""

import random


class GraphCacheService:
    def __init__(self, lock):
        self._lock = lock
        self.on_admission = None

    def admit_and_notify(self, entry):
        with self._lock:
            # GC103: user hook invoked while the service lock is held.
            self.on_admission(entry)

    def pick_victim(self, entries):
        # GC202: global-RNG draw in a cache decision path.
        return entries[int(random.random() * len(entries))]
