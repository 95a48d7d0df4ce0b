"""Seeded blocking-under-service-lock violations (never imported).

One direct: pipe I/O lexically inside the service-lock region.  One
interprocedural: the blocking call sits in a helper one frame below
the ``with self._lock:`` — invisible to any lexical rule, which is the
whole point of GC111.
"""

import time


class GraphCacheService:
    def __init__(self, lock, conn, path):
        self._lock = lock
        self.conn = conn
        self.path = path

    def publish(self, payload):
        with self._lock:
            # GC111 (direct): pipe send while every session waits.
            self.conn.send(payload)

    def flush(self):
        with self._lock:
            return self._persist()

    def _persist(self):
        # GC111 (interprocedural): reached only under flush()'s hold;
        # both the sleep and the file write stall the lock.
        time.sleep(0.01)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("state")
