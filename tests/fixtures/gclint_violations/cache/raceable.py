"""Seeded unguarded shared-state mutation (never imported).

The class deliberately reuses the tracked name ``QueryIndex``: its
attributes are shared state that demands a lock.  The mutation below
is reachable from a resolved caller that holds nothing, so the
must-held analysis proves no guard on that path (GC120).
"""


class QueryIndex:
    def __init__(self):
        self.generation = 0
        self.table = {}

    def bump(self):
        # GC120: called from refresh() with no lock provably held.
        self.generation += 1

    def refresh(self, entries):
        self.bump()
        return [self.table.get(entry) for entry in entries]
