"""Seeded determinism violation (never imported).

Each marked line must be caught; tests/test_source_rules.py asserts
the exact rule ids fire against this file.
"""

import random


class GraphCacheService:
    def pick_victim(self, entries):
        # GC202: global-RNG draw in a cache decision path.
        return entries[int(random.random() * len(entries))]
