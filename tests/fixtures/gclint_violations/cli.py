"""The seeded package's entry point (never imported): it calls every
seeded function, as the real package's code calls its own, so that
GC205 fires only on ``graphs/oracle.py``, which nothing here calls."""

if __name__ == "__main__":
    extend([])
    stamp_delta([])
    pick_chunk([0])
    evict_one({0: 0})
    first_live([0], {0})
    GraphCacheService().pick_victim([0])
    pick([0])
    save("out.txt", "")
