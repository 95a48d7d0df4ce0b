"""Seeded determinism violations under a ``runtime/`` path (never
imported).

``repro/runtime`` must stay deterministic: a wall-clock read or an
unseeded RNG there would make answers and test counts diverge between
runs.  This fixture sits under the same path segment so the ``runtime``
scoping of GC201/GC202 is pinned by tests.
"""

import random
import time


def stamp_delta(ops):
    # GC201: wall-clock read in a core runtime path — a delta must be
    # a pure function of the log slice, never of time.
    return (time.time(), ops)


def pick_chunk(chunks):
    # GC202: unseeded global RNG deciding which chunk runs next — the
    # order of work must be deterministic for bit-identical replays.
    return int(random.random() * len(chunks))
