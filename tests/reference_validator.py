"""The Cache Validator's Algorithm 2 one entry and one touched id at a
time — the reference ``tests/test_cache_entry_validator.py`` holds
:func:`repro.cache.validator.validate_con`, its mask-algebra form over
every entry at once, equal to.
"""

from __future__ import annotations

from repro.cache.entry import CacheEntry, QueryType
from repro.dataset.log_analyzer import ChangeCounters

__all__ = ["refresh_validity"]


def refresh_validity(entry: CacheEntry, counters: ChangeCounters) -> int:
    """Algorithm 2: refresh one entry's ``CGvalid``, one touched id at a
    time.

    Algorithm 2's first step — extend the indicator with ``False`` up to
    the currently maximum graph id — is implicit: ids past the ``int``'s
    ``bit_length()`` already read 0.  Returns the number of bits turned
    off (for instrumentation).
    """
    if entry.query_type is QueryType.SUBGRAPH:
        positive_safe = counters.ua_exclusive  # g ⊆ G_i survives UA-only
        negative_safe = counters.ur_exclusive  # g ⊄ G_i survives UR-only
    else:
        positive_safe = counters.ur_exclusive  # G_i ⊆ g survives UR-only
        negative_safe = counters.ua_exclusive  # G_i ⊄ g survives UA-only

    turned_off = 0
    for gid in counters.total:
        bit = 1 << gid
        if not entry.valid & bit:
            continue  # already invalid; nothing can resurrect it
        if entry.answer & bit:
            if positive_safe(gid):
                continue
        else:
            if negative_safe(gid):
                continue
        entry.valid &= ~bit
        turned_off += 1
    return turned_off
