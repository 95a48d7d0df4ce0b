"""The Cache Validator — Algorithm 2 of the paper, for both cache models.

**EVI** (§5.1): on any dataset change the Cache Manager clears cache
and window indiscriminately (``CacheManager.clear``).  *"Log Analyzer
has to do nothing but raising a flag indicating the dataset is changed,
and Cache Validator then clears cached contents indiscriminately."*

**CON** (§5.2.2): per cached query, refresh the ``CGvalid`` indicator
from the Log Analyzer's counters:

* newly appeared graph ids read ``False`` — the relation toward a new
  graph is unknown (Algorithm 2's extend; implicit in an ``int``, whose
  bits past ``bit_length()`` are 0);
* a touched graph keeps its bit only in the two safe cases —
  **UA-exclusive** changes cannot break a *positive* subgraph-semantics
  relation (``g ⊆ G_i`` survives adding edges to ``G_i``), and
  **UR-exclusive** changes cannot break a *negative* one (``g ⊄ G_i``
  survives removing edges);
* everything else (DEL, ADD-after-DEL of the id — impossible here since
  ids are unique — or mixed UA+UR) turns the bit off.

For **supergraph-semantics** entries the two safe cases swap polarity:
``G_i ⊆ g`` survives *removing* edges from ``G_i``; ``G_i ⊄ g`` survives
*adding* edges.  The paper presents subgraph semantics and notes the
supergraph mechanism "is similar and is omitted for space reason" — the
swap is the similar mechanism, and the property-based consistency tests
in ``tests/test_consistency.py`` verify it end to end.
"""

from __future__ import annotations

from repro.cache.entry import CacheEntry, QueryType
from repro.dataset.log_analyzer import ChangeCounters

__all__ = ["validate_con"]


def validate_con(entries: list[CacheEntry],
                 counters: ChangeCounters) -> int:
    """CON: refresh every entry's indicator against the counters;
    returns the number of bits turned off.

    The :class:`~repro.cache.manager.CacheManager` owns the log cursor
    and decides *when* this runs (on query arrival, iff the log moved).
    Algorithm 2 as mask algebra: the counters become two id masks once
    per pass — the touched ids that break a recorded positive (all but
    the safe case's) and those that break a negative — and an entry
    loses ``valid & ((answer & breaks_positive) | (~answer &
    breaks_negative))``: exactly the bits Algorithm 2 turns off one
    touched id at a time (``tests/reference_validator.py`` keeps that
    per-entry form, and a property test holds the two equal).
    """
    if counters.is_empty():
        return 0
    # Touched ids with some operation other than UA / other than UR.
    # Subgraph semantics: g ⊆ G_i survives UA-only changes to G_i,
    # g ⊄ G_i survives UR-only ones; supergraph semantics swap.
    not_ua_only = not_ur_only = 0
    for gid in counters.total:
        if not counters.ua_exclusive(gid):
            not_ua_only |= 1 << gid
        if not counters.ur_exclusive(gid):
            not_ur_only |= 1 << gid
    turned_off = 0
    for entry in entries:
        if entry.query_type is QueryType.SUBGRAPH:
            breaks_positive, breaks_negative = not_ua_only, not_ur_only
        else:
            breaks_positive, breaks_negative = not_ur_only, not_ua_only
        answer = entry.answer
        off = entry.valid & ((answer & breaks_positive)
                             | (~answer & breaks_negative))
        if off:
            entry.valid &= ~off
            turned_off += off.bit_count()
    return turned_off
