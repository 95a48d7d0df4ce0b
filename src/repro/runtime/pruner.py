"""Candidate Set Pruner — formulas (1)–(5) and the §6.3 optimal cases.

The paper presents the logic for subgraph queries; supergraph queries
"follow the exact inverse logic".  Both are implemented here through one
role assignment:

===============================  ======================  =====================
workload semantics               answer-giving entries   filtering entries
===============================  ======================  =====================
subgraph  (``g ⊆ G_i``?)         ``containing`` hits      ``contained`` hits
                                 (``g ⊆ g'``)             (``g'' ⊆ g``)
supergraph (``G_i ⊆ g``?)        ``contained`` hits       ``containing`` hits
                                 (``g'' ⊆ g``)            (``g ⊆ g'``)
===============================  ======================  =====================

*Answer-giving* entries donate their still-valid positives directly into
the final answer (formula (1)): for the subgraph case, ``g ⊆ g'`` and
``g' ⊆ G_i`` (valid) imply ``g ⊆ G_i``.  *Filtering* entries bound the
candidate set (formulas (4)/(5)): ``g'' ⊆ g`` and ``g'' ⊄ G_i`` (valid)
imply ``g ⊄ G_i``, so only ``¬CGvalid(g'') ∪ Answer(g'')`` can possibly
answer ``g``.

Both §6.3 optimal cases *fall out of these formulas* when the processors
certify exact matches in both hit lists (see
:mod:`repro.runtime.processors`):

* **exact match, fully valid** → the entry donates its whole valid answer
  via (1) *and* filters the candidate set down to exactly that answer via
  (5) — zero sub-iso tests remain;
* **fully-valid filtering entry with empty answer** → its
  ``¬CGvalid ∪ Answer`` set is empty → the candidate set empties — zero
  tests, empty answer.

The pruner still *detects and reports* both cases so the monitor can
reproduce the paper's hit-anatomy discussion (§7.2: exact-match hits vs
the ~4–11% of them that actually yield zero sub-iso tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.entry import QueryType
from repro.runtime.processors import DiscoveryResult

__all__ = ["PruneOutcome", "prune_candidate_set"]


@dataclass
class PruneOutcome:
    """The pruner's verdict for one query.

    * ``answer_free`` — dataset graphs added to the answer without
      sub-iso tests (``Answer_sub(g)`` of formula (1), or its supergraph
      mirror);
    * ``candidates`` — the reduced candidate set to hand to Mverifier
      (``CS_GC+`` of formulas (2)+(5));
    * ``contributions`` — per entry id, the ids of the Method-M sub-iso
      tests that entry independently alleviated (feeds R and C
      crediting: the count is ``bit_count()``);
    * ``exact_hit`` / ``empty_shortcut`` — §6.3 optimal-case flags;
    * ``donations`` / ``filtered`` — the per-entry formula applications
      (ids donated via (1), ids removed via (4)/(5)) that
      ``contributions`` merges; kept separate so explain plans can report
      *which* formula each entry applied.

    Every id set here is an ``int`` (bit *i* ⟺ graph id *i*), as the
    entries' indicators are; :func:`repro.util.bits.bit_ids` walks one
    (explain plans do).
    """

    answer_free: int
    candidates: int
    contributions: dict[int, int] = field(default_factory=dict)
    exact_hit: bool = False
    empty_shortcut: bool = False
    donations: dict[int, int] = field(default_factory=dict)
    filtered: dict[int, int] = field(default_factory=dict)


def prune_candidate_set(query_type: QueryType, cs_m: int,
                        discovery: DiscoveryResult,
                        universe_size: int,
                        live_ids: int | None = None) -> PruneOutcome:
    """Apply formulas (1)–(5) to the Method-M candidate set ``cs_m``.

    ``universe_size`` is ``max_graph_id + 1`` — the id space against which
    formula (4)'s complement is taken.

    ``live_ids`` is the set of *all* currently live dataset graph ids,
    against which the §6.3 optimal-case checks test ``fully_valid`` —
    the paper requires the entry to "hold validity towards its relation
    with all graphs in current dataset", not merely the graphs Method M
    happens to be considering.  It defaults to ``cs_m``, which is exact
    for SI methods (their candidate set *is* the whole live dataset,
    §4); callers handing a narrowed ``cs_m`` must pass ``live_ids``
    explicitly or the anatomy flags over-report the optimal cases.
    """
    if query_type is QueryType.SUBGRAPH:
        answer_entries = discovery.containing
        filter_entries = discovery.contained
    else:
        answer_entries = discovery.contained
        filter_entries = discovery.containing

    # Formula (1): test-free positives from answer-giving entries.  Each
    # donation is intersected with CS_M: CGvalid bits of dead graphs are
    # cleared by validation, so the intersection is a no-op in normal
    # operation — it is kept as defence in depth (Lemma 1 relies on
    # donations being valid *current* dataset graphs).
    donations: dict[int, int] = {}
    answer_free = 0
    for entry in answer_entries:
        donated = entry.valid & entry.answer & cs_m
        donations[entry.entry_id] = donated
        answer_free |= donated

    # Formula (2): donated graphs need no sub-iso test.
    after_donation = cs_m & ~answer_free

    # Formulas (4)+(5): each filtering entry bounds the candidate set to
    # the graphs that could possibly answer the query —
    # ``¬CGvalid ∪ Answer`` within the id universe.
    filtered: dict[int, int] = {}
    candidates = after_donation
    universe = (1 << universe_size) - 1
    for entry in filter_entries:
        allowed = (~entry.valid & universe) | entry.answer
        filtered[entry.entry_id] = after_donation & ~allowed
        candidates &= allowed

    # Independent per-entry contributions (feeds PIN's R): an answer
    # entry alleviates the tests of its donated graphs; a filter entry
    # alleviates the tests of the graphs *it alone* would have removed.
    contributions = dict(donations)
    for entry_id, removed in filtered.items():
        contributions[entry_id] = contributions.get(entry_id, 0) | removed

    # §6.3 optimal-case detection (reporting only; the formulas above
    # already produce the optimal candidate sets): an entry is fully
    # valid when its CGvalid covers every current id.
    live = live_ids if live_ids is not None else cs_m
    exact_hit = empty_shortcut = False
    for entry in discovery.exact:
        if entry.fully_valid(live):
            exact_hit = True
            break
    else:
        for entry in filter_entries:
            if not entry.answer and entry.fully_valid(live):
                empty_shortcut = True
                break
    return PruneOutcome(answer_free, candidates, contributions, exact_hit,
                        empty_shortcut, donations, filtered)
