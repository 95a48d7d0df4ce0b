"""The Candidate Set Pruner one formula step at a time — the reference
``tests/test_pruner_properties.py`` holds
:func:`repro.runtime.pruner.prune_candidate_set` equal to, field by
field.  Each step is one named set expression on the ``int`` id sets
(bit *i* ⟺ graph id *i*): :func:`valid_answer` for formula (1),
:func:`possible_answer` for formula (4).
"""

from __future__ import annotations

from repro.cache.entry import QueryType
from repro.runtime.processors import DiscoveryResult
from repro.runtime.pruner import PruneOutcome
from repro.cache.entry import CacheEntry


def valid_answer(entry: CacheEntry) -> int:
    """``CGvalid ∩ Answer`` — the test-free positives of formula (1)."""
    return entry.valid & entry.answer


def possible_answer(entry: CacheEntry, universe_size: int) -> int:
    """``¬CGvalid ∪ Answer`` over ``universe_size`` ids — formula (4):
    every graph that could possibly satisfy a query related to this
    entry; its complement is safely prunable."""
    return (~entry.valid & ((1 << universe_size) - 1)) | entry.answer


def reference_prune_candidate_set(query_type: QueryType, cs_m: int,
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

    outcome = PruneOutcome(answer_free=0, candidates=cs_m)

    # Formula (1): test-free positives from answer-giving entries.  Each
    # donation is intersected with CS_M: CGvalid bits of dead graphs are
    # cleared by validation, so the intersection is a no-op in normal
    # operation — it is kept as defence in depth (Lemma 1 relies on
    # donations being valid *current* dataset graphs).
    per_entry_donation = outcome.donations
    for entry in answer_entries:
        donation = valid_answer(entry) & cs_m
        per_entry_donation[entry.entry_id] = donation
        outcome.answer_free = outcome.answer_free | donation

    # Formula (2): donated graphs need no sub-iso test.
    after_donation = outcome.candidates & ~outcome.answer_free

    # Formulas (4)+(5): each filtering entry bounds the candidate set to
    # the graphs that could possibly answer the query.
    reduced = after_donation
    per_entry_filtered = outcome.filtered
    for entry in filter_entries:
        allowed = possible_answer(entry, universe_size)
        removed = after_donation & ~allowed
        per_entry_filtered[entry.entry_id] = removed
        reduced = reduced & allowed
    outcome.candidates = reduced

    # Independent per-entry contributions (feeds PIN's R): an answer
    # entry alleviates the tests of its donated graphs; a filter entry
    # alleviates the tests of the graphs *it alone* would have removed.
    for entry_id, donation in per_entry_donation.items():
        outcome.contributions[entry_id] = donation
    for entry_id, removed in per_entry_filtered.items():
        if entry_id in outcome.contributions:
            outcome.contributions[entry_id] = (
                outcome.contributions[entry_id] | removed
            )
        else:
            outcome.contributions[entry_id] = removed

    # §6.3 optimal-case detection (reporting only; the formulas above
    # already produce the optimal candidate sets).
    current_ids = live_ids if live_ids is not None else cs_m
    for entry in discovery.exact:
        if entry.fully_valid(current_ids):
            outcome.exact_hit = True
            break
    if not outcome.exact_hit:
        for entry in filter_entries:
            if entry.answer == 0 and entry.fully_valid(current_ids):
                outcome.empty_shortcut = True
                break
    return outcome
