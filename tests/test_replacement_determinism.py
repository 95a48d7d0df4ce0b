"""Replacement-policy determinism under tied scores.

Concurrent runs are only reproducible if eviction is a pure function of
the (entries, statistics, capacity) triple — the *order* the population
happens to be listed in must never leak into the victim choice.  Every
policy's ``select_victims`` ranks by ``(score, created_at, entry_id)``:
the unique ``entry_id`` tail makes the sort key a total order, so tied
scores (ubiquitous: freshly admitted entries all have R = 0) break
deterministically toward older entries, then lower ids.

These are regression tests pinning that contract for LRU, LFU, PIN,
PINC and HD, including HD's CoV²-switched sub-policy rounds.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.replacement import POLICIES, make_policy
from repro.cache.statistics import StatisticsManager
from repro.graphs.graph import LabeledGraph


def _entry(entry_id: int, created_at: int) -> CacheEntry:
    graph = LabeledGraph.from_edges("CO", [(0, 1)])
    return CacheEntry(
        entry_id=entry_id, query=graph, query_type=QueryType.SUBGRAPH,
        answer=0, valid=0, created_at=created_at,
    )


def _population(num: int, *, tied: bool, seed: int):
    """Entries + statistics; ``tied=True`` gives every entry identical
    benefit counters so only the tie-break can order them."""
    rng = random.Random(seed)
    stats = StatisticsManager()
    entries = []
    for i in range(num):
        created = i // 3  # several entries share each creation round
        entry = _entry(i, created)
        stats.register(i, created)
        if tied:
            stats.credit(i, 5, 40.0, created)
        else:
            stats.credit(i, rng.randrange(10), rng.uniform(0, 99), created)
        entries.append(entry)
    return entries, stats


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("tied", [True, False])
def test_victims_independent_of_input_order(policy_name, tied):
    entries, stats = _population(12, tied=tied, seed=31)
    capacity = 7
    reference = None
    rng = random.Random(99)
    for _ in range(20):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        policy = make_policy(policy_name)  # fresh: HD keeps round counters
        victims = [v.entry_id for v in
                   policy.select_victims(shuffled, stats, capacity)]
        if reference is None:
            reference = victims
        assert victims == reference, (
            f"{policy_name} victims depend on population order"
        )
    assert len(reference) == len(entries) - capacity


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_tied_scores_evict_older_then_lower_id(policy_name):
    entries, stats = _population(6, tied=True, seed=5)
    policy = make_policy(policy_name)
    victims = [v.entry_id for v in policy.select_victims(entries, stats, 4)]
    # All scores tied → (created_at, entry_id) decides: the two oldest,
    # lowest-id entries leave first.
    assert victims == [0, 1]


def test_hd_rounds_are_deterministic_per_population():
    """HD's PIN/PINC switch is a function of the R distribution, so the
    same population always picks the same sub-policy."""
    entries, stats = _population(10, tied=False, seed=13)
    choices = set()
    for _ in range(5):
        policy = make_policy("hd")
        policy.select_victims(entries, stats, 6)
        choices.add((policy.pin_rounds, policy.pinc_rounds))
    assert len(choices) == 1
