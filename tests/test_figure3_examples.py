"""The paper's Figure 3 worked examples, as exact tests of the pruner.

Figure 3 illustrates GC+ processing of a subgraph query ``g`` with
candidate set ``CS_M(g) = {G1, G2, G3, G4}``:

* **(a) subgraph case**: a cached ``g'`` with ``g ⊆ g'``,
  ``Answer(g') = {G2, G3}``, ``CGvalid(g') = {G2}`` — so
  ``Answer_sub(g) = {G2}`` and Mverifier runs on ``{G1, G3, G4}``;
* **(b) supergraph case**: a cached ``g''`` with ``g'' ⊆ g``,
  ``Answer(g'') = {G2, G3}``, ``CGvalid(g'') = {G2, G3, G4}`` — so only
  ``¬CGvalid ∪ Answer = {G1, G2, G3}`` can possibly answer ``g`` and
  Mverifier runs on ``CS ∩ {G1, G2, G3}``.

The test uses the ids 1..4 exactly as the figure does (id 0 retired).
"""

from __future__ import annotations

from repro.cache.entry import CacheEntry, QueryType
from repro.runtime.processors import DiscoveryResult
from repro.runtime.pruner import prune_candidate_set
from repro.graphs.graph import LabeledGraph
from tests.conftest import id_mask, packed_ids

UNIVERSE = 5  # ids 0..4; G0 was deleted earlier in the paper's timeline
CS = {1, 2, 3, 4}


def dummy_query(num_edges: int) -> LabeledGraph:
    return LabeledGraph.from_edges(
        ["C"] * (num_edges + 1), [(i, i + 1) for i in range(num_edges)]
    )


def make_entry(entry_id: int, answer: set[int],
               valid: set[int]) -> CacheEntry:
    return CacheEntry(
        entry_id=entry_id, query=dummy_query(2),
        query_type=QueryType.SUBGRAPH,
        answer=id_mask(answer),
        valid=id_mask(valid),
        created_at=0,
    )


def test_figure_3a_subgraph_case():
    g_prime = make_entry(1, answer={2, 3}, valid={2})
    outcome = prune_candidate_set(
        QueryType.SUBGRAPH, id_mask(CS),
        DiscoveryResult(containing=[g_prime]), universe_size=UNIVERSE,
    )
    # Answer_sub(g) = CGvalid(g') ∩ Answer(g') = {G2}
    assert packed_ids(outcome.answer_free) == [2]
    # CS_GC+sub(g) = CS_M \ Answer_sub = {G1, G3, G4}
    assert packed_ids(outcome.candidates) == [1, 3, 4]
    # G3 is NOT test-free despite being in the cached answer: its
    # validity faded (the paper's central point in §6.1).
    assert outcome.candidates >> 3 & 1


def test_figure_3b_supergraph_case():
    g_second = make_entry(2, answer={2, 3}, valid={2, 3, 4})
    outcome = prune_candidate_set(
        QueryType.SUBGRAPH, id_mask(CS),
        DiscoveryResult(contained=[g_second]), universe_size=UNIVERSE,
    )
    # g''.Answer_super(g) = ¬CGvalid(g'') ∪ Answer(g'') ⊇ {G1, G2, G3};
    # G4 is excluded: g'' ⊄ G4 held and is still valid, so g ⊄ G4.
    assert packed_ids(outcome.candidates) == [1, 2, 3]
    assert outcome.answer_free == 0
    # The pruner credits g'' with alleviating G4's test.
    assert packed_ids(outcome.contributions[2]) == [4]


def test_figure_3_combined():
    """Both hits together: §6.3 'first (2), then (5) on the result'."""
    g_prime = make_entry(1, answer={2, 3}, valid={2})
    g_second = make_entry(2, answer={2, 3}, valid={2, 3, 4})
    outcome = prune_candidate_set(
        QueryType.SUBGRAPH, id_mask(CS),
        DiscoveryResult(containing=[g_prime], contained=[g_second]),
        universe_size=UNIVERSE,
    )
    assert packed_ids(outcome.answer_free) == [2]
    # (CS \ {G2}) ∩ {G1, G2, G3} = {G1, G3}
    assert packed_ids(outcome.candidates) == [1, 3]
