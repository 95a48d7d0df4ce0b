"""Vanilla VF2 for non-induced subgraph isomorphism (Cordella et al. [3]).

The classic state-space search: extend a partial injective mapping one
(query-vertex, host-vertex) pair at a time, preferring pairs adjacent to
the current partial mapping (the "terminal" sets of the original paper),
with the feasibility rules specialised — and made *safe* — for the
monomorphism (non-induced) setting:

* label equality;
* every already-mapped query neighbor must map to a host neighbor of the
  candidate (core consistency — the only structural rule that is both
  necessary and sufficient to check incrementally for monomorphism);
* degree lookahead ``deg(q_vertex) ≤ deg(host_vertex)``.

The induced-isomorphism terminal-set cardinality rules of the original
VF2 are deliberately omitted: they can prune valid monomorphisms.  This
mirrors how VF2 is commonly adapted for subgraph *queries* in the FTV
literature, and it is the baseline "Method M" of the paper.

The search is :func:`repro.matching.search.extend`, on this module's
compiled steps.
"""

from __future__ import annotations

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.plans import (
    connectivity_order,
    host_table,
    neighbor_lists,
)
from repro.matching.search import Step, extend

__all__ = ["VF2Matcher"]


def _compile(query: LabeledGraph) -> tuple[Step, ...]:
    """The pattern side of every VF2 test of one graph version
    (:mod:`repro.matching.plans`): the order is static, hence so are the
    already-mapped neighbours of each depth's vertex (in the adjacency
    set's iteration order).  The degree test is the walker's bound with
    ``bound == unmapped == deg(u)``."""
    neighbors = neighbor_lists(query)
    placed: set[int] = set()
    steps: list[Step] = []
    for u in connectivity_order(query):
        degree = len(neighbors[u])
        steps.append((u, query._labels[u],
                      tuple(n for n in neighbors[u] if n in placed),
                      0, degree, degree, None))
        placed.add(u)
    return tuple(steps)


class VF2Matcher(SubgraphMatcher):
    """Vanilla VF2, connectivity-driven static variable order."""

    name = "vf2"

    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        steps = query.derived("vf2", _compile)
        return extend(host, len(steps), self.stats, host_table(host).by_label,
                      steps)
