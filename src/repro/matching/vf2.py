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

The self-recursive closure drops its self-reference when the search
ends, so a test leaves no reference cycle behind ("Leave nothing for the
collector" in :mod:`repro.matching.vf2plus`).
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.plans import (
    connectivity_order,
    neighbor_lists,
    vertices_by_label,
)

__all__ = ["VF2Matcher"]

#: One depth of the static order: the pattern vertex, its label and
#: degree, and its neighbours mapped at shallower depths (in the
#: adjacency set's iteration order).
_Step = tuple[int, Hashable, int, tuple[int, ...]]


def _compile(query: LabeledGraph) -> tuple[_Step, ...]:
    """The pattern side of every VF2 test of one graph version
    (:mod:`repro.matching.plans`): the order is static, hence so are the
    already-mapped neighbours of each depth's vertex."""
    neighbors = neighbor_lists(query)
    placed: set[int] = set()
    steps: list[_Step] = []
    for u in connectivity_order(query):
        steps.append((u, query._labels[u], len(neighbors[u]),
                      tuple(n for n in neighbors[u] if n in placed)))
        placed.add(u)
    return tuple(steps)


class VF2Matcher(SubgraphMatcher):
    """Vanilla VF2, connectivity-driven static variable order."""

    name = "vf2"

    def _decide(self, query: LabeledGraph, host: LabeledGraph) -> bool:
        return self._search(query, host) is not None

    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        return self._search(query, host)

    # ------------------------------------------------------------------
    def _search(self, query: LabeledGraph,
                host: LabeledGraph) -> dict[int, int] | None:
        steps = query.derived("vf2", _compile)
        # Host vertices pre-split by label, so the root of every branch
        # does not scan all of them.
        by_label = vertices_by_label(host)
        host_labels = host._labels
        host_adjacency = host._adjacency
        mapping: dict[int, int] = {}
        used: set[int] = set()
        depth_reached = len(steps)
        states = 0

        def extend(depth: int) -> bool:
            nonlocal states
            if depth == depth_reached:
                return True
            states += 1
            u, qlabel, qdeg, mapped = steps[depth]
            if mapped:
                # Candidates must be unmapped host neighbors of every image.
                images = [host_adjacency[mapping[n]] for n in mapped]
                candidates = images[0]
            else:
                images = ()
                candidates = by_label.get(qlabel, ())
            for cand in candidates:
                if cand in used:
                    continue
                if host_labels[cand] != qlabel:
                    continue
                if len(host_adjacency[cand]) < qdeg:
                    continue
                ok = True
                for image in images:
                    if cand not in image:
                        ok = False
                        break
                if not ok:
                    continue
                mapping[u] = cand
                used.add(cand)
                if extend(depth + 1):
                    return True
                del mapping[u]
                used.discard(cand)
            return False

        try:
            found = extend(0)
        finally:
            # Break the extend <-> closure-cell cycle, so that nothing of
            # this search is left to the cyclic collector.
            del extend
        self.stats.states += states
        return mapping if found else None
