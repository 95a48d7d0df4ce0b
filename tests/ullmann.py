"""Ullmann's algorithm — boolean candidate-matrix refinement.

Not one of the paper's three Method-M verifiers, but the canonical
baseline SI algorithm, kept beside ``tests/reference_matchers.py`` as an
independent correctness oracle: it shares no code with the three bundled
kernels, so four algorithms agreeing on random inputs is strong evidence
none of them is wrong.  It plugs into the service as a ready instance
(``GraphCacheService(store, matcher=UllmannMatcher())``); no config name
selects it.

Like the bundled kernels it leaves no reference cycle behind a test
("No cycle to collect" in :mod:`repro.matching.search`).
"""

from __future__ import annotations

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher

__all__ = ["UllmannMatcher"]


class UllmannMatcher(SubgraphMatcher):
    """Ullmann (1976): row-by-row assignment with neighbor refinement."""

    name = "ullmann"

    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        return self._search(query, host)

    @staticmethod
    def _refine(query: LabeledGraph, host: LabeledGraph,
                candidates: list[set[int]]) -> bool:
        """Ullmann's refinement: v stays a candidate of u only while every
        query-neighbor of u has at least one candidate adjacent to v.
        Repeats until fixpoint; False when a set empties."""
        changed = True
        while changed:
            changed = False
            for u in query.vertices():
                q_neigh = query.neighbors(u)
                dead = []
                for v in candidates[u]:
                    for qn in q_neigh:
                        if not any(
                            h in candidates[qn] for h in host.neighbors(v)
                        ):
                            dead.append(v)
                            break
                if dead:
                    changed = True
                    candidates[u].difference_update(dead)
                    if not candidates[u]:
                        return False
        return True

    def _search(self, query: LabeledGraph,
                host: LabeledGraph) -> dict[int, int] | None:
        candidates: list[set[int]] = []
        for u in query.vertices():
            qlab, qdeg = query.label(u), query.degree(u)
            candidates.append({
                v for v in host.vertices()
                if host.label(v) == qlab and host.degree(v) >= qdeg
            })
            if not candidates[-1]:
                return None
        if not self._refine(query, host, candidates):
            return None
        order = sorted(query.vertices(), key=lambda u: len(candidates[u]))
        mapping: dict[int, int] = {}
        used: set[int] = set()

        def assign(depth: int) -> bool:
            if depth == len(order):
                return True
            self.stats.states += 1
            u = order[depth]
            mapped_neighbors = [n for n in query.neighbors(u) if n in mapping]
            for v in candidates[u]:
                if v in used:
                    continue
                if not all(host.has_edge(mapping[n], v) for n in mapped_neighbors):
                    continue
                mapping[u] = v
                used.add(v)
                if assign(depth + 1):
                    return True
                del mapping[u]
                used.discard(v)
            return False

        try:
            return dict(mapping) if assign(0) else None
        finally:
            # Break the assign <-> closure-cell cycle, so that nothing of
            # this search is left to the cyclic collector.
            del assign
