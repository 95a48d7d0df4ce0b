"""GraphQL-style subgraph matching (He & Singh, via Lee et al. [14]).

The paper's third Method M.  GraphQL's signature contributions, all
implemented here:

1. **Local pruning** by neighborhood profiles: a candidate host vertex
   must carry the query vertex's label and its radius-1 neighborhood
   label multiset must dominate the query vertex's: one AND of the query
   vertex's need mask with the host profile's supply mask
   (:mod:`repro.matching.plans`, "Profiles as masks").
2. **Global refinement** ("pseudo subgraph isomorphism"): iterated
   bipartite checks — host vertex ``v`` stays a candidate for query
   vertex ``u`` only if there is a *semi-perfect matching* from every
   neighbor of ``u`` to distinct neighbors of ``v`` through the current
   candidate relation.  Implemented with augmenting-path bipartite
   matching, swept at most twice (``REFINEMENT_ROUNDS``).
3. **Search-order optimization**: the search picks, at each depth, the
   unmapped query vertex with the fewest live candidates
   (least-candidates-first dynamic ordering).

Neither the refinement nor the search leaves a reference cycle behind a
test ("Leave nothing for the collector" in
:mod:`repro.matching.vf2plus`): the augmenting step is a module-level
function, and the search's self-recursive closure drops its
self-reference when it ends.
"""

from __future__ import annotations

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.plans import (
    neighbor_lists,
    neighbour_needs,
    neighbour_profiles,
    vertices_by_label,
)

__all__ = ["GraphQLMatcher"]

#: sweeps of the global refinement (phase 2) per test
REFINEMENT_ROUNDS = 2


class _Plan:
    """The pattern side of every GraphQL test of one graph version
    (:mod:`repro.matching.plans`): per vertex its label, its neighbours
    in the adjacency set's iteration order, and the need mask of its
    radius-1 profile."""

    __slots__ = ("labels", "neighbors", "needs")

    def __init__(self, query: LabeledGraph) -> None:
        self.labels = tuple(query._labels)
        self.neighbors = neighbor_lists(query)
        self.needs = neighbour_needs(self.labels, self.neighbors)


def _augment(qn: int, visited: set[int], host_neighbors: list[int],
             candidates: list[set[int]], match_of: dict[int, int]) -> bool:
    """One augmenting-path step of :meth:`GraphQLMatcher._has_semi_matching`.

    A module-level function taking its state as arguments, not a closure
    over it: a nested function that calls itself is a reference cycle,
    and this one runs once per (pattern vertex, candidate) pair."""
    for h in host_neighbors:
        if h in visited or h not in candidates[qn]:
            continue
        visited.add(h)
        if h not in match_of or _augment(match_of[h], visited,
                                         host_neighbors, candidates,
                                         match_of):
            match_of[h] = qn
            return True
    return False


class GraphQLMatcher(SubgraphMatcher):
    """GraphQL: profile filter + pseudo-iso refinement + dynamic order."""

    name = "graphql"

    # ------------------------------------------------------------------
    # Phase 1: local pruning
    # ------------------------------------------------------------------
    @staticmethod
    def _plan(query: LabeledGraph) -> _Plan:
        return query.derived("graphql", _Plan)

    @staticmethod
    def _initial_candidates(plan: _Plan,
                            host: LabeledGraph) -> list[set[int]]:
        # A radius-1 profile is the neighbour-label count every host
        # keeps (plans.neighbour_profiles), and dominance is one AND
        # with its supply mask; it implies the degree bound.
        by_label = vertices_by_label(host)
        table = neighbour_profiles(host)
        return [{v for v in by_label.get(qlabel, ())
                 if not need & table[v].supply}
                for qlabel, need in zip(plan.labels, plan.needs)]

    # ------------------------------------------------------------------
    # Phase 2: global refinement (pseudo subgraph isomorphism)
    # ------------------------------------------------------------------
    @staticmethod
    def _has_semi_matching(query_neighbors: tuple[int, ...],
                           host_neighbors: list[int],
                           candidates: list[set[int]]) -> bool:
        """Can every query neighbor be matched to a *distinct* host neighbor
        it is compatible with?  Standard augmenting-path bipartite matching
        over the compatibility relation ``h ∈ candidates[qn]``."""
        match_of: dict[int, int] = {}  # host neighbor -> query neighbor
        for qn in query_neighbors:
            if not _augment(qn, set(), host_neighbors, candidates, match_of):
                return False
        return True

    def _refine(self, plan: _Plan, host: LabeledGraph,
                candidates: list[set[int]]) -> bool:
        """Iterate the pseudo-iso test; returns False if any candidate set
        empties (no embedding can exist)."""
        host_adjacency = host._adjacency
        for _ in range(REFINEMENT_ROUNDS):
            changed = False
            for u, q_neigh in enumerate(plan.neighbors):
                if not q_neigh:
                    continue
                dead: list[int] = []
                for v in candidates[u]:
                    h_neigh = list(host_adjacency[v])
                    if not self._has_semi_matching(q_neigh, h_neigh, candidates):
                        dead.append(v)
                if dead:
                    changed = True
                    candidates[u].difference_update(dead)
                    if not candidates[u]:
                        return False
            if not changed:
                break
        return True

    # ------------------------------------------------------------------
    # Phase 3: search
    # ------------------------------------------------------------------
    def _decide(self, query: LabeledGraph, host: LabeledGraph) -> bool:
        return self._search(query, host) is not None

    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        return self._search(query, host)

    def _search(self, query: LabeledGraph,
                host: LabeledGraph) -> dict[int, int] | None:
        plan = self._plan(query)
        candidates = self._initial_candidates(plan, host)
        if any(not c for c in candidates):
            return None
        if not self._refine(plan, host, candidates):
            return None

        neighbors = plan.neighbors
        n = len(neighbors)
        host_adjacency = host._adjacency
        mapping: dict[int, int] = {}
        used: set[int] = set()
        states = 0

        def live_count(u: int) -> int:
            """Candidates of u consistent with the current partial map."""
            images = [host_adjacency[mapping[x]]
                      for x in neighbors[u] if x in mapping]
            count = 0
            for v in candidates[u]:
                if v in used:
                    continue
                for image in images:
                    if v not in image:
                        break
                else:
                    count += 1
            return count

        def selection_key(u: int) -> tuple[int, int]:
            for nb in neighbors[u]:
                if nb in mapping:
                    return (0, live_count(u))
            return (1, live_count(u))

        def extend() -> bool:
            nonlocal states
            if len(mapping) == n:
                return True
            states += 1
            # Least-candidates-first among unmapped query vertices, with a
            # connectivity bonus: prefer vertices adjacent to the mapping.
            u = min([x for x in range(n) if x not in mapping],
                    key=selection_key)
            images = [host_adjacency[mapping[x]]
                      for x in neighbors[u] if x in mapping]
            for v in candidates[u]:
                if v in used:
                    continue
                adjacent = True
                for image in images:
                    if v not in image:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                mapping[u] = v
                used.add(v)
                if extend():
                    return True
                del mapping[u]
                used.discard(v)
            return False

        try:
            found = extend()
        finally:
            # Break the extend <-> closure-cell cycle, so that nothing of
            # this search (selection_key and live_count hang off it) is
            # left to the cyclic collector.
            del extend
        self.stats.states += states
        return mapping if found else None
