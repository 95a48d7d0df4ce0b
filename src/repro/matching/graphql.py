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
3. **Search-order optimization**: the search
   (:func:`repro.matching.search.extend`) picks, at each depth, the
   unmapped query vertex with the fewest live candidates
   (least-candidates-first dynamic ordering, :class:`_Choice`).

Neither the search nor the augmenting paths recurse, so no pattern is
too deep for them.
"""

from __future__ import annotations

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.plans import (
    HostTable,
    host_table,
    neighbor_lists,
    neighbour_needs,
)
from repro.matching.search import Step, extend

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


def _augment(qn: int, host_neighbors: set[int],
             candidates: list[set[int]], match_of: dict[int, int]) -> bool:
    """Match ``qn`` to a host neighbour, moving earlier matches along an
    augmenting path if need be: the recursive search's visits, in its
    order, on a stack of (query neighbour, host neighbours left)."""
    visited: set[int] = set()
    stack = [(qn, iter(host_neighbors))]
    through: list[int] = []
    while True:
        q, hosts = stack[-1]
        for h in hosts:
            if h not in visited and h in candidates[q]:
                visited.add(h)
                break
        else:
            stack.pop()
            if not stack:
                return False
            through.pop()
            continue
        if h in match_of:
            through.append(h)
            stack.append((match_of[h], iter(host_neighbors)))
            continue
        match_of[h] = q
        for h, (q, _) in zip(through, stack):
            match_of[h] = q
        return True


def _semi_matching(q_neigh: tuple[int, ...], h_neigh: set[int],
                   candidates: list[set[int]]) -> bool:
    """Can every ``qn`` take a *distinct* ``h ∈ candidates[qn]``?  Each
    takes its first free one; only when one finds none free, though some
    allowed, does the augmenting-path matching run, from the start.  On
    molecules most matchings are settled so, and :func:`_augment`'s
    stack would double the refinement's time."""
    taken: set[int] = set()
    for qn in q_neigh:
        allowed = candidates[qn]
        for h in h_neigh:
            if h in allowed and h not in taken:
                taken.add(h)
                break
        else:
            if allowed.isdisjoint(h_neigh):
                return False
            match_of: dict[int, int] = {}
            return all(_augment(qn, h_neigh, candidates, match_of)
                       for qn in q_neigh)
    return True


class _Choice:
    """GraphQL's search order for :func:`~repro.matching.search.extend`:
    the unmapped vertex with the fewest live candidates, vertices next to
    the mapping (the ``frontier``) first, the lowest id on ties.

    A frontier vertex's ``live`` count is its unused candidates adjacent
    to the images of its mapped neighbours (``near`` counts those).
    Placing ``u`` on ``v`` recounts ``u``'s neighbours from ``v``'s
    neighbourhood and takes ``v`` off the other frontier counts; ``log``
    keeps the old counts, to undo placements the walker took back.  Off
    the frontier, counts are needed only when a new component starts."""

    __slots__ = ("plan", "candidates", "adjacency", "live", "near",
                 "frontier", "chosen", "log")

    def __init__(self, plan: _Plan, host: LabeledGraph,
                 candidates: list[set[int]]) -> None:
        self.plan = plan
        self.candidates = candidates
        self.adjacency = host._adjacency
        self.live, self.near = [0] * len(candidates), [0] * len(candidates)
        self.frontier: set[int] = set()
        self.chosen: list[int] = []     # per depth of the current branch
        #: per placement counted: the vertex and its (x, old live) list
        self.log: list[tuple[int, list[tuple[int, int]]]] = []

    def _place(self, u: int, mapping: dict[int, int],
               used: set[int]) -> None:
        neighbors, candidates = self.plan.neighbors, self.candidates
        adjacency, live, frontier = self.adjacency, self.live, self.frontier
        v = mapping[u]
        old: list[tuple[int, int]] = []
        frontier.discard(u)
        for x in frontier:
            if v in candidates[x]:
                for y in neighbors[x]:
                    if y in mapping and v not in adjacency[mapping[y]]:
                        break
                else:
                    old.append((x, live[x]))
                    live[x] -= 1
        for x in neighbors[u]:
            self.near[x] += 1
            if x in mapping:
                continue
            images = [adjacency[mapping[y]] for y in neighbors[x]
                      if y in mapping and y != u]
            count = 0
            for h in adjacency[v]:
                if h in candidates[x] and h not in used:
                    for image in images:
                        if h not in image:
                            break
                    else:
                        count += 1
            old.append((x, live[x]))
            live[x] = count
            frontier.add(x)
        self.log.append((u, old))

    def _unplace(self) -> None:
        u, old = self.log.pop()
        for x, count in reversed(old):
            self.live[x] = count
        for x in self.plan.neighbors[u]:
            self.near[x] -= 1
            if not self.near[x]:
                self.frontier.discard(x)
        if self.near[u]:
            self.frontier.add(u)

    def __call__(self, mapping: dict[int, int], used: set[int]) -> Step:
        depth = len(mapping)
        while len(self.log) > max(depth - 1, 0):    # stale placements
            self._unplace()
        if depth:
            self._place(self.chosen[depth - 1], mapping, used)
        del self.chosen[depth:]
        live, candidates = self.live, self.candidates
        if self.frontier:
            _, u = min([(live[x], x) for x in self.frontier])
        else:
            _, u = min([(len(c) - len(c.intersection(used)), x)
                        for x, c in enumerate(candidates) if x not in mapping])
        self.chosen.append(u)
        mapped = [y for y in self.plan.neighbors[u] if y in mapping]
        return (u, self.plan.labels[u], mapped, 0, 0, 0, candidates[u])


class GraphQLMatcher(SubgraphMatcher):
    """GraphQL: profile filter + pseudo-iso refinement + dynamic order."""

    name = "graphql"

    # Phase 1: local pruning
    @staticmethod
    def _initial_candidates(plan: _Plan, table: HostTable,
                            host: LabeledGraph) -> list[set[int]]:
        # A radius-1 profile is the neighbour-label count every host
        # keeps (HostTable.neighbour_profiles), and dominance is one AND
        # with its supply mask; it implies the degree bound.
        by_label = table.by_label
        profiles = table.neighbour_profiles(host)
        return [{v for v in by_label.get(qlabel, ())
                 if not need & profiles[v].supply}
                for qlabel, need in zip(plan.labels, plan.needs)]

    # Phase 2: global refinement (pseudo subgraph isomorphism)
    def _refine(self, plan: _Plan, host: LabeledGraph,
                by_label: dict[object, list[int]],
                candidates: list[set[int]]) -> bool:
        """Iterate the pseudo-iso test; returns False if any candidate set
        empties (no embedding can exist).

        A candidate none of whose neighbours is ``excluded`` from the
        candidates of a pattern neighbour with its label passes: its
        profile dominates, so the matching exists.  Where the excluded
        vertices are under a quarter of the candidates (a long path: two
        of ~1 300), only the candidates next to them are tested; on
        molecules they are most of a label's vertices, and collecting
        their neighbours costs more than testing every candidate."""
        host_adjacency, labels = host._adjacency, plan.labels
        excluded: list[set[int] | None] = [None] * len(candidates)
        for _ in range(REFINEMENT_ROUNDS):
            changed = False
            for u, q_neigh in enumerate(plan.neighbors):
                if not q_neigh:
                    continue
                pool = candidates[u]
                if 4 * sum([len(by_label[labels[qn]]) - len(candidates[qn])
                            for qn in q_neigh]) < len(pool):
                    near: set[int] = set()
                    for qn in q_neigh:
                        if excluded[qn] is None:
                            excluded[qn] = (set(by_label[labels[qn]])
                                            - candidates[qn])
                        for h in excluded[qn]:
                            near.update(host_adjacency[h])
                    pool = pool & near
                dead = [v for v in pool
                        if not _semi_matching(q_neigh, host_adjacency[v],
                                              candidates)]
                if dead:
                    changed = True
                    candidates[u].difference_update(dead)
                    if excluded[u] is not None:
                        excluded[u].update(dead)
                    if not candidates[u]:
                        return False
            if not changed:
                break
        return True

    # Phase 3: search
    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        plan = query.derived("graphql", _Plan)
        table = host_table(host)
        candidates = self._initial_candidates(plan, table, host)
        if any(not c for c in candidates) or not self._refine(
                plan, host, table.by_label, candidates):
            return None
        return extend(host, len(candidates), self.stats, table.by_label,
                      choose=_Choice(plan, host, candidates))
