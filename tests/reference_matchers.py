"""The sub-iso kernels as they were before the plan / memo split.

These are the three bundled matchers' classes of the commit that
preceded ``repro.matching.plans``, verbatim except for the class names
and for neighbour labels, read through ``tests/graph_helpers.py`` now
that the graph type no longer lists them: every test rebuilds label
counts, profiles and the variable order from the two graphs and walks
them through the public ``LabeledGraph`` accessors.  They are the
reference ``tests/test_matcher_equivalence.py`` holds the production
kernels to — same decision, same embedding, same
``MatcherStats`` — and they are not importable from ``src/``.
"""

from __future__ import annotations

from collections import Counter

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from tests.graph_helpers import neighbor_labels

__all__ = ["ReferenceVF2Matcher", "ReferenceVF2PlusMatcher",
           "ReferenceGraphQLMatcher", "REFERENCE_MATCHERS"]


class ReferenceVF2Matcher(SubgraphMatcher):
    """Vanilla VF2, connectivity-driven static variable order."""

    name = "vf2"

    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        return self._search(query, host)

    # ------------------------------------------------------------------
    def _order(self, query: LabeledGraph) -> list[int]:
        """BFS order per component from the lowest vertex id (vanilla VF2
        explores terminal pairs by minimal id; a BFS order reproduces the
        connectivity-first behaviour with a static order)."""
        order: list[int] = []
        seen: set[int] = set()
        for start in query.vertices():
            if start in seen:
                continue
            seen.add(start)
            frontier = [start]
            while frontier:
                u = frontier.pop(0)
                order.append(u)
                for v in sorted(query.neighbors(u)):
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return order

    def _search(self, query: LabeledGraph,
                host: LabeledGraph) -> dict[int, int] | None:
        order = self._order(query)
        mapping: dict[int, int] = {}
        used: set[int] = set()
        # Pre-split host vertices by label to avoid scanning all of them
        # at the root of every branch.
        by_label: dict[object, list[int]] = {}
        for v in host.vertices():
            by_label.setdefault(host.label(v), []).append(v)

        def extend(depth: int) -> bool:
            if depth == len(order):
                return True
            self.stats.states += 1
            u = order[depth]
            mapped_neighbors = [n for n in query.neighbors(u) if n in mapping]
            if mapped_neighbors:
                # Candidates must be unmapped host neighbors of every image.
                anchor = mapping[mapped_neighbors[0]]
                candidates = host.neighbors(anchor)
            else:
                candidates = by_label.get(query.label(u), [])
            qdeg = query.degree(u)
            qlabel = query.label(u)
            for cand in candidates:
                if cand in used:
                    continue
                if host.label(cand) != qlabel:
                    continue
                if host.degree(cand) < qdeg:
                    continue
                ok = True
                for n in mapped_neighbors:
                    if not host.has_edge(mapping[n], cand):
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

        if extend(0):
            return dict(mapping)
        return None


class ReferenceVF2PlusMatcher(SubgraphMatcher):
    """VF2 with rarity-first ordering, profile pruning and lookahead."""

    name = "vf2+"

    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        return self._search(query, host)

    # ------------------------------------------------------------------
    @staticmethod
    def _variable_order(query: LabeledGraph,
                        host_label_counts: Counter) -> list[int]:
        """Rarest-label-first, high-degree-first, connectivity-first."""
        def rarity_key(v: int) -> tuple[int, int, int]:
            return (host_label_counts.get(query.label(v), 0),
                    -query.degree(v), v)

        remaining = set(query.vertices())
        order: list[int] = []
        frontier: set[int] = set()
        while remaining:
            pool = frontier if frontier else remaining
            nxt = min(pool, key=rarity_key)
            order.append(nxt)
            remaining.discard(nxt)
            frontier.discard(nxt)
            for n in query.neighbors(nxt):
                if n in remaining:
                    frontier.add(n)
        return order

    def _search(self, query: LabeledGraph,
                host: LabeledGraph) -> dict[int, int] | None:
        host_label_counts = Counter(host.labels)
        # Depth-0 fail-fast: some query label missing or under-supplied.
        query_label_counts = Counter(query.labels)
        for lab, need in query_label_counts.items():
            if host_label_counts.get(lab, 0) < need:
                return None

        order = self._variable_order(query, host_label_counts)
        query_profiles = {
            u: Counter(neighbor_labels(query, u)) for u in query.vertices()
        }
        host_profiles: dict[int, Counter] = {}
        mapping: dict[int, int] = {}
        used: set[int] = set()

        def profile_ok(u: int, cand: int) -> bool:
            prof = host_profiles.get(cand)
            if prof is None:
                prof = Counter(neighbor_labels(host, cand))
                host_profiles[cand] = prof
            qprof = query_profiles[u]
            return all(prof.get(lab, 0) >= cnt for lab, cnt in qprof.items())

        def extend(depth: int) -> bool:
            if depth == len(order):
                return True
            self.stats.states += 1
            u = order[depth]
            qlabel = query.label(u)
            qdeg = query.degree(u)
            mapped_neighbors = [n for n in query.neighbors(u) if n in mapping]
            u_unmapped = sum(
                1 for n in query.neighbors(u) if n not in mapping
            )
            if mapped_neighbors:
                anchor = min((mapping[n] for n in mapped_neighbors),
                             key=host.degree)
                pool = host.neighbors(anchor)
            else:
                pool = host.vertices()
            for cand in pool:
                if cand in used:
                    continue
                if host.label(cand) != qlabel:
                    continue
                if host.degree(cand) < qdeg:
                    continue
                adjacent = True
                for n in mapped_neighbors:
                    if not host.has_edge(mapping[n], cand):
                        adjacent = False
                        break
                if not adjacent:
                    continue
                if sum(1 for n in host.neighbors(cand)
                       if n not in used) < u_unmapped:
                    continue
                if not profile_ok(u, cand):
                    continue
                mapping[u] = cand
                used.add(cand)
                if extend(depth + 1):
                    return True
                del mapping[u]
                used.discard(cand)
            return False

        return dict(mapping) if extend(0) else None


class ReferenceGraphQLMatcher(SubgraphMatcher):
    """GraphQL: profile filter + pseudo-iso refinement + dynamic order."""

    name = "graphql"

    # ------------------------------------------------------------------
    # Phase 1: local pruning
    # ------------------------------------------------------------------
    @staticmethod
    def _profile(graph: LabeledGraph, v: int) -> Counter:
        """Label multiset of the radius-1 neighborhood around ``v``
        (excluding ``v`` itself)."""
        return Counter(graph.label(w) for w in graph.neighbors(v) if w != v)

    def _initial_candidates(self, query: LabeledGraph,
                            host: LabeledGraph) -> list[set[int]]:
        by_label: dict[object, list[int]] = {}
        for v in host.vertices():
            by_label.setdefault(host.label(v), []).append(v)
        host_profiles: dict[int, Counter] = {}
        out: list[set[int]] = []
        for u in query.vertices():
            qprof = self._profile(query, u)
            qdeg = query.degree(u)
            cands: set[int] = set()
            for v in by_label.get(query.label(u), []):
                if host.degree(v) < qdeg:
                    continue
                prof = host_profiles.get(v)
                if prof is None:
                    prof = self._profile(host, v)
                    host_profiles[v] = prof
                if all(prof.get(lab, 0) >= cnt for lab, cnt in qprof.items()):
                    cands.add(v)
            out.append(cands)
        return out

    # ------------------------------------------------------------------
    # Phase 2: global refinement (pseudo subgraph isomorphism)
    # ------------------------------------------------------------------
    @staticmethod
    def _has_semi_matching(query_neighbors: list[int], host_neighbors: list[int],
                           candidates: list[set[int]]) -> bool:
        """Can every query neighbor be matched to a *distinct* host neighbor
        it is compatible with?  Standard augmenting-path bipartite matching
        over the compatibility relation ``h ∈ candidates[qn]``."""
        match_of: dict[int, int] = {}  # host neighbor -> query neighbor

        def augment(qn: int, visited: set[int]) -> bool:
            for h in host_neighbors:
                if h in visited or h not in candidates[qn]:
                    continue
                visited.add(h)
                if h not in match_of or augment(match_of[h], visited):
                    match_of[h] = qn
                    return True
            return False

        for qn in query_neighbors:
            if not augment(qn, set()):
                return False
        return True

    def _refine(self, query: LabeledGraph, host: LabeledGraph,
                candidates: list[set[int]]) -> bool:
        """Iterate the pseudo-iso test; returns False if any candidate set
        empties (no embedding can exist)."""
        for _ in range(2):     # two refinement sweeps at most
            changed = False
            for u in query.vertices():
                q_neigh = list(query.neighbors(u))
                if not q_neigh:
                    continue
                dead: list[int] = []
                for v in candidates[u]:
                    h_neigh = list(host.neighbors(v))
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
    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        return self._search(query, host)

    def _search(self, query: LabeledGraph,
                host: LabeledGraph) -> dict[int, int] | None:
        candidates = self._initial_candidates(query, host)
        if any(not c for c in candidates):
            return None
        if not self._refine(query, host, candidates):
            return None

        n = query.num_vertices
        mapping: dict[int, int] = {}
        used: set[int] = set()

        def live_count(u: int) -> int:
            """Candidates of u consistent with the current partial map."""
            mapped_neighbors = [x for x in query.neighbors(u) if x in mapping]
            count = 0
            for v in candidates[u]:
                if v in used:
                    continue
                if all(host.has_edge(mapping[x], v) for x in mapped_neighbors):
                    count += 1
            return count

        def extend() -> bool:
            if len(mapping) == n:
                return True
            self.stats.states += 1
            # Least-candidates-first among unmapped query vertices, with a
            # connectivity bonus: prefer vertices adjacent to the mapping.
            unmapped = [u for u in query.vertices() if u not in mapping]
            u = min(
                unmapped,
                key=lambda x: (
                    0 if any(nb in mapping for nb in query.neighbors(x)) else 1,
                    live_count(x),
                ),
            )
            mapped_neighbors = [x for x in query.neighbors(u) if x in mapping]
            for v in candidates[u]:
                if v in used:
                    continue
                if not all(host.has_edge(mapping[x], v) for x in mapped_neighbors):
                    continue
                mapping[u] = v
                used.add(v)
                if extend():
                    return True
                del mapping[u]
                used.discard(v)
            return False

        return dict(mapping) if extend() else None


REFERENCE_MATCHERS = {
    "vf2": ReferenceVF2Matcher,
    "vf2+": ReferenceVF2PlusMatcher,
    "graphql": ReferenceGraphQLMatcher,
}
