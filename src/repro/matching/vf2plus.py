"""VF2+ — the tuned VF2 variant used by CT-index (Klein et al. [11]).

The paper's second Method M.  VF2+ keeps VF2's state-space search but
adds the engineering that makes it one of the strongest verifiers in the
iGraph comparisons ([7, 8] in the paper):

* **Variable order**: query vertices sorted rarest-host-label-first
  (ascending frequency of the vertex's label in the host), descending
  degree as tie-break, then made connectivity-first (each subsequent
  vertex is adjacent to an earlier one when possible).  A query label
  absent from the host is detected at depth 0 for free.
* **Per-candidate pruning**: label equality, and a radius-1
  neighbor-label-profile dominance check, evaluated lazily per
  candidate.  Dominance is one AND of two packed ints: the pattern
  vertex's need mask against the host profile's supply mask
  (:mod:`repro.matching.plans`, "Profiles as masks"; the host's
  profiles are built once per graph version, see "Compile once, test
  many").  It also covers the degree test: a profile's counts sum to
  its vertex's degree, so a dominating profile has at least the
  pattern vertex's degree.
* **Lookahead**: a candidate's unmapped-neighbor count must cover the
  query vertex's unmapped-neighbor count (safe for monomorphism).

Where the candidates come from
------------------------------
A depth's candidates are the host vertices that can extend the mapping,
in a fixed order, and the search spends its time walking them, so each
walk does no more than the order needs:

* **Root pool**: a vertex with no mapped neighbour (depth 0, and the
  first vertex of every further component) draws from the host's
  vertices of its label (:func:`~repro.matching.plans.vertices_by_label`),
  ascending — the same candidates in the same order as a scan of every
  host vertex that skips the other labels.
* **Anchor rule**: with exactly one mapped neighbour, the candidates are
  the neighbours of that neighbour's image, iterated directly; adjacency
  to the anchor holds by construction and is not probed.  With two or
  more, the lowest-degree image (the first on ties) is iterated and
  every candidate is probed against all images.
* **Lookahead bound**: ``used`` holds one host vertex per depth, so a
  candidate with at least ``depth + unmapped`` neighbours has
  ``unmapped`` unused ones; only below that bound is the exact count
  (a set difference) built.

Every check still runs on the same candidates in the same order, so
decisions, embeddings and ``MatcherStats`` equal the per-test reference
(``tests/reference_matchers.py``).

Compile once, test many
-----------------------
One query meets hundreds of hosts and one host meets every query, so
nothing that depends on a single graph is computed per test
(:mod:`repro.matching.plans`).  The host contributes its label counts,
its label → vertices lists and its vertices' neighbour-label profiles;
the pattern contributes a
:class:`_Plan` — required label counts, labels, neighbour lists, one
need mask per vertex — and, per *ranking*
of its labels by host frequency, the variable order compiled into one
step per depth.  The order only ever compares host counts with each
other, so two hosts that rank the pattern's labels alike (ties sharing a
rank) get the same order, and with a static order the already-mapped
neighbours of each depth's vertex are static too.  What is left per
test is the depth-0 check (a few dict probes), the ranking, and the
search itself, which reads the host's label and adjacency lists
directly.  Every host — a dataset graph under subgraph semantics, a
cached query during discovery — keeps its profiles the same way
(:func:`~repro.matching.plans.neighbour_profiles`): one complete tuple,
built on the graph's first test past depth 0 and never written again,
of profiles interned across all live graphs.  Molecules repeat a few
neighbourhoods, so a dataset graph pays a tuple of pointers for them,
not a dict per vertex, and a host rejected at depth 0 pays nothing.
Each interned profile carries its supply mask, set once when it is
interned, so a candidate's whole neighbourhood test is
``need & profiles[cand].supply`` — no loop over labels, no dict probe
— and the same masks serve Method M's tests and discovery's alike.

Leave nothing for the collector
-------------------------------
The search is a nested function that calls itself, because closure
cells are the cheapest place CPython offers for a recursion's shared
state.  A nested function that names itself is also a reference cycle:
the function object holds its closure, the closure holds the cell of the
enclosing frame's ``extend`` variable, and that cell holds the function.
Reference counting never frees a cycle, so every test that reached the
search used to leave the function, its cells and whatever they reach —
the mapping, the ``used`` set — to the cyclic
collector: about 1 900 unreachable objects and two gen-0 collections
per query on ``verify_bound``, 6-10% of every gcbench stream, charged to
whichever layer allocated next.  ``_walk`` now empties that one cell
when the recursion returns or raises, so the last reference to
everything else goes with the frame.  The other kernels (and the
test suite's Ullmann oracle and embedding enumerator) do the same, and
``tests/test_no_cyclic_garbage.py`` pins the result from the kernels up
to ``CacheServer.handle``: with the collector off, the code runs and
``gc.collect()`` finds nothing; ``tests/test_gcbench_counts.py`` pins it
over the full-size streams.  The collector itself is left alone — the
fix is to produce no garbage, not to stop looking for it.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.plans import (
    label_counts,
    neighbor_lists,
    neighbour_needs,
    neighbour_profiles,
    vertices_by_label,
)

__all__ = ["VF2PlusMatcher"]

Label = Hashable
#: One depth of a compiled order: the pattern vertex, its label, its
#: neighbours mapped at shallower depths (in the adjacency set's
#: iteration order), how many are not, and its profile's need mask.
_Step = tuple[int, Label, tuple[int, ...], int, int]


class _Plan:
    """The pattern side of every VF2+ test of one graph version."""

    __slots__ = ("required", "labels", "neighbors", "needs", "orders")

    def __init__(self, query: LabeledGraph) -> None:
        #: (label, vertices needed) — the depth-0 check, and the labels
        #: whose host ranking selects the order
        self.required = tuple(label_counts(query).items())
        self.labels = tuple(query._labels)
        self.neighbors = neighbor_lists(query)
        #: per vertex, the atoms a host candidate's profile must supply
        self.needs = neighbour_needs(self.labels, self.neighbors)
        #: host ranking of ``required``'s labels → compiled steps; grows
        #: by idempotent single stores (see the module docstring), to
        #: one entry per weak ordering of the distinct labels at most
        self.orders: dict[tuple[int, ...], tuple[_Step, ...]] = {}

    def variable_order(self, host_counts: dict[Label, int]) -> list[int]:
        """Rarest-label-first, high-degree-first, connectivity-first."""
        labels, neighbors = self.labels, self.neighbors

        def rarity_key(v: int) -> tuple[int, int, int]:
            return (host_counts.get(labels[v], 0), -len(neighbors[v]), v)

        remaining = set(range(len(labels)))
        order: list[int] = []
        frontier: set[int] = set()
        while remaining:
            pool = frontier if frontier else remaining
            nxt = min(pool, key=rarity_key)
            order.append(nxt)
            remaining.discard(nxt)
            frontier.discard(nxt)
            for n in neighbors[nxt]:
                if n in remaining:
                    frontier.add(n)
        return order

    def compile(self, host_counts: dict[Label, int]) -> tuple[_Step, ...]:
        placed: set[int] = set()
        steps: list[_Step] = []
        for u in self.variable_order(host_counts):
            neigh = self.neighbors[u]
            mapped = tuple(n for n in neigh if n in placed)
            steps.append((u, self.labels[u], mapped,
                          len(neigh) - len(mapped), self.needs[u]))
            placed.add(u)
        return tuple(steps)


class VF2PlusMatcher(SubgraphMatcher):
    """VF2 with rarity-first ordering, profile pruning and lookahead."""

    name = "vf2+"

    def _decide(self, query: LabeledGraph, host: LabeledGraph) -> bool:
        return self._search(query, host) is not None

    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        return self._search(query, host)

    # ------------------------------------------------------------------
    def _search(self, query: LabeledGraph,
                host: LabeledGraph) -> dict[int, int] | None:
        host_counts = label_counts(host)
        plan = query.derived("vf2+", _Plan)
        # Depth-0 fail-fast: some query label missing or under-supplied.
        supplied = []
        for lab, need in plan.required:
            have = host_counts.get(lab, 0)
            if have < need:
                return None
            supplied.append(have)
        levels = sorted(set(supplied))
        ranking = tuple([levels.index(have) for have in supplied])
        steps = plan.orders.get(ranking)
        if steps is None:
            steps = plan.orders[ranking] = plan.compile(host_counts)
        return self._walk(steps, host)

    def _walk(self, steps: tuple[_Step, ...],
              host: LabeledGraph) -> dict[int, int] | None:
        """The search past the depth-0 check.  Its own frame: the closure
        cells below are made when a frame starts, so a host rejected at
        depth 0 (about half of them under Method M) makes none."""
        by_label = vertices_by_label(host)
        host_labels = host._labels
        host_adjacency = host._adjacency
        profiles = neighbour_profiles(host)
        mapping: dict[int, int] = {}
        used: set[int] = set()
        depth_reached = len(steps)
        states = 0

        def extend(depth: int) -> bool:
            nonlocal states
            if depth == depth_reached:
                return True
            states += 1
            u, qlabel, mapped, u_unmapped, need = steps[depth]
            if len(mapped) == 1:
                # One anchor: its image's neighbours are the candidates,
                # adjacent to it by construction.
                pool = host_adjacency[mapping[mapped[0]]]
                images = ()
            elif mapped:
                # Scan the neighbourhood of the lowest-degree image
                # (first one on ties); the others are checked per
                # candidate.
                images = [host_adjacency[mapping[n]] for n in mapped]
                pool = min(images, key=len)
            else:
                images = ()
                pool = by_label[qlabel]
            # len(used) == depth: a candidate with this many neighbours
            # has u_unmapped unused ones without counting them.
            enough = depth + u_unmapped
            for cand in pool:
                if cand in used:
                    continue
                if host_labels[cand] != qlabel:
                    continue
                if need & profiles[cand].supply:
                    continue
                if images:
                    adjacent = True
                    for image in images:
                        if cand not in image:
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                if u_unmapped:
                    cand_neighbors = host_adjacency[cand]
                    if (len(cand_neighbors) < enough
                            and len(cand_neighbors - used) < u_unmapped):
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
            # extend's closure holds the cell that holds extend; empty
            # the cell, or this search's function, cells, mapping and
            # used set all wait for the cyclic collector
            # ("Leave nothing for the collector" above).
            del extend
        self.stats.states += states
        return mapping if found else None
