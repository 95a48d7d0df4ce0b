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
The search is :func:`repro.matching.search.extend` on compiled steps,
and each depth walks no more candidates than its order needs:

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
  candidate with at least ``depth + unmapped`` neighbours (a bound
  compiled into the step, the order being static) has ``unmapped``
  unused ones; only below it is the exact count (a set difference)
  built.

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
)
from repro.matching.search import Step, extend

__all__ = ["VF2PlusMatcher"]

Label = Hashable


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
        self.orders: dict[tuple[int, ...], tuple[Step, ...]] = {}

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

    def compile(self, host_counts: dict[Label, int]) -> tuple[Step, ...]:
        """One step per depth; ``mapped`` in the adjacency set's
        iteration order."""
        placed: set[int] = set()
        steps: list[Step] = []
        for depth, u in enumerate(self.variable_order(host_counts)):
            neigh = self.neighbors[u]
            mapped = tuple(n for n in neigh if n in placed)
            unmapped = len(neigh) - len(mapped)
            steps.append((u, self.labels[u], mapped, self.needs[u],
                          depth + unmapped if unmapped else 0, unmapped,
                          None))
            placed.add(u)
        return tuple(steps)


class VF2PlusMatcher(SubgraphMatcher):
    """VF2 with rarity-first ordering, profile pruning and lookahead."""

    name = "vf2+"

    def _embed(self, query: LabeledGraph,
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
        return extend(host, len(steps), self.stats, steps,
                    neighbour_profiles(host), lowest=True)
