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
  vertices of its label (:class:`~repro.matching.plans.HostTable`),
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
(:mod:`repro.matching.plans`, "Compile once, test many").  The host
contributes its :class:`~repro.matching.plans.HostTable`: label counts,
label → vertices lists and, once a test gets past depth 0, its
vertices' neighbour-label profiles.  The pattern contributes a
:class:`_Plan` — required label counts, labels, neighbour lists, one
need mask per vertex — and, per *ranking* of its labels by host
frequency (each label's dense rank among the host's counts of them),
the variable order compiled into one step per depth.  The order only
ever compares host counts with each other, so two hosts that rank the
pattern's labels alike (ties sharing a rank) get the same order, and
with a static order the already-mapped neighbours of each depth's
vertex are static too.  What is left per test is one memo probe on each
graph, the depth-0 check (a dict probe per label), the ranking (one
comparison for two labels) and the search itself, which reads
the host's label and adjacency lists directly: the shared prologue
(:meth:`~repro.matching.base.SubgraphMatcher.is_subgraph_isomorphic`)
calls the kernel with no frame between.  Every host — a dataset graph
under subgraph semantics, a cached query during discovery — keeps its
profiles the same way
(:meth:`~repro.matching.plans.HostTable.neighbour_profiles`): one
complete tuple, built on the graph's first test past depth 0 and never
written again, of profiles interned across all live graphs.
Molecules repeat a few neighbourhoods, so a dataset graph pays a tuple
of pointers for them, not a dict per vertex, and a host rejected at
depth 0 pays nothing.  Each interned profile carries its supply mask,
set once when it is interned, so a candidate's whole neighbourhood test
is ``need & profiles[cand].supply`` — no loop over labels, no dict probe
— and the same masks serve Method M's tests and discovery's alike.  An
admitted query keeps the plan, orders and table its own run built
(cache admission moves them into its entry), so discovery does not
compile it again.  ``tests/test_gcbench_counts.py`` pins how many plans,
orders and profile tables gcbench's streams build.
"""

from __future__ import annotations

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.plans import (
    HostTable,
    neighbor_lists,
    neighbour_needs,
)
from repro.matching.search import Step, extend

__all__ = ["VF2PlusMatcher"]


class _Plan:
    """The pattern side of every VF2+ test of one graph version."""

    __slots__ = ("required", "labels", "neighbors", "needs", "orders")

    def __init__(self, query: LabeledGraph) -> None:
        #: (label, vertices needed) — the depth-0 check, and the labels
        #: whose host ranking selects the order
        self.required = tuple(query.label_multiset().items())
        self.labels = tuple(query._labels)
        self.neighbors = neighbor_lists(query)
        #: per vertex, the atoms a host candidate's profile must supply
        self.needs = neighbour_needs(self.labels, self.neighbors)
        #: host ranking of ``required``'s labels → compiled steps; grows
        #: by idempotent single stores (see the module docstring), to
        #: one entry per weak ordering of the distinct labels at most
        self.orders: dict[tuple[int, ...], tuple[Step, ...]] = {}

    def variable_order(self, ranking: tuple[int, ...]) -> list[int]:
        """Rarest-label-first, high-degree-first, connectivity-first.

        ``ranking`` is each of ``required``'s labels' dense rank among
        the host's counts of them, so ranks compare as the counts do."""
        labels, neighbors = self.labels, self.neighbors
        rank = dict(zip([label for label, _ in self.required], ranking))
        rarity = [(rank[label], -len(neighbors[v]), v)
                  for v, label in enumerate(labels)]
        rarity_key = rarity.__getitem__
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

    def compile(self, ranking: tuple[int, ...]) -> tuple[Step, ...]:
        """One step per depth; ``mapped`` in the adjacency set's
        iteration order."""
        placed: set[int] = set()
        steps: list[Step] = []
        for depth, u in enumerate(self.variable_order(ranking)):
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
        plan = query.derived("vf2+", _Plan)
        table = host.derived(HostTable, HostTable)   # plans.host_table
        counts = table.counts
        # Depth-0 fail-fast: some query label missing or under-supplied.
        supplied = []
        for lab, need in plan.required:
            have = counts.get(lab, 0)
            if have < need:
                return None
            supplied.append(have)
        # Each supply's dense rank among them (see _Plan.orders): the
        # number of distinct supplies below it.  Two labels, which half
        # of verify_bound's tests that get here have, take one
        # comparison (docs/config-fidelity.md has the shares).
        if len(supplied) == 2:
            a, b = supplied
            ranking: tuple[int, ...] = (
                (0, 0) if a == b else (0, 1) if a < b else (1, 0))
        else:
            levels = sorted(set(supplied))
            ranking = tuple([levels.index(have) for have in supplied])
        steps = plan.orders.get(ranking)
        if steps is None:
            steps = plan.orders[ranking] = plan.compile(ranking)
        return extend(host, len(steps), self.stats, table.by_label, steps,
                      table.neighbour_profiles(host), lowest=True)
