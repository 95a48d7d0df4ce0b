"""GC+sub and GC+super processors — containment hit discovery (paper §6).

When a query ``g`` arrives, GC+ *"discovers whether g is a subgraph or
supergraph of cached queries concurrently by processors
GC+sub/GC+super"*.  Discovery is a two-stage FTV pipeline over the small
cached-query population:

1. the :class:`~repro.cache.query_index.QueryIndex` filters each
   direction with monotone features (complete — no missed hits), served
   from its ``(num_vertices, num_edges)`` buckets and packed signature
   groups rather than a scan of every cached entry;
2. an internal sub-iso verifier confirms the survivors.

The internal verifier's tests are **not** Method-M sub-iso tests (those
are against dataset graphs); they are accounted separately as GC+
machinery work, visible in the monitor as ``internal_tests``.

The reference system runs the two processors concurrently on a thread
pool; this reproduction runs them sequentially — the work performed and
the discovered hit sets are identical, only wall-clock overlap differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.entry import CacheEntry
from repro.cache.query_index import QueryIndex
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.vf2plus import VF2PlusMatcher

__all__ = ["DiscoveryResult", "HitDiscovery"]


@dataclass
class DiscoveryResult:
    """Verified containment relations between a query and cached queries.

    * ``containing`` — entries whose query contains ``g`` (``g ⊆ g'``):
      found by the GC+sub processor;
    * ``contained`` — entries whose query is contained in ``g``
      (``g'' ⊆ g``): found by the GC+super processor;
    * ``exact`` — entries isomorphic to ``g`` (member of both lists);
    * ``internal_tests`` — verification sub-iso calls spent on discovery.
    """

    containing: list[CacheEntry] = field(default_factory=list)
    contained: list[CacheEntry] = field(default_factory=list)
    exact: list[CacheEntry] = field(default_factory=list)
    internal_tests: int = 0


class HitDiscovery:
    """Runs both processors against the query index."""

    def __init__(self, verifier: SubgraphMatcher | None = None) -> None:
        self.verifier = verifier if verifier is not None else VF2PlusMatcher()

    def discover(self, query: LabeledGraph, index: QueryIndex,
                 features: GraphFeatures) -> DiscoveryResult:
        """Find all cached queries related to ``query`` by containment;
        ``features`` are ``query``'s (the caller computes them once, for
        discovery and admission).

        Equal-sized candidates are verified once: an injective embedding
        between graphs of equal vertex/edge counts is an isomorphism, so
        one directed test certifies membership in *both* hit lists (this
        is what makes the §6.3 exact-match optimal case fall out of the
        general pruning formulas — see :mod:`repro.runtime.pruner`).
        """
        # Looked up once per call, not once per candidate (and not in
        # __init__: whoever swaps the verifier's method sees it used).
        is_sub = self.verifier.is_subgraph_isomorphic
        nv, ne = query.num_vertices, query.num_edges
        containing: list[CacheEntry] = []
        contained: list[CacheEntry] = []
        exact: list[CacheEntry] = []
        tests = 0

        # GC+sub processor: g ⊆ g' candidates.  An equal-sized hit is
        # an isomorphism: an exact match of the query.
        for entry in index.candidate_supergraphs(features):
            tests += 1
            if is_sub(query, entry.query):
                containing.append(entry)
                if entry.num_vertices == nv and entry.num_edges == ne:
                    contained.append(entry)
                    exact.append(entry)

        # GC+super processor: g'' ⊆ g candidates.
        seen_exact = {entry.entry_id for entry in exact} if exact else ()
        for entry in index.candidate_subgraphs(features):
            if entry.entry_id in seen_exact:
                continue  # already certified isomorphic above
            tests += 1
            if is_sub(entry.query, query):
                contained.append(entry)
                if entry.num_vertices == nv and entry.num_edges == ne:
                    containing.append(entry)
                    exact.append(entry)
        return DiscoveryResult(containing, contained, exact, tests)
