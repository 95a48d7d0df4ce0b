"""Embedding enumeration — the *matching* version of sub-iso (paper §2).

The paper distinguishes (§2) the **decision** problem (is the query
contained in each dataset graph? — what GC+ accelerates) from the
**matching** problem (locate *all* occurrences of the query within a
graph).  The decision form is all the cache needs, so nothing in
``src/`` enumerates; this test-side enumerator counts occurrences for
the tests that need more than a yes/no, on top of the same plan helpers
as the kernels, with well-defined symmetry semantics:

* :func:`enumerate_embeddings` yields every injective, label-preserving,
  non-induced embedding ``{query vertex → host vertex}``; isomorphic
  query automorphisms produce distinct embeddings (the standard
  convention: occurrences are counted per vertex mapping);
* :func:`count_embeddings` counts them without materializing;
* both accept a ``limit`` so gigantic occurrence counts (e.g. a single
  carbon vertex against a large molecule) stay bounded;
* :func:`find_embedding` asks a matcher for the one embedding its
  decision search found, and :func:`verify_embedding` checks any
  mapping against the definition.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.plans import connectivity_order, host_table

__all__ = ["enumerate_embeddings", "count_embeddings", "find_embedding",
           "verify_embedding"]


def enumerate_embeddings(query: LabeledGraph, host: LabeledGraph,
                         limit: int | None = None
                         ) -> Iterator[dict[int, int]]:
    """Yield every embedding of ``query`` into ``host``.

    >>> q = LabeledGraph.from_edges("CC", [(0, 1)])
    >>> h = LabeledGraph.from_edges("CCC", [(0, 1), (1, 2)])
    >>> sorted(tuple(sorted(e.items())) for e in enumerate_embeddings(q, h))
    [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))]
    """
    if limit is not None:
        if limit <= 0:
            return
        yield from itertools.islice(
            enumerate_embeddings(query, host), limit
        )
        return
    if query.num_vertices == 0:
        yield {}
        return
    if (query.num_vertices > host.num_vertices
            or query.num_edges > host.num_edges):
        return

    order = connectivity_order(query)
    by_label = host_table(host).by_label

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(depth: int) -> Iterator[dict[int, int]]:
        if depth == len(order):
            yield dict(mapping)
            return
        u = order[depth]
        qlabel = query.label(u)
        qdeg = query.degree(u)
        mapped_neighbors = [n for n in query.neighbors(u) if n in mapping]
        if mapped_neighbors:
            candidates = sorted(host.neighbors(mapping[mapped_neighbors[0]]))
        else:
            candidates = by_label.get(qlabel, ())
        for cand in candidates:
            if cand in used:
                continue
            if host.label(cand) != qlabel:
                continue
            if host.degree(cand) < qdeg:
                continue
            if any(not host.has_edge(mapping[n], cand)
                   for n in mapped_neighbors):
                continue
            mapping[u] = cand
            used.add(cand)
            yield from extend(depth + 1)
            del mapping[u]
            used.discard(cand)

    try:
        yield from extend(0)
    finally:
        # Exhausted or abandoned (close() raises GeneratorExit here):
        # break the extend <-> closure-cell cycle, so that nothing of
        # this enumeration is left to the cyclic collector ("Leave
        # nothing for the collector" in repro.matching.vf2plus).
        del extend


def count_embeddings(query: LabeledGraph, host: LabeledGraph,
                     limit: int | None = None) -> int:
    """Number of embeddings of ``query`` into ``host`` (capped at
    ``limit`` when given)."""
    count = 0
    for _ in enumerate_embeddings(query, host, limit=limit):
        count += 1
    return count


def find_embedding(matcher: SubgraphMatcher, query: LabeledGraph,
                   host: LabeledGraph) -> dict[int, int] | None:
    """One embedding ``{query vertex: host vertex}`` found by
    ``matcher``'s own search, or None, counted in ``matcher.stats``
    exactly as :meth:`SubgraphMatcher.is_subgraph_isomorphic` counts
    the decision."""
    stats = matcher.stats
    stats.tests += 1
    if query.num_vertices == 0:
        stats.found += 1
        return {}
    if (query.num_vertices > host.num_vertices
            or query.num_edges > host.num_edges):
        return None
    mapping = matcher._embed(query, host)
    if mapping is not None:
        stats.found += 1
    return mapping


def verify_embedding(query: LabeledGraph, host: LabeledGraph,
                     mapping: dict[int, int]) -> bool:
    """Check that ``mapping`` is a valid non-induced embedding."""
    if len(mapping) != query.num_vertices:
        return False
    if len(set(mapping.values())) != len(mapping):
        return False  # not injective
    for u, image in mapping.items():
        if not 0 <= image < host.num_vertices:
            return False
        if query.label(u) != host.label(image):
            return False
    for u, v in query.edges():
        if not host.has_edge(mapping[u], mapping[v]):
            return False
    return True
