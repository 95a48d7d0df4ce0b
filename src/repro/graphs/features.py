"""Monotone graph features for sub/supergraph candidate filtering.

The GC+ cache must quickly decide, for a new query ``g`` and each cached
query ``g'``, whether ``g ⊆ g'`` or ``g' ⊆ g`` *might* hold before paying
for a verification sub-iso test.  This is the iGQ idea from the authors'
earlier work ([25] in the paper): index features that are **monotone
under subgraph isomorphism** — if ``g ⊆ g'`` then ``features(g) ≤
features(g')`` componentwise — and use the contrapositive to prune.

Features used (all monotone for non-induced subgraph isomorphism):

* vertex count, edge count;
* per-label vertex counts;
* per-(label, label) edge counts (unordered endpoint label pair);
* the sorted degree sequence is *not* monotone per-vertex, but the
  multiset dominance of degree sequences is; we use a cheaper safe
  variant: for each label, the sorted list of degrees of vertices with
  that label in the candidate must dominate the query's (checked via a
  greedy matching on sorted lists).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Hashable

from repro.graphs.graph import LabeledGraph

__all__ = ["GraphFeatures"]

Label = Hashable


@dataclass(frozen=True)
class GraphFeatures:
    """Summary of a graph used for containment pre-filtering.

    ``may_be_subgraph_of`` is a necessary condition test: it never returns
    ``False`` when containment actually holds (no false dismissals), which
    the property tests assert against ground-truth sub-iso.
    """

    num_vertices: int
    num_edges: int
    label_counts: dict[str, int] = field(hash=False)
    edge_label_counts: dict[tuple[str, str], int] = field(hash=False)
    degrees_by_label: dict[str, tuple[int, ...]] = field(hash=False)
    #: Memo slot of :class:`~repro.cache.query_index.QueryIndex`: these
    #: features packed against one index's field registry, so that one
    #: query is packed once for both lookups and its admission.  Not
    #: part of the value (never compared, hashed or shown).
    _packed: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False, hash=False)

    @classmethod
    def of_many(cls, graphs: Iterable[LabeledGraph]) -> list["GraphFeatures"]:
        """Features for a whole graph collection, order-preserving.

        The shared helper behind dataset-level feature sets (Type B
        workload generation, the bench harness): computing these once
        and passing the list around replaces the independent
        per-call-site recomputation that used to dominate
        workload-generation time.  For id-addressed access over a
        mutating dataset, use the version-aware
        :meth:`repro.dataset.store.GraphStore.features` memo instead.
        """
        return [cls.of(g) for g in graphs]

    @classmethod
    def of(cls, graph: LabeledGraph) -> "GraphFeatures":
        # Reads the graph's label list and adjacency sets directly (one
        # ``repr`` per vertex, no accessor call per vertex or edge), in
        # the order ``vertices()`` / ``edges()`` visit them, so every
        # dict below fills in the same order as through the accessors.
        # Labels are keyed by ``repr`` (mixed label types stay
        # comparable); an edge's label pair is the sorted key pair.
        adjacency = graph._adjacency
        keys = [repr(label) for label in graph._labels]
        label_counts: dict[str, int] = {}
        degrees: dict[str, list[int]] = {}
        for key, neighbours in zip(keys, adjacency):
            label_counts[key] = label_counts.get(key, 0) + 1
            degrees.setdefault(key, []).append(len(neighbours))
        edge_label_counts: dict[tuple[str, str], int] = {}
        for u, neighbours in enumerate(adjacency):
            ku = keys[u]
            for v in neighbours:
                if u < v:
                    kv = keys[v]
                    pair = (ku, kv) if ku <= kv else (kv, ku)
                    edge_label_counts[pair] = edge_label_counts.get(pair, 0) + 1
        return cls(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            label_counts=label_counts,
            edge_label_counts=edge_label_counts,
            degrees_by_label={
                k: tuple(sorted(v, reverse=True)) for k, v in degrees.items()
            },
        )

    def may_be_subgraph_of(self, other: "GraphFeatures") -> bool:
        """Necessary condition for ``self's graph ⊆ other's graph``."""
        if self.num_vertices > other.num_vertices:
            return False
        if self.num_edges > other.num_edges:
            return False
        for label, count in self.label_counts.items():
            if other.label_counts.get(label, 0) < count:
                return False
        for pair, count in self.edge_label_counts.items():
            if other.edge_label_counts.get(pair, 0) < count:
                return False
        for label, degs in self.degrees_by_label.items():
            other_degs = other.degrees_by_label.get(label, ())
            if len(other_degs) < len(degs):
                return False
            # Both sequences sorted descending: an injection mapping each
            # query vertex to a host vertex of the same label with at least
            # its degree exists iff the greedy positional check passes.
            for mine, theirs in zip(degs, other_degs):
                if mine > theirs:
                    return False
        return True
