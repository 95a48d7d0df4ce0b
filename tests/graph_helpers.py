"""Graph constructions and structure queries only the tests need.

The package's query path never asks whether a graph is connected, for
the labels around a vertex or for an induced subgraph, and its dataset
generators build molecule-like trees (:mod:`repro.graphs.generators`),
not Erdős–Rényi graphs; these helpers read a :class:`LabeledGraph`
through its public accessors only.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Sequence

from repro.graphs.graph import LabeledGraph

__all__ = ["random_labeled_graph", "is_connected", "induced_subgraph",
           "neighbor_labels"]


def random_labeled_graph(num_vertices: int, edge_probability: float,
                         alphabet: Sequence[str],
                         rng: random.Random) -> LabeledGraph:
    """Erdős–Rényi ``G(n, p)`` with uniform labels (test workhorse)."""
    if not 0 <= edge_probability <= 1:
        raise ValueError(f"edge probability must be in [0,1], got {edge_probability}")
    labels = [rng.choice(list(alphabet)) for _ in range(num_vertices)]
    g = LabeledGraph()
    for lab in labels:
        g.add_vertex(lab)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_probability:
                g.add_edge(u, v)
    return g


def is_connected(graph: LabeledGraph) -> bool:
    """True for the empty graph and any single-component graph."""
    n = graph.num_vertices
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def induced_subgraph(graph: LabeledGraph,
                     vertices: Iterable[int]) -> LabeledGraph:
    """The subgraph induced by ``vertices`` (ids are remapped densely)."""
    keep = list(dict.fromkeys(vertices))
    index = {v: i for i, v in enumerate(keep)}
    g = LabeledGraph()
    for v in keep:
        if not 0 <= v < graph.num_vertices:
            raise IndexError(
                f"vertex {v} out of range [0, {graph.num_vertices})")
        g.add_vertex(graph.label(v))
    for v in keep:
        for u in graph.neighbors(v):
            if u in index and v < u:
                g.add_edge(index[v], index[u])
    return g


def neighbor_labels(graph: LabeledGraph, v: int) -> list[Hashable]:
    """Labels of the neighbors of ``v`` (with multiplicity)."""
    return [graph.label(u) for u in graph.neighbors(v)]
