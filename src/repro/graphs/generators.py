"""Random labeled-graph constructions.

These generators back the synthetic AIDS-like dataset
(:mod:`repro.datasets.aids`).  Everything is driven by an explicit
``random.Random`` instance so experiments are reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.graphs.graph import LabeledGraph

__all__ = [
    "random_tree",
    "random_connected_graph",
    "WeightedLabelSampler",
]


class WeightedLabelSampler:
    """Draws labels from a weighted alphabet (e.g. atom frequencies).

    >>> s = WeightedLabelSampler({"C": 3, "O": 1}, random.Random(1))
    >>> set(s.sample_many(5)) <= {"C", "O"}
    True
    """

    def __init__(self, weights: dict[str, float],
                 rng: random.Random) -> None:
        if not weights:
            raise ValueError("label alphabet must be non-empty")
        bad = {k: w for k, w in weights.items() if w <= 0}
        if bad:
            raise ValueError(f"label weights must be positive: {bad}")
        self._labels = list(weights)
        self._weights = [weights[k] for k in self._labels]
        self._rng = rng

    def sample_many(self, count: int) -> list[str]:
        return self._rng.choices(self._labels, weights=self._weights, k=count)


def random_tree(labels: Sequence[str], rng: random.Random) -> LabeledGraph:
    """A uniform random recursive tree over the given vertex labels.

    Each vertex ``i > 0`` attaches to a uniformly chosen earlier vertex,
    giving connected, molecule-like sparse skeletons.
    """
    g = LabeledGraph()
    for lab in labels:
        g.add_vertex(lab)
    for v in range(1, len(labels)):
        g.add_edge(v, rng.randrange(v))
    return g


def random_connected_graph(labels: Sequence[str], extra_edges: int,
                           rng: random.Random) -> LabeledGraph:
    """A random tree plus ``extra_edges`` additional random non-edges.

    This matches the shape of molecule graphs: a spanning skeleton with a
    small number of cycles (AIDS averages ≈47 edges over ≈45 vertices,
    i.e. roughly tree + 3 cycle-closing edges).  If the graph runs out of
    non-edges the surplus is silently dropped.
    """
    if extra_edges < 0:
        raise ValueError(f"extra_edges must be non-negative, got {extra_edges}")
    g = random_tree(labels, rng)
    n = g.num_vertices
    max_extra = n * (n - 1) // 2 - g.num_edges
    for _ in range(min(extra_edges, max_extra)):
        while True:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
                break
    return g
