"""Type A workloads — BFS-extracted queries (paper §7.1).

*"first, a source graph is randomly selected from dataset graphs; then,
a node is selected randomly in the said graph; finally, a query size is
selected uniformly at random from given sizes and a BFS is performed
starting from the selected node.  For each new node, all its edges
connecting it to already visited nodes are added to the generated query,
until the desired query size is reached."*

The two random selections use Uniform (U) or Zipf (Z) distributions,
giving the paper's three categories:

* ``UU`` — uniform graph, uniform node;
* ``ZU`` — Zipf graph, uniform node (skew on graphs ⇒ repeated sources ⇒
  more exact-match-prone queries);
* ``ZZ`` — Zipf graph, Zipf node (maximal skew).
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence

from repro.graphs.graph import LabeledGraph
from repro.util.zipf import DEFAULT_ALPHA, ZipfSampler
from repro.workloads.base import DEFAULT_QUERY_SIZES, Query, Workload

__all__ = ["TypeACategory", "generate_type_a", "bfs_extract"]


class TypeACategory(enum.Enum):
    """(source-graph distribution, start-node distribution)."""

    UU = ("uniform", "uniform")
    ZU = ("zipf", "uniform")
    ZZ = ("zipf", "zipf")

    @property
    def graph_dist(self) -> str:
        return self.value[0]

    @property
    def node_dist(self) -> str:
        return self.value[1]


def bfs_extract(source: LabeledGraph, start: int,
                target_edges: int) -> LabeledGraph | None:
    """Extract a connected query of exactly ``target_edges`` edges by BFS.

    Follows the paper's procedure: BFS from ``start``; when a new node is
    visited, each of its edges to already-visited nodes is added, stopping
    the instant the target size is reached.

    The traversal is **deterministic** given ``(source, start,
    target_edges)`` — neighbors are visited in ascending id order.  This
    matters for workload structure: Zipf-skewed selection repeats
    (graph, node) picks, and determinism turns repeats into *identical*
    queries (exact-match cache hits), while different sizes from the same
    start yield **nested** queries (a smaller extraction's edge sequence
    is a prefix of a larger one's, hence a subgraph) — the sub/supergraph
    hierarchy the paper's introduction motivates.

    Returns ``None`` when the start node's component has fewer than
    ``target_edges`` edges (caller resamples).
    """
    if target_edges <= 0:
        raise ValueError(f"target_edges must be positive, got {target_edges}")
    visited = [start]
    visited_set = {start}
    edges: list[tuple[int, int]] = []
    frontier = [start]
    while frontier and len(edges) < target_edges:
        u = frontier.pop(0)
        for w in sorted(source.neighbors(u)):
            if w in visited_set:
                continue
            # Visit w: add all its edges back to visited nodes, one at a
            # time, stopping exactly at the target size.
            visited_set.add(w)
            visited.append(w)
            frontier.append(w)
            back_edges = [x for x in visited if x != w
                          and source.has_edge(w, x)]
            for x in back_edges:
                edges.append((w, x))
                if len(edges) == target_edges:
                    break
            if len(edges) == target_edges:
                break
    if len(edges) < target_edges:
        return None
    # Remap to dense vertex ids, keeping only vertices that carry edges.
    used = [v for v in visited if any(v in e for e in edges)]
    index = {v: i for i, v in enumerate(used)}
    return LabeledGraph.from_edges(
        [source.label(v) for v in used],
        [(index[a], index[b]) for a, b in edges],
    )


def generate_type_a(graphs: Sequence[LabeledGraph], num_queries: int,
                    category: TypeACategory | str = TypeACategory.ZZ,
                    sizes: Sequence[int] = DEFAULT_QUERY_SIZES,
                    alpha: float = DEFAULT_ALPHA,
                    seed: int = 0,
                    max_attempts: int = 50) -> Workload:
    """Generate a Type A workload from the initial dataset graphs.

    ``max_attempts`` bounds resampling when a chosen (graph, node, size)
    cannot yield the requested size (component too small).
    """
    if isinstance(category, str):
        category = TypeACategory[category.upper()]
    if not graphs:
        raise ValueError("dataset must be non-empty")
    if num_queries <= 0:
        raise ValueError(f"num_queries must be positive, got {num_queries}")
    rng = random.Random(seed)
    graph_zipf = (ZipfSampler(len(graphs), alpha, rng=rng)
                  if category.graph_dist == "zipf" else None)
    queries: list[Query] = []
    while len(queries) < num_queries:
        for _ in range(max_attempts):
            gidx = (graph_zipf.sample() if graph_zipf is not None
                    else rng.randrange(len(graphs)))
            source = graphs[gidx]
            if source.num_vertices == 0:
                continue
            if category.node_dist == "zipf":
                node = ZipfSampler(source.num_vertices, alpha,
                                   rng=rng).sample()
            else:
                node = rng.randrange(source.num_vertices)
            size = rng.choice(list(sizes))
            query = bfs_extract(source, node, size)
            if query is not None:
                queries.append(Query(
                    graph=query,
                    size_edges=size,
                    source_graph=gidx,
                    expected_nonempty=True,
                ))
                break
        else:
            raise ValueError(
                "could not extract a query after "
                f"{max_attempts} attempts; dataset graphs may be too small "
                f"for sizes {tuple(sizes)}"
            )
    return Workload(
        name=f"typeA-{category.name}",
        queries=queries,
        metadata={
            "category": category.name,
            "alpha": alpha,
            "sizes": tuple(sizes),
            "seed": seed,
        },
    )
