"""Canonical codes and isomorphism-invariant hashes for labeled graphs.

Two related facilities:

* :func:`wl_hash` — a Weisfeiler–Lehman color-refinement hash.  Equal for
  isomorphic graphs by construction; distinct for almost all
  non-isomorphic graphs (WL-1 has well-known blind spots such as regular
  graphs, which essentially never occur in molecule-like data).
* :func:`canonical_code` — an *exact* canonical string for small graphs
  (branch-and-bound over vertex orderings, seeded and pruned by WL
  colors).  Two graphs have the same canonical code **iff** they are
  isomorphic, provided both are within the exact-size limit.

GC+ itself does not need canonicalization for its exact-match optimal
case (the paper detects isomorphism via containment + equal vertex/edge
counts, §6.3), so this module lives with the tests, which use both
functions as an isomorphism oracle independent of the matchers.
"""

from __future__ import annotations

import hashlib

from repro.graphs.graph import LabeledGraph

__all__ = ["wl_hash", "canonical_code", "MAX_EXACT_VERTICES"]

MAX_EXACT_VERTICES = 40
"""Largest graph for which :func:`canonical_code` is exact by default."""


def _stable_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def wl_hash(graph: LabeledGraph, iterations: int | None = None) -> str:
    """Weisfeiler–Lehman refinement hash (isomorphism-invariant).

    ``iterations`` defaults to the vertex count, which guarantees the
    refinement has stabilized.
    """
    n = graph.num_vertices
    if n == 0:
        return _stable_hash("empty")
    rounds = n if iterations is None else iterations
    colors = [_stable_hash(repr(graph.label(v))) for v in graph.vertices()]
    for _ in range(rounds):
        new_colors = []
        for v in graph.vertices():
            neigh = sorted(colors[u] for u in graph.neighbors(v))
            new_colors.append(_stable_hash(colors[v] + "|" + ",".join(neigh)))
        if new_colors == colors:
            break
        colors = new_colors
    return _stable_hash(",".join(sorted(colors)) + f";n={n};m={graph.num_edges}")


def _wl_colors(graph: LabeledGraph) -> list[int]:
    """Stable WL colors as small integers (for ordering heuristics)."""
    n = graph.num_vertices
    colors = [repr(graph.label(v)) for v in graph.vertices()]
    for _ in range(n):
        signatures = [
            (colors[v], tuple(sorted(colors[u] for u in graph.neighbors(v))))
            for v in graph.vertices()
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [str(palette[sig]) for sig in signatures]
        if new_colors == colors:
            break
        colors = new_colors
    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [palette[c] for c in colors]


def canonical_code(graph: LabeledGraph,
                   max_exact_vertices: int = MAX_EXACT_VERTICES) -> str:
    """A canonical string: equal iff graphs are isomorphic (exact regime).

    For graphs larger than ``max_exact_vertices`` the function returns a
    ``"wl:"``-prefixed :func:`wl_hash` instead (still isomorphism-
    invariant, no longer complete).  The exact code is the
    lexicographically minimal encoding of (label, back-adjacency) rows
    over all vertex orderings, found by branch-and-bound with WL-color
    pruning.
    """
    n = graph.num_vertices
    if n == 0:
        return "exact:empty"
    if n > max_exact_vertices:
        return "wl:" + wl_hash(graph)

    colors = _wl_colors(graph)
    labels = [repr(graph.label(v)) for v in graph.vertices()]
    # Row component for placing vertex v at position i given placement of
    # earlier vertices: (color, label, bitmask of edges to placed vertices).
    best: list[tuple[int, str, int]] | None = None

    def search(order: list[int],
               prefix: list[tuple[int, str, int]], remaining: set[int]) -> None:
        nonlocal best
        if not remaining:
            if best is None or prefix < best:
                best = list(prefix)
            return
        position = len(order)
        # Candidate rows for every remaining vertex at this position.
        rows: list[tuple[tuple[int, str, int], int]] = []
        for v in remaining:
            mask = 0
            for i, u in enumerate(order):
                if graph.has_edge(u, v):
                    mask |= 1 << i
            # Invert adjacency mask ordering so that "more edges to earlier
            # vertices" sorts first: smaller row value == more constrained,
            # making canonical codes of connected graphs connectivity-first.
            rows.append(((colors[v], labels[v], (~mask) & ((1 << position) - 1)), v))
        rows.sort(key=lambda item: item[0])
        minimal_row = rows[0][0]
        for row, v in rows:
            if row != minimal_row:
                break  # only minimal rows can lead to the minimal code
            if best is not None:
                candidate = prefix + [row]
                if candidate > best[: len(candidate)]:
                    continue
            order.append(v)
            remaining.remove(v)
            prefix.append(row)
            search(order, prefix, remaining)
            prefix.pop()
            remaining.add(v)
            order.pop()

    search([], [], set(graph.vertices()))
    assert best is not None
    return "exact:" + ";".join(f"{c}/{lab}/{mask}" for c, lab, mask in best)
