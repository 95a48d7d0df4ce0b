"""What a sub-iso test needs from *one* graph, computed once per graph.

Every test ``query ⊆ host`` splits into work that depends on one of the
two graphs and work that depends on the pair.  The former lives on the
graph itself (:meth:`repro.graphs.graph.LabeledGraph.derived`: built on
first use, dropped by every mutator, never shared by ``copy()``), so the
per-test path of the bundled matchers is the search and nothing else.
This module holds the pieces more than one kernel uses; the per-matcher
pattern plans sit next to their kernels.

Everything stored is immutable once built: sessions share one matcher
instance across threads, so the matcher keeps no per-test state outside
its call frames, and graph-scoped values never change once published.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.graphs.graph import LabeledGraph

__all__ = ["label_counts", "vertices_by_label", "connectivity_order",
           "neighbor_lists"]

Label = Hashable


def label_counts(graph: LabeledGraph) -> dict[Label, int]:
    """Label → number of vertices carrying it (do not mutate).

    As a host this is what a depth-0 label-multiset check probes; as a
    pattern its items are the counts the host must supply.
    """
    return graph.derived("label_counts", LabeledGraph.label_multiset)


def _group_by_label(graph: LabeledGraph) -> dict[Label, list[int]]:
    groups: dict[Label, list[int]] = {}
    for v, lab in enumerate(graph._labels):
        groups.setdefault(lab, []).append(v)
    return groups


def vertices_by_label(graph: LabeledGraph) -> dict[Label, list[int]]:
    """Label → ascending vertex ids (do not mutate): where the kernels
    that start from a label's vertices (VF2, VF2+, GraphQL, enumeration)
    find their root candidates."""
    return graph.derived("vertices_by_label", _group_by_label)


def neighbor_lists(graph: LabeledGraph) -> list[tuple[int, ...]]:
    """Per vertex, its neighbours in the adjacency set's own iteration
    order — the order every kernel meets them in, frozen so that a plan
    built from it walks the pattern exactly as a direct walk would."""
    return [tuple(neigh) for neigh in graph._adjacency]


def connectivity_order(graph: LabeledGraph) -> list[int]:
    """BFS per component from the lowest vertex id, neighbours ascending.

    Vanilla VF2 explores terminal pairs by minimal id; a BFS order
    reproduces that connectivity-first behaviour with a static order.
    """
    adjacency = graph._adjacency
    order: list[int] = []
    seen: set[int] = set()
    for start in range(len(adjacency)):
        if start in seen:
            continue
        seen.add(start)
        frontier = deque([start])
        while frontier:
            u = frontier.popleft()
            order.append(u)
            for v in sorted(adjacency[u]):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return order
