"""Common interface and shared helpers for sub-iso matchers.

Semantics: given a *query* graph ``q`` and a *host* graph ``G``, decide
whether there is an injection ``φ : V(q) → V(G)`` such that every edge
``(u, v)`` of ``q`` maps to an edge ``(φ(u), φ(v))`` of ``G`` and labels
are preserved — i.e. non-induced subgraph isomorphism (paper §3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.graphs.graph import LabeledGraph

__all__ = ["MatcherStats", "SubgraphMatcher"]


@dataclass
class MatcherStats:
    """Work counters accumulated across calls to one matcher instance.

    * ``tests`` — number of (query, host) decision calls;
    * ``states`` — search-tree states expanded (depths the walker entered);
    * ``found`` — decision calls that returned True.
    """

    tests: int = 0
    states: int = 0
    found: int = 0


class SubgraphMatcher(abc.ABC):
    """Abstract sub-iso decision algorithm with work accounting.

    The prologue every matcher shares is O(1) size feasibility, read from
    the graphs' slots (it runs once per counted test).  Anything stronger
    (label multisets, degree profiles) is left to the individual
    algorithms — that differentiation *is* the difference between
    vanilla VF2 and VF2+/GraphQL, and the paper's per-method speedups
    depend on it.
    """

    #: short identifier used in benchmark tables (overridden per class)
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = MatcherStats()

    def is_subgraph_isomorphic(self, query: LabeledGraph,
                               host: LabeledGraph) -> bool:
        """Decide ``query ⊆ host`` (non-induced, label-preserving)."""
        stats = self.stats
        stats.tests += 1
        size = len(query._labels)
        if size == 0:
            stats.found += 1
            return True
        if size > len(host._labels) or query._num_edges > host._num_edges:
            return False
        if self._embed(query, host) is None:
            return False
        stats.found += 1
        return True

    @abc.abstractmethod
    def _embed(self, query: LabeledGraph,
               host: LabeledGraph) -> dict[int, int] | None:
        """Algorithm-specific search for one embedding (sizes already
        pre-checked)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tests={self.stats.tests})"

