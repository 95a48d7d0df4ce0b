"""Cache entries: a previous query, its frozen answer, and its validity.

Per the paper (§5.2.2): *"once a query is executed, its answer set is
finalized, which snapshots the query's relation against dataset at the
execution time — even [if] the dataset would undergo changes later, GC+
will not repeat processing previous queries. Therefore, to deal with
dataset changes, GC+ employs a [bit-vector] indicator ``CGvalid`` per
cached query, with each bit identifying the up-to-date validity of the
query's relation towards a dataset graph."*  Here both indicators are
plain ``int`` values (bit *i* ⟺ dataset graph *i*, :mod:`repro.util.bits`).

The invariant everything downstream relies on is therefore about the
*pair* of indicators, not about ``answer`` alone: **a set ``valid`` bit
means the recorded ``answer`` bit holds against the current dataset.**
GC+ itself never re-processes a cached query: the Cache Validator only
ever turns ``valid`` bits *off*.  The one write-side path that re-earns
them is renewal (:meth:`CacheManager.admit
<repro.cache.manager.CacheManager.admit>`): when the user re-issues the
query and it has just been executed against the live dataset, both
indicators are **replaced** wholesale — the result was paid for on the
critical path anyway, and a replaced pair preserves the invariant by
construction.  Every write is an assignment to the entry's field (an
``int`` is immutable), so no reader ever sees a half-edited indicator.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, field

from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph

__all__ = ["QueryType", "CacheEntry"]


class QueryType(enum.Enum):
    """The two graph-pattern query semantics of the paper (§3).

    A *subgraph* query returns dataset graphs that **contain** the query;
    a *supergraph* query returns dataset graphs **contained in** it.  A
    cache serves one workload type at a time (as in the paper's
    evaluation); the entry records which semantics its ``Answer`` bits
    carry because the validity rules (Algorithm 2) and pruning formulas
    invert between the two.
    """

    SUBGRAPH = "subgraph"
    SUPERGRAPH = "supergraph"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class CacheEntry:
    """One cached query.

    * ``answer`` — an ``int``: bit *i* set iff dataset graph *i* satisfied
      the query at execution time (``g ⊆ G_i`` for subgraph semantics,
      ``G_i ⊆ g`` for supergraph semantics).  Frozen against dataset
      changes — only ``valid`` fades; rewritten solely together with
      ``valid``, by a fresh execution's result (renewal: the field is
      reassigned).
    * ``valid`` — the ``CGvalid`` indicator, an ``int``: bit *i* set iff
      the recorded relation toward graph *i* is still guaranteed for the
      up-to-date dataset.  Initialised to the ids of all dataset graphs
      live at execution time (again on renewal); faded by the Cache
      Validator.  Ids past its ``bit_length()`` read 0 — graphs added
      since are of unknown relation.
    * ``features`` — monotone features for the query index.  Callers
      that already computed the query's features (the service does, for
      hit discovery) pass them in; otherwise they are derived here.
    * ``query`` — the entry's own copy of the caller's graph, or, given
      ``same_as`` (a cached entry holding exactly that query), that
      entry's graph object and features, shared.  Sharing is safe
      because a cached graph is **immutable**: nothing mutates
      ``entry.query`` after construction, which is also what lets the
      matchers' plans on its memo live as long as the graph.
    """

    entry_id: int
    query: LabeledGraph
    query_type: QueryType
    answer: int
    valid: int
    created_at: int  # index of the query in the stream (for recency)
    features: GraphFeatures | None = None
    num_vertices: int = field(init=False)
    num_edges: int = field(init=False)
    same_as: InitVar["CacheEntry | None"] = None

    def __post_init__(self, same_as: "CacheEntry | None") -> None:
        if same_as is not None:
            self.query, self.features = same_as.query, same_as.features
        else:
            self.query = self.query.copy()  # decouple from caller mutation
            if self.features is None:
                self.features = GraphFeatures.of(self.query)
        self.num_vertices = self.query.num_vertices
        self.num_edges = self.query.num_edges

    def fully_valid(self, live: int) -> bool:
        """Does the entry hold validity on *all* the ``live`` ids (the
        up-to-date dataset graphs)?  Required by both §6.3 optimal
        cases."""
        return not live & ~self.valid

    def __repr__(self) -> str:
        return (
            f"CacheEntry(id={self.entry_id}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, answers={self.answer.bit_count()}, "
            f"valid={self.valid.bit_count()})"
        )
