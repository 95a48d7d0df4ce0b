"""The mutable graph dataset (the paper's Dataset Manager state).

Key invariant: **graph ids are assigned monotonically and never reused**.
``Answer``/``CGvalid`` indicators in the cache are ``int`` bit vectors
indexed by graph id, so a reused id would silently alias a dead graph's cached
relations onto a new graph.  DEL therefore removes the graph object but
retires its id forever.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, KeysView

from repro.dataset.log import OpType, UpdateLog
from repro.graphs.graph import LabeledGraph

__all__ = ["GraphStore"]


class GraphStore:
    """Id-addressed collection of dataset graphs with logged mutations.

    All mutations flow through the four paper operations (:meth:`add_graph`,
    :meth:`delete_graph`, :meth:`add_edge`, :meth:`remove_edge`) and are
    appended to the :class:`~repro.dataset.log.UpdateLog`.

    The set of live ids is kept as one packed integer next to the graph
    dict, so :meth:`ids_bitset` is O(1).  Only :meth:`from_graphs`, ADD
    and DEL write it — in a service, always under the service lock
    (``docs/concurrency.md``) — and UA/UR leave it alone: an edge
    mutation changes a graph, never which graphs are live.

    >>> store = GraphStore()
    >>> gid = store.add_graph(LabeledGraph.from_edges("CO", [(0, 1)]))
    >>> store.log.last_seq
    1
    """

    def __init__(self, log: UpdateLog | None = None) -> None:
        self._graphs: dict[int, LabeledGraph] = {}
        self._next_id = 0
        self.log = log if log is not None else UpdateLog()
        self._live_vertices = 0          # Σ|V| over live graphs
        #: bit *i* set iff graph *i* is live — the ``ids_bitset`` payload,
        #: written only by :meth:`from_graphs`, ADD and DEL
        self._live_bits = 0

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(cls, graphs: Iterable[LabeledGraph]) -> "GraphStore":
        """Initial dataset load.  Loading is *not* logged: the log records
        changes relative to the initial state (the paper's change plan
        starts after the dataset exists).

        The store holds a :meth:`~repro.graphs.graph.LabeledGraph.copy`
        of each graph: a caller's later write never reaches it, and the
        copy is copy-on-write, so the structure is held once until
        either side writes."""
        store = cls()
        for g in graphs:
            store._graphs[store._next_id] = g.copy()
            store._live_vertices += g.num_vertices
            store._next_id += 1
        store._live_bits = (1 << store._next_id) - 1
        return store

    # ------------------------------------------------------------------
    # The four change operations (§1: ADD / DEL / UA / UR)
    # ------------------------------------------------------------------
    def add_graph(self, graph: LabeledGraph) -> int:
        """ADD: insert a copy of ``graph``; returns its new id.

        The copy is copy-on-write (see :meth:`from_graphs`): an ADD of a
        change plan's initial graph shares its structure until a UA/UR
        on the new id, or a write to the source, materialises one."""
        gid = self._next_id
        self._next_id += 1
        self._graphs[gid] = graph.copy()
        self._live_vertices += graph.num_vertices
        self._live_bits |= 1 << gid
        self.log.append(OpType.ADD, gid)
        return gid

    def delete_graph(self, graph_id: int) -> None:
        """DEL: remove the graph; its id is never reused."""
        self._require(graph_id)
        self._live_vertices -= self._graphs[graph_id].num_vertices
        del self._graphs[graph_id]
        self._live_bits &= ~(1 << graph_id)
        self.log.append(OpType.DEL, graph_id)

    def add_edge(self, graph_id: int, u: int, v: int) -> None:
        """UA: add edge ``{u, v}`` to the stored graph."""
        self._require(graph_id)
        self._graphs[graph_id].add_edge(u, v)
        self.log.append(OpType.UA, graph_id, (u, v))

    def remove_edge(self, graph_id: int, u: int, v: int) -> None:
        """UR: remove edge ``{u, v}`` from the stored graph."""
        self._require(graph_id)
        self._graphs[graph_id].remove_edge(u, v)
        self.log.append(OpType.UR, graph_id, (u, v))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, graph_id: int) -> LabeledGraph:
        self._require(graph_id)
        return self._graphs[graph_id]

    @property
    def graphs(self) -> dict[int, LabeledGraph]:
        """The live graphs by id — the store's own dict, for hot loops
        that probe many ids (Method M); read it, never write it."""
        return self._graphs

    def __contains__(self, graph_id: int) -> bool:
        return graph_id in self._graphs

    def ids(self) -> KeysView[int]:
        """Ids of all *live* graphs."""
        return self._graphs.keys()

    def items(self) -> Iterator[tuple[int, LabeledGraph]]:
        return iter(self._graphs.items())

    def __len__(self) -> int:
        return len(self._graphs)

    @property
    def max_id(self) -> int:
        """Highest id ever assigned; -1 when no graph was ever stored.

        This is the ``m`` of Algorithm 2 (indicators must extend to
        ``m + 1`` bits).
        """
        return self._next_id - 1

    @property
    def mean_vertices(self) -> float:
        """Average vertex count over live graphs (0.0 when empty).

        Maintained incrementally; feeds the O(1) per-query cost-credit
        estimate (``GraphCacheService._credit_contributions``).
        """
        return self._live_vertices / len(self._graphs) if self._graphs else 0.0

    def ids_bitset(self) -> int:
        """Live ids as an ``int`` (bit *i* set iff graph *i* is live) —
        the Method-M candidate set ``CS_M(g)`` for SI methods (the whole
        dataset).

        O(1): the live ids are kept as one packed integer, updated by ADD
        and DEL; an ``int`` is immutable, so no caller can alias the
        store's set.
        """
        return self._live_bits

    def _require(self, graph_id: int) -> None:
        if graph_id not in self._graphs:
            raise KeyError(f"graph id {graph_id} not in dataset "
                           f"(deleted or never existed)")

    def __repr__(self) -> str:
        return (f"GraphStore({len(self._graphs)} graphs, "
                f"next_id={self._next_id})")
