"""The labeled undirected graph type used throughout GC+.

Follows the paper's definitions (§3): a labeled graph ``G = (V, E, l)``
with vertex set ``V``, undirected edge set ``E`` and a labeling function
``l : V → U``.  Only vertices carry labels; the paper notes the extension
to edge labels is straightforward and out of scope.

Design notes
------------
* Vertices are dense integers ``0..n-1``.  Datasets and queries are small
  (AIDS graphs average 45 vertices), so adjacency is a list of sets —
  O(1) edge queries, cheap neighbor iteration, and no third-party
  dependencies on the hot path.
* The type is mutable because the paper's dataset evolves in place
  (UA adds an edge to a stored graph, UR removes one).  Mutations bump a
  ``version`` counter and drop the graph's one memo of derived data
  (:meth:`LabeledGraph.derived`: host tables, matcher plans,
  features), so nothing computed from an older structure survives them.
* :meth:`LabeledGraph.copy` is O(1) copy-on-write.  Every holder that
  copies for isolation (the store, the change plan, cache admission)
  would otherwise hold the dataset once more; instead the copy shares
  the source's label list and adjacency sets, both graphs are marked
  shared, and the first mutator called on *either* side rebuilds its own
  lists before it writes.  Nothing ever writes into a shared list, so a
  reader of another sharer is unaffected.  There is no reference count:
  the last sharer still copies once on its first write.  The memo is
  never shared — a copy starts without one, and a write drops only the
  writer's; :meth:`LabeledGraph.move_derived` hands it to a fresh copy
  and leaves the source without one.  One visible consequence: a graph
  nobody has written to iterates its neighbour sets in its source's
  table layout, where a rebuilt ``set(s)`` (sized for its element
  count) may list a vertex of degree 5 or more in another order.
  Matchers then visit the same candidates in another order, which
  moves search-state counts only.
* Labels are arbitrary hashable objects; the AIDS-like generator uses
  small strings (atom symbols).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from typing import Any, TypeVar

__all__ = ["LabeledGraph"]

Label = Hashable
T = TypeVar("T")


class LabeledGraph:
    """A mutable, undirected, vertex-labeled graph.

    >>> g = LabeledGraph.from_edges(["C", "C", "O"], [(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.label(2)
    'O'
    >>> g.has_edge(1, 0)
    True
    """

    __slots__ = ("_labels", "_adjacency", "_num_edges", "version", "_memo",
                 "_shared")

    def __init__(self) -> None:
        self._labels: list[Label] = []
        self._adjacency: list[set[int]] = []
        self._num_edges = 0
        self.version = 0
        #: derived data by key, valid for the current structure only —
        #: see :meth:`derived`; ``None`` while nothing is memoised
        self._memo: dict[Hashable, Any] | None = None
        #: the label list and adjacency sets may be another graph's too;
        #: a mutator rebuilds its own (:meth:`_unshare`) before writing
        self._shared = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, labels: Iterable[Label],
                   edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        """Build a graph from a label list and an edge list.

        One pass that fills the label list and adjacency sets directly,
        to the graph (and the set insertion order) that
        :meth:`add_vertex` and :meth:`add_edge` build one call at a time.
        """
        g = cls()
        g._labels = list(labels)
        n = len(g._labels)
        adjacency = g._adjacency = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if 0 <= u < n and 0 <= v < n and u != v and v not in adjacency[u]:
                adjacency[u].add(v)
                adjacency[v].add(u)
                m += 1
            else:
                g.add_edge(u, v)    # raises what a call-at-a-time build does
        g._num_edges = m
        g.version = n + m
        return g

    def copy(self) -> "LabeledGraph":
        """An independent copy in O(1): copy-on-write.

        The copy shares this graph's label list and adjacency sets until
        either side is mutated; the mutator rebuilds the writer's own
        lists first, so a write is never visible on another sharer
        (labels themselves are shared; they are immutable by contract).
        The copy starts at ``version`` 0 without derived data: a memo is
        never shared.
        """
        g = LabeledGraph()
        g._labels = self._labels
        g._adjacency = self._adjacency
        g._num_edges = self._num_edges
        g._shared = self._shared = True
        return g

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        return range(len(self._labels))

    def label(self, v: int) -> Label:
        return self._labels[v]

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(self._labels)

    def neighbors(self, v: int) -> set[int]:
        """The neighbor set of ``v`` (do not mutate the returned set)."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < len(self._adjacency)):
            return False
        return v in self._adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u, neigh in enumerate(self._adjacency):
            for v in neigh:
                if u < v:
                    yield (u, v)

    def label_multiset(self) -> dict[Label, int]:
        """Histogram of vertex labels."""
        counts: dict[Label, int] = {}
        for lab in self._labels:
            counts[lab] = counts.get(lab, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Mutation (the paper's UA / UR dataset operations act through these)
    # ------------------------------------------------------------------
    def add_vertex(self, label: Label) -> int:
        """Append a vertex; returns its id."""
        if self._shared:
            self._unshare()
        self._labels.append(label)
        self._adjacency.append(set())
        self.version += 1
        self._memo = None
        return len(self._labels) - 1

    def set_label(self, v: int, label: Label) -> None:
        """Relabel vertex ``v`` (used by the Type B no-answer generator)."""
        self._check_vertex(v)
        if self._shared:
            self._unshare()
        self._labels[v] = label
        self.version += 1
        self._memo = None

    def add_edge(self, u: int, v: int) -> None:
        """Insert undirected edge ``{u, v}`` (the paper's UA operation)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        if v in self._adjacency[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        if self._shared:
            self._unshare()
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1
        self.version += 1
        self._memo = None

    def remove_edge(self, u: int, v: int) -> None:
        """Delete undirected edge ``{u, v}`` (the paper's UR operation)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adjacency[u]:
            raise ValueError(f"edge ({u}, {v}) not present")
        if self._shared:
            self._unshare()
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._num_edges -= 1
        self.version += 1
        self._memo = None

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """Vertex pairs ``u < v`` not currently joined by an edge.

        Used by the change-plan generator to pick a UA target uniformly.
        """
        n = len(self._labels)
        for u in range(n):
            adj = self._adjacency[u]
            for v in range(u + 1, n):
                if v not in adj:
                    yield (u, v)

    def _unshare(self) -> None:
        """Give this graph its own label list and adjacency sets, so the
        write that follows cannot reach another sharer."""
        self._labels = list(self._labels)
        self._adjacency = [set(neigh) for neigh in self._adjacency]
        self._shared = False

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise IndexError(
                f"vertex {v} out of range [0, {len(self._labels)})"
            )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def derived(self, key: Hashable,
                build: Callable[["LabeledGraph"], T]) -> T:
        """``build(self)``, computed once per key and graph *version*.

        The one invalidation mechanism for everything computed from a
        graph's structure (the matchers' host tables and plans,
        :meth:`repro.dataset.store.GraphStore.features`): every mutator
        drops the whole memo, so a value is never older than the
        structure it was built from.  Values must be treated as
        immutable once built — concurrent readers may build and publish
        the same value twice (the last single-reference store wins),
        which is harmless only because either copy is as good as the
        other (``docs/concurrency.md``).
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build(self)
            return value

    def forget_derived(self) -> None:
        """Drop everything :meth:`derived` memoised (mutators do this
        themselves; the query pipeline calls it so that a caller-owned
        query object leaves as it came)."""
        self._memo = None

    def move_derived(self, copy: "LabeledGraph") -> None:
        """Hand this graph's memo to ``copy`` and keep none: moved, not
        shared, so each value still has one owner and a write to either
        graph drops it from neither.  Only a :meth:`copy` of this graph
        that neither side has written to since (it still shares this
        graph's label list and adjacency sets) has the structure the
        memo was built from; any other graph gets nothing and this one
        still ends without a memo.  Cache admission uses it: the plans
        and host tables a query's own run built go into the entry that
        keeps the query (:meth:`repro.cache.manager.CacheManager.admit`)."""
        if (copy._labels is self._labels
                and copy._adjacency is self._adjacency):
            copy._memo = self._memo
        self._memo = None

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural identity (same ids, labels, edges) — not isomorphism."""
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self._labels == other._labels
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, unhashable
        raise TypeError("LabeledGraph is mutable and unhashable; "
                        "key by an immutable encoding of its labels "
                        "and edges instead")

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
        )
