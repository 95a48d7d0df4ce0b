"""Batched dataset change plans (paper §7.1, "Dataset Change Plan").

The paper interleaves dataset changes with the query stream:

    *"Dataset change operations are performed in batches, with occurrence
    time indicated by the id of queries in workload. [...] first, an
    occurrence time for the batch is selected uniformly at random from
    the id of queries; then, a type uniformly selected from {ADD, DEL,
    UA, UR}, a graph uniformly selected from dataset (ADD using the
    initial dataset instead of synthesizing additional graphs [...];
    DEL, UA and UR using the up-to-date dataset at running time) and a
    uniformly selected edge within the graph providing UA or UR being
    the selected type."*

Because DEL/UA/UR targets depend on the *up-to-date* dataset, a plan is a
schedule of **operation intents** (types + batch times chosen at
generation time); the concrete target graph/edge is resolved against the
live store when the batch fires.  Resolution uses the plan's own seeded
RNG, so a (plan seed, initial dataset, query stream) triple fully
determines the evolution.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.dataset.log import OpType
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph

__all__ = ["OpIntent", "ChangeBatch", "ChangePlan", "AppliedOp"]


@dataclass(frozen=True)
class OpIntent:
    """A scheduled operation whose target is resolved at apply time."""

    op: OpType


@dataclass
class ChangeBatch:
    """A batch of operation intents firing before query ``time``."""

    time: int
    intents: list[OpIntent]


@dataclass(frozen=True)
class AppliedOp:
    """The concrete outcome of resolving one intent (for reporting)."""

    op: OpType
    graph_id: int
    edge: tuple[int, int] | None = None


@dataclass
class ChangePlan:
    """A full change schedule over a query stream.

    ``batches`` are sorted by ``time``; :meth:`pending_batches` yields the
    ones due at a given query index so the driver can apply them in order.
    """

    batches: list[ChangeBatch]
    seed: int
    initial_graphs: list[LabeledGraph] = field(repr=False)
    _rng: random.Random = field(init=False, repr=False)
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.batches.sort(key=lambda b: b.time)
        self._rng = random.Random(self.seed ^ 0x5EED)

    # ------------------------------------------------------------------
    # Generation (paper §7.1)
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, initial_graphs: list[LabeledGraph], num_queries: int,
                 num_batches: int, ops_per_batch: int,
                 seed: int) -> "ChangePlan":
        """Generate a plan: ``num_batches`` batches of ``ops_per_batch``
        uniformly typed operations at uniform times in ``[0, num_queries)``.

        The paper's AIDS plan is 100 batches × 20 ops over 10,000 queries;
        scaled-down runs keep the same batch structure.  Zero batches or
        zero ops per batch make an empty plan; negative counts raise.
        """
        if num_queries <= 0:
            raise ValueError(f"num_queries must be positive, got {num_queries}")
        for name, count in (("num_batches", num_batches),
                            ("ops_per_batch", ops_per_batch)):
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")
        if not initial_graphs:
            raise ValueError("initial dataset must be non-empty")
        rng = random.Random(seed)
        op_types = [OpType.ADD, OpType.DEL, OpType.UA, OpType.UR]
        batches = [
            ChangeBatch(
                time=rng.randrange(num_queries),
                intents=[OpIntent(rng.choice(op_types))
                         for _ in range(ops_per_batch)],
            )
            for _ in range(num_batches)
        ]
        return cls(batches=batches, seed=seed,
                   initial_graphs=[g.copy() for g in initial_graphs])

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_due(self, store: GraphStore, query_index: int) -> list[AppliedOp]:
        """Fire every not-yet-applied batch with ``time <= query_index``.

        Returns the concrete operations performed (possibly fewer than
        scheduled when an intent is unsatisfiable — e.g. UR on an empty
        dataset — which the paper's generator avoids by construction and
        we skip defensively).
        """
        applied: list[AppliedOp] = []
        while (self._cursor < len(self.batches)
               and self.batches[self._cursor].time <= query_index):
            for intent in self.batches[self._cursor].intents:
                outcome = self._apply_intent(store, intent)
                if outcome is not None:
                    applied.append(outcome)
            self._cursor += 1
        return applied

    def _apply_intent(self, store: GraphStore,
                      intent: OpIntent) -> AppliedOp | None:
        rng = self._rng
        if intent.op is OpType.ADD:
            source = rng.choice(self.initial_graphs)
            gid = store.add_graph(source)
            return AppliedOp(OpType.ADD, gid)

        live = sorted(store.ids())
        if not live:
            return None  # nothing to delete/update; skip defensively

        if intent.op is OpType.DEL:
            gid = rng.choice(live)
            store.delete_graph(gid)
            return AppliedOp(OpType.DEL, gid)

        if intent.op is OpType.UA:
            # Uniform graph, then a uniform absent edge within it.  Graphs
            # that are already complete cannot take another edge; resample.
            gid = _first_accepted(rng, live,
                                  lambda i: _can_take_edge(store.get(i)))
            if gid is None:
                return None
            edge = self._random_non_edge(store.get(gid), rng)
            store.add_edge(gid, *edge)
            return AppliedOp(OpType.UA, gid, edge)

        # UR: uniform graph with at least one edge, then a uniform edge.
        gid = _first_accepted(rng, live,
                              lambda i: store.get(i).num_edges > 0)
        if gid is None:
            return None
        edges = sorted(store.get(gid).edges())
        edge = edges[rng.randrange(len(edges))]
        store.remove_edge(gid, *edge)
        return AppliedOp(OpType.UR, gid, edge)

    @staticmethod
    def _random_non_edge(graph: LabeledGraph,
                         rng: random.Random) -> tuple[int, int]:
        """Uniform absent vertex pair; rejection sampling with a dense
        fallback for nearly complete graphs."""
        n = graph.num_vertices
        for _ in range(64):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and not graph.has_edge(u, v):
                return (u, v) if u < v else (v, u)
        non_edges = list(graph.non_edges())
        return non_edges[rng.randrange(len(non_edges))]


def _can_take_edge(graph: LabeledGraph) -> bool:
    n = graph.num_vertices
    return n >= 2 and graph.num_edges < n * (n - 1) // 2


def _first_accepted(rng: random.Random, ids: list[int],
                    accept: Callable[[int], bool]) -> int | None:
    """The first element of ``rng.sample(ids, len(ids))`` that ``accept``
    takes, or None, leaving ``rng`` in the state that sample leaves it.

    This is CPython's ``Random.sample`` pool loop (``Lib/random.py``;
    a full-length sample always takes the pool branch) replayed draw for
    draw: position m = n ... 1 draws ``getrandbits(m.bit_length())``
    until the value is below m, then swap-removes that pool slot.  Once
    an id is accepted the rest of the permutation is never read, so the
    remaining positions only take their draws.  That keeps every plan
    made with the shuffle while skipping its list writes and its
    per-position ``_randbelow`` call.  ``tests/test_dataset.py`` pins
    the result and the generator state to ``Random.sample`` itself.
    """
    getrandbits = rng.getrandbits
    pool = list(ids)
    m = len(pool)
    found = None
    while m and found is None:
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        m -= 1
        gid = pool[j]
        pool[j] = pool[m]
        if accept(gid):
            found = gid
    while m:  # one run of positions per bit length
        k = m.bit_length()
        low = 1 << (k - 1)
        for top in range(m, low - 1, -1):
            while getrandbits(k) >= top:
                pass
        m = low - 1
    return found
