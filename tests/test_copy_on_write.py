"""``LabeledGraph.copy`` is copy-on-write, and every holder stays isolated.

A copy shares its source's label list and adjacency sets until either
side is mutated; the mutator rebuilds the writer's own lists first.
Three angles on that contract:

* a model test — random chains of ``copy`` and the four mutators over a
  family of graphs, each graph checked after every step against a plain
  reference model, plus the memo rule (never shared, dropped only by
  the writer's own write);
* isolation at the service level — the caller's graphs after
  ``GraphStore.from_graphs`` and ``ChangePlan.generate``, and a query
  object after ``execute``, can be mutated without changing anything a
  run computes;
* a memory pin — loading the store no longer holds the dataset twice.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.log import OpType
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.workloads.typeb import TypeBConfig, generate_type_b
from tests.conftest import labeled_graphs

OPS = ("copy", "add_vertex", "set_label", "add_edge", "remove_edge")

steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 7), st.integers(0, 9),
              st.integers(0, 9), st.sampled_from("CNOX")),
    min_size=10, max_size=40,
)


class Model:
    """What one graph must read as: plain lists, rebuilt by hand."""

    def __init__(self, graph: LabeledGraph) -> None:
        self.labels = list(graph.labels)
        self.edges = {frozenset(e) for e in graph.edges()}

    def clone(self) -> "Model":
        other = Model.__new__(Model)
        other.labels, other.edges = list(self.labels), set(self.edges)
        return other

    def valid(self, op: str, u: int, v: int) -> bool:
        n = len(self.labels)
        if op == "add_vertex":
            return True
        if op == "set_label":
            return u < n
        if not (u < n and v < n):
            return False
        present = frozenset((u, v)) in self.edges
        if op == "add_edge":
            return u != v and not present
        return present

    def apply(self, op: str, u: int, v: int, label: str) -> None:
        if op == "add_vertex":
            self.labels.append(label)
        elif op == "set_label":
            self.labels[u] = label
        elif op == "add_edge":
            self.edges.add(frozenset((u, v)))
        else:
            self.edges.discard(frozenset((u, v)))

    def check(self, graph: LabeledGraph) -> None:
        n = len(self.labels)
        assert graph.labels == tuple(self.labels)
        assert graph.num_edges == len(self.edges)
        assert [graph.neighbors(w) for w in range(n)] == [
            {x for e in self.edges if w in e for x in e if x != w}
            for w in range(n)
        ]


def mutate(graph: LabeledGraph, op: str, u: int, v: int, label: str):
    if op == "add_vertex":
        return graph.add_vertex(label)
    if op == "set_label":
        return graph.set_label(u, label)
    return getattr(graph, op)(u, v)


@given(labeled_graphs(max_vertices=6, edge_probability=0.3), steps)
def test_copy_and_mutators_match_a_reference_model(seed_graph, chain):
    graphs = [LabeledGraph.from_edges(seed_graph.labels, seed_graph.edges())]
    models = [Model(graphs[0])]
    tokens: list[object | None] = [None]    # each graph's own memo value
    for op, which, u, v, label in chain:
        i = which % len(graphs)
        graph, model = graphs[i], models[i]
        # mostly valid vertex ids, and one past the end now and then
        u, v = u % (len(model.labels) + 1), v % (len(model.labels) + 1)
        if op == "copy":
            graphs.append(graph.copy())
            models.append(model.clone())
            tokens.append(None)
            assert graphs[-1].version == 0
        elif model.valid(op, u, v):
            version = graph.version
            new_vertex = mutate(graph, op, u, v, label)
            if op == "add_vertex":
                assert new_vertex == len(model.labels)
            model.apply(op, u, v, label)
            assert graph.version == version + 1
            tokens[i] = None
        else:
            with pytest.raises((IndexError, ValueError)):
                mutate(graph, op, u, v, label)
        for j, (g, m) in enumerate(zip(graphs, models)):
            m.check(g)
            value = g.derived("probe", lambda _: object())
            if tokens[j] is None:   # fresh: no other graph's memo
                assert all(value is not t for t in tokens)
                tokens[j] = value
            else:                   # kept across others' writes
                assert value is tokens[j]


# ----------------------------------------------------------------------
# Isolation through the service
# ----------------------------------------------------------------------
NUM_QUERIES = 40
CONFIG = GCConfig(model="CON", cache_capacity=10, window_capacity=4)


def dataset() -> list[LabeledGraph]:
    return generate_aids_like(num_graphs=40, mean_vertices=8.0,
                              std_vertices=3.0, max_vertices=14, seed=11)


def queries() -> list[LabeledGraph]:
    """The stream, one caller-owned object per position (a Type B pool
    repeats objects, and a repeat must not see the last one's writes)."""
    return [LabeledGraph.from_edges(q.graph.labels, q.graph.edges())
            for q in generate_type_b(dataset(), TypeBConfig(
                num_queries=NUM_QUERIES, no_answer_probability=0.2,
                answer_pool_size=20, no_answer_pool_size=6, seed=5,
            )).queries]


def tamper(graph: LabeledGraph) -> None:
    """Write every kind of change a caller could make."""
    if graph.num_edges:
        graph.remove_edge(*next(graph.edges()))
    graph.set_label(0, "Zz")
    graph.add_edge(0, graph.add_vertex("Zz"))


def run(tampered: bool):
    """Answers of the stream, then of an exact repeat of its last query,
    the store's graphs at the end, and each ADDed graph as it arrived."""
    graphs = dataset()
    store = GraphStore.from_graphs(graphs)
    plan_graphs = dataset()
    plan = ChangePlan.generate(plan_graphs, num_queries=NUM_QUERIES,
                               num_batches=4, ops_per_batch=6, seed=7)
    if tampered:
        for graph in graphs + plan_graphs:
            tamper(graph)
    answers = []
    added = []
    with GraphCacheService(store, CONFIG) as service:
        for position, query in enumerate(queries()):
            added += [(op.graph_id, store.get(op.graph_id).labels,
                       sorted(store.get(op.graph_id).edges()))
                      for op in service.apply(plan, position)
                      if op.op is OpType.ADD]
            answers.append(service.execute(query).answer)
            if tampered:
                tamper(query)
        repeat = service.execute(queries()[-1])
    return (answers, repeat.answer, repeat.metrics.exact_hits,
            {gid: store.get(gid) for gid in store.ids()}, added)


def test_callers_writes_never_reach_the_store_plan_or_cache():
    answers, repeat, exact, final, added = run(tampered=True)
    p_answers, p_repeat, p_exact, p_final, p_added = run(tampered=False)
    assert answers == p_answers
    assert (repeat, exact) == (p_repeat, p_exact) and exact == 1
    assert added and added == p_added
    assert final == p_final


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def traced_bytes(build):
    """Bytes still allocated after ``build()``, with its result alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return after - before


def test_loading_the_store_does_not_hold_the_dataset_twice():
    graphs = generate_aids_like(num_graphs=500, mean_vertices=18,
                                std_vertices=8, max_vertices=60, seed=2)
    store = traced_bytes(lambda: GraphStore.from_graphs(graphs))
    deep = traced_bytes(lambda: [
        LabeledGraph.from_edges(g.labels, g.edges()) for g in graphs])
    assert store < 0.05 * deep, (store, deep)
