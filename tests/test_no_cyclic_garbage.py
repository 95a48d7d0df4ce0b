"""The zero-garbage guard: nothing here is left to the cyclic collector.

A self-recursive closure is a reference cycle (the function holds its
closure, the closure holds the cell that holds the function), so a
sub-iso search written as one leaves itself — and its mapping, its
``used`` set, its profiles — behind for the cyclic collector on every
test; on the gcbench streams that was 6-10% of the wall time, with no
span to show it ("No cycle to collect" in ``repro.matching.search``).
The kernels now search on an explicit stack in one frame and the
pipeline above them allocates no cycle either; this file makes both a
tested property, layer by layer.

The check is ``tests/conftest.py::no_cyclic_garbage``: collect, turn the
collector off, run the code, collect again — the second collection must
find nothing.  ``tests/test_gcbench_counts.py`` holds the full-size
gcbench streams to the same standard.
"""

from __future__ import annotations

import gc
import json
import traceback

import pytest

from repro import GCConfig, GraphCacheService, GraphStore, MethodMRunner
from repro.dataset.change_plan import ChangePlan
from repro.dataset.log import OpType
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.matching import MATCHERS
from repro.serve.server import CacheServer
from repro.serve.wire import graph_to_wire
from repro.workloads.typea import generate_type_a
from repro.workloads.typeb import TypeBConfig, generate_type_b
from tests.conftest import no_cyclic_garbage
from tests.enumeration import (count_embeddings, enumerate_embeddings,
                               find_embedding)
from tests.ullmann import UllmannMatcher

#: The bundled kernels and the test suite's Ullmann oracle.
KERNELS = {**MATCHERS, "ullmann": UllmannMatcher}
STREAM = 60


# ----------------------------------------------------------------------
# The guard itself
# ----------------------------------------------------------------------
def test_the_guard_catches_a_self_recursive_closure():
    def search(n: int) -> int:
        def extend(depth: int) -> int:
            return depth if depth == n else extend(depth + 1)
        return extend(0)

    with pytest.raises(AssertionError) as caught:
        with no_cyclic_garbage():
            search(3)
    assert "search.<locals>.extend" in str(caught.value)
    assert gc.isenabled() and not gc.garbage


# ----------------------------------------------------------------------
# The kernels, directly
# ----------------------------------------------------------------------
def _path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        labels, [(i, i + 1) for i in range(len(labels) - 1)])


#: A ring with a chord: several C-C-O-C paths, and dead ends on the way.
HOST = LabeledGraph.from_edges(
    "CCOCCNCO", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                 (7, 0), (1, 4)])
HIT = _path("CCOC")
#: A triangle is not in a hexagon, and no filter sees it — label
#: counts, degrees, profiles, Ullmann's and GraphQL's refinements all
#: pass — so every kernel has to search, and fail.
MISS = LabeledGraph.from_edges("CCC", [(0, 1), (1, 2), (2, 0)])
MISS_HOST = LabeledGraph.from_edges(
    "CCCCCC", [(i, (i + 1) % 6) for i in range(6)])
#: The host's 4-cycle 1-2-3-4.  Closing a ring is an edge probe in every
#: kernel; a path is not one in VF2+, whose step with a single mapped
#: neighbour iterates that neighbour's adjacency and probes nothing.
RING = LabeledGraph.from_edges("COCC", [(0, 1), (1, 2), (2, 3), (3, 0)])


class _Exploding(set):
    """An adjacency set that raises on the first edge probe.

    Iteration stays harmless: GraphQL and Ullmann iterate host adjacency
    in their filters, before the search starts."""

    def __contains__(self, item: object) -> bool:
        raise RuntimeError("stubbed host: edge probe")


def _stubbed_host() -> LabeledGraph:
    host = HOST.copy()
    host._adjacency = [_Exploding(neigh) for neigh in host._adjacency]
    return host


@pytest.mark.parametrize("name", KERNELS)
class TestKernels:
    def test_decision_hit_and_miss(self, name):
        matcher = KERNELS[name]()
        with no_cyclic_garbage():
            assert matcher.is_subgraph_isomorphic(HIT, HOST)
            after_hit = matcher.stats.states
            assert not matcher.is_subgraph_isomorphic(MISS, MISS_HOST)
        # Both reached the search: a miss decided by a filter alone
        # would not exercise what this file is about.
        assert 0 < after_hit < matcher.stats.states

    def test_find_embedding(self, name):
        matcher = KERNELS[name]()
        with no_cyclic_garbage():
            embedding = find_embedding(matcher, HIT, HOST)
            assert find_embedding(matcher, MISS, MISS_HOST) is None
        assert embedding is not None and len(embedding) == HIT.num_vertices

    def test_search_that_raises(self, name):
        matcher = KERNELS[name]()
        host = _stubbed_host()
        raised_in = []
        with no_cyclic_garbage():
            try:
                matcher.is_subgraph_isomorphic(RING, host)
            except RuntimeError as exc:
                # ``exc`` is unbound when this block ends, and the
                # traceback (which holds this frame) dies with it.
                raised_in = [frame.name for frame in
                             traceback.extract_tb(exc.__traceback__)]
        assert {"extend", "assign"} & set(raised_in), raised_in


class TestEnumeration:
    def test_exhausted(self):
        with no_cyclic_garbage():
            embeddings = list(enumerate_embeddings(HIT, HOST))
            assert count_embeddings(MISS, MISS_HOST) == 0
        assert len(embeddings) >= 2

    def test_abandoned_after_the_first_embedding(self):
        with no_cyclic_garbage():
            stream = enumerate_embeddings(HIT, HOST)
            first = next(stream)
            del stream
        assert len(first) == HIT.num_vertices

    def test_limit(self):
        with no_cyclic_garbage():
            assert count_embeddings(HIT, HOST, limit=1) == 1


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def population():
    return generate_aids_like(num_graphs=40, mean_vertices=9.0,
                              std_vertices=3.0, max_vertices=16, seed=23)


@pytest.fixture(scope="module")
def patterns(population):
    """Pool queries with repeats: exact hits, sub- and supergraph hits."""
    workload = generate_type_b(population, TypeBConfig(
        num_queries=STREAM, no_answer_probability=0.2, answer_pool_size=12,
        no_answer_pool_size=4, seed=29))
    return [q.graph for q in workload.queries]


def _inputs(query_type, population, patterns):
    """(dataset, stream): for supergraph queries the roles swap — the
    dataset is small fragments, the stream the graphs they came from."""
    if query_type == "subgraph":
        return population, patterns
    fragments = generate_type_a(population, 40, "UU", sizes=(3, 4, 5),
                                seed=31)
    return ([q.graph for q in fragments.queries],
            [population[i % 24] for i in range(STREAM)])


def _churn(dataset) -> ChangePlan:
    return ChangePlan.generate(dataset, num_queries=STREAM, num_batches=15,
                               ops_per_batch=4, seed=37)


@pytest.mark.parametrize("query_type", ["subgraph", "supergraph"])
@pytest.mark.parametrize("model", ["CON", "EVI"])
@pytest.mark.parametrize("matcher", ["vf2", "vf2+", "graphql"])
def test_execute_stream_with_churn(population, patterns, matcher, model,
                                   query_type):
    dataset, stream = _inputs(query_type, population, patterns)
    plan = _churn(dataset)
    service = GraphCacheService(
        GraphStore.from_graphs(dataset),
        GCConfig(model=model, matcher=matcher, query_type=query_type,
                 cache_capacity=12, window_capacity=4))
    applied = set()
    answered = 0
    try:
        with no_cyclic_garbage():
            for position, query in enumerate(stream):
                applied.update(op.op for op in service.apply(plan, position))
                answered += bool(service.execute(query).answer)
        counters = service.counters()
    finally:
        service.close()
    # The stream did what the case is named after: all four mutations,
    # tests on both sides of the cache, hits, answers, and entries
    # leaving (EVI purges on every change, so little gets evicted).
    assert applied == set(OpType)
    assert counters["method_tests"] and counters["internal_tests"]
    assert counters["cache_hits"] and answered
    assert counters["purges" if model == "EVI" else "evictions"]


def test_two_sessions_and_explain(population, patterns):
    """Two sessions execute; plans and mutations go through the service,
    and ``explain`` — the pipeline's own steps 2-3 — both for a query
    not yet seen and for one just admitted (which it interns)."""
    service = GraphCacheService(
        GraphStore.from_graphs(population),
        GCConfig(model="CON", lock_mode="rw", max_sessions=2,
                 cache_capacity=12, window_capacity=4))
    exact = 0
    try:
        with service.session() as one, service.session() as two:
            with no_cyclic_garbage():
                for position, query in enumerate(patterns):
                    session = two if position % 2 else one
                    if position % 10 == 5:
                        service.add_edge(*_free_edge(service, position))
                    session.execute(query)
                    if position % 7 == 0:
                        service.explain(patterns[(position + 1) % STREAM])
                        exact += bool(service.explain(query).exact_hits)
        assert service.counters()["queries"] == STREAM
        assert exact
    finally:
        service.close()


def _free_edge(service, position: int) -> tuple[int, int, int]:
    """Some (graph id, u, v) that is not an edge yet."""
    ids = sorted(service.store.ids())
    for graph_id in ids[position % len(ids):] + ids:
        graph = service.store.get(graph_id)
        for u in graph.vertices():
            for v in range(u + 1, graph.num_vertices):
                if not graph.has_edge(u, v):
                    return graph_id, u, v
    raise AssertionError("every dataset graph is complete")


def test_method_m_runner(population, patterns):
    runner = MethodMRunner(GraphStore.from_graphs(population),
                           MATCHERS["vf2+"]())
    with no_cyclic_garbage():
        answers = [runner.execute(query).answer for query in patterns]
    assert any(answers)


def test_cache_server_handle(population, patterns):
    service = GraphCacheService(
        GraphStore.from_graphs(population),
        GCConfig(model="CON", lock_mode="rw", max_sessions=2,
                 cache_capacity=12, window_capacity=4))
    server = CacheServer(service).start()
    bodies = [json.dumps({"graph": graph_to_wire(q)}).encode()
              for q in patterns]
    try:
        with no_cyclic_garbage():
            statuses = [server.handle("POST", "/query", body)[0]
                        for body in bodies]
            rejected = server.handle("POST", "/query", b"{not json")[0]
            scrape = server.handle("GET", "/metrics", b"")[0]
    finally:
        server.drain(timeout=5.0)
    assert statuses == [200] * STREAM and (rejected, scrape) == (400, 200)
