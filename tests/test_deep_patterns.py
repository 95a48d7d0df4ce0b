"""No pattern is too deep to answer.

The three matchers extend their mapping on an explicit stack
(:mod:`repro.matching.search`), and GraphQL's augmenting paths do too,
so a query as deep as a long path or as wide as a big star is answered
— in process, through ``POST /query`` (a 200, not a ``RecursionError``'s
500), through ``repro run`` and under supergraph semantics, where a
long *dataset* graph is the pattern of every test.

VF2 and VF2+ take a 5 000-vertex path.  GraphQL takes 1 100 vertices,
past the interpreter's default recursion limit of 1 000: on a
single-label path every pattern vertex keeps nearly every host vertex
as a candidate, so its candidate sets hold ``|pattern| x |host|``
vertices, about 2.5 GB at 5 000 into 5 100 — a cost of GraphQL's
design that its reference shares, not of the walk.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import GCConfig, GraphCacheService, GraphStore, LabeledGraph
from repro.cli import main
from repro.graphs import io as graph_io
from repro.matching import MATCHERS, make_matcher
from repro.serve.server import CacheServer
from repro.serve.wire import graph_to_wire
from tests.enumeration import find_embedding, verify_embedding

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
DEPTH = {"vf2": 5000, "vf2+": 5000, "graphql": 1100}
assert sorted(DEPTH) == sorted(MATCHERS)


def path(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges("C" * n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> LabeledGraph:
    return LabeledGraph.from_edges("C" * (leaves + 1),
                                   [(0, i) for i in range(1, leaves + 1)])


def subgraph_service(name: str) -> tuple[GraphCacheService, LabeledGraph]:
    """Graph 0 holds the query path with 100 vertices to spare; graph 1
    is one vertex short of it."""
    n = DEPTH[name]
    store = GraphStore.from_graphs([path(n + 100), path(n - 1)])
    return GraphCacheService(store, GCConfig(matcher=name)), path(n)


@pytest.mark.parametrize("name", sorted(DEPTH))
def test_a_long_path_in_process(name):
    n = DEPTH[name]
    matcher = make_matcher(name)
    query, host = path(n), path(n + 100)
    assert matcher.is_subgraph_isomorphic(query, host)
    assert not matcher.is_subgraph_isomorphic(query, path(n - 1))
    embedding = find_embedding(matcher, query, host)
    assert verify_embedding(query, host, embedding)
    # One state per vertex, twice: nothing backtracked.
    assert matcher.stats.states == 2 * n
    service, query = subgraph_service(name)
    with service:
        assert sorted(service.execute(query).answer) == [0]


@pytest.mark.parametrize("name", sorted(DEPTH))
def test_a_wide_star(name):
    """Every kernel goes 1 201 depths deep; GraphQL's refinement first
    matches the pattern centre's 1 200 leaves into the host centre's
    1 300 neighbours."""
    matcher = make_matcher(name)
    embedding = find_embedding(matcher, star(1200), star(1300))
    assert verify_embedding(star(1200), star(1300), embedding)
    assert matcher.stats.states == 1201


@pytest.mark.parametrize("name", sorted(DEPTH))
def test_a_long_path_over_http(name):
    service, query = subgraph_service(name)
    server = CacheServer(service).start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request("POST", "/query",
                         body=json.dumps({"graph": graph_to_wire(query)}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            status, payload = response.status, json.loads(response.read())
        finally:
            conn.close()
    finally:
        server.drain(timeout=5.0)
    assert status == 200, payload
    assert payload["answer_ids"] == [0]


@pytest.mark.parametrize("name", sorted(DEPTH))
def test_a_long_path_through_run(name, tmp_path, capsys):
    n = DEPTH[name]
    dataset, workload = tmp_path / "d.tve", tmp_path / "w.tve"
    graph_io.dump_file(dataset, [(0, path(n + 100)), (1, path(n - 1))])
    graph_io.dump_file(workload, [(0, path(n))])
    code = main(["run", "--dataset", str(dataset), "--workload",
                 str(workload), "--matcher", name])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("name", sorted(DEPTH))
def test_a_long_dataset_graph_under_supergraph_semantics(name):
    n = DEPTH[name]
    store = GraphStore.from_graphs([path(n), path(8)])
    with GraphCacheService(store, GCConfig(
            matcher=name, query_type="supergraph")) as service:
        assert sorted(service.execute(path(n + 100)).answer) == [0, 1]
        assert sorted(service.execute(path(n - 1)).answer) == [1]


PROBE = """
import time
from repro import LabeledGraph
from repro.matching import make_matcher
def path(n):
    return LabeledGraph.from_edges("C" * n, [(i, i + 1) for i in range(n - 1)])
matcher = make_matcher("graphql")
start = time.perf_counter()
assert matcher.is_subgraph_isomorphic(path(500), path(1300))
print(matcher.stats.states, time.perf_counter() - start)
"""


def test_graphql_orders_a_long_path_without_recounting():
    """Recounting every unmapped vertex's candidates at every state, for
    the least-candidates-first order, takes 25 s over these 500 states;
    kept as the search goes, the counts take about 0.2 s on a 2-CPU
    host.  A run in its own process gets 10 s."""
    env = {"PYTHONPATH": str(REPO_SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    states, _ = done.stdout.split()
    assert int(states) == 500
