"""The plan / memo split changed no test: production kernels ≡ reference.

``tests/reference_matchers.py`` keeps the three bundled kernels as they
were before :mod:`repro.matching.plans` — every test rebuilding label
counts, profiles and the variable order from the two graphs.  The
production kernels compute the one-graph part once per graph *version*
and must be indistinguishable from them: the same decision, the same
embedding and the same ``MatcherStats`` (the paper's Figure 5 counts
tests; the ledger also pins search states), with Ullmann — which shares
none of the code — as the independent oracle.

The second half is what a memo can get wrong and a fresh computation
cannot: answering from an older structure.  Every ``LabeledGraph``
mutator must drop the memo, ``copy()`` must share none of it, dataset
mutations between two queries must change the service's answers exactly
as a matcher-free oracle says, and a query object must leave the
pipeline as it came — the caller owns it.
"""

from __future__ import annotations

from collections import Counter
from math import comb

import pytest
from hypothesis import given, strategies as st

from repro.api import GCConfig, GraphCacheService
from repro.bench.harness import MATCHER_NAMES
from repro.cache.entry import QueryType
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.matching import make_matcher
from repro.matching.vf2plus import _Plan
from repro.runtime.method_m import MethodMRunner
from repro.workloads.base import DEFAULT_QUERY_SIZES
from repro.workloads.typea import bfs_extract, generate_type_a
from repro.workloads.typeb import generate_type_b
from tests.conftest import brute_force_answer, labeled_graphs
from tests.reference_matchers import REFERENCE_MATCHERS
from tests.ullmann import UllmannMatcher

KERNELS = sorted(REFERENCE_MATCHERS)


def graph(labels: str, edges=()) -> LabeledGraph:
    return LabeledGraph.from_edges(labels, edges)


def path(labels: str) -> LabeledGraph:
    return graph(labels, [(i, i + 1) for i in range(len(labels) - 1)])


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def assert_indistinguishable(name: str, population) -> None:
    """Every ordered pair of ``population`` (a graph against itself
    included), twice over: in the second round every graph already
    carries what the first round memoised on it, as pattern and host."""
    reference = REFERENCE_MATCHERS[name]()
    production = make_matcher(name)
    oracle = UllmannMatcher()
    for _ in range(2):
        for query in population:
            for host in population:
                expected = oracle.is_subgraph_isomorphic(query, host)
                assert reference.is_subgraph_isomorphic(query, host) == expected
                assert production.is_subgraph_isomorphic(query, host) == expected
                assert (production.find_embedding(query, host)
                        == reference.find_embedding(query, host))
                assert production.stats == reference.stats, (query, host)


# ----------------------------------------------------------------------
# Reference equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", KERNELS)
def test_corner_cases_match_reference(name):
    assert_indistinguishable(name, [
        graph("a"), graph("b"),                     # single vertices
        graph("ab"), graph("aab"),                  # edgeless, disconnected
        path("ab"), path("aba"), path("abab"),
        graph("abz", [(0, 1)]),                     # 'z' is in no other graph
        graph("aaa", TRIANGLE), graph("aab", TRIANGLE),
        graph("aaab", TRIANGLE),                    # triangle + isolated vertex
        graph("abab", [(0, 1), (2, 3)]),            # two components
        graph("aaaa", [(0, 1), (0, 2), (0, 3)]),    # star: degree pruning
        graph("aaaa", [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ])


@pytest.mark.parametrize("name", KERNELS)
@given(population=st.lists(
    st.one_of(labeled_graphs(max_vertices=6, alphabet="abcd"),
              labeled_graphs(max_vertices=9, alphabet="abc")),
    min_size=2, max_size=4))
def test_random_pairs_match_reference(name, population):
    """Sizes overlap (equal sizes, pattern larger than host), edge
    probability starts at 0 (disconnected patterns) and one alphabet has
    a label the other lacks."""
    assert_indistinguishable(name, population)


def neighbour_label_counts(g: LabeledGraph) -> dict[int, Counter]:
    return {v: Counter(g.neighbor_labels(v)) for v in range(g.num_vertices)}


@given(population=st.lists(
    st.one_of(labeled_graphs(max_vertices=6, alphabet="abcd"),
              labeled_graphs(max_vertices=9, alphabet="abc")),
    min_size=2, max_size=4))
def test_a_host_holding_a_plan_searches_as_a_plain_one(population):
    """A VF2+ host that has been a pattern reads its neighbour-label
    profiles from its plan (built on its first test as a host, kept for
    the next); a plan-less ``copy()`` builds them per test.  Both, and
    the reference, give one decision, embedding and ``MatcherStats`` —
    in the second round every plan already holds its profiles."""
    planned = [host.copy() for host in population]
    for host in planned:
        host.derived("vf2+", _Plan)
    for _ in range(2):
        for query in population:
            for host, warm in zip(population, planned):
                seen = []
                for matcher, h in ((make_matcher("vf2+"), warm),
                                   (make_matcher("vf2+"), host.copy()),
                                   (REFERENCE_MATCHERS["vf2+"](), host)):
                    seen.append((matcher.is_subgraph_isomorphic(query, h),
                                 matcher.find_embedding(query, h),
                                 matcher.stats))
                assert seen[0] == seen[1] == seen[2], (query, host)
                profiles = warm._memo["vf2+"].host_profiles
                if query is host:       # past depth 0: the profiles exist
                    assert profiles is not None
                assert profiles in (None, neighbour_label_counts(warm))


# ----------------------------------------------------------------------
# gcbench's shapes: the sizes the strategies above never reach
# ----------------------------------------------------------------------
def ring(labels: str) -> list[tuple[int, int]]:
    return [(i, (i + 1) % len(labels)) for i in range(len(labels))]


#: A path walked from its rare end: each C step has one unmapped
#: neighbour, and from depth 2 on a degree-2 candidate is under VF2+'s
#: allocation-free lookahead bound (degree - depth < 1), so the exact
#: count of its unused neighbours decides.
LOOKAHEAD_PATTERN = path("NCCCC")
#: ... and that count passes at every step: the path runs round the ring.
LOOKAHEAD_PASSES = graph("NCCCCC", ring("NCCCCC"))
#: ... and here it fails as well (N on a C triangle, a fourth C apart): at
#: depth 3 the last triangle vertex has no unused neighbour left.
LOOKAHEAD_FAILS = graph("NCCCC", [(0, 1), (1, 2), (2, 3), (3, 1)])

SEARCH_CORNERS = [
    # Whatever the order, the last ring vertex placed has two mapped
    # neighbours: candidates are probed against more than one image.
    graph("CCCCCC", ring("CCCCCC")),
    graph("CCCCCCO", ring("CCCCCC") + [(0, 6)]),
    # Two components: the second root is drawn at depth > 0, from a
    # label whose vertices the first component already uses.
    graph("CCOCC", [(0, 1), (1, 2), (3, 4)]),
    LOOKAHEAD_PATTERN, LOOKAHEAD_PASSES, LOOKAHEAD_FAILS,
]


@pytest.fixture(scope="module")
def gcbench_shapes() -> list[LabeledGraph]:
    """AIDS-like graphs of 4-60 vertices, as gcbench's datasets, BFS
    patterns of 4-20 edges cut from them, as its Type A queries, and the
    search corners above."""
    hosts = generate_aids_like(num_graphs=12, mean_vertices=36.0,
                               std_vertices=16.0, max_vertices=60, seed=23)
    patterns = [bfs_extract(host, (5 * i) % host.num_vertices,
                            DEFAULT_QUERY_SIZES[i % len(DEFAULT_QUERY_SIZES)])
                for i, host in enumerate(hosts)]
    return (hosts + [p for p in patterns if p is not None]
            + SEARCH_CORNERS)


@pytest.mark.parametrize("name", KERNELS)
def test_gcbench_shapes_match_reference(name, gcbench_shapes):
    assert max(g.num_vertices for g in gcbench_shapes) == 60
    assert len(gcbench_shapes) >= 12 + 10 + len(SEARCH_CORNERS)
    assert_indistinguishable(name, gcbench_shapes)


def _exact_lookahead_counts(pattern: LabeledGraph,
                            host: LabeledGraph) -> tuple[bool, list[int]]:
    """VF2+'s decision, and the size of every exact lookahead count it
    built (``neighbours - used``) on a copy of ``host``."""
    counts: list[int] = []

    class Neighbours(set):
        def __sub__(self, other):
            rest = set(self).difference(other)
            counts.append(len(rest))
            return rest

    recording = host.copy()
    recording._adjacency = [Neighbours(n) for n in recording._adjacency]
    return make_matcher("vf2+").is_subgraph_isomorphic(pattern,
                                                        recording), counts


def test_lookahead_corners_reach_the_exact_count():
    """The corners do what they are named after: the exact count runs
    only where the bound cannot settle it, and (with one unmapped
    neighbour to cover) passes on one host and fails on the other."""
    found, counts = _exact_lookahead_counts(LOOKAHEAD_PATTERN,
                                            LOOKAHEAD_PASSES)
    assert found and counts and min(counts) >= 1
    found, counts = _exact_lookahead_counts(LOOKAHEAD_PATTERN,
                                            LOOKAHEAD_FAILS)
    assert not found and 0 in counts


# ----------------------------------------------------------------------
# Memory: what a dataset graph keeps when it is the pattern
# ----------------------------------------------------------------------
def _weak_orderings(n: int) -> int:
    """Ordered Bell (Fubini) number: the rankings of ``n`` labels by
    host supply, ties sharing a rank."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(comb(m, k) * counts[m - k]
                          for k in range(1, m + 1)))
    return counts[n]


def test_supergraph_plans_keep_one_order_per_label_ranking():
    """Under supergraph semantics every dataset graph is a VF2+ pattern
    and keeps its plan for as long as it lives, so what a plan memoises
    must be bounded by the pattern alone: one compiled order per ranking
    of its labels, never anything per host.  No gcbench workload runs
    supergraph queries, so this is where a per-host cache would show
    (``docs/config-fidelity.md``: one keyed per host label supply grew
    to 27 065 entries next to 1 013 orders)."""
    sources = generate_aids_like(num_graphs=40, mean_vertices=18.0,
                                 std_vertices=6.0, max_vertices=30, seed=7)
    fragments = generate_type_a(sources, 150, "UU", sizes=(3, 4, 5, 6),
                                seed=11)
    runner = MethodMRunner(
        GraphStore.from_graphs(q.graph for q in fragments.queries),
        make_matcher("vf2+"), QueryType.SUPERGRAPH)
    for query in sources:
        runner.execute(query)

    plans = [graph._memo["vf2+"] for _, graph in runner.store.items()
             if graph._memo and "vf2+" in graph._memo]
    assert len(plans) == 150
    for _, graph in runner.store.items():
        assert set(graph._memo) <= {"label_counts", "vf2+"}
    for plan in plans:
        # patterns here, never hosts: no host profiles
        assert plan.host_profiles is None
        distinct = len(plan.required)
        assert len(plan.orders) <= _weak_orderings(distinct)
        for ranking in plan.orders:
            assert len(ranking) == distinct
            assert set(ranking) == set(range(max(ranking) + 1))
    # The hosts did rank the labels differently: the bound was tested.
    assert max(len(plan.orders) for plan in plans) > 1


def test_subgraph_streams_leave_no_plan_on_a_dataset_graph():
    """Host profiles live on plans, and under subgraph semantics only
    queries hold plans, so what the kernel keeps follows the cache and
    not the dataset: after a Type A and a Type B stream of gcbench's
    shapes, no dataset graph holds a VF2+ plan, while cached queries hold
    plans with their host profiles."""
    graphs = generate_aids_like(num_graphs=60, mean_vertices=18.0,
                                std_vertices=8.0, max_vertices=60, seed=5)
    stream = [q.graph for q in generate_type_a(graphs, 40, "UU",
                                               seed=5).queries]
    stream += [q.graph for q in generate_type_b(
        graphs, num_queries=80, no_answer_probability=0.2,
        answer_pool_size=20, no_answer_pool_size=5, seed=5).queries]
    service = GraphCacheService(
        GraphStore.from_graphs(graphs),
        GCConfig(model="CON", matcher="vf2+", cache_capacity=30,
                 window_capacity=10))
    try:
        service.execute_many(stream)
        for _, dataset_graph in service.store.items():
            assert "vf2+" not in (dataset_graph._memo or {})
        plans = [entry.query._memo["vf2+"]
                 for entry in service.cache.all_entries()
                 if entry.query._memo and "vf2+" in entry.query._memo]
        assert any(plan.host_profiles is not None for plan in plans)
    finally:
        service.close()


# ----------------------------------------------------------------------
# Staleness: the memo never outlives the structure it was built from
# ----------------------------------------------------------------------
def _memo_probe(g: LabeledGraph) -> object:
    return g.derived("probe", lambda _: object())


class TestMemoInvalidation:
    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_vertex("a"),
        lambda g: g.set_label(0, "b"),
        lambda g: g.add_edge(0, 2),
        lambda g: g.remove_edge(0, 1),
    ], ids=["add_vertex", "set_label", "add_edge", "remove_edge"])
    def test_every_mutator_drops_the_memo(self, mutate):
        g = path("aaa")
        first = _memo_probe(g)
        assert _memo_probe(g) is first
        mutate(g)
        assert g._memo is None
        assert _memo_probe(g) is not first

    def test_failed_mutation_keeps_the_memo(self):
        g = path("aaa")
        first = _memo_probe(g)
        with pytest.raises(ValueError):
            g.add_edge(0, 1)  # already present: structure unchanged
        assert _memo_probe(g) is first

    @pytest.mark.parametrize("name", KERNELS)
    def test_next_test_sees_the_new_host(self, name):
        m = make_matcher(name)
        host = path("aaa")
        triangle = graph("aaa", TRIANGLE)
        assert not m.is_subgraph_isomorphic(triangle, host)
        host.add_edge(0, 2)
        assert m.is_subgraph_isomorphic(triangle, host)
        host.remove_edge(0, 1)
        assert not m.is_subgraph_isomorphic(triangle, host)
        assert not m.is_subgraph_isomorphic(path("ab"), host)
        host.set_label(1, "b")
        assert m.is_subgraph_isomorphic(path("ab"), host)
        assert not m.is_subgraph_isomorphic(graph("c"), host)
        host.add_vertex("c")
        assert m.is_subgraph_isomorphic(graph("c"), host)

    @pytest.mark.parametrize("name", KERNELS)
    def test_next_test_sees_the_new_host_that_was_a_pattern(self, name):
        """As above, with a host that is first tested as a pattern (and
        so, under VF2+, keeps its host profiles on its plan) before every
        test: each mutator drops the plan with the memo, and the next
        test sees the new host."""
        m = make_matcher(name)
        host = path("aaa")

        def test(pattern: LabeledGraph) -> bool:
            assert m.is_subgraph_isomorphic(host, host)    # a pattern
            if name == "vf2+":
                assert (host._memo["vf2+"].host_profiles
                        == neighbour_label_counts(host))
            return m.is_subgraph_isomorphic(pattern, host)

        triangle = graph("aaa", TRIANGLE)
        assert not test(triangle)
        host.add_edge(0, 2)
        assert host._memo is None
        assert test(triangle)
        host.remove_edge(0, 1)
        assert not test(triangle)
        assert not test(path("ab"))
        host.set_label(1, "b")
        assert test(path("ab"))
        assert test(path("baa"))
        assert not test(graph("c"))
        host.add_vertex("c")
        assert test(graph("c"))

    @pytest.mark.parametrize("name", KERNELS)
    def test_next_test_sees_the_new_pattern(self, name):
        m = make_matcher(name)
        host = graph("aab", TRIANGLE)
        pattern = path("aa")
        assert m.is_subgraph_isomorphic(pattern, host)
        pattern.add_vertex("a")          # needs a third 'a'
        assert not m.is_subgraph_isomorphic(pattern, host)
        pattern.set_label(2, "b")
        assert m.is_subgraph_isomorphic(pattern, host)
        pattern.add_edge(1, 2)
        pattern.add_edge(0, 2)
        assert m.is_subgraph_isomorphic(pattern, host)   # the triangle itself
        pattern.set_label(2, "a")
        assert not m.is_subgraph_isomorphic(pattern, host)
        pattern.remove_edge(0, 2)
        pattern.set_label(1, "b")        # a-b-a path: one 'b', two 'a's
        assert m.is_subgraph_isomorphic(pattern, host)

    @pytest.mark.parametrize("name", KERNELS)
    def test_copy_shares_nothing_mutable(self, name):
        m = make_matcher(name)
        original = path("aaa")
        triangle = graph("aaa", TRIANGLE)
        assert not m.is_subgraph_isomorphic(triangle, original)
        assert m.is_subgraph_isomorphic(original, triangle)
        memo = dict(original._memo)      # as host and as pattern
        assert memo

        clone = original.copy()
        assert clone._memo is None
        clone.add_edge(0, 2)
        clone.add_vertex("z")
        assert m.is_subgraph_isomorphic(triangle, clone)
        assert not m.is_subgraph_isomorphic(clone, triangle)
        # ... and the source neither changed nor lost what it had built
        assert original._memo == memo
        assert all(original._memo[key] is memo[key] for key in memo)
        assert not m.is_subgraph_isomorphic(triangle, original)
        original.set_label(0, "b")
        assert clone.label(0) == "a"
        assert m.is_subgraph_isomorphic(triangle, clone)


# ----------------------------------------------------------------------
# Through the service: dataset mutations and caller-owned queries
# ----------------------------------------------------------------------
DATASET = [path("abc"), graph("abc", TRIANGLE), path("abca"),
           graph("aabc", [(0, 1), (1, 2), (2, 3)]), path("cb")]


def _service(matcher: str, model: str = "CON") -> GraphCacheService:
    return GraphCacheService(GraphStore.from_graphs(DATASET),
                             GCConfig(matcher=matcher, model=model))


@pytest.mark.parametrize("model", ["CON", "EVI"])
@pytest.mark.parametrize("matcher", MATCHER_NAMES)
def test_store_mutations_between_queries_follow_the_oracle(matcher, model):
    """UA / UR / DEL land on graphs that already carry host-side memos
    (and, for the cached queries, on entries whose ``CGvalid`` vouches
    for them): every later answer is the matcher-free oracle's."""
    service = _service(matcher, model)
    store = service.store
    queries = [graph("abc", TRIANGLE), path("abc"), path("ca")]

    def check() -> list[frozenset[int]]:
        answers = []
        for query in queries:
            got = frozenset(service.execute(query).answer)
            assert got == brute_force_answer(store, query,
                                             QueryType.SUBGRAPH)
            answers.append(got)
        return answers

    try:
        before = check()
        assert before == check()             # now served from the cache
        store.add_edge(0, 0, 2)              # path a-b-c closes to a triangle
        store.remove_edge(1, 0, 1)           # the triangle opens to a path
        after = check()
        assert after[0] == (before[0] - {1}) | {0}
        assert after[1] == before[1] - {1}   # a-b is the edge that went
        store.delete_graph(2)
        assert check()[2] == after[2] - {2}
    finally:
        service.close()


class TestCallerOwnsTheQuery:
    """``execute`` / ``explain`` / the bare runner memoise plans on the
    query while they test it, and leave none behind."""

    @pytest.mark.parametrize("matcher", MATCHER_NAMES)
    def test_pipeline_leaves_no_derived_data(self, matcher):
        service = _service(matcher)
        session = service.session()
        try:
            for run in (service.execute, service.explain, session.execute,
                        lambda q: service.execute_many([q, q])):
                query = path("abc")
                run(query)
                assert query._memo is None
        finally:
            service.close()

    @pytest.mark.parametrize("matcher", MATCHER_NAMES)
    def test_bare_runner_leaves_no_derived_data(self, matcher):
        runner = MethodMRunner(GraphStore.from_graphs(DATASET),
                               make_matcher(matcher))
        query = path("abc")
        assert set(runner.execute(query).answer) == {0, 1, 2, 3}
        assert query._memo is None

    def test_later_mutation_of_the_query_changes_nothing_cached(self):
        service = _service("vf2+")
        try:
            query = path("abc")
            first = service.execute(query)
            assert set(first.answer) == {0, 1, 2, 3}
            # The caller recycles its object into a different pattern.
            query.add_edge(0, 2)
            query.set_label(0, "c")
            assert set(service.execute(query).answer) == set()
            # The entry admitted for a-b-c still is a-b-c: a fresh
            # object of that shape is an exact hit with the old answer.
            again = service.execute(path("abc"))
            assert again.answer == first.answer
            assert again.metrics.exact_hit_valid
            assert again.metrics.method_tests == 0
        finally:
            service.close()
