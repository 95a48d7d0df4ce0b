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

import gc
import sys
import threading
import weakref
from collections import Counter
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import given, strategies as st

from repro.api import GCConfig, GraphCacheService
from repro.cache.entry import QueryType
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.matching import MATCHERS, GraphQLMatcher, make_matcher
from repro.matching.graphql import _Plan as GraphQLPlan
from repro.matching.plans import (
    _INTERNED,
    HostTable,
    host_table,
    need_mask,
)
from repro.matching.vf2plus import _Plan
from repro.runtime.method_m import MethodMRunner
from repro.workloads.base import DEFAULT_QUERY_SIZES
from repro.workloads.typea import bfs_extract, generate_type_a
from repro.workloads.typeb import generate_type_b
from tests.conftest import (brute_force_answer, fresh_profile_registry,
                            labeled_graphs)
from tests.enumeration import find_embedding
from tests.graph_helpers import neighbor_labels
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
                assert (find_embedding(production, query, host)
                        == find_embedding(reference, query, host))
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


def neighbour_label_counts(g: LabeledGraph) -> list[Counter]:
    return [Counter(neighbor_labels(g, v)) for v in range(g.num_vertices)]


def neighbour_profiles(g: LabeledGraph):
    """``g``'s profile table, built if it is not yet."""
    return host_table(g).neighbour_profiles(g)


def kept_profiles(g: LabeledGraph):
    """The profile table ``g`` holds now, or None — read without
    building."""
    table = (g._memo or {}).get(HostTable)
    return None if table is None else table.profiles


@given(population=st.lists(
    st.one_of(labeled_graphs(max_vertices=6, alphabet="abcd"),
              labeled_graphs(max_vertices=9, alphabet="abc")),
    min_size=2, max_size=4))
def test_a_host_holding_a_plan_searches_as_a_plain_one(population):
    """Every VF2+ host keeps one profile table per graph version, whether
    or not it has been a pattern too: a host holding a plan, a plain
    ``copy()`` and the reference give one decision, embedding and
    ``MatcherStats``.  In the second round every host searched past
    depth 0 already holds its table; the table is the neighbour-label
    counts, and the planned host and its plain twin hold the same
    profile objects."""
    planned = [host.copy() for host in population]
    for host in planned:
        host.derived("vf2+", _Plan)
    plain = [host.copy() for host in population]
    for _ in range(2):
        for query in population:
            for host, warm, twin in zip(population, planned, plain):
                seen = []
                for matcher, h in ((make_matcher("vf2+"), warm),
                                   (make_matcher("vf2+"), twin),
                                   (REFERENCE_MATCHERS["vf2+"](), host)):
                    seen.append((matcher.is_subgraph_isomorphic(query, h),
                                 find_embedding(matcher, query, h),
                                 matcher.stats))
                assert seen[0] == seen[1] == seen[2], (query, host)
                profiles = kept_profiles(warm)
                if query is host:       # past depth 0: the table exists
                    assert profiles is not None
                if profiles is not None:
                    assert list(profiles) == neighbour_label_counts(warm)
                    assert all(a is b for a, b in
                               zip(profiles, kept_profiles(twin)))


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


#: Where backtracking runs deepest: one label, so no label or profile
#: test prunes, and shapes whose dead ends the search must walk to the
#: end — long paths, wide stars, odd cycles in a bipartite K3,3 or grid.
HOSTILE = [
    *(path("C" * n) for n in (1, 2, 3, 4, 5, 8, 13, 21, 30)),
    *(graph("C" * (leaves + 1), [(0, i) for i in range(1, leaves + 1)])
      for leaves in (3, 6, 12)),
    *(graph("C" * n, ring("C" * n)) for n in (3, 4, 5, 6, 7, 8)),
    graph("C" * 6, [(i, j) for i in range(3) for j in range(3, 6)]),
    graph("C" * 16, [(v, v + 1) for v in range(16) if v % 4 < 3]
          + [(v, v + 4) for v in range(12)]),
]


@pytest.mark.parametrize("name", KERNELS)
def test_hostile_shapes_match_reference(name):
    assert_indistinguishable(name, HOSTILE)


def test_graphql_refines_to_the_reference_candidates():
    """GraphQL's refinement tests only the candidates next to a vertex
    excluded from a neighbour's candidates, and matches greedily first:
    it must leave the reference's candidate sets, also on the long hosts
    where it skips the others."""
    production, reference = GraphQLMatcher(), REFERENCE_MATCHERS["graphql"]()
    long_paths = [path("C" * n) for n in (2, 3, 40, 60)]
    for query in HOSTILE + long_paths:
        plan = query.derived("graphql", GraphQLPlan)
        for host in HOSTILE + long_paths:
            table = host_table(host)
            ours = production._initial_candidates(plan, table, host)
            theirs = reference._initial_candidates(query, host)
            if all(theirs):
                assert (production._refine(plan, host, table.by_label, ours)
                        == reference._refine(query, host, theirs))
            assert ours == theirs, (query, host)


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
        # patterns here, never hosts: no host profile table
        assert set(graph._memo) <= {"label_counts", "vf2+"}
    for plan in plans:
        distinct = len(plan.required)
        assert len(plan.orders) <= _weak_orderings(distinct)
        for ranking in plan.orders:
            assert len(ranking) == distinct
            assert set(ranking) == set(range(max(ranking) + 1))
    # The hosts did rank the labels differently: the bound was tested.
    assert max(len(plan.orders) for plan in plans) > 1


def test_subgraph_streams_leave_no_plan_on_a_dataset_graph():
    """Under subgraph semantics only queries hold VF2+ plans; every host
    — a dataset graph in Method M, a cached query in discovery — holds
    its profile table instead, equal to its neighbour-label counts and
    built of profiles shared across graphs: after a Type A and a Type B
    stream of gcbench's shapes no dataset graph holds a plan, the graphs
    that were searched hold fewer than a quarter as many distinct
    profiles as vertices, and cached queries hold tables too."""
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
        tables = []
        for _, dataset_graph in service.store.items():
            assert "vf2+" not in (dataset_graph._memo or {})
            profiles = kept_profiles(dataset_graph)
            if profiles is not None:
                assert (list(profiles)
                        == neighbour_label_counts(dataset_graph))
                tables.append(profiles)
        vertices = sum(len(t) for t in tables)
        assert len(tables) > 30
        assert len({id(p) for t in tables for p in t}) < vertices / 4
        assert any(kept_profiles(entry.query) is not None
                   for entry in service.cache.all_entries())
    finally:
        service.close()


# ----------------------------------------------------------------------
# The host profile table: complete, interned, one per graph version
# ----------------------------------------------------------------------
def test_equal_profiles_on_two_graphs_are_one_object():
    first = graph("abca", [(0, 1), (1, 2), (2, 3)])
    second = graph("acbaa", [(3, 4), (4, 1), (1, 2), (0, 2)])
    a, b = neighbour_profiles(first), neighbour_profiles(second)
    assert list(a) == neighbour_label_counts(first)
    assert list(b) == neighbour_label_counts(second)
    assert a is neighbour_profiles(first)        # built once per version
    assert a[1] == {"a": 1, "c": 1} and a[1] is b[2] is b[4]
    assert a[2] is b[1]                          # {"a": 1, "b": 1}
    assert a[0] is b[0] and a[3] != b[3]         # {"b": 1}; {"c": 1}


@pytest.mark.parametrize("leaves", [
    [1, "a", 1], ["a", 1, 1], [1, 1, "a"],       # labels that do not order
    [2.5, 1, 2], [2, 2.5, 1],
])
def test_profiles_intern_whatever_the_neighbour_order(leaves):
    """A star's centre meets its leaves in set order; its profile is one
    object however they are labelled and ordered."""
    star = graph(["x", *leaves], [(0, i) for i in range(1, 4)])
    other = graph([*reversed(leaves), "x"], [(3, i) for i in range(3)])
    centre = neighbour_profiles(star)[0]
    assert centre == Counter(leaves)
    assert centre is neighbour_profiles(other)[3]


def test_the_intern_table_holds_nothing_no_graph_holds():
    """Profiles are interned by their label multiset, for labels of any
    hashable type (``tag`` does not even order), and the table keeps an
    entry only while some graph's table holds its profile."""
    gc.collect()                       # nothing dies behind our back
    baseline = len(_INTERNED)
    tag = object()
    graphs = [graph([tag, "a", tag], [(0, 1), (1, 2)]),
              graph([tag, tag, "a"], [(0, 1), (1, 2)]),
              graph([tag, tag], [(0, 1)])]
    tables = [neighbour_profiles(g) for g in graphs]
    assert tables[0][1] == {tag: 2} and tables[1][1] == {tag: 1, "a": 1}
    assert tables[0][0] is tables[0][2]                          # {a: 1}
    assert tables[1][0] is tables[1][2] is tables[2][0] is tables[2][1]
    mixed = weakref.ref(tables[1][1])
    assert len(_INTERNED) > baseline
    del tables
    del graphs[1]                      # the only one with {tag: 1, a: 1}
    assert mixed() is None
    assert len(_INTERNED) > baseline
    del graphs[:]
    assert len(_INTERNED) == baseline


@pytest.mark.parametrize("name", ["vf2+", "graphql"])
def test_a_host_rejected_at_depth_0_builds_no_table(name):
    host = path("aab")
    matcher = make_matcher(name)
    if name == "vf2+":
        assert not matcher.is_subgraph_isomorphic(graph("c"), host)
        assert not matcher.is_subgraph_isomorphic(graph("bb"), host)
        assert kept_profiles(host) is None
    assert matcher.is_subgraph_isomorphic(path("ab"), host)
    assert list(kept_profiles(host)) == neighbour_label_counts(host)


@pytest.mark.parametrize("mutate", [
    lambda g: g.add_vertex("a"),
    lambda g: g.set_label(0, "b"),
    lambda g: g.add_edge(0, 2),
    lambda g: g.remove_edge(0, 1),
], ids=["add_vertex", "set_label", "add_edge", "remove_edge"])
def test_every_mutator_drops_the_table(mutate):
    g = path("aaa")
    before = neighbour_profiles(g)
    mutate(g)
    assert kept_profiles(g) is None
    after = neighbour_profiles(g)
    assert after is not before
    assert list(after) == neighbour_label_counts(g)


@pytest.mark.parametrize("radius", [1])
def test_graphql_at_every_radius_matches_its_reference(radius,
                                                        gcbench_shapes):
    """GraphQL's one profile radius is 1: its host profiles are the
    shared table, which every searched host keeps."""
    population = [g.copy() for g in gcbench_shapes[::3] + SEARCH_CORNERS]
    reference = REFERENCE_MATCHERS["graphql"]()
    production = GraphQLMatcher()
    for query in population:
        for host in population:
            assert (find_embedding(production, query, host)
                    == find_embedding(reference, query, host))
            assert production.stats == reference.stats, (query, host)
    assert all(kept_profiles(host) is not None for host in population)


# ----------------------------------------------------------------------
# Profiles as masks: one AND is dict dominance, in any registration order
# ----------------------------------------------------------------------
def centre_with(profile: dict) -> LabeledGraph:
    """A star whose centre (vertex 0, label ``x``) has ``profile``."""
    leaves = [lab for lab, count in profile.items() for _ in range(count)]
    return graph(["x", *leaves], [(0, i) for i in range(1, len(leaves) + 1)])


profile_dicts = st.dictionaries(st.sampled_from("abcd"), st.integers(1, 6),
                                max_size=4)


@given(patterns=st.lists(profile_dicts, min_size=1, max_size=5),
       hosts=st.lists(profile_dicts, min_size=1, max_size=5),
       order=st.sampled_from(["patterns first", "hosts first",
                              "interleaved"]))
def test_the_mask_test_is_dict_dominance(patterns, hosts, order):
    """``need & supply == 0`` iff the host profile dominates the pattern
    profile, whichever side registered an atom first; the registry then
    holds each host's ``(l, 1..count)`` and each pattern's
    ``(l, count)``, one bit apiece."""
    with fresh_profile_registry() as atoms:
        first = [("p", d) for d in patterns]
        second = [("h", d) for d in hosts]
        if order == "hosts first":
            first, second = second, first
        jobs = (first + second if order != "interleaved" else
                [job for pair in zip_longest(first, second)
                 for job in pair if job is not None])
        needs, supplies = {}, {}
        for i, (side, d) in enumerate(jobs):
            if side == "p":
                needs[i] = (d, need_mask(d.items()))
            else:
                profile = neighbour_profiles(centre_with(d))[0]
                assert profile == d
                supplies[i] = (d, profile.supply)
        for pattern, need in needs.values():
            for host, supply in supplies.values():
                dominated = all(host.get(lab, 0) >= count
                                for lab, count in pattern.items())
                assert (need & supply == 0) == dominated, (pattern, host)
        expected = {(lab, count) for d in patterns
                    for lab, count in d.items()}
        expected |= {(lab, k) for d in hosts for lab, count in d.items()
                     for k in range(1, count + 1)}
        if any(hosts):
            expected.add(("x", 1))                 # the leaves' profile
        assert set(atoms) == expected
        assert sorted(atoms.values()) == list(range(len(atoms)))


def test_threads_registering_at_once_never_share_a_bit():
    """Registering is check-then-act on a shared table: eight threads
    registering the same atoms in the same order, so that they race for
    each one, under a short switch interval, all see one bit per atom
    and no bit twice.  One round catches an unlocked registration only
    now and then (about one in six), so there are forty."""
    wanted = [(lab, k) for lab in "abcdefgh" for k in range(1, 250)]

    def register(start: threading.Barrier, seen: dict) -> None:
        start.wait()
        for atom in wanted:
            seen[atom] = need_mask([atom]).bit_length()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            start = threading.Barrier(8, timeout=60)
            seen: list[dict] = [{} for _ in range(8)]
            with fresh_profile_registry() as atoms:
                threads = [threading.Thread(target=register,
                                            args=(start, bits))
                           for bits in seen]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(atoms.values()) == list(range(len(wanted)))
                assert all(bits == seen[0] for bits in seen)
    finally:
        sys.setswitchinterval(interval)


def test_a_hub_of_3000_neighbours_matches_the_reference():
    """A host whose centre has 3 000 neighbours of one label: under
    VF2+ and GraphQL every pattern's answer, embedding and
    ``MatcherStats`` equal the reference's.  The hub registers its
    atoms ``(a, 1..3000)``, the patterns only what it lacks."""
    with fresh_profile_registry() as atoms:
        hub = graph("a" * 3001, [(0, i) for i in range(1, 3001)])
        neighbour_profiles(hub)
        hub_atoms = {("a", k) for k in range(1, 3001)}
        assert set(atoms) == hub_atoms
        patterns = [
            (graph("a"), True), (path("aa"), True), (path("aaa"), True),
            (graph("a" * 11, [(0, i) for i in range(1, 11)]), True),
            (graph("aaa", TRIANGLE), False), (path("aaaa"), False),
            (path("ab"), False),
        ]
        for name in ("vf2+", "graphql"):
            reference = REFERENCE_MATCHERS[name]()
            production = make_matcher(name)
            for query, expected in patterns:
                assert production.is_subgraph_isomorphic(query, hub) \
                    == reference.is_subgraph_isomorphic(query, hub) \
                    == expected
                assert (find_embedding(production, query, hub)
                        == find_embedding(reference, query, hub))
                assert production.stats == reference.stats, (name, query)
        assert set(atoms) - hub_atoms == {("b", 1)}


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
        so holds a plan next to its host profile table) before every
        test: each mutator drops both with the memo, and the next test
        sees the new host."""
        m = make_matcher(name)
        host = path("aaa")

        def test(pattern: LabeledGraph) -> bool:
            assert m.is_subgraph_isomorphic(host, host)    # a pattern
            if name != "vf2":           # the kernels that read profiles
                assert (list(kept_profiles(host))
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
@pytest.mark.parametrize("matcher", tuple(MATCHERS))
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

    @pytest.mark.parametrize("matcher", tuple(MATCHERS))
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

    @pytest.mark.parametrize("matcher", tuple(MATCHERS))
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
