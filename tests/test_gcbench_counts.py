"""gcbench's exact counts, as a test.

A performance PR has to show that it moved time and nothing else: same
answers, same sub-iso tests, same cache trajectory.  gcbench's streams
are pure functions of ``(spec, seed)`` and every count below is a pure
function of the stream, so they are pinned here — one replay of each
in-process workload at full size, seed 1 — instead of being compared by
hand against a scratch checkout of the parent in every write-up.
(``http_hit`` sends ``hit_bound``'s stream through the serve layer; the
traced benchmark run cross-checks the two.)

Garbage is one of the counts, and its pin is zero: the replay runs with
the cyclic collector off (``tests/conftest.py::no_cyclic_garbage``) and
must leave it nothing to find.  A sub-iso search that leaks a reference
cycle — a self-recursive closure is one — left 203 312 (``churn_con``),
266 172 (``hit_bound``) and 807 245 (``verify_bound``) unreachable
objects over these streams, and 6-10% of their time went to the
collector freeing them, with no span to show it ("No cycle to collect"
in ``repro.matching.search``).

A change that *means* to move a count (a new pruning rule, another
admission policy) updates the pin in the same diff and says why;
anything else that trips this has changed behaviour by accident.
``perf/workloads.py`` is imported read-only, from its file.

Matcher ``states`` also follow set *layout*: a search visits a host
vertex's neighbours in its adjacency set's iteration order.  Since
``LabeledGraph.copy`` became copy-on-write, a stored graph nobody has
written to iterates in its source's table layout instead of that of a
rebuilt ``set(s)``, which may order a vertex of degree 5 or more
differently.  The same candidates are then visited in another order,
which is why the ``states`` below were re-recorded for it while
``tests``, ``found``, every counter and every answer digest were not.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro import GraphCacheService, GraphStore, LabeledGraph
from repro.matching import make_matcher, plans
from repro.matching.vf2plus import _Plan
from tests.conftest import fresh_profile_registry, no_cyclic_garbage
from tests.index_audit import audit

_PATH = Path(__file__).resolve().parent.parent / "perf" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("gcbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads     # its dataclasses look themselves up
_SPEC.loader.exec_module(workloads)

#: Per workload: ``service.counters()`` after warm-up + measured stream,
#: ``(tests, states, found)`` of the Method-M matcher and of discovery's
#: internal verifier, and the head of the SHA-256 over every answer.
PINNED = {
    "verify_bound": (
        dict(queries=620, method_tests=118308, internal_tests=14897,
             tests_saved=253692, admissions=620, evictions=520, renewals=0,
             exact_hit_queries=71, zero_test_queries=71,
             interned_queries=39),
        (118308, 185788, 7730), (14897, 72676, 8165), "fc2c926fccde8fa5"),
    "hit_bound": (
        dict(queries=400, method_tests=12006, internal_tests=16955,
             tests_saved=107994, admissions=400, evictions=300, renewals=0,
             exact_hit_queries=333, zero_test_queries=333,
             interned_queries=331),
        (12006, 10861, 447), (16955, 127545, 10076), "eca869433b38ed0c"),
    "churn_con": (
        dict(queries=700, method_tests=43963, internal_tests=3865,
             tests_saved=300344, admissions=247, evictions=155, renewals=453,
             exact_hit_queries=615, zero_test_queries=164,
             interned_queries=612),
        (43963, 38202, 1450), (3865, 27803, 2170), "c0bad7047a4ef720"),
}


#: Per workload, over the same replay: ``(plans, orders, tables)``, the
#: VF2+ :class:`_Plan` constructions, :meth:`_Plan.compile` calls and
#: host profile tables built.
COMPILED = {
    "verify_bound": (581, 1253, 1072),
    "hit_bound": (69, 213, 342),
    "churn_con": (579, 854, 1387),
}


def _counting(calls: list[int], slot: int, function):
    """``function``, counting its calls in ``calls[slot]``."""
    def counted(*args):
        calls[slot] += 1
        return function(*args)
    return counted


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stream_counts_are_the_pinned_ones(name, monkeypatch):
    """The counts above, over one replay.  "Compile once, test many"
    (``repro.matching.vf2plus``) is pinned as counts too, not as a
    clock: a plan is built once per graph version that is a pattern, an
    order once per label ranking a plan meets, a profile table once per
    host version searched past depth 0 — and an admitted query takes
    what its own run built into the cache (``CacheManager.admit``), so
    discovery does not build it again."""
    spec = next(s for s in workloads.SPECS if s.name == name)
    counters, method, internal, answers = PINNED[name]
    built = [0, 0, 0]
    monkeypatch.setattr(_Plan, "__init__",
                        _counting(built, 0, _Plan.__init__))
    monkeypatch.setattr(_Plan, "compile", _counting(built, 1, _Plan.compile))
    monkeypatch.setattr(plans, "_profiles",
                        _counting(built, 2, plans._profiles))
    inputs = workloads.build_inputs(spec, seed=1)
    digest = hashlib.sha256()
    with GraphCacheService(GraphStore.from_graphs(inputs.graphs),
                           workloads.CONFIG) as service:
        with no_cyclic_garbage():
            for position, query in enumerate(inputs.stream):
                if inputs.plan is not None:
                    service.apply(inputs.plan, position)
                answer = service.execute(query).answer
                digest.update(repr(tuple(sorted(answer))).encode())
        got = service.counters()
        stats = [(s.tests, s.states, s.found) for s in
                 (service.matcher.stats, service.discovery.verifier.stats)]
        audit(service.cache.index)
    assert {key: got[key] for key in counters} == counters
    assert stats == [method, internal]
    assert digest.hexdigest()[:16] == answers
    assert tuple(built) == COMPILED[name]


def test_host_profile_tables_cost_a_tuple_per_graph():
    """Every searched host keeps its neighbour-label profile table
    (``repro.matching.plans.HostTable.neighbour_profiles``), so its
    memory grows with the dataset: one searched test on each of
    ``verify_bound``'s 600 graphs may add at most 1 KB per graph, and
    interning keeps the distinct profiles to the few neighbourhoods
    molecules repeat (394 over 10 844 vertices at seed 1; a dict per
    vertex was ~4 KB per graph).  The probe is a one-vertex pattern
    whose plan and compiled order exist beforehand, as does the host's
    table with its label lists, so what the test adds is the profile
    tuple alone."""
    spec = next(s for s in workloads.SPECS if s.name == "verify_bound")
    graphs = workloads.build_inputs(spec, seed=1).graphs
    probes = []
    for host in graphs:
        plans.host_table(host)
        probe = LabeledGraph.from_edges([host.label(0)], [])
        plan = probe.derived("vf2+", _Plan)
        plan.orders[(0,)] = plan.compile((0,))
        probes.append(probe)
    matcher = make_matcher("vf2+")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for probe, host in zip(probes, graphs):
            assert matcher.is_subgraph_isomorphic(probe, host)
        added = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert added <= 1024 * len(graphs)
    profiles = {id(p) for host in graphs
                for p in plans.host_table(host).profiles}
    assert len(profiles) <= 1000


def test_profile_masks_fit_a_machine_word():
    """Replayed from an empty registry, ``verify_bound``'s stream
    registers at most 64 profile atoms (``repro.matching.plans``,
    "Profiles as masks"; 44-49 over gcbench's streams), so every need
    and supply mask VF2+ ANDs is one machine word."""
    spec = next(s for s in workloads.SPECS if s.name == "verify_bound")
    with fresh_profile_registry() as atoms:
        inputs = workloads.build_inputs(spec, seed=1)
        with GraphCacheService(GraphStore.from_graphs(inputs.graphs),
                               workloads.CONFIG) as service:
            for position, query in enumerate(inputs.stream):
                if inputs.plan is not None:
                    service.apply(inputs.plan, position)
                service.execute(query)
        assert 0 < len(atoms) <= 64
