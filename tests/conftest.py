"""Shared test fixtures, hypothesis strategies and oracles.

The oracle functions here are deliberately *independent* of the library
implementation (plain brute-force recursion over injections) so that the
property-based tests compare two unrelated code paths.
"""

from __future__ import annotations

import gc
import random
import sys
from collections import Counter
from contextlib import contextmanager
from types import FunctionType
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.graphs.graph import LabeledGraph
from tests.lockdep import lock_discipline  # noqa: F401  (a fixture)

# Keep hypothesis runs fast and CI-stable: sub-iso oracles are O(n!) in
# the worst case, so strategies below bound graph sizes tightly.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------
def brute_force_subiso(query: LabeledGraph, host: LabeledGraph) -> bool:
    """Independent non-induced sub-iso decision (label-preserving)."""
    if query.num_vertices > host.num_vertices:
        return False
    candidates = [
        [v for v in host.vertices() if host.label(v) == query.label(u)]
        for u in query.vertices()
    ]

    def extend(u: int, used: set[int], mapping: dict[int, int]) -> bool:
        if u == query.num_vertices:
            return True
        for v in candidates[u]:
            if v in used:
                continue
            ok = True
            for n in query.neighbors(u):
                if n in mapping and not host.has_edge(mapping[n], v):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used.add(v)
                if extend(u + 1, used, mapping):
                    return True
                del mapping[u]
                used.discard(v)
        return False

    return extend(0, set(), {})


def brute_force_answer(store, query: LabeledGraph, query_type) -> set[int]:
    """Ground-truth answer set for a query against a GraphStore."""
    from repro.cache.entry import QueryType

    out: set[int] = set()
    for gid, graph in store.items():
        if query_type is QueryType.SUBGRAPH:
            hit = brute_force_subiso(query, graph)
        else:
            hit = brute_force_subiso(graph, query)
        if hit:
            out.add(gid)
    return out


def packed_ids(bits: int) -> list[int]:
    """The ids packed into ``bits`` (bit *i* ⟺ id *i*), ascending — how
    ``Answer``, ``CGvalid`` and every id set of the pipeline hold ids.
    A naive per-bit scan: the oracle of :func:`repro.util.bits.bit_ids`.
    It reads the bits a byte at a time, so an id set of 10⁵ ids costs
    10⁵ steps, not 10⁵ shifts of the whole integer."""
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return [8 * at + i for at, byte in enumerate(data) for i in range(8)
            if byte >> i & 1]


def id_mask(ids) -> int:
    """The ``int`` id set holding the ids in ``ids`` (bit *i* ⟺ id *i*)."""
    return sum(1 << i for i in set(ids))


def brute_force_isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Exact isomorphism via two-way containment + equal sizes."""
    return (
        a.num_vertices == b.num_vertices
        and a.num_edges == b.num_edges
        and brute_force_subiso(a, b)
    )


# ----------------------------------------------------------------------
# The zero-garbage guard
# ----------------------------------------------------------------------
def _is_this_repositorys(obj: object) -> bool:
    module = (obj.__module__ if isinstance(obj, FunctionType)
              else type(obj).__module__)
    head = module.partition(".")[0] if isinstance(module, str) else ""
    return head in ("repro", "tests") or head.startswith("test_")


@contextmanager
def no_cyclic_garbage():
    """Run the block with the collector off; fail if it left a cycle.

    ``gc.collect()``, ``gc.disable()``, the block, and a second
    ``gc.collect()`` that must find nothing.  The second one runs under
    ``gc.DEBUG_SAVEALL`` so that a failure says *what* was found: the
    unreachable objects counted by type, and the ``__qualname__`` of
    every unreachable function (a leaking closure names itself).

    Under a trace function (``pytest --cov``, a debugger) the tracer's
    own allocations happen inside the block; should they include a
    cycle, it is not the program's.  Only then, the count keeps just
    the objects that are this repository's by name — instances of its
    types, functions defined in its modules.  A leaked closure is such a
    function and is still caught; an anonymous cycle of builtins is
    caught only without a tracer.
    """
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        yield
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    if sys.gettrace() is not None:
        garbage = [obj for obj in garbage if _is_this_repositorys(obj)]
        found = len(garbage)
    types = Counter(type(obj).__name__ for obj in garbage)
    functions = Counter(obj.__qualname__ for obj in garbage
                        if isinstance(obj, FunctionType))
    del garbage
    gc.collect()    # what DEBUG_SAVEALL kept alive goes now
    assert found == 0, (
        f"{found} unreachable objects left for the cyclic collector: "
        f"{dict(types.most_common())}; unreachable functions: "
        f"{dict(functions.most_common())}")


@contextmanager
def fresh_profile_registry():
    """Run the block with an empty atom registry and profile intern
    table (``repro.matching.plans``, "Profiles as masks"); yields the
    registry.  The block alone decides which atoms are registered and
    in what order, and what it registers is gone afterwards.  Only
    graphs built inside the block may be searched in it: a profile
    table built outside carries masks of the outer registry."""
    from repro.matching import plans
    with patch.object(plans, "_ATOMS", {}), \
            patch.object(plans, "_INTERNED", {}):
        yield plans._ATOMS


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def labeled_graphs(draw, max_vertices: int = 8, alphabet: str = "abc",
                   min_vertices: int = 1,
                   edge_probability: float | None = None):
    """Random small labeled graphs."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = [draw(st.sampled_from(alphabet)) for _ in range(n)]
    p = (edge_probability if edge_probability is not None
         else draw(st.floats(0.0, 0.8)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    g = LabeledGraph()
    for lab in labels:
        g.add_vertex(lab)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


@st.composite
def graph_permutations(draw, max_vertices: int = 7, alphabet: str = "ab"):
    """(graph, isomorphic permuted copy) pairs."""
    g = draw(labeled_graphs(max_vertices=max_vertices, alphabet=alphabet))
    perm = list(g.vertices())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(perm)
    inverse = {v: i for i, v in enumerate(perm)}
    h = LabeledGraph.from_edges(
        [g.label(perm[i]) for i in range(g.num_vertices)],
        [(inverse[u], inverse[v]) for u, v in g.edges()],
    )
    return g, h


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def path_graph() -> LabeledGraph:
    """C-C-O path."""
    return LabeledGraph.from_edges(["C", "C", "O"], [(0, 1), (1, 2)])


@pytest.fixture
def triangle_graph() -> LabeledGraph:
    return LabeledGraph.from_edges(["C", "C", "O"],
                                   [(0, 1), (1, 2), (0, 2)])
