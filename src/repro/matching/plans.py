"""What a sub-iso test needs from *one* graph, computed once per graph.

Every test ``query ⊆ host`` splits into work that depends on one of the
two graphs and work that depends on the pair.  The former lives on the
graph itself (:meth:`repro.graphs.graph.LabeledGraph.derived`: built on
first use, dropped by every mutator, never shared by ``copy()``), so the
per-test path of the bundled matchers is the search and nothing else.
This module holds the pieces more than one kernel uses; the per-matcher
pattern plans sit next to their kernels.

Everything stored is immutable once built: sessions share one matcher
instance across threads, so the matcher keeps no per-test state outside
its call frames, and graph-scoped values never change once published.
The one late write is a :class:`HostTable`'s ``profiles``, which goes
from None to a complete tuple in one store; two threads that race on
it store equal tuples, and a reader sees None or a whole tuple.

Compile once, test many
-----------------------
A host contributes one :class:`HostTable` per graph version, found with
one memo probe: its label counts (the depth-0 check), its label →
vertices lists (root candidates; :func:`repro.matching.search.extend`
takes them from its caller) and, from the first test that gets past
depth 0, its neighbour-label profiles.  A pattern contributes its
kernel's plan.  Both are built on whatever graph object the pipeline
tests: a dataset graph keeps its table as long as it lives unchanged,
and a cached query keeps its plan and table as long as its entry.  An
arriving query's own object is the caller's, so the pipeline never
leaves a memo on it: cache admission moves what the query's run built
into the entry it creates (:meth:`LabeledGraph.move_derived
<repro.graphs.graph.LabeledGraph.move_derived>`), and discovery meets
the admitted query compiled.

Profiles as masks
-----------------
A host vertex can take a pattern vertex's place only if its neighbour
labels dominate the pattern vertex's: for every label ``l``, at least as
many neighbours carry ``l``.  Each such fact is an *atom* ``(l, k)``,
"at least ``k`` neighbours carry ``l``", and a module-wide registry gives
every atom its own bit.  A pattern vertex *needs* the atoms
``(l, count)`` of its profile; an interned host profile keeps the
complement of the atoms it has, ``(l, 1..count)`` for each of its
labels, as its ``supply``.  Dominance is then ``need & supply == 0``,
one AND however many labels the pattern vertex has.

The test is exact whatever order patterns and hosts register in.  Bits
are only appended and never reassigned, so one atom is one bit for as
long as the process lives.  A host profile registers *every* atom it
has when it is interned: if a pattern needing ``(l, k)`` comes later it
finds the host's bit, and if it came first the host sets the bit the
pattern registered.  An atom a host lacks (``k`` above its count of
``l``) is never one of the bits it sets.  Registering takes a lock, so
two threads never hand out one bit twice; lookups do not.

Like :class:`~repro.cache.query_index.QueryIndex`'s field registry, the
registry never shrinks: it holds, per label, atoms up to the largest
neighbour count any pattern or host has shown for it, and no more
(gcbench's streams register 44-49 atoms, so a mask fits one machine
word; a hub with 3 000 neighbours of one label adds 3 000).
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Hashable, Iterable, Sequence
from threading import Lock
from typing import Any
from weakref import KeyedRef

from repro.graphs.graph import LabeledGraph

__all__ = ["HostTable", "host_table", "need_mask", "neighbour_needs",
           "connectivity_order", "neighbor_lists"]

Label = Hashable


class HostTable:
    """What a test reads from its host graph, built once per graph
    version (:func:`host_table`): ``counts``, label → vertices carrying
    it, what a depth-0 label check probes; ``by_label``, label →
    ascending vertex ids, where the kernels that start from a label's
    vertices (VF2, VF2+, GraphQL, enumeration) draw root candidates; and
    ``profiles``, the host's :meth:`neighbour_profiles`, None until a
    test first gets past depth 0 (a host every pattern rejects there
    never pays for them).  Do not mutate any of them."""

    __slots__ = ("counts", "by_label", "profiles")

    def __init__(self, graph: LabeledGraph) -> None:
        by_label: dict[Label, list[int]] = {}
        for v, lab in enumerate(graph._labels):
            by_label.setdefault(lab, []).append(v)
        self.counts = {lab: len(vs) for lab, vs in by_label.items()}
        self.by_label = by_label
        self.profiles: tuple[_Profile, ...] | None = None

    def neighbour_profiles(self, graph: LabeledGraph
                           ) -> tuple[_Profile, ...]:
        """Per vertex of ``graph`` (the graph this table was built
        from), ``{label: neighbours carrying it}`` (do not mutate): the
        radius-1 profile a host candidate must dominate, with its
        ``supply`` mask (see "Profiles as masks").

        Built complete on first use and published once, in ``profiles``.
        Equal profiles are one object across every live graph:
        molecules repeat a few neighbourhoods over and over (gcbench's
        600-graph dataset has 10 844 vertices and 394 distinct
        profiles), so keeping the table on every host costs a tuple of
        pointers per graph.
        """
        profiles = self.profiles
        if profiles is None:
            profiles = self.profiles = _profiles(graph)
        return profiles


def host_table(graph: LabeledGraph) -> HostTable:
    """``graph``'s :class:`HostTable`: one memo probe per test, under
    the class itself as the key."""
    return graph.derived(HostTable, HostTable)


#: atom ``(label, k)`` → its bit's position (see "Profiles as masks")
_ATOMS: dict[tuple[Label, int], int] = {}
_ATOMS_LOCK = Lock()


def _atom(label: Label, k: int) -> int:
    """The bit of "at least ``k`` neighbours carry ``label``"."""
    bit = _ATOMS.get((label, k))
    if bit is None:
        with _ATOMS_LOCK:
            bit = _ATOMS.get((label, k))
            if bit is None:
                bit = _ATOMS[(label, k)] = len(_ATOMS)
    return 1 << bit


def need_mask(items: Iterable[tuple[Label, int]]) -> int:
    """The atoms a pattern vertex with profile ``items`` needs: a host
    profile dominates it iff ``need & profile.supply == 0``."""
    need = 0
    for label, count in items:
        need |= _atom(label, count)
    return need


def neighbour_needs(labels: Sequence[Label],
                    neighbors: Sequence[tuple[int, ...]]) -> list[int]:
    """Per pattern vertex, the :func:`need_mask` of its radius-1
    profile, from the pattern's labels and :func:`neighbor_lists`."""
    needs = []
    for neigh in neighbors:
        profile: dict[Label, int] = {}
        for n in neigh:
            lab = labels[n]
            profile[lab] = profile.get(lab, 0) + 1
        needs.append(need_mask(profile.items()))
    return needs


class _Profile(dict):
    """A vertex's ``{label: neighbours with it}``; a ``dict`` that can be
    weakly referenced, so the intern table below can hold it, and that
    carries ``supply``: the complement of every atom it has."""

    __slots__ = ("__weakref__", "supply")
    supply: int


#: a profile's labels, sorted (or, for labels that do not order, its
#: item set) → a weak reference to the one live :class:`_Profile` with
#: them.  Weak values, so the table holds nothing that no live graph
#: holds; a ``WeakValueDictionary`` does the same with a Python-level
#: call per probe, which a build pays per vertex.
_INTERNED: dict[Hashable, KeyedRef] = {}


def _forget(ref: Any) -> None:       # the KeyedRef whose profile died
    # Two builds that raced on one key each made a profile and the later
    # store won: the loser's death must not drop the winner's entry.
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


def _profiles(graph: LabeledGraph) -> tuple[_Profile, ...]:
    labels: list[Any] = graph._labels   # ordered below, where they can be
    label_of = labels.__getitem__
    interned = _INTERNED
    out: list[_Profile] = []
    for neigh in graph._adjacency:
        # The sorted labels, built without sorted() for the degrees most
        # vertices have: a build pays for its key once per vertex.
        degree = len(neigh)
        try:
            if degree == 1:
                for n in neigh:
                    key: Hashable = (labels[n],)
            elif degree == 2:
                u, v = neigh
                a, b = labels[u], labels[v]
                key = (a, b) if a <= b else (b, a)
            else:
                key = tuple(sorted(map(label_of, neigh)))
        except TypeError:       # labels that do not order
            key = frozenset(Counter(map(label_of, neigh)).items())
        ref = interned.get(key)
        profile = ref() if ref is not None else None
        if profile is None:
            profile = _Profile()
            for n in neigh:
                lab = labels[n]
                profile[lab] = profile.get(lab, 0) + 1
            have = 0
            for lab, count in profile.items():
                for k in range(1, count + 1):
                    have |= _atom(lab, k)
            profile.supply = ~have
            interned[key] = KeyedRef(profile, _forget, key)
        out.append(profile)
    return tuple(out)


def neighbor_lists(graph: LabeledGraph) -> list[tuple[int, ...]]:
    """Per vertex, its neighbours in the adjacency set's own iteration
    order — the order every kernel meets them in, frozen so that a plan
    built from it walks the pattern exactly as a direct walk would."""
    return [tuple(neigh) for neigh in graph._adjacency]


def connectivity_order(graph: LabeledGraph) -> list[int]:
    """BFS per component from the lowest vertex id, neighbours ascending.

    Vanilla VF2 explores terminal pairs by minimal id; a BFS order
    reproduces that connectivity-first behaviour with a static order.
    """
    adjacency = graph._adjacency
    order: list[int] = []
    seen: set[int] = set()
    for start in range(len(adjacency)):
        if start in seen:
            continue
        seen.add(start)
        frontier = deque([start])
        while frontier:
            u = frontier.popleft()
            order.append(u)
            for v in sorted(adjacency[u]):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return order
