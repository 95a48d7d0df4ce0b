"""The one search of the bundled matchers, on an explicit stack.

VF2, VF2+ and GraphQL all extend a partial injective mapping one pattern
vertex at a time and backtrack when a depth runs out of candidates; they
differ only in which vertex comes next and which host vertices may take
it.  :func:`extend` is the rest, as one loop, so no pattern is too deep
for it.  A depth is a *step* ``(u, label, mapped, need, bound, unmapped,
pool)``: pattern vertex ``u`` with ``label``; ``mapped``, its neighbours
placed before it, whose images a candidate must be adjacent to;
``need``, its profile need mask (:mod:`repro.matching.plans`, "Profiles
as masks"; 0 tests nothing); a candidate with fewer than ``bound``
neighbours must still have ``unmapped`` unused ones (VF2+'s lookahead;
VF2's degree test is ``bound == unmapped == deg(u)``; 0 tests nothing);
``pool``, the candidates, or None to draw them as VF2 and VF2+ do: the
label's vertices for a root (from ``by_label``), the anchor image's
neighbours for one mapped neighbour, and for several the first image's
(VF2) or the lowest-degree image's (VF2+, ``lowest``) neighbours.  A
static order passes its compiled ``steps``; GraphQL's dynamic one
passes ``choose``, asked once per state.  Every filter is a pure test
of the candidate, so depths, mappings and ``MatcherStats.states`` equal
those of the recursive kernels in ``tests/reference_matchers.py``.

No cycle to collect
-------------------
A recursive search written as a nested function is a reference cycle
(the function holds its closure, whose cell holds the function), so each
test would leave it, its cells, the mapping and the ``used`` set to the
cyclic collector: about 1 900 objects per query on gcbench's
``verify_bound``, and 6-10% of every stream's time, charged to whichever
layer allocates next.  :func:`extend` is one frame whose stack holds
tuples of iterators over sets and lists, so reference counting frees
all a test allocates when it returns.
``tests/test_no_cyclic_garbage.py`` pins that from the kernels up to
``CacheServer.handle``, ``tests/test_gcbench_counts.py`` over the
full-size streams, and ``tests/test_source_rules.py`` keeps every core
function from calling itself.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from typing import Any

from repro.graphs.graph import LabeledGraph
from repro.matching.base import MatcherStats

__all__ = ["Step", "extend"]

#: see the module docstring
Step = tuple[int, Hashable, Sequence[int], int, int, int, Any]


def extend(host: LabeledGraph, size: int, stats: MatcherStats,
           by_label: Mapping[Hashable, Sequence[int]],
           steps: Sequence[Step] = (), profiles: Sequence[Any] = (),
           lowest: bool = False,
           choose: Callable[[dict[int, int], set[int]], Step] | None = None,
           ) -> dict[int, int] | None:
    """An embedding ``{pattern vertex: host vertex}`` of ``size`` pattern
    vertices, or None; counts each depth entered in ``stats``.
    ``by_label`` is the host's label → vertices lists
    (:class:`~repro.matching.plans.HostTable`), which the caller holds
    already."""
    labels = host._labels
    adjacency = host._adjacency
    mapping: dict[int, int] = {}
    used: set[int] = set()
    #: per depth above the current one: its vertex, candidates and tests
    stack: list[tuple] = []
    states = 0
    while True:
        depth = len(stack)
        if depth == size:
            stats.states += states
            return mapping
        states += 1
        u, label, mapped, need, bound, unmapped, pool = (
            steps[depth] if choose is None else choose(mapping, used))
        images: Sequence[set[int]] = ()
        if pool is not None:
            images = [adjacency[mapping[n]] for n in mapped]
        elif len(mapped) == 1:
            # One anchor: its image's neighbours are the candidates,
            # adjacent to it by construction.
            pool = adjacency[mapping[mapped[0]]]
        elif mapped:
            images = [adjacency[mapping[n]] for n in mapped]
            pool = min(images, key=len) if lowest else images[0]
        else:
            pool = by_label.get(label, ())
        candidates = iter(pool)
        while True:
            for cand in candidates:
                if cand in used or labels[cand] != label:
                    continue
                if need and need & profiles[cand].supply:
                    continue
                if images:
                    adjacent = True
                    for image in images:
                        if cand not in image:
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                if bound:
                    # ``bound`` neighbours suffice, under ``unmapped`` fail
                    near = adjacency[cand]
                    if len(near) < bound and (len(near) < unmapped or len(
                            near - used) < unmapped):
                        continue
                mapping[u] = cand
                used.add(cand)
                stack.append((u, candidates, images, label, need, bound,
                              unmapped))
                break
            else:
                # This depth is spent: back to the one above, which
                # gives up its vertex and tries its next candidate.
                if not stack:
                    stats.states += states
                    return None
                (u, candidates, images, label, need, bound,
                 unmapped) = stack.pop()
                used.discard(mapping.pop(u))
                continue
            break
