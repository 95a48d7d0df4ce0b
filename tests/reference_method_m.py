"""The Mverifier loop as it was before it walked the candidate integer —
kept verbatim as the reference ``tests/test_method_m.py`` holds
:func:`repro.runtime.method_m._verify_ids` equal to: one generator step,
one membership probe and one ``get`` per candidate id, one ``|=`` per
hit.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph


def reference_verify_ids(is_sub: Callable[[LabeledGraph, LabeledGraph], bool],
                         store: GraphStore, query: LabeledGraph,
                         ids: Iterable[int],
                         subgraph_semantics: bool) -> tuple[int, int]:
    """The Mverifier loop: one ``is_sub`` call per live id in ``ids``;
    returns (answer bits, tests performed).  Ids of deleted graphs are
    skipped."""
    answer = 0
    tests = 0
    for gid in ids:
        if gid not in store:
            continue
        host = store.get(gid)
        tests += 1
        if subgraph_semantics:
            hit = is_sub(query, host)
        else:
            hit = is_sub(host, query)
        if hit:
            answer |= 1 << gid
    return answer, tests
