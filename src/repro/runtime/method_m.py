"""Method M — the external SI method GC+ is called to expedite.

Per the paper (§4): *"Method M subsystem includes an SI implementation,
denoted Mverifier, sub-iso testing candidate set ``M_CS`` (the whole
dataset when GC+ is not used)."*  SI methods test every candidate graph;
there is no FTV dataset index (none supports updates — §1), so the bare
baseline candidate set is the entire live dataset.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from time import perf_counter

from repro.cache.entry import QueryType
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.util.bits import bit_ids

__all__ = ["MethodM", "MethodMRunner"]


def _verify_ids(is_sub: Callable[[LabeledGraph, LabeledGraph], bool],
                graphs: Mapping[int, LabeledGraph], query: LabeledGraph,
                candidates: int, subgraph_semantics: bool) -> tuple[int, int]:
    """The Mverifier loop: one ``is_sub`` call per live id among the one
    bits of ``candidates``, lowest first; returns (answer bits, tests
    performed).  Ids not in ``graphs`` (deleted graphs, ids never
    assigned) are skipped."""
    hits = 0
    tests = 0
    get = graphs.get
    for gid in bit_ids(candidates):
        host = get(gid)
        if host is not None:
            tests += 1
            if (is_sub(query, host) if subgraph_semantics
                    else is_sub(host, query)):
                hits |= 1 << gid
    return hits, tests


class MethodM:
    """Mverifier bound to a dataset: runs sub-iso tests over candidates."""

    def __init__(self, matcher: SubgraphMatcher, store: GraphStore) -> None:
        self.matcher = matcher
        self.store = store

    def verify(self, query: LabeledGraph, candidate_ids: int,
               query_type: QueryType) -> tuple[int, int]:
        """Test every candidate; returns (answer bits, tests performed).

        Candidate ids referring to deleted graphs are skipped defensively
        (GC+ never produces them — candidate sets are intersections with
        the live id set — but user code may).
        """
        return _verify_ids(self.matcher.is_subgraph_isomorphic,
                           self.store.graphs, query, candidate_ids,
                           query_type is QueryType.SUBGRAPH)


class MethodMRunner:
    """The bare baseline: Method M over the whole dataset, no cache.

    Exposes the same ``execute`` surface as
    :class:`repro.api.service.GraphCacheService` so benchmark harnesses
    can swap them freely.
    """

    def __init__(self, store: GraphStore, matcher: SubgraphMatcher,
                 query_type: QueryType = QueryType.SUBGRAPH) -> None:
        self.store = store
        self.method_m = MethodM(matcher, store)
        self.query_type = query_type

    def execute(self, query: LabeledGraph):
        """Run one query against the full dataset."""
        from repro.runtime.monitor import QueryMetrics, QueryResult

        started = perf_counter()
        try:
            candidates = self.store.ids_bitset()
            answer, tests = self.method_m.verify(query, candidates,
                                                 self.query_type)
            elapsed = perf_counter() - started
        finally:
            # As the service's pipeline: the matcher's plan does not
            # outlive the query on the caller's object, so harness cells
            # that share workload objects start equal.
            query.forget_derived()
        metrics = QueryMetrics(
            method_tests=tests,
            candidate_size=candidates.bit_count(),
            verify_seconds=elapsed,
        )
        return QueryResult(answer_bits=answer, metrics=metrics)
