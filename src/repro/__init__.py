"""GraphCache+ (GC+) — a consistent semantic cache for graph-pattern queries.

A from-scratch Python reproduction of *"Ensuring Consistency in Graph
Cache for Graph-Pattern Queries"* (Wang, Ntarmos, Triantafillou — EDBT/
ICDT 2017 workshops).  GC+ accelerates subgraph/supergraph pattern
queries over a **dynamic** graph dataset by caching previous queries and
their answer sets, pruning future candidate sets through containment
relations, and keeping the cache consistent under dataset changes with
either of two models (EVI — evict on change; CON — per-relation validity
tracking).

Quickstart (the service-layer API)::

    from repro import GCConfig, GraphCacheService, GraphStore, LabeledGraph

    triangle = LabeledGraph.from_edges("CCO", [(0, 1), (1, 2), (0, 2)])
    store = GraphStore.from_graphs([triangle])
    with GraphCacheService(store, GCConfig(model="CON")) as service:
        result = service.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
        print(sorted(result.answer_ids))   # -> [0]

``GraphCacheService`` also offers ``execute_many`` (``execute`` once per
query, in order), ``explain`` (the plan ``execute`` would run, read-only),
the dataset mutations (``apply``, ``add_graph``, ...),
snapshot ``save`` / ``load`` / ``autosave`` and shared-cache sessions;
see :mod:`repro.api`.

See ``examples/`` for realistic scenarios and ``benchmarks/`` for the
paper's experiments.
"""

from repro.api import (
    GCConfig,
    GraphCacheService,
    PlanStep,
    QueryPlan,
)
from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.models import CacheModel
from repro.dataset.change_plan import ChangePlan
from repro.dataset.log import LogRecord, OpType, UpdateLog
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.matching import (
    GraphQLMatcher,
    VF2Matcher,
    VF2PlusMatcher,
    make_matcher,
)
from repro.persist import (
    Snapshot,
    SnapshotError,
    SnapshotFormatError,
    SnapshotMismatchError,
)
from repro.runtime.method_m import MethodMRunner
from repro.runtime.monitor import QueryResult

__version__ = "1.0.0"

__all__ = [
    "GraphCacheService",
    "GCConfig",
    "QueryPlan",
    "PlanStep",
    "QueryResult",
    "MethodMRunner",
    "GraphStore",
    "ChangePlan",
    "UpdateLog",
    "LogRecord",
    "OpType",
    "LabeledGraph",
    "GraphFeatures",
    "CacheModel",
    "CacheManager",
    "CacheEntry",
    "QueryType",
    "VF2Matcher",
    "VF2PlusMatcher",
    "GraphQLMatcher",
    "make_matcher",
    "Snapshot",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotMismatchError",
    "__version__",
]
