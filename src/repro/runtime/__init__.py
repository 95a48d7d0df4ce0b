"""Query Processing Runtime (paper §4, §6).

* :class:`repro.runtime.method_m.MethodM` — the external SI method GC+
  expedites: a sub-iso verifier applied to a candidate set;
* :class:`repro.runtime.method_m.MethodMRunner` — the bare baseline
  (candidate set = whole dataset), used for speedup denominators;
* :mod:`repro.runtime.processors` — the GC+sub / GC+super processors
  that discover containment relations between the new query and cached
  queries;
* :mod:`repro.runtime.pruner` — the Candidate Set Pruner implementing
  formulas (1)–(5) and the §6.3 optimal cases;
* :mod:`repro.runtime.monitor` — the Statistics Monitor (per-query
  metrics and aggregates, incl. Figure 6's overhead breakdown).

The per-query pipeline that composes them lives in
:class:`repro.api.service.GraphCacheService`.
"""

from repro.runtime.method_m import MethodM, MethodMRunner
from repro.runtime.monitor import QueryMetrics, QueryResult, StatisticsMonitor
from repro.runtime.processors import DiscoveryResult, HitDiscovery
from repro.runtime.pruner import PruneOutcome, prune_candidate_set

__all__ = [
    "QueryResult",
    "MethodM",
    "MethodMRunner",
    "HitDiscovery",
    "DiscoveryResult",
    "prune_candidate_set",
    "PruneOutcome",
    "QueryMetrics",
    "StatisticsMonitor",
]
