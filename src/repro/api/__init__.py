"""The public service-layer API of the GC+ reproduction.

Three pieces compose the surface callers should program against:

* :class:`GCConfig` — frozen, validated configuration
  (``from_dict``/``to_dict`` for CLI and bench wiring, ``replace`` for
  overrides);
* :class:`GraphCacheService` — the session facade: ``execute``,
  ``execute_many`` (``execute`` per query), read-only ``explain``,
  dataset mutations, snapshots, and — via
  :meth:`GraphCacheService.session` — up to ``GCConfig.max_sessions``
  concurrent :class:`ServiceSession` query handles sharing one cache
  behind one lock held per request (see ``docs/concurrency.md``);
* :class:`QueryPlan` / :class:`PlanStep` — structured explain receipts.
"""

from repro.api.config import GCConfig
from repro.api.plan import PlanStep, QueryPlan
from repro.api.service import GraphCacheService, ServiceSession

__all__ = [
    "GCConfig",
    "GraphCacheService",
    "ServiceSession",
    "QueryPlan",
    "PlanStep",
]
