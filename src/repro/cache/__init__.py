"""The GC+ Cache Manager subsystem (paper §4, §5).

Components, mirroring Figure 1 of the paper:

* :class:`repro.cache.entry.CacheEntry` — a cached query with its frozen
  ``Answer`` and its live ``CGvalid`` validity indicator, both ``int``
  bit vectors over dataset-graph ids;
* :class:`repro.cache.window.WindowManager` — admission control: queries
  are batched in a window (default 20) before entering the cache;
* :class:`repro.cache.statistics.StatisticsManager` — per-entry benefit
  metadata (R = sub-iso tests alleviated, C = estimated cost alleviated,
  recency/frequency);
* :mod:`repro.cache.replacement` — LRU, LFU, PIN, PINC and the hybrid HD
  policy driven by the coefficient of variation of R (§7.1);
* :mod:`repro.cache.validator` — the Cache Validator: Algorithm 2 for the
  CON model (the manager's own ``clear`` is EVI's indiscriminate purge);
* :class:`repro.cache.query_index.QueryIndex` — feature-based filter over
  cached queries for sub/supergraph hit discovery (the iGQ index of [25]);
* :class:`repro.cache.manager.CacheManager` — the orchestrating facade
  used by the query-processing runtime.
"""

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.manager import CacheManager
from repro.cache.models import CacheModel
from repro.cache.replacement import (
    HybridPolicy,
    LFUPolicy,
    LRUPolicy,
    PINCPolicy,
    PINPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.cache.statistics import StatisticsManager
from repro.cache.validator import validate_con
from repro.cache.window import WindowManager

__all__ = [
    "CacheEntry",
    "QueryType",
    "CacheModel",
    "CacheManager",
    "WindowManager",
    "StatisticsManager",
    "validate_con",
    "ReplacementPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "PINPolicy",
    "PINCPolicy",
    "HybridPolicy",
    "make_policy",
]
