"""Statistics Monitor — per-query metrics and run-level aggregates.

Reproduces the paper's reporting surface:

* **query time** (Figure 4 numerator/denominator) — the critical-path
  work to answer a query: hit discovery + pruning + Method-M
  verification.  Admission and consistency maintenance are *overhead*
  (Figure 6): the paper performs them "concurrently with the Query
  Processing Runtime subsystem executing subsequent queries" (§4), and
  Figure 6 reports them as a separate per-query overhead bar.
* **number of sub-iso tests** (Figure 5) — Method-M verifier calls
  against dataset graphs.
* **overhead breakdown** — window/cache update time vs the CON-exclusive
  log-analysis + validation time (§7.2 reports the latter is <1% of CON
  overhead).
* **hit anatomy** (§7.2 insight) — exact-match hits, zero-test queries,
  sub/supergraph hits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.util.bits import bit_ids

__all__ = ["QueryMetrics", "QueryResult", "StatisticsMonitor"]


@dataclass
class QueryMetrics:
    """Everything measured about one query execution."""

    method_tests: int = 0          # Mverifier calls (Figure 5's metric)
    candidate_size: int = 0        # |CS_M| before pruning
    pruned_candidate_size: int = 0  # |CS_GC+| actually verified
    tests_saved: int = 0           # candidate_size - tests actually run
    answer_size: int = 0

    # Critical-path components (query time = their sum).
    discovery_seconds: float = 0.0
    prune_seconds: float = 0.0
    verify_seconds: float = 0.0

    # Overhead components (Figure 6's second bar).
    analyze_seconds: float = 0.0    # Algorithm 1 (CON only)
    validate_seconds: float = 0.0   # Algorithm 2 (CON only)
    purge_seconds: float = 0.0      # EVI indiscriminate purge
    admission_seconds: float = 0.0  # window + cache update, replacement

    # Hit anatomy (§7.2).
    containing_hits: int = 0
    contained_hits: int = 0
    exact_hits: int = 0
    internal_tests: int = 0
    exact_hit_valid: bool = False
    empty_shortcut: bool = False
    #: The query was identical to a resident cached query and ran as it
    #: (that entry's graph, features, signature and compiled plans).
    interned: bool = False

    @property
    def query_seconds(self) -> float:
        return self.discovery_seconds + self.prune_seconds + self.verify_seconds

    @property
    def overhead_seconds(self) -> float:
        return self.consistency_seconds + self.admission_seconds

    @property
    def consistency_seconds(self) -> float:
        """The consistency-protocol share of overhead: Algorithms 1 + 2
        under CON, the indiscriminate purge under EVI."""
        return (self.analyze_seconds + self.validate_seconds
                + self.purge_seconds)


@dataclass
class QueryResult:
    """The answer set plus metrics.

    ``answer_bits`` is the answer as the pipeline computed it, an
    ``int`` (bit *i* set iff dataset graph *i* answers the query);
    :attr:`answer` and :attr:`answer_ids` are built from it when read.
    """

    answer_bits: int
    metrics: QueryMetrics

    @property
    def answer(self) -> tuple[int, ...]:
        """The answer's graph ids, ascending."""
        return tuple(bit_ids(self.answer_bits))

    @property
    def answer_ids(self) -> frozenset[int]:
        return frozenset(bit_ids(self.answer_bits))


@dataclass
class StatisticsMonitor:
    """Cumulative totals of :class:`QueryMetrics` across a run.

    Every field only ever grows; :meth:`summary` derives the per-query
    averages from them.  Thread-safe: queries record under the service
    lock, but ``/metrics`` scrapes read without it, so :meth:`record`
    and the accessors serialise on an internal mutex (uncontended in
    single-session use).
    """

    queries: int = 0
    # Seconds, summed over the recorded queries.
    query_seconds: float = 0.0
    overhead_seconds: float = 0.0
    consistency_seconds: float = 0.0
    purge_seconds: float = 0.0
    total_method_tests: int = 0
    total_internal_tests: int = 0
    total_tests_saved: int = 0
    zero_test_queries: int = 0
    queries_with_exact_hit: int = 0
    queries_with_valid_exact_hit: int = 0
    queries_with_empty_shortcut: int = 0
    interned_queries: int = 0
    total_containing_hits: int = 0
    total_contained_hits: int = 0
    total_exact_hits: int = 0
    #: A query is a *cache hit* when discovery found at least one
    #: containment relation (containing, contained or exact) — the
    #: paper's "GC+ helped" signal — and a miss otherwise.
    cache_hits: int = 0
    cache_misses: int = 0
    _mutex: threading.Lock = field(default_factory=threading.Lock,
                                   repr=False, compare=False)

    def record(self, metrics: QueryMetrics) -> None:
        with self._mutex:
            self.queries += 1
            self.query_seconds += metrics.query_seconds
            self.overhead_seconds += metrics.overhead_seconds
            self.consistency_seconds += metrics.consistency_seconds
            self.purge_seconds += metrics.purge_seconds
            self.total_method_tests += metrics.method_tests
            self.total_internal_tests += metrics.internal_tests
            self.total_tests_saved += metrics.tests_saved
            if metrics.method_tests == 0:
                self.zero_test_queries += 1
            if metrics.exact_hits > 0:
                self.queries_with_exact_hit += 1
            if metrics.exact_hit_valid:
                self.queries_with_valid_exact_hit += 1
            if metrics.empty_shortcut:
                self.queries_with_empty_shortcut += 1
            if metrics.interned:
                self.interned_queries += 1
            self.total_containing_hits += metrics.containing_hits
            self.total_contained_hits += metrics.contained_hits
            self.total_exact_hits += metrics.exact_hits
            if (metrics.containing_hits + metrics.contained_hits
                    + metrics.exact_hits) > 0:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def counters(self) -> dict[str, int]:
        """Cumulative, monotonically non-decreasing tallies.

        The contract is exactly what Prometheus counters (and any other
        ops aggregation) need: every value only ever grows over the
        monitor's lifetime — cache purges, window promotions and manual
        ``clear()`` calls never reset them — so ``rate()`` over scrapes
        is meaningful.  Thread-safe like the other accessors.
        """
        with self._mutex:
            return {
                "queries": self.queries,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "method_tests": self.total_method_tests,
                "internal_tests": self.total_internal_tests,
                "tests_saved": self.total_tests_saved,
                "zero_test_queries": self.zero_test_queries,
                "exact_hit_queries": self.queries_with_exact_hit,
                "empty_shortcut_queries": self.queries_with_empty_shortcut,
                "interned_queries": self.interned_queries,
            }

    def summary(self) -> dict[str, float]:
        """A flat dict for report tables and JSON dumps: the totals, and
        per-query averages (milliseconds, the paper's unit; 0.0 before
        the first query)."""
        with self._mutex:
            n = self.queries or 1
            return {
                "queries": self.queries,
                "avg_query_time_ms": self.query_seconds / n * 1000.0,
                "avg_overhead_ms": self.overhead_seconds / n * 1000.0,
                "avg_consistency_ms": self.consistency_seconds / n * 1000.0,
                "avg_purge_ms": self.purge_seconds / n * 1000.0,
                "avg_method_tests": self.total_method_tests / n,
                "total_method_tests": self.total_method_tests,
                "total_internal_tests": self.total_internal_tests,
                "total_tests_saved": self.total_tests_saved,
                "zero_test_queries": self.zero_test_queries,
                "queries_with_exact_hit": self.queries_with_exact_hit,
                "queries_with_valid_exact_hit":
                    self.queries_with_valid_exact_hit,
                "queries_with_empty_shortcut":
                    self.queries_with_empty_shortcut,
                "interned_queries": self.interned_queries,
                "total_containing_hits": self.total_containing_hits,
                "total_contained_hits": self.total_contained_hits,
                "total_exact_hits": self.total_exact_hits,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            }
