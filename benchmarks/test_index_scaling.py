"""Discovery-index microbenchmark: bucketed QueryIndex vs linear scan.

GC+'s value proposition is that discovery + pruning is cheap relative to
the sub-iso tests it alleviates.  The historical ``QueryIndex`` ran a
full feature check against *every* cached entry per lookup, so at large
cache sizes the discovery prefilter itself became the bottleneck.  This
microbenchmark populates indices at increasing entry counts with
realistic (Type A workload) cached queries, probes both lookup
directions, and

* asserts the bucketed index returns **identical candidate pools** to
  the linear scan (same entries, same order) on every probe;
* counts the work of the probes — the signature groups the bucketed
  index tests and the entries it visits, against the entries the
  linear scan visits — and pins those counts exactly
  (:data:`PINNED_VISITS`): the index's advantage as a number that does
  not move with the host's speed;
* times both implementations and records the ratio.

The measurements land in ``BENCH_index.json`` in the ``results_dir`` of
``conftest.py`` (the CI perf-smoke job records and uploads it as an
artifact) so the index's scaling trajectory is tracked over time.  The
timed ratio is asserted (≥ 5× at 1000 cached entries) only in a
recording run, which is what that non-blocking job is: a ratio of two
~10 ms timings read 4.77× on an unmodified tree once, so a clock does
not gate the suite.
"""

from __future__ import annotations

import json
import time

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.query_index import QueryIndex
from repro.datasets.aids import generate_aids_like
from repro.graphs.features import GraphFeatures
from repro.workloads.typea import generate_type_a


ENTRY_COUNTS = (250, 1000)
NUM_PROBES = 50
#: Acceptance bar at 1000 entries, for a recording run.  Local runs
#: measure well above this; the margin absorbs shared-CI timing noise.
MIN_SPEEDUP_AT_1K = 5.0
#: Per entry count, what the ``2 * NUM_PROBES`` lookups of the bucketed
#: index visit: ``(signature groups tested, entries visited)``.  The
#: linear scan visits ``entries * 2 * NUM_PROBES`` entries.
PINNED_VISITS = {250: (6710, 3269), 1000: (18205, 12925)}


class _CountedGroups(dict):
    """A bucket, signature → group: every group a lookup iterates over
    is one dominance test, added to ``tally[0]``."""

    def __init__(self, groups: dict, tally: list[int]) -> None:
        super().__init__(groups)
        self.tally = tally

    def values(self):
        self.tally[0] += len(self)
        return super().values()


class _CountedEntries(dict):
    """Entry id → entry: every entry a lookup iterates over is visited,
    added to ``tally[1]``."""

    def __init__(self, entries: dict, tally: list[int]) -> None:
        super().__init__(entries)
        self.tally = tally

    def items(self):
        self.tally[1] += len(self)
        return super().items()

    def values(self):
        self.tally[1] += len(self)
        return super().values()


def count_visits(index) -> list[int]:
    """Make ``index``'s lookups count what they iterate over — its entry
    maps (the whole population, the oversized one, each signature
    group's members) and its buckets of signature groups, whichever of
    them the index has — into the returned ``[groups, entries]``."""
    tally = [0, 0]
    for name in ("_entries", "_oversized"):
        if hasattr(index, name):
            setattr(index, name, _CountedEntries(getattr(index, name), tally))
    buckets = getattr(index, "_buckets", {})
    for key, bucket in buckets.items():
        for group in bucket.values():
            group[3] = _CountedEntries(group[3], tally)
        buckets[key] = _CountedGroups(bucket, tally)
    return tally


def _visits(index, probe_features) -> tuple[int, int]:
    """``(groups tested, entries visited)`` by one probe of every
    feature set in both directions."""
    tally = count_visits(index)
    _probe_all(index, probe_features)
    return tally[0], tally[1]


class LinearScanIndex:
    """The pre-index reference implementation: full scan per lookup."""

    def __init__(self) -> None:
        self._entries: dict[int, CacheEntry] = {}

    def add(self, entry: CacheEntry) -> None:
        self._entries[entry.entry_id] = entry

    def candidate_supergraphs(self, features: GraphFeatures):
        return [e for e in self._entries.values()
                if features.may_be_subgraph_of(e.features)]

    def candidate_subgraphs(self, features: GraphFeatures):
        return [e for e in self._entries.values()
                if e.features.may_be_subgraph_of(features)]


def _build_population(total: int):
    """Realistic cached queries + probes: Type A random-walk extracts
    over an AIDS-like dataset, the exact query distribution the cache
    holds in the paper's experiments."""
    graphs = generate_aids_like(
        num_graphs=300, mean_vertices=24.0, std_vertices=10.0,
        max_vertices=80, seed=2017,
    )
    workload = generate_type_a(graphs, total + NUM_PROBES, "ZZ", seed=7)
    pool = [q.graph for q in workload.queries]
    return pool[:total], pool[total:total + NUM_PROBES]


def _probe_all(index, probe_features) -> tuple[list, float]:
    """(pools, elapsed): both lookup directions for every probe."""
    start = time.perf_counter()
    pools = []
    for feats in probe_features:
        pools.append(index.candidate_supergraphs(feats))
        pools.append(index.candidate_subgraphs(feats))
    return pools, time.perf_counter() - start


def _time_index(index, probe_features, repeats: int = 3):
    """Best-of-``repeats`` timing plus the (repeat-invariant) pools."""
    pools, best = _probe_all(index, probe_features)
    for _ in range(repeats - 1):
        _, elapsed = _probe_all(index, probe_features)
        best = min(best, elapsed)
    return pools, best


def test_bucketed_index_scaling(report_table, results_dir, recording):
    rows = []
    for count in ENTRY_COUNTS:
        cached, probes = _build_population(count)
        bucketed = QueryIndex()
        linear = LinearScanIndex()
        for i, graph in enumerate(cached):
            entry = CacheEntry(
                entry_id=i, query=graph, query_type=QueryType.SUBGRAPH,
                answer=0, valid=0, created_at=i,
            )
            bucketed.add(entry)
            linear.add(entry)
        probe_features = [GraphFeatures.of(p) for p in probes]

        linear_pools, linear_s = _time_index(linear, probe_features)
        bucketed_pools, bucketed_s = _time_index(bucketed, probe_features)

        # Identical candidate pools: same entries, same order (ascending
        # entry_id — the order the linear dict-scan produces).
        assert len(linear_pools) == len(bucketed_pools)
        for expect, got in zip(linear_pools, bucketed_pools):
            assert [e.entry_id for e in expect] == \
                [e.entry_id for e in got]

        assert _visits(linear, probe_features) == (0, count * 2 * NUM_PROBES)
        groups, entries = _visits(bucketed, probe_features)

        speedup = linear_s / max(bucketed_s, 1e-12)
        rows.append({
            "entries": count,
            "probes": NUM_PROBES,
            "groups_tested": groups,
            "entries_visited": entries,
            "linear_entries_visited": count * 2 * NUM_PROBES,
            "linear_seconds": round(linear_s, 6),
            "bucketed_seconds": round(bucketed_s, 6),
            "speedup": round(speedup, 2),
        })

    (results_dir / "BENCH_index.json").write_text(
        json.dumps({"benchmark": "discovery_index_scaling",
                    "min_speedup_at_1k": MIN_SPEEDUP_AT_1K,
                    "rows": rows}, indent=2, allow_nan=False),
        encoding="utf-8",
    )
    report_table(
        "BENCH_index",
        "discovery index scaling (linear scan vs bucketed)\n"
        + "\n".join(
            f"  entries={r['entries']:>5}"
            f"  visits={r['groups_tested']}+{r['entries_visited']}"
            f" of {r['linear_entries_visited']}"
            f"  linear={r['linear_seconds']:.4f}s"
            f"  bucketed={r['bucketed_seconds']:.4f}s"
            f"  speedup={r['speedup']:.1f}x"
            for r in rows
        ),
    )

    assert {r["entries"]: (r["groups_tested"], r["entries_visited"])
            for r in rows} == PINNED_VISITS, rows
    if recording:
        at_1k = next(r for r in rows if r["entries"] == 1000)
        assert at_1k["speedup"] >= MIN_SPEEDUP_AT_1K, (
            f"bucketed index only {at_1k['speedup']:.1f}x faster than the "
            f"linear scan at 1000 entries (need ≥ {MIN_SPEEDUP_AT_1K}x): "
            f"{at_1k}"
        )
