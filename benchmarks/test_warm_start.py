"""Warm-start benchmark: snapshot-restored cache vs cold cache.

The serving scenario persistence exists for: a process that served a
Zipf-repeating Type B stream is restarted (deploy, crash, rebalance) and
must serve the *rest* of the stream.  A cold restart relearns the
popular queries from nothing; a warm start restores the snapshot and
keeps hitting immediately.

Measured into ``BENCH_warmstart.json`` (``results_dir`` of
``conftest.py``):

* **correctness** — the warm tail's answers are bit-identical to the
  cold tail's (a snapshot may never change an answer);
* **hit rate over the first window-capacity queries** of the tail —
  the acceptance criterion: warm strictly above cold;
* **time-to-first-hit** — stream index and wall-clock milliseconds
  until the first containment hit.
"""

from __future__ import annotations

import json
import time

from repro.api import GCConfig, GraphCacheService
from repro.cli import render_table
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.workloads.typeb import TypeBConfig, generate_type_b


NUM_QUERIES = 300
WARM_PREFIX = 200          # queries served before the simulated restart
CONFIG = GCConfig(model="CON", matcher="vf2+")  # paper capacities 100/20

WORKLOAD = "20%"


def _serve_tail(graphs, tail, snapshot_path):
    """Serve the post-restart tail; ``snapshot_path=None`` is the cold
    restart, a path warm-starts from it.  Returns per-query rows."""
    store = GraphStore.from_graphs(graphs)
    rows = []
    with GraphCacheService(store, CONFIG) as service:
        if snapshot_path is not None:
            service.load(snapshot_path)
        start = time.perf_counter()
        for query in tail:
            result = service.execute(query)
            m = result.metrics
            rows.append({
                "answer": frozenset(result.answer),
                "hit": (m.containing_hits + m.contained_hits) > 0,
                "elapsed_s": time.perf_counter() - start,
                "method_tests": m.method_tests,
                "query_ms": m.query_seconds * 1000.0,
            })
    return rows


def _report(rows, first_n):
    hits_first = sum(r["hit"] for r in rows[:first_n])
    first_hit = next((i for i, r in enumerate(rows) if r["hit"]), None)
    return {
        "queries": len(rows),
        f"hit_rate_first_{first_n}": hits_first / first_n,
        "hit_rate_total": sum(r["hit"] for r in rows) / len(rows),
        "time_to_first_hit_index": first_hit,
        "time_to_first_hit_ms": (rows[first_hit]["elapsed_s"] * 1000.0
                                 if first_hit is not None else None),
        "total_method_tests": sum(r["method_tests"] for r in rows),
        "avg_query_ms": sum(r["query_ms"] for r in rows) / len(rows),
    }


def test_warm_start_beats_cold(report_table, results_dir, tmp_path):
    graphs = generate_aids_like(num_graphs=150, mean_vertices=8.0,
                                std_vertices=3.0, max_vertices=14,
                                seed=2017)
    share = int(WORKLOAD.rstrip("%")) / 100.0
    workload = generate_type_b(graphs, TypeBConfig(
        num_queries=NUM_QUERIES, no_answer_probability=share,
        answer_pool_size=60, no_answer_pool_size=15, seed=424242,
    ))
    queries = [q.graph for q in workload.queries]
    tail = queries[WARM_PREFIX:]
    window = CONFIG.window_capacity

    # Phase 1: the pre-restart process serves the prefix and snapshots.
    snapshot_path = tmp_path / "warm.snap.jsonl"
    store = GraphStore.from_graphs(graphs)
    with GraphCacheService(store, CONFIG) as before_restart:
        for query in queries[:WARM_PREFIX]:
            before_restart.execute(query)
        before_restart.save(snapshot_path)

    # Phase 2: cold restart vs warm restart over the identical tail.
    cold = _serve_tail(graphs, tail, None)
    warm = _serve_tail(graphs, tail, snapshot_path)

    assert [r["answer"] for r in cold] == [r["answer"] for r in warm], (
        "warm-started answers diverged from cold answers"
    )

    cold_report = _report(cold, window)
    warm_report = _report(warm, window)
    payload = {
        "workload": f"typeB-{WORKLOAD}",
        "queries": NUM_QUERIES,
        "warm_prefix": WARM_PREFIX,
        "window_capacity": window,
        "capacities": {"cache": CONFIG.cache_capacity, "window": window},
        "cold": cold_report,
        "warm": warm_report,
    }
    (results_dir / "BENCH_warmstart.json").write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")

    key = f"hit_rate_first_{window}"
    report_table(
        "BENCH_warmstart",
        render_table(
            f"warm vs cold restart ({payload['workload']}, "
            f"{len(tail)}-query tail after {WARM_PREFIX} warm-up)",
            [{"restart": "cold", **cold_report},
             {"restart": "warm", **warm_report}],
        ),
    )

    assert warm_report[key] > cold_report[key], (
        f"warm-start hit rate over the first {window} queries "
        f"({warm_report[key]:.2f}) is not strictly above cold-start "
        f"({cold_report[key]:.2f})"
    )
