"""Sustained-load benchmark for the HTTP serving sidecar.

Boots a :class:`~repro.serve.server.CacheServer` over an AIDS-like
dataset and drives it with the open-loop generator at a fixed offered
QPS with the paper's Zipf(α=1.4) query mix plus a mutation fraction —
the serving shape GC+ is built for: a skewed query stream interleaved
with dataset updates that force consistency maintenance.

Measured into ``BENCH_serve.json`` (``results_dir`` of ``conftest.py``):

* **sustained (achieved) QPS** vs offered — open-loop pacing means a
  saturated server shows up as achieved < offered, not as hidden
  queueing delay (no coordinated omission);
* **latency** — p50/p95/p99/max per-request wall clock, in ms;
* **hit rate** — per-response cache-hit accounting over this run's
  queries only;
* **drain** — the graceful-shutdown receipt: in-flight drained and a
  snapshot persisted.

Client and server share one Python process (and GIL), so achieved QPS
here is a *floor* on the sidecar's real capacity, not a ceiling.
"""

from __future__ import annotations

import json

from repro.api import GCConfig, GraphCacheService
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.server import CacheServer
from repro.workloads.typeb import TypeBConfig, generate_type_b


OFFERED_QPS = 150.0
DURATION_SECONDS = 4.0
MUTATION_FRACTION = 0.05
WORKERS = 4


def test_sustained_load(report_table, results_dir, tmp_path):
    graphs = generate_aids_like(num_graphs=120, mean_vertices=8.0,
                                std_vertices=3.0, max_vertices=14,
                                seed=2017)
    workload = generate_type_b(graphs, TypeBConfig(
        num_queries=60, no_answer_probability=0.2,
        answer_pool_size=40, no_answer_pool_size=10, seed=424242,
    ))
    queries = [q.graph for q in workload.queries]

    snapshot_path = tmp_path / "serve.snap.jsonl"
    store = GraphStore.from_graphs(graphs)
    service = GraphCacheService(store, GCConfig(
        model="CON", matcher="vf2+", lock_mode="rw",
        max_sessions=WORKERS,
    ))
    server = CacheServer(service, snapshot_path=snapshot_path).start()
    try:
        report = run_loadgen("127.0.0.1", server.port, queries,
                             LoadgenConfig(
                                 qps=OFFERED_QPS,
                                 duration_seconds=DURATION_SECONDS,
                                 workers=WORKERS,
                                 mutation_fraction=MUTATION_FRACTION,
                                 seed=2017,
                             ))
    finally:
        drain = server.drain(timeout=15.0)

    assert report.errors == 0, f"{report.errors} failed requests"
    assert report.requests > 0
    assert report.mutations > 0, "mutation mix never fired"
    # The cache must be earning its keep under the Zipf mix.
    assert report.hit_rate > 0.5, f"hit rate {report.hit_rate:.2f}"
    # Sustained throughput: the sidecar keeps up with at least half the
    # offered rate even with client and server sharing one GIL.
    assert report.achieved_qps > OFFERED_QPS * 0.5, (
        f"achieved {report.achieved_qps:.0f} qps of "
        f"{OFFERED_QPS:.0f} offered")
    assert drain.in_flight_drained
    assert drain.snapshot_error is None
    assert snapshot_path.exists()

    payload = {
        "workload": "typeB-20% zipf(1.4)",
        "mutation_fraction": MUTATION_FRACTION,
        "loadgen_workers": WORKERS,
        "server_sessions": WORKERS,
        **report.to_dict(),
        "drain": {
            "in_flight_drained": drain.in_flight_drained,
            "snapshot_persisted": drain.snapshot_path is not None,
            "drain_seconds": drain.drain_seconds,
        },
    }
    (results_dir / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")

    from repro.bench.reporting import render_table
    report_table("BENCH_serve", render_table(
        f"serve sidecar under load ({payload['workload']}, "
        f"{MUTATION_FRACTION:.0%} mutations)",
        [{
            "offered qps": f"{report.offered_qps:.0f}",
            "achieved qps": f"{report.achieved_qps:.0f}",
            "requests": report.requests,
            "errors": report.errors,
            "hit rate": f"{report.hit_rate:.2f}",
            "p50 ms": f"{report.latency_ms['p50']:.1f}",
            "p95 ms": f"{report.latency_ms['p95']:.1f}",
            "p99 ms": f"{report.latency_ms['p99']:.1f}",
            "drain s": f"{drain.drain_seconds:.2f}",
        }],
    ))
