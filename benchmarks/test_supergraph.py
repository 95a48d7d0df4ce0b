"""Supergraph-query workload — the paper's inverse logic, end to end.

The paper presents pruning for subgraph queries and states the
supergraph case is the exact inverse (§6.2).  This bench runs a full
supergraph workload (large query patterns over a dataset of small
fragments) under both cache models, asserting answer equality with the
bare method and the usual CON > EVI ordering on sub-iso tests.
"""

from __future__ import annotations

from paper_figures import supergraph_workload


def test_supergraph_workload(benchmark, harness, report_table,
                             assert_recorded):
    rows, counts, times = benchmark.pedantic(
        lambda: supergraph_workload(harness), rounds=1, iterations=1
    )
    report_table("supergraph", counts)
    report_table("supergraph_time", times)
    assert_recorded("supergraph", counts)

    by_model = {row["model"]: row for row in rows}
    assert set(by_model) == {"EVI", "CON"}
    assert by_model["EVI"]["test speedup"] > 1.0
    assert by_model["CON"]["test speedup"] >= by_model["EVI"]["test speedup"]
