"""Figure 6 — average execution time and overhead per query (VF2 base).

Asserts the two §7.2 conclusions:

* the CON-exclusive consistency work (Algorithms 1 + 2) is a small share
  of CON overhead (the paper measures <1% at full scale; we allow <25%
  at reduced scale, where the constant costs loom larger);
* per-query overhead is small relative to per-query benefit — "CON
  sweeps EVI in query processing speedup with a negligible additional
  overhead".
"""

from __future__ import annotations

from paper_figures import figure6


def test_fig6_time_breakdown(benchmark, harness, report_table):
    rows, table = benchmark.pedantic(
        lambda: figure6(harness), rounds=1, iterations=1
    )
    report_table("fig6", table)

    for row in rows:
        workload = row["workload"]
        base_ms = row["vf2 qtime ms"]
        con_ms = row["CON qtime ms"]
        con_overhead = row["CON overhead ms"]
        con_exclusive_pct = row["CON-excl % of overhead"]
        assert con_ms < base_ms, (
            f"CON query time should undercut bare VF2 on {workload}"
        )
        assert con_overhead < base_ms, (
            f"CON overhead must be small vs baseline query time on "
            f"{workload}: {con_overhead:.2f}ms vs {base_ms:.2f}ms"
        )
        saved_ms = base_ms - con_ms
        assert con_overhead < saved_ms, (
            f"CON overhead ({con_overhead:.2f}ms) should not eat the "
            f"benefit ({saved_ms:.2f}ms) on {workload}"
        )
        assert con_exclusive_pct < 25.0, (
            f"Algorithms 1+2 should be a minor share of CON overhead on "
            f"{workload}, got {con_exclusive_pct:.1f}%"
        )
