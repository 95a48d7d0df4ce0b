"""§7.2 insight — hit anatomy: exact-match vs sub/supergraph hits.

The paper explains why ZU and UU achieve comparable speedups despite ZU
having ~2.5× the exact-match hits: only a few percent of exact hits
yield zero sub-iso tests (validity rarely covers the whole dataset under
churn), while UU compensates with ~2× the sub/supergraph matches.  This
bench reproduces those counters under CON, and at the default smoke
scale pins them: the rendered table must equal
``benchmarks/results/hit_anatomy.txt`` byte for byte.
"""

from __future__ import annotations

from paper_figures import hit_anatomy


def test_hit_anatomy(benchmark, harness, report_table, assert_recorded):
    rows, table = benchmark.pedantic(
        lambda: hit_anatomy(harness), rounds=1, iterations=1
    )
    report_table("hit_anatomy", table)
    assert_recorded("hit_anatomy", table)

    by_workload = {row["workload"]: row for row in rows}
    zz, zu, uu = by_workload["ZZ"], by_workload["ZU"], by_workload["UU"]

    # Skewed source selection must produce more exact-match hits than
    # uniform selection (the paper measures ~2.5× for ZU vs UU).
    assert zu["exact-hit queries"] > uu["exact-hit queries"], (
        "Zipf-skewed source selection should yield more exact-match hits"
    )
    assert zz["exact-hit queries"] >= zu["exact-hit queries"] * 0.5, (
        "ZZ should be at least comparably exact-match-prone to ZU"
    )
    # Every workload must exercise the sub/supergraph machinery too.
    for row in rows:
        assert row["containing hits"] > 0
        assert row["contained hits"] > 0
