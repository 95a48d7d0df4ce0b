"""Ablation — churn intensity: the paper's central qualitative claim.

EVI's benefit collapses as dataset changes become more frequent (the
cache is purged ever more often), while CON degrades gracefully (only
*touched* relations lose validity).  The gap between the two is the
value of consistency tracking; it must widen with churn.
"""

from __future__ import annotations

from paper_figures import ablation_churn


def test_ablation_churn(benchmark, harness, report_table,
                        assert_recorded):
    rows, counts, times = benchmark.pedantic(
        lambda: ablation_churn(harness), rounds=1, iterations=1
    )
    report_table("ablation_churn", counts)
    report_table("ablation_churn_time", times)
    assert_recorded("ablation_churn", counts)

    # rows are ordered by increasing churn multiplier (0, 0.5, 1, 2, 4).
    no_churn = rows[0]
    heaviest = rows[-1]
    # With no churn the two models are the same machine (CGvalid never
    # degrades; EVI never purges) — test counts must match exactly.
    assert abs(no_churn["EVI test speedup"]
               - no_churn["CON test speedup"]) < 1e-9, (
        "EVI and CON must coincide when the dataset never changes"
    )
    # Under churn, CON must hold a strictly growing advantage.
    gaps = [row["CON test speedup"] / row["EVI test speedup"]
            for row in rows]
    assert gaps[-1] > gaps[0], "CON's advantage should grow with churn"
    assert heaviest["CON test speedup"] > heaviest["EVI test speedup"], (
        "CON must beat EVI under heavy churn"
    )
    assert heaviest["EVI test speedup"] < no_churn["EVI test speedup"], (
        "EVI must degrade under heavy churn"
    )
