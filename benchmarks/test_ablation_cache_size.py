"""Ablation — cache capacity.

The paper fixes a "meagre" 100-entry cache; this ablation shows the
speedup's dependence on capacity: non-trivial benefit already at small
capacities and (weakly) monotone growth up to the workload's working-set
size.
"""

from __future__ import annotations

from paper_figures import ablation_cache_size


def test_ablation_cache_size(benchmark, harness, report_table,
                             assert_recorded):
    rows, counts, times = benchmark.pedantic(
        lambda: ablation_cache_size(harness), rounds=1, iterations=1
    )
    report_table("ablation_cache_size", counts)
    report_table("ablation_cache_size_time", times)
    assert_recorded("ablation_cache_size", counts)

    speedups = [row["test speedup"] for row in rows]
    capacities = [row["cache capacity"] for row in rows]
    assert capacities == sorted(capacities)
    assert all(s > 1.0 for s in speedups), "caching must always help"
    # Larger caches must not be substantially worse than smaller ones.
    for small, large in zip(speedups, speedups[1:]):
        assert large >= small * 0.9, (
            f"speedup should not collapse as capacity grows: {speedups}"
        )