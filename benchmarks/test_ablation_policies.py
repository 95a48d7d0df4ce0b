"""Ablation — cache replacement policies (paper §7.1).

The paper uses HD because "its performance is always better or on par
with the best alternative".  At reduced scale we assert the weaker but
still meaningful form: HD's test speedup is within 15% of the best
policy's, and every policy beats the bare method.
"""

from __future__ import annotations

from paper_figures import ablation_policies


def test_ablation_policies(benchmark, harness, report_table,
                           assert_recorded):
    rows, counts, times = benchmark.pedantic(
        lambda: ablation_policies(harness), rounds=1, iterations=1
    )
    report_table("ablation_policies", counts)
    report_table("ablation_policies_time", times)
    assert_recorded("ablation_policies", counts)

    by_policy = {row["policy"]: row for row in rows}
    assert set(by_policy) == {"hd", "pin", "pinc", "lru", "lfu"}
    for row in rows:
        assert row["test speedup"] > 1.0, (
            f"policy {row['policy']} should still beat the bare method"
        )
    best = max(row["test speedup"] for row in rows)
    hd = by_policy["hd"]["test speedup"]
    assert hd >= best * 0.85, (
        f"HD should be on par with the best policy: HD {hd:.2f} vs "
        f"best {best:.2f}"
    )
