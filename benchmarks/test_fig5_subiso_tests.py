"""Figure 5 — GC+ speedup in the number of sub-iso tests.

Unlike Figure 4 this metric is deterministic (no wall-clock noise), so
the paper's ordering — **CON > EVI > 1** for every workload — is asserted
strictly.  The paper's method-independence claim (*"whatever SI method
being the Method M, GC+ results exactly the same pruned candidate set
for each query"*) is asserted inside :func:`figure5` by comparing VF2 and
VF2+ test counts.  At the default smoke scale the rendered table must
equal ``benchmarks/results/fig5.txt`` byte for byte: it holds only test
counts and their ratios, which a kernel or a speed-up cannot move.
"""

from __future__ import annotations

from paper_figures import PAPER_FIG5, figure5


def test_fig5_subiso_speedups(benchmark, harness, report_table,
                              assert_recorded):
    rows, table = benchmark.pedantic(
        lambda: figure5(harness), rounds=1, iterations=1
    )
    report_table("fig5", table)
    assert_recorded("fig5", table)

    assert {row["workload"] for row in rows} == set(PAPER_FIG5)
    for row in rows:
        workload = row["workload"]
        evi, con = row["EVI speedup"], row["CON speedup"]
        assert evi > 1.0, f"EVI test speedup must exceed 1 on {workload}"
        assert con > evi, (
            f"CON must strictly beat EVI in tests on {workload}: "
            f"{con:.2f} vs {evi:.2f}"
        )
