"""Figure 4 — GC+ speedup in query time.

One benchmark per Method M (VF2, VF2+, GraphQL).  Each computes the EVI
and CON query-time speedups over the bare method for all six workloads
(ZZ/ZU/UU and 0%/20%/50%) and checks the paper's headline shape,
**CON > EVI > 1** — exact counts where the claim is about tests, time
only where it is about time:

* per cell, deterministic: cached and bare answers are equal, both
  models need fewer sub-iso tests than the bare method and CON fewer
  than EVI (Figure 5's numbers for this Method M — the saving every time
  speedup comes from);
* wall clock, per model: the six-cell mean beats the bare method, and
  mean CON beats mean EVI;
* wall clock, per cell: one cell sums 0.1-0.2 s of single-pass query
  time, so a single reading only has to clear the jitter allowance —
  against bare, and CON against EVI.

The three runs behind a row are measured in lockstep
(:meth:`paper_figures.ExperimentHarness.run`), so a phase of the
host's speed does not land on one side of a speedup.
"""

from __future__ import annotations

import pytest

from paper_figures import ALL_CATEGORIES, figure4
from repro.matching import MATCHERS

#: what timing noise may cost a single cell's reading
CELL_JITTER = 0.75


@pytest.mark.parametrize("matcher", tuple(MATCHERS))
def test_fig4_speedups(benchmark, harness, report_table, matcher):
    def compute():
        return figure4(harness, matchers=(matcher,),
                       workloads=ALL_CATEGORIES)

    rows, table = benchmark.pedantic(compute, rounds=1, iterations=1)
    report_table(f"fig4_{matcher.replace('+', 'plus')}", table)

    for row in rows:
        workload = row["workload"]
        # Memoised — the runs figure4 just timed; raises on an answer
        # mismatch between the cached and the bare run.
        _, evi_tests = harness.speedup(workload, matcher, "EVI")
        _, con_tests = harness.speedup(workload, matcher, "CON")
        assert con_tests > evi_tests > 1.0, (
            f"test savings out of the paper's order for ({matcher}, "
            f"{workload}): CON {con_tests:.2f}x, EVI {evi_tests:.2f}x"
        )
        evi, con = row["EVI speedup"], row["CON speedup"]
        assert evi > CELL_JITTER, (
            f"EVI far behind bare {matcher} on {workload}: {evi:.2f}x"
        )
        assert con > CELL_JITTER, (
            f"CON far behind bare {matcher} on {workload}: {con:.2f}x"
        )
        assert con > evi * CELL_JITTER, (
            f"CON should not lose to EVI on ({matcher}, {workload}): "
            f"CON {con:.2f} vs EVI {evi:.2f}"
        )
    mean_evi = sum(r["EVI speedup"] for r in rows) / len(rows)
    mean_con = sum(r["CON speedup"] for r in rows) / len(rows)
    assert mean_evi > 1.0, (
        f"EVI should beat bare {matcher} on average, got {mean_evi:.2f}x"
    )
    assert mean_con > 1.0, (
        f"CON should beat bare {matcher} on average, got {mean_con:.2f}x"
    )
    assert mean_con > mean_evi, (
        f"paper shape violated for {matcher}: mean CON {mean_con:.2f} "
        f"<= mean EVI {mean_evi:.2f}"
    )
