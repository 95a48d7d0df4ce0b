"""Benchmark harness regenerating the paper's evaluation (§7).

* :mod:`repro.bench.harness` — datasets, workloads and the one lockstep
  replay loop every experiment runs through, with memoization (many
  figures share the same underlying runs);
* :mod:`repro.bench.experiments` — one function per paper figure
  (Figures 4, 5, 6), the §7.2 hit-anatomy insight, and the ablations
  (replacement policy, cache size, churn);
* :mod:`repro.bench.reporting` — fixed-width tables with the paper's
  reference numbers side by side.

Scale is controlled by the ``GCPLUS_BENCH_SCALE`` environment variable
(``smoke`` < ``small`` < ``medium`` < ``large``); see
:data:`repro.bench.harness.SCALES`.  Pure-Python sub-iso is orders of
magnitude slower than the paper's Java testbed, so default scales shrink
the dataset/workload while preserving the cache:dataset:churn ratios
(README, "Benchmarks").

The figures are run, printed and recorded by the pytest suite::

    GCPLUS_BENCH_SCALE=smoke PYTHONPATH=src python -m pytest benchmarks -q
"""

from repro.bench.harness import (
    SCALES,
    BenchScale,
    ExperimentHarness,
    RunResult,
    current_scale,
)

__all__ = [
    "BenchScale",
    "SCALES",
    "current_scale",
    "ExperimentHarness",
    "RunResult",
]
