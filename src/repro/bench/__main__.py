"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.bench                 # every figure + ablations
    python -m repro.bench fig4 fig5      # a subset
    GCPLUS_BENCH_SCALE=small python -m repro.bench fig6

Writes rendered tables to stdout and (with ``--out DIR``) markdown files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench import experiments
from repro.bench.harness import ExperimentHarness, current_scale
from repro.bench.reporting import render_markdown

FIGURES = {
    "fig4": experiments.figure4,
    "fig5": experiments.figure5,
    "fig6": experiments.figure6,
    "hits": experiments.hit_anatomy,
    "policies": experiments.ablation_policies,
    "cache-size": experiments.ablation_cache_size,
    "churn": experiments.ablation_churn,
    "supergraph": experiments.supergraph_workload,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the GC+ paper's evaluation figures.",
    )
    parser.add_argument("figures", nargs="*", default=[],
                        help=f"subset to run; choices: {', '.join(FIGURES)}")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for markdown output files")
    args = parser.parse_args(argv)

    chosen = args.figures or list(FIGURES)
    unknown = [f for f in chosen if f not in FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown}; choices: {list(FIGURES)}")

    scale = current_scale()
    print(f"# GC+ experiments — scale '{scale.name}': "
          f"{scale.num_graphs} graphs, {scale.num_queries} queries, "
          f"{scale.num_batches}x{scale.ops_per_batch} change ops\n")
    harness = ExperimentHarness(scale)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in chosen:
        start = time.perf_counter()
        rows, table = FIGURES[name](harness)
        elapsed = time.perf_counter() - start
        print(table)
        print(f"[{name} done in {elapsed:.1f}s]\n")
        if args.out is not None:
            md = render_markdown(name, rows)
            (args.out / f"{name}.md").write_text(md, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
