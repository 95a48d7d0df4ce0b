#!/usr/bin/env python3
"""Compare two gcbench result files: ``python3 perf/compare.py A.json B.json``.

Each file is a ``result.json`` written by ``perf/run.py`` (any number of
runs of any workloads); with one file, it is compared with itself, which
shows its medians and spreads.  One row per workload × end-to-end metric: the
medians of A and B, B's change in the metric's *worse* direction, the
bound from ``BENCHMARK.json``, and a verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  a side's own spread (interquartile range over its
  median, needs at least four runs) is wider than the bound, so the
  comparison decides nothing;
* ``ok``          otherwise.

Exits 1 when any row is ``worse``, and 2 without comparing when the two
files are not from the same kind of host: times are reported at the
speed of one reference host (``perf/reference.py``), which makes them
comparable across that host's fast and slow phases but not across
machines or Python versions.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path


CONTRACT_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_contract() -> dict:
    return json.loads(CONTRACT_PATH.read_text(encoding="utf-8"))


@dataclass
class Row:
    workload: str
    metric: str
    a: float
    b: float
    worsening: float   # share of A's median by which B is worse (<0: better)
    spread: float      # widest of the two sides' IQR/median; 0 if unknown
    bound: float
    verdict: str


def _samples(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    samples: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for name, value in record["metrics"].items():
            samples.setdefault((record["workload"], name), []).append(value)
    return samples


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 4 runs)."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a_records: list[dict], b_records: list[dict], contract: dict,
            symmetric: bool = False) -> list[Row]:
    """``symmetric`` asks whether two runs of the *same* code agree: a
    difference beyond the bound in either direction is ``worse``."""
    a_samples, b_samples = _samples(a_records), _samples(b_records)
    rows = []
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_samples or key not in b_samples:
                continue
            a = statistics.median(a_samples[key])
            b = statistics.median(b_samples[key])
            worsening = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            if symmetric:
                worsening = abs(b - a) / min(a, b)
            wide = max(spread(a_samples[key]), spread(b_samples[key]))
            if worsening > metric["bound"]:
                verdict = "worse"
            elif wide > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(Row(workload, metric["name"], a, b, worsening, wide,
                            metric["bound"], verdict))
    return rows


def print_rows(rows: list[Row]) -> None:
    print(f"{'workload':<13} {'metric':<13} {'A':>10} {'B':>10} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r.workload:<13} {r.metric:<13} {r.a:>10.4g} {r.b:>10.4g} "
              f"{r.worsening:>+9.2%} {r.spread:>7.2%} {r.bound:>6.0%}  "
              f"{r.verdict}")


def same_host(a_records: list[dict], b_records: list[dict]) -> str:
    """Empty when A and B may be compared, else the reason they may not."""
    hosts = {(r["python"].rsplit(".", 1)[0], r["nproc"], r["reference_us"])
             for r in a_records + b_records}
    if len(hosts) != 1:
        return f"(python, nproc, reference_us) differ: {sorted(hosts)}"
    a, b = (statistics.median(r["host_slowdown"] for r in records)
            for records in (a_records, b_records))
    if max(a, b) > 1.25 * min(a, b):
        return (f"the reference kernel ran at {a:.2f}x and {b:.2f}x its "
                f"nominal time: not the same host, or not in the same state")
    return ""


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    argv = argv * 2 if len(argv) == 1 else argv
    a, b = (json.loads(Path(p).read_text(encoding="utf-8"))["runs"]
            for p in argv)
    reason = same_host(a, b)
    if reason:
        print(f"compare: refusing to compare, {reason}", file=sys.stderr)
        return 2
    rows = compare(a, b, load_contract())
    print_rows(rows)
    return 1 if any(r.verdict == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
