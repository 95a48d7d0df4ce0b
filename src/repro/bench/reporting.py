"""Table rendering for the experiment harness.

Each figure function in :mod:`repro.bench.experiments` produces rows of
``dict``; this module renders them as fixed-width text — the tables
``pytest benchmarks`` prints and records under ``benchmarks/results/``,
and the ones ``python -m repro run`` prints.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["render_table", "format_value", "overhead_breakdown_row"]


def overhead_breakdown_row(summary: Mapping[str, float]) -> dict[str, float]:
    """The standard per-query overhead columns from a monitor summary.

    ``avg overhead ms`` is the whole Figure 6 second bar;
    ``avg consistency ms`` is its consistency-protocol share (Algorithms
    1+2 under CON, the purge under EVI) and ``avg purge ms`` isolates the
    EVI purge component so the two models' costs are directly comparable.
    """
    return {
        "avg overhead ms": summary.get("avg_overhead_ms", 0.0),
        "avg consistency ms": summary.get("avg_consistency_ms", 0.0),
        "avg purge ms": summary.get("avg_purge_ms", 0.0),
    }


def format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def render_table(title: str, rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None) -> str:
    """Fixed-width table with a title rule."""
    if columns is not None:
        cols = list(columns)
    else:
        cols = list(rows[0].keys()) if rows else []
    table = [[format_value(row.get(c, "")) for c in cols] for row in rows]
    widths = [len(c) for c in cols]
    for line in table:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(c.ljust(w) for c, w in zip(cols, widths))
    body = "\n".join(
        " | ".join(cell.ljust(w) for cell, w in zip(line, widths))
        for line in table
    )
    rule = "=" * max(len(header), len(title))
    return f"{title}\n{rule}\n{header}\n{sep}\n{body}\n"
