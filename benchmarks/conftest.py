"""Shared fixtures for the figure benchmarks.

The figure tests share one :class:`paper_figures.ExperimentHarness` at
the ``GCPLUS_BENCH_SCALE`` scale, so the run grid (workload × matcher ×
model) is executed at most once per pytest session regardless of how
many figures slice it (``test_paper_figures.py`` tests the harness
itself on its own tiny scale).  Rendered tables are collected
and printed in the terminal summary (visible even with output capture),
and written to the directory :func:`results_dir` picks: the tracked
``benchmarks/results/`` only when ``GCPLUS_BENCH_RECORD=1`` says this
run is meant to be committed, the ignored ``benchmarks/.out/`` otherwise
— an ordinary tier-1 run must leave ``git status`` clean.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from paper_figures import ExperimentHarness, current_scale

_TABLES: list[str] = []


@pytest.fixture(scope="session")
def harness() -> ExperimentHarness:
    return ExperimentHarness(current_scale())


@pytest.fixture(scope="session")
def recording() -> bool:
    """Is this run meant to be committed (``GCPLUS_BENCH_RECORD=1``, as
    in CI's non-blocking perf-smoke job)?  Such a run also asserts the
    wall-clock ratios an ordinary tier-1 run only records."""
    return os.environ.get("GCPLUS_BENCH_RECORD") == "1"


@pytest.fixture(scope="session")
def results_dir(recording) -> Path:
    """Where this run's tables and ``BENCH_*.json`` files go — the one
    place that decides between recording and scratch output."""
    directory = Path(__file__).parent / ("results" if recording else ".out")
    directory.mkdir(exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def report_table(results_dir):
    """Register a rendered table for the terminal summary + results dir."""

    def _register(name: str, table: str) -> None:
        _TABLES.append(table)
        (results_dir / f"{name}.txt").write_text(table, encoding="utf-8")

    return _register


@pytest.fixture(scope="session")
def assert_recorded():
    """Compare a count-only table with its tracked copy in
    ``benchmarks/results/``, byte for byte, at the default smoke scale
    (another ``GCPLUS_BENCH_SCALE`` renders other counts and is not
    compared).  Such a table moves only when a change means it to, and
    that change re-records it with ``GCPLUS_BENCH_RECORD=1``."""

    def _check(name: str, table: str) -> None:
        if current_scale().name != "smoke":
            return
        recorded = Path(__file__).parent / "results" / f"{name}.txt"
        assert table == recorded.read_text(encoding="utf-8"), (
            f"{name} differs from {recorded}; diff it against "
            f"benchmarks/.out/{name}.txt, and re-record only on purpose"
        )

    return _check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    scale = current_scale()
    terminalreporter.write_sep(
        "=", f"GC+ paper figures (scale '{scale.name}')"
    )
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)
