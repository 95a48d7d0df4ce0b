"""Bench CLI (`python -m repro.bench`) integration tests at tiny scale."""

from __future__ import annotations

import pytest

import repro.bench.__main__ as bench_main
from repro.bench.harness import BenchScale

TINY = BenchScale(
    name="tiny-cli", num_graphs=30, mean_vertices=10.0, std_vertices=3.0,
    max_vertices=20, num_queries=15, num_batches=1, ops_per_batch=2,
    cache_capacity=8, window_capacity=3, warmup_queries=0,
    answer_pool_size=10, no_answer_pool_size=3,
)


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setattr(bench_main, "current_scale", lambda: TINY)


def test_single_figure_to_stdout(capsys):
    assert bench_main.main(["hits"]) == 0
    out = capsys.readouterr().out
    assert "Hit anatomy" in out
    assert "tiny-cli" in out


def test_markdown_output_files(tmp_path, capsys):
    assert bench_main.main(["policies", "--out", str(tmp_path)]) == 0
    written = tmp_path / "policies.md"
    assert written.exists()
    content = written.read_text(encoding="utf-8")
    assert content.startswith("### policies")
    assert "| policy |" in content


def test_figure_registry_complete():
    assert set(bench_main.FIGURES) == {
        "fig4", "fig5", "fig6", "hits", "policies", "cache-size",
        "churn", "supergraph",
    }
