"""The figure harness and experiments, on a tiny scale: the scale
registry, the memoised lockstep replay and every figure's rows."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paper_figures import (
    ALL_CATEGORIES,
    PAPER_FIG4,
    PAPER_FIG5,
    PAPER_FIG6,
    SCALES,
    BenchScale,
    ExperimentHarness,
    ablation_churn,
    ablation_policies,
    current_scale,
    figure4,
    figure5,
    figure6,
    hit_anatomy,
)
from repro.api import GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.matching import MATCHERS
from repro.runtime.monitor import QueryResult

TINY = BenchScale(
    name="tiny", num_graphs=40, mean_vertices=10.0, std_vertices=3.0,
    max_vertices=20, num_queries=24, num_batches=2, ops_per_batch=2,
    cache_capacity=10, window_capacity=3, warmup_queries=0,
    answer_pool_size=15, no_answer_pool_size=4,
)


@pytest.fixture(scope="module")
def harness() -> ExperimentHarness:
    return ExperimentHarness(TINY)


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"smoke", "small", "medium", "large"}
        for scale in SCALES.values():
            assert scale.num_graphs > 0
            assert scale.cache_capacity == 100  # the paper's setting
            assert scale.window_capacity == 20

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("GCPLUS_BENCH_SCALE", "small")
        assert current_scale().name == "small"
        monkeypatch.setenv("GCPLUS_BENCH_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()
        monkeypatch.delenv("GCPLUS_BENCH_SCALE")
        assert current_scale().name == "smoke"

    def test_paper_reference_tables_complete(self):
        assert set(PAPER_FIG5) == set(ALL_CATEGORIES)
        assert set(PAPER_FIG6) == set(ALL_CATEGORIES)
        assert set(PAPER_FIG4) == {
            (m, w) for m in MATCHERS for w in ALL_CATEGORIES
        }


class TestHarness:
    def test_workload_names(self, harness):
        for name in ALL_CATEGORIES:
            wl = harness.workload(name)
            assert len(wl) == TINY.num_queries
        with pytest.raises(ValueError):
            harness.workload("nope")

    def test_workloads_cached(self, harness):
        assert harness.workload("ZZ") is harness.workload("ZZ")

    def test_run_memoized(self, harness):
        a = harness.run("ZZ", "vf2+", "base")
        b = harness.run("ZZ", "vf2+", "base")
        assert a is b

    def test_answers_equal_across_models(self, harness):
        base = harness.run("ZZ", "vf2+", "base")
        evi = harness.run("ZZ", "vf2+", "EVI")
        con = harness.run("ZZ", "vf2+", "CON")
        assert base.answer_signature == evi.answer_signature
        assert base.answer_signature == con.answer_signature

    def test_speedup_structure(self, harness):
        time_speedup, test_speedup = harness.speedup("ZZ", "vf2+", "CON")
        assert time_speedup > 0
        assert test_speedup >= 1.0

    def test_run_result_accessors(self, harness):
        monitor = harness.run("ZZ", "vf2+", "CON").monitor
        summary = monitor.summary()
        assert monitor.queries == summary["queries"] == TINY.num_queries
        assert summary["avg_query_time_ms"] > 0
        assert summary["avg_overhead_ms"] >= 0
        assert summary["avg_method_tests"] >= 0


class TestExperiments:
    def test_figure4_rows(self, harness):
        rows, table = figure4(harness, matchers=("vf2+",),
                              workloads=("ZZ",))
        assert len(rows) == 1
        assert "Figure 4" in table
        assert rows[0]["paper EVI"] == 1.79

    def test_figure5_method_independence(self, harness):
        rows, table = figure5(harness, workloads=("ZZ", "UU"))
        assert len(rows) == 2
        assert all(r["CON speedup"] >= r["EVI speedup"] * 0.5 for r in rows)
        assert "Figure 5" in table

    def test_figure6_rows(self, harness):
        rows, _ = figure6(harness, workloads=("ZZ",))
        assert rows[0]["vf2 qtime ms"] > 0
        assert rows[0]["CON overhead ms"] >= 0

    def test_hit_anatomy_rows(self, harness):
        rows, _ = hit_anatomy(harness, workloads=("ZZ",))
        assert rows[0]["queries"] == TINY.num_queries

    def test_ablation_churn_zero_equality(self, harness):
        rows, _, _ = ablation_churn(harness, batch_multipliers=(0.0, 1.0))
        assert rows[0]["EVI test speedup"] == pytest.approx(
            rows[0]["CON test speedup"]
        )

    def test_hit_anatomy_counts_only_the_measured_slice(self):
        """Every column of the table describes the queries after the
        warm-up window, recounted here from a replay of the same stream."""
        scale = dataclasses.replace(TINY, warmup_queries=8)
        harness = ExperimentHarness(scale)
        rows, _ = hit_anatomy(harness, workloads=("ZZ",))
        assert harness.run("ZZ", "vf2+", "CON").monitor.queries == 16

        store = GraphStore.from_graphs(harness.graphs)
        plan = ChangePlan.generate(
            harness.graphs, num_queries=scale.num_queries,
            num_batches=scale.num_batches,
            ops_per_batch=scale.ops_per_batch, seed=scale.plan_seed,
        )
        measured = []
        with GraphCacheService(store,
                               scale.cache_config("CON", "vf2+")) as service:
            for i, query in enumerate(harness.workload("ZZ").queries):
                plan.apply_due(store, i)
                metrics = service.execute(query.graph).metrics
                if i >= scale.warmup_queries:
                    measured.append(metrics)
        assert rows == [{
            "workload": "ZZ",
            "queries": len(measured),
            "exact-hit queries": sum(m.exact_hits > 0 for m in measured),
            "zero-test queries": sum(m.method_tests == 0 for m in measured),
            "containing hits": sum(m.containing_hits for m in measured),
            "contained hits": sum(m.contained_hits for m in measured),
            "exact hits": sum(m.exact_hits for m in measured),
        }]

    def test_ablation_answers_are_checked(self, monkeypatch):
        """A cached run that loses one answer id fails the ablation, as
        it fails every figure cell."""
        execute = GraphCacheService.execute

        def drop_lowest_id(service, query):
            result = execute(service, query)
            answer = result.answer_bits
            return QueryResult(answer_bits=answer & (answer - 1),
                               metrics=result.metrics)

        monkeypatch.setattr(GraphCacheService, "execute", drop_lowest_id)
        with pytest.raises(AssertionError, match="answer mismatch"):
            ablation_policies(ExperimentHarness(TINY), policies=("lru",))

    def test_supergraph_workload_refuses_too_small_graphs(self):
        """TINY's largest graph has 22 edges, so no 25-45-edge query can
        be extracted from it: the workload raises, naming the scale,
        instead of searching forever (in a subprocess, so that a hang
        fails this test instead of stalling the session)."""
        here = Path(__file__).parent
        code = ("from paper_figures import ExperimentHarness, BenchScale, "
                "supergraph_workload\n"
                f"supergraph_workload(ExperimentHarness({TINY!r}))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(here.parent / "src"), str(here)])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "ValueError: scale 'tiny'" in done.stderr, done.stderr
