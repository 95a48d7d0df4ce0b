"""Experiment orchestration: datasets, workloads, runs, memoization.

One *run* = (workload, Method M, cache model) executed over a fresh
dataset replica with the scale's change plan replayed identically.  The
paper's figures slice the same run grid different ways (Figure 4: query
time; Figure 5: sub-iso tests; Figure 6: time breakdown), so the harness
memoizes runs — each (workload, matcher, model) cell executes once per
process no matter how many figures touch it.  The three models of one
(workload, matcher) row run in lockstep (:meth:`ExperimentHarness.run`).
"""

from __future__ import annotations

import gc
import os
import random
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.matching import make_matcher
from repro.runtime.method_m import MethodMRunner
from repro.workloads.base import Workload
from repro.workloads.typea import generate_type_a
from repro.workloads.typeb import TypeBConfig, generate_type_b

__all__ = [
    "BenchScale",
    "SCALES",
    "current_scale",
    "RunResult",
    "ExperimentHarness",
    "TYPE_A_CATEGORIES",
    "TYPE_B_CATEGORIES",
    "ALL_WORKLOADS",
    "MATCHER_NAMES",
    "shared_harness",
    "reset_shared_harness",
    "make_rng",
]

TYPE_A_CATEGORIES = ("ZZ", "ZU", "UU")
TYPE_B_CATEGORIES = ("0%", "20%", "50%")
ALL_WORKLOADS = TYPE_A_CATEGORIES + TYPE_B_CATEGORIES
MATCHER_NAMES = ("vf2", "vf2+", "graphql")  # the paper's three Method M
#: the cells of one (workload, matcher) row, measured together
ROW_MODELS = ("base", "EVI", "CON")


@dataclass(frozen=True)
class BenchScale:
    """A self-consistent experiment size.

    The paper's configuration is 40,000 graphs / 10,000 queries / 100
    change batches × 20 ops (5% of the dataset churned over the run) /
    cache 100 / window 20.  Scaled-down variants keep the cache size and
    the churn *fraction* while shrinking the dataset and stream.
    """

    name: str
    num_graphs: int
    mean_vertices: float
    std_vertices: float
    max_vertices: int
    num_queries: int
    num_batches: int
    ops_per_batch: int
    cache_capacity: int = 100
    window_capacity: int = 20
    #: Queries excluded from measurement at the head of the stream; the
    #: paper allows "one Window (i.e., 20 queries)" of warm-up (§7.1).
    warmup_queries: int = 20
    answer_pool_size: int = 200
    no_answer_pool_size: int = 60
    dataset_seed: int = 2017
    workload_seed: int = 424242
    plan_seed: int = 77

    def cache_config(self, model: str, matcher: str) -> GCConfig:
        """The validated service config for one run-grid cell."""
        return GCConfig(
            model=model,
            matcher=matcher,
            cache_capacity=self.cache_capacity,
            window_capacity=self.window_capacity,
        )


SCALES: dict[str, BenchScale] = {
    # CI-sized: a couple of minutes for the full figure suite.
    "smoke": BenchScale(
        name="smoke", num_graphs=400, mean_vertices=18.0, std_vertices=8.0,
        max_vertices=60, num_queries=160, num_batches=4, ops_per_batch=5,
        answer_pool_size=120, no_answer_pool_size=30,
    ),
    # Default: preserves the paper's ratios at ~1/20 dataset scale.
    "small": BenchScale(
        name="small", num_graphs=2000, mean_vertices=22.0, std_vertices=10.0,
        max_vertices=70, num_queries=600, num_batches=6, ops_per_batch=17,
        answer_pool_size=300, no_answer_pool_size=80,
    ),
    "medium": BenchScale(
        name="medium", num_graphs=6000, mean_vertices=28.0,
        std_vertices=13.0, max_vertices=100, num_queries=1500,
        num_batches=15, ops_per_batch=20,
        answer_pool_size=600, no_answer_pool_size=150,
    ),
    "large": BenchScale(
        name="large", num_graphs=20000, mean_vertices=38.0,
        std_vertices=18.0, max_vertices=180, num_queries=5000,
        num_batches=50, ops_per_batch=20,
        answer_pool_size=1500, no_answer_pool_size=400,
    ),
}


def current_scale() -> BenchScale:
    """The scale selected by ``GCPLUS_BENCH_SCALE`` (default ``smoke``)."""
    name = os.environ.get("GCPLUS_BENCH_SCALE", "smoke").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"GCPLUS_BENCH_SCALE={name!r} unknown; choose from {sorted(SCALES)}"
        ) from None


@dataclass
class RunResult:
    """Aggregates from one (workload, matcher, model) run."""

    workload: str
    matcher: str
    model: str                      # "base", "EVI" or "CON"
    queries: int
    total_query_seconds: float
    total_overhead_seconds: float
    total_consistency_seconds: float
    total_purge_seconds: float
    total_method_tests: int
    total_internal_tests: int
    summary: dict[str, float] = field(default_factory=dict)
    answer_signature: int = 0       # order-sensitive hash of all answers

    @property
    def avg_query_time_ms(self) -> float:
        return self.total_query_seconds / self.queries * 1000.0

    @property
    def avg_overhead_ms(self) -> float:
        return self.total_overhead_seconds / self.queries * 1000.0

    @property
    def avg_purge_ms(self) -> float:
        return self.total_purge_seconds / self.queries * 1000.0

    @property
    def avg_method_tests(self) -> float:
        return self.total_method_tests / self.queries


class _Cell:
    """One (workload, matcher, model) run in progress: its own dataset
    replica, change plan and runner, and the totals of a
    :class:`RunResult`."""

    def __init__(self, harness: "ExperimentHarness", workload_name: str,
                 matcher_name: str, model: str) -> None:
        s = harness.scale
        self.key = (workload_name, matcher_name, model)
        self.store = GraphStore.from_graphs(harness.graphs)
        self.plan = ChangePlan.generate(
            harness.graphs,
            num_queries=len(harness.workload(workload_name).queries),
            num_batches=s.num_batches, ops_per_batch=s.ops_per_batch,
            seed=s.plan_seed,
        )
        if model == "base":
            self.runner = MethodMRunner(self.store,
                                        make_matcher(matcher_name))
        else:
            self.runner = GraphCacheService(
                self.store, s.cache_config(model, matcher_name)
            )
        self.query = self.overhead = self.consistency = self.purge = 0.0
        self.tests = self.internal = 0
        self.signature = 0

    def step(self, i: int, graph, measured: bool) -> None:
        self.plan.apply_due(self.store, i)
        result = self.runner.execute(graph)
        self.signature = hash((self.signature, result.answer_ids))
        if not measured:
            return
        m = result.metrics
        self.query += m.query_seconds
        self.overhead += m.overhead_seconds
        self.consistency += m.consistency_seconds
        self.purge += m.purge_seconds
        self.tests += m.method_tests
        self.internal += m.internal_tests

    def result(self, queries: int) -> RunResult:
        workload_name, matcher_name, model = self.key
        return RunResult(
            workload=workload_name,
            matcher=matcher_name,
            model=model,
            queries=queries,
            total_query_seconds=self.query,
            total_overhead_seconds=self.overhead,
            total_consistency_seconds=self.consistency,
            total_purge_seconds=self.purge,
            total_method_tests=self.tests,
            total_internal_tests=self.internal,
            summary=(self.runner.summary()
                     if isinstance(self.runner, GraphCacheService) else {}),
            answer_signature=self.signature,
        )


class ExperimentHarness:
    """Builds the dataset/workloads once and memoizes runs."""

    def __init__(self, scale: BenchScale | None = None) -> None:
        self.scale = scale if scale is not None else current_scale()
        self._graphs = None
        self._dataset_features = None
        self._workloads: dict[str, Workload] = {}
        self._runs: dict[tuple[str, str, str], RunResult] = {}

    # ------------------------------------------------------------------
    @property
    def graphs(self):
        if self._graphs is None:
            s = self.scale
            self._graphs = generate_aids_like(
                num_graphs=s.num_graphs,
                mean_vertices=s.mean_vertices,
                std_vertices=s.std_vertices,
                max_vertices=s.max_vertices,
                seed=s.dataset_seed,
            )
        return self._graphs

    @property
    def dataset_features(self):
        """Monotone features of every dataset graph, computed once and
        shared by all Type B workload generations."""
        if self._dataset_features is None:
            from repro.graphs.features import GraphFeatures

            self._dataset_features = GraphFeatures.of_many(self.graphs)
        return self._dataset_features

    def workload(self, name: str) -> Workload:
        """Get (and cache) a workload by paper category name."""
        if name not in self._workloads:
            s = self.scale
            if name in TYPE_A_CATEGORIES:
                wl = generate_type_a(
                    self.graphs, s.num_queries, name, seed=s.workload_seed
                )
            elif name in TYPE_B_CATEGORIES:
                share = int(name.rstrip("%")) / 100.0
                wl = generate_type_b(self.graphs, TypeBConfig(
                    num_queries=s.num_queries,
                    no_answer_probability=share,
                    answer_pool_size=s.answer_pool_size,
                    no_answer_pool_size=s.no_answer_pool_size,
                    seed=s.workload_seed,
                    # The dataset feature set only feeds no-answer pool
                    # construction; the 0% category never builds one.
                ), dataset_features=(self.dataset_features if share > 0
                                     else None))
            else:
                raise ValueError(
                    f"unknown workload {name!r}; choose from {ALL_WORKLOADS}"
                )
            self._workloads[name] = wl
        return self._workloads[name]

    # ------------------------------------------------------------------
    def run(self, workload_name: str, matcher_name: str,
            model: str) -> RunResult:
        """One cell of the run grid (memoized).

        ``model``: ``"base"`` (bare Method M), ``"EVI"`` or ``"CON"``.
        Every cell replays the identical change plan against its own
        fresh dataset replica, so answers are comparable across cells.

        A cell's time is only ever read against the other two of its
        (workload, matcher) row — a speedup over the bare method, CON
        against EVI — so the row is measured together, in lockstep:
        query *i* passes through all three runners before query *i+1*.
        Measured one cell after the other, a phase of the host's speed
        (1.5x, seconds long) lands on one side of a ratio; in lockstep
        it slows all three alike.  (vf2+ at smoke scale, the lead of
        mean CON over mean EVI across the six workloads: +1% to +21% in
        twelve passes cell after cell, +6% to +11% in eight passes as
        the rows are measured now.)  The price is three dataset
        replicas alive at once instead of one.
        """
        key = (workload_name, matcher_name, model)
        if key not in self._runs:
            row = ROW_MODELS if model in ROW_MODELS else (model,)
            self._run_row(workload_name, matcher_name, row)
        return self._runs[key]

    def _run_row(self, workload_name: str, matcher_name: str,
                 models: tuple[str, ...]) -> None:
        s = self.scale
        workload = self.workload(workload_name)
        # The paper warms the cache for one window before measuring
        # (§7.1); the same number of head queries is excluded from the
        # baseline's totals so speedup ratios stay apples-to-apples.
        # Answer signatures still cover *every* query (correctness is
        # checked on the whole stream, warm-up included).
        warmup = min(s.warmup_queries, max(len(workload.queries) - 1, 0))
        with ExitStack() as stack:
            cells = []
            for model in models:
                cell = _Cell(self, workload_name, matcher_name, model)
                if isinstance(cell.runner, GraphCacheService):
                    stack.callback(cell.runner.close)
                cells.append(cell)
            # A full collection walks every container alive — three
            # dataset replicas, the workloads, all memoised results —
            # and its pause lands in whichever runner's stopwatch is
            # open.  Setting aside what is alive now keeps collections
            # during the row down to what the row itself allocates.
            gc.collect()
            gc.freeze()
            stack.callback(gc.unfreeze)
            for i, query in enumerate(workload.queries):
                for cell in cells:
                    cell.step(i, query.graph, measured=i >= warmup)
            for cell in cells:
                self._runs[cell.key] = cell.result(
                    len(workload.queries) - warmup)

    # ------------------------------------------------------------------
    def speedup(self, workload_name: str, matcher_name: str,
                model: str) -> tuple[float, float]:
        """(query-time speedup, sub-iso-test speedup) of ``model`` over
        the bare Method M — the paper's headline metrics.

        Also asserts answer equality between the cached run and the
        baseline (the correctness claim of §6, checked on every bench).
        """
        base = self.run(workload_name, matcher_name, "base")
        cached = self.run(workload_name, matcher_name, model)
        if base.answer_signature != cached.answer_signature:
            raise AssertionError(
                f"answer mismatch: {model} vs base on "
                f"({workload_name}, {matcher_name})"
            )
        time_speedup = (base.total_query_seconds
                        / max(cached.total_query_seconds, 1e-12))
        test_speedup = (base.total_method_tests
                        / max(cached.total_method_tests, 1))
        return time_speedup, test_speedup


# Convenience singleton used by the pytest benchmarks so that all bench
# modules share one memoized run grid within a process.
_shared: ExperimentHarness | None = None


def shared_harness() -> ExperimentHarness:
    global _shared
    if _shared is None:
        _shared = ExperimentHarness()
    return _shared


def reset_shared_harness() -> None:
    """Testing hook."""
    global _shared
    _shared = None


def make_rng(seed: int) -> random.Random:
    """Seeded RNG helper shared by ad-hoc experiment scripts."""
    return random.Random(seed)
