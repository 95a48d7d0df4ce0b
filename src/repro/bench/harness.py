"""Experiment orchestration: datasets, workloads, runs, memoization.

One *run* = (workload, Method M, cache model) executed over a fresh
dataset replica with the scale's change plan replayed identically.  The
paper's figures slice the same run grid different ways (Figure 4: query
time; Figure 5: sub-iso tests; Figure 6: time breakdown), so the harness
memoizes runs — each (workload, matcher, model) cell executes once per
process no matter how many figures touch it.  Every stream — a grid
row, an ablation, the supergraph workload — replays through one loop
(:meth:`ExperimentHarness.replay`), which applies the warm-up rule and
feeds each cell's :class:`~repro.runtime.monitor.StatisticsMonitor`.
"""

from __future__ import annotations

import gc
import os
from collections.abc import Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.graph import LabeledGraph
from repro.matching import make_matcher
from repro.runtime.method_m import MethodMRunner
from repro.runtime.monitor import StatisticsMonitor
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
        """The validated service config for one run-grid cell (the bare
        method's ``"base"`` cell reads only its matcher)."""
        return GCConfig(
            model="CON" if model == "base" else model,
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
    """One replayed stream: its cell's monitor, which holds only the
    measured queries (those after the warm-up slice), and an
    order-sensitive hash of every answer, warm-up included."""

    workload: str
    matcher: str
    model: str          # "base", "EVI", "CON" or an ablation's label
    monitor: StatisticsMonitor
    answer_signature: int

    @property
    def queries(self) -> int:
        return self.monitor.queries

    @property
    def total_query_seconds(self) -> float:
        return self.monitor.query_seconds

    @property
    def total_overhead_seconds(self) -> float:
        return self.monitor.overhead_seconds

    @property
    def total_consistency_seconds(self) -> float:
        return self.monitor.consistency_seconds

    @property
    def total_method_tests(self) -> int:
        return self.monitor.total_method_tests

    @property
    def summary(self) -> dict[str, float]:
        return self.monitor.summary()

    @property
    def avg_query_time_ms(self) -> float:
        return self.summary["avg_query_time_ms"]

    @property
    def avg_overhead_ms(self) -> float:
        return self.summary["avg_overhead_ms"]

    @property
    def avg_purge_ms(self) -> float:
        return self.summary["avg_purge_ms"]

    @property
    def avg_method_tests(self) -> float:
        return self.summary["avg_method_tests"]

    def speedup_over(self, base: "RunResult") -> tuple[float, float]:
        """(query-time speedup, sub-iso-test speedup) of this run over
        ``base``, after asserting that both gave every query the same
        answer (the correctness claim of §6, checked on every bench)."""
        if self.answer_signature != base.answer_signature:
            raise AssertionError(
                f"answer mismatch: {self.model} vs {base.model} on "
                f"({self.workload}, {self.matcher})"
            )
        return (base.total_query_seconds
                / max(self.total_query_seconds, 1e-12),
                base.total_method_tests / max(self.total_method_tests, 1))


class _Cell:
    """One stream's replay in progress: its own dataset replica, change
    plan and runner, the answer signature so far, and a monitor fed only
    the measured queries.  The ``"base"`` cell runs the bare Method M
    with its config's matcher and query type; any other runs a
    :class:`GraphCacheService` with its config."""

    def __init__(self, model: str, config: GCConfig,
                 graphs: list[LabeledGraph], num_queries: int,
                 scale: BenchScale, num_batches: int) -> None:
        self.model = model
        self.config = config
        self.store = GraphStore.from_graphs(graphs)
        self.plan = ChangePlan.generate(
            graphs, num_queries=num_queries, num_batches=num_batches,
            ops_per_batch=scale.ops_per_batch, seed=scale.plan_seed,
        )
        if model == "base":
            self.runner = MethodMRunner(self.store,
                                        make_matcher(config.matcher),
                                        query_type=config.query_type)
        else:
            self.runner = GraphCacheService(self.store, config)
        self.monitor = StatisticsMonitor()
        self.signature = 0

    def step(self, i: int, graph: LabeledGraph, measured: bool) -> None:
        self.plan.apply_due(self.store, i)
        result = self.runner.execute(graph)
        self.signature = hash((self.signature, result.answer_ids))
        if measured:
            self.monitor.record(result.metrics)


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

        A cell's time is only ever read against the other two of its
        (workload, matcher) row — a speedup over the bare method, CON
        against EVI — so the row is replayed together, in lockstep
        (:meth:`replay`).  Measured one cell after the other, a phase of
        the host's speed (1.5x, seconds long) lands on one side of a
        ratio; in lockstep it slows all three alike.  (vf2+ at smoke
        scale, the lead of mean CON over mean EVI across the six
        workloads: +1% to +21% in twelve passes cell after cell, +6% to
        +11% in eight passes as the rows are measured now.)  The price
        is three dataset replicas alive at once instead of one.
        """
        key = (workload_name, matcher_name, model)
        if key not in self._runs:
            row = ROW_MODELS if model in ROW_MODELS else (model,)
            runs = self.replay(workload_name, {
                m: self.scale.cache_config(m, matcher_name) for m in row
            })
            for m, result in runs.items():
                self._runs[(workload_name, matcher_name, m)] = result
        return self._runs[key]

    def replay(self, workload_name: str, configs: Mapping[str, GCConfig],
               *, graphs: list[LabeledGraph] | None = None,
               queries: Sequence[LabeledGraph] | None = None,
               num_batches: int | None = None) -> dict[str, RunResult]:
        """Replay one query stream through one :class:`_Cell` per
        ``configs`` entry, in lockstep — query *i* passes through every
        cell before query *i+1* — and return each cell's result under
        its key (``"base"`` is the bare Method M).

        The stream is the named workload over the harness's dataset
        unless ``graphs`` / ``queries`` replace them.  Every cell
        replays the same change plan (``num_batches`` batches, the
        scale's by default) against its own fresh dataset replica, so
        answers are comparable across cells.  The paper warms the cache
        for one window before measuring (§7.1): the first
        ``warmup_queries`` queries reach no cell's monitor, the bare
        method's included, so ratios stay apples-to-apples, while
        answer signatures cover every query.
        """
        s = self.scale
        if graphs is None:
            graphs = self.graphs
        if queries is None:
            queries = [q.graph for q in self.workload(workload_name).queries]
        batches = s.num_batches if num_batches is None else num_batches
        warmup = min(s.warmup_queries, max(len(queries) - 1, 0))
        with ExitStack() as stack:
            cells = []
            for model, config in configs.items():
                cell = _Cell(model, config, graphs, len(queries), s, batches)
                if isinstance(cell.runner, GraphCacheService):
                    stack.callback(cell.runner.close)
                cells.append(cell)
            # A full collection walks every container alive — the dataset
            # replicas, the workloads, all memoised results — and its
            # pause lands in whichever runner's stopwatch is open.
            # Setting aside what is alive now keeps collections during
            # the replay down to what the replay itself allocates.
            gc.collect()
            gc.freeze()
            stack.callback(gc.unfreeze)
            for i, query in enumerate(queries):
                for cell in cells:
                    cell.step(i, query, measured=i >= warmup)
        return {
            cell.model: RunResult(workload_name, cell.config.matcher,
                                  cell.model, cell.monitor, cell.signature)
            for cell in cells
        }

    # ------------------------------------------------------------------
    def speedup(self, workload_name: str, matcher_name: str,
                model: str) -> tuple[float, float]:
        """(query-time speedup, sub-iso-test speedup) of ``model`` over
        the bare Method M — the paper's headline metrics — after
        asserting answer equality (:meth:`RunResult.speedup_over`)."""
        return self.run(workload_name, matcher_name, model).speedup_over(
            self.run(workload_name, matcher_name, "base"))
