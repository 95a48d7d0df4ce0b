"""The paper's §7 evaluation: datasets, workloads, the replay loop and
one function per figure.

One *run* = (workload, Method M, cache model) executed over a fresh
dataset replica with the scale's change plan replayed identically.  The
paper's figures slice the same run grid different ways (Figure 4: query
time; Figure 5: sub-iso tests; Figure 6: time breakdown), so the harness
memoizes runs — each (workload, matcher, model) cell executes once per
process no matter how many figures touch it.  Every stream — a grid
row, an ablation, the supergraph workload — replays through one loop
(:meth:`ExperimentHarness.replay`), which applies the warm-up rule and
feeds each cell's :class:`~repro.runtime.monitor.StatisticsMonitor`.

Every figure function takes an :class:`ExperimentHarness` and returns
``(rows, rendered_table)``; the ablations and the supergraph workload
return ``(rows, count_table, time_table)`` instead (:func:`_split`).
Paper reference numbers (AIDS, 40k graphs, 10k queries, Java testbed)
are embedded for side-by-side comparison; at scaled-down Python sizes
the *shapes* are expected to hold — CON ≫ EVI > 1 everywhere,
method-independent Figure 5, negligible CON-exclusive overhead — while
absolute magnitudes grow with stream length toward the paper's values
(README, "Benchmarks").  A speedup is read only after its two runs'
answers compare equal (:meth:`RunResult.speedup_over`).

Scale is controlled by the ``GCPLUS_BENCH_SCALE`` environment variable
(``smoke`` < ``small`` < ``medium`` < ``large``); see :data:`SCALES`.
"""

from __future__ import annotations

import gc
import os
import random
from collections.abc import Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass

from repro.api import GCConfig, GraphCacheService
from repro.cache.entry import QueryType
from repro.cli import render_table
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.matching import MATCHERS, make_matcher
from repro.runtime.method_m import MethodMRunner
from repro.runtime.monitor import StatisticsMonitor
from repro.util.zipf import ZipfSampler
from repro.workloads.base import Workload
from repro.workloads.typea import bfs_extract, generate_type_a
from repro.workloads.typeb import TypeBConfig, generate_type_b

TYPE_A_CATEGORIES = ("ZZ", "ZU", "UU")
TYPE_B_CATEGORIES = ("0%", "20%", "50%")
ALL_CATEGORIES = TYPE_A_CATEGORIES + TYPE_B_CATEGORIES
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

    def speedup_over(self, base: RunResult) -> tuple[float, float]:
        """(query-time speedup, sub-iso-test speedup) of this run over
        ``base``, after asserting that both gave every query the same
        answer (the correctness claim of §6, checked on every bench)."""
        if self.answer_signature != base.answer_signature:
            raise AssertionError(
                f"answer mismatch: {self.model} vs {base.model} on "
                f"({self.workload}, {self.matcher})"
            )
        mine, theirs = self.monitor, base.monitor
        return (theirs.query_seconds / max(mine.query_seconds, 1e-12),
                theirs.total_method_tests / max(mine.total_method_tests, 1))


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

    def __init__(self, scale: BenchScale) -> None:
        self.scale = scale
        self._graphs = None
        self._dataset_features = None
        self._workloads: dict[str, Workload] = {}
        self._runs: dict[tuple[str, str, str], RunResult] = {}

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
                    f"unknown workload {name!r}; choose from {ALL_CATEGORIES}"
                )
            self._workloads[name] = wl
        return self._workloads[name]

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

    def speedup(self, workload_name: str, matcher_name: str,
                model: str) -> tuple[float, float]:
        """(query-time speedup, sub-iso-test speedup) of ``model`` over
        the bare Method M — the paper's headline metrics — after
        asserting answer equality (:meth:`RunResult.speedup_over`)."""
        return self.run(workload_name, matcher_name, model).speedup_over(
            self.run(workload_name, matcher_name, "base"))


# ----------------------------------------------------------------------
# Paper reference values
# ----------------------------------------------------------------------
#: Figure 4 — query-time speedups: {(matcher, workload): (EVI, CON)}
PAPER_FIG4: dict[tuple[str, str], tuple[float, float]] = {
    ("vf2", "ZZ"): (1.74, 7.85), ("vf2", "ZU"): (1.43, 4.77),
    ("vf2", "UU"): (1.28, 5.13),
    ("vf2+", "ZZ"): (1.79, 7.31), ("vf2+", "ZU"): (1.78, 5.79),
    ("vf2+", "UU"): (1.52, 6.21),
    ("graphql", "ZZ"): (1.31, 5.78), ("graphql", "ZU"): (1.27, 4.57),
    ("graphql", "UU"): (1.23, 3.90),
    ("vf2", "0%"): (1.90, 6.52), ("vf2", "20%"): (1.76, 5.20),
    ("vf2", "50%"): (1.57, 4.57),
    ("vf2+", "0%"): (2.17, 9.50), ("vf2+", "20%"): (1.95, 5.35),
    ("vf2+", "50%"): (1.84, 6.14),
    ("graphql", "0%"): (1.34, 7.31), ("graphql", "20%"): (1.25, 6.68),
    ("graphql", "50%"): (1.18, 6.67),
}

#: Figure 5 — sub-iso-test speedups (method-independent): {workload: (EVI, CON)}
PAPER_FIG5: dict[str, tuple[float, float]] = {
    "ZZ": (1.94, 8.71), "ZU": (1.81, 6.53), "UU": (1.53, 7.30),
    "0%": (2.21, 9.84), "20%": (1.96, 5.42), "50%": (1.83, 6.23),
}

#: Figure 6 — avg query time (ms) and per-query overhead (ms) for bare
#: VF2 / EVI / CON: {workload: {"vf2": t, "evi": (t, oh), "con": (t, oh)}}
PAPER_FIG6: dict[str, dict[str, object]] = {
    "ZZ": {"vf2": 1217.0, "evi": (698.0, 4.0), "con": (155.0, 11.0)},
    "ZU": {"vf2": 1130.0, "evi": (789.0, 3.0), "con": (237.0, 9.0)},
    "UU": {"vf2": 1385.0, "evi": (1085.0, 3.0), "con": (270.0, 7.0)},
    "0%": {"vf2": 1627.0, "evi": (856.0, 3.0), "con": (250.0, 11.0)},
    "20%": {"vf2": 1383.0, "evi": (785.0, 3.0), "con": (266.0, 10.0)},
    "50%": {"vf2": 990.0, "evi": (631.0, 3.0), "con": (217.0, 8.0)},
}


def _split(title: str, rows: list[dict[str, object]]) -> tuple[str, str]:
    """The rows' count table — the key column and the sub-iso-test
    speedups, which no host speed moves — and their time table."""
    key = next(iter(rows[0]))
    return tuple(
        render_table(f"{title}: {label}", rows,
                     [key, *(c for c in rows[0] if f"{kind} speedup" in c)])
        for kind, label in (("test", "sub-iso tests"), ("time", "query time")))


# ----------------------------------------------------------------------
# Figure 4 — GC+ speedup in query time
# ----------------------------------------------------------------------
def figure4(harness: ExperimentHarness,
            matchers: tuple[str, ...] = tuple(MATCHERS),
            workloads: tuple[str, ...] = ALL_CATEGORIES):
    """Query-time speedup of EVI and CON over each bare Method M."""
    rows = []
    for matcher in matchers:
        for workload in workloads:
            evi_time, _ = harness.speedup(workload, matcher, "EVI")
            con_time, _ = harness.speedup(workload, matcher, "CON")
            paper = PAPER_FIG4.get((matcher, workload))
            rows.append({
                "method": matcher,
                "workload": workload,
                "EVI speedup": evi_time,
                "CON speedup": con_time,
                "paper EVI": paper[0] if paper else "",
                "paper CON": paper[1] if paper else "",
            })
    return rows, render_table(
        "Figure 4 — GC+ speedup in query time", rows
    )


# ----------------------------------------------------------------------
# Figure 5 — GC+ speedup in number of sub-iso tests
# ----------------------------------------------------------------------
def figure5(harness: ExperimentHarness,
            workloads: tuple[str, ...] = ALL_CATEGORIES):
    """Sub-iso-test speedups; the paper stresses these are independent of
    the Method M used, which is asserted here by comparing the pruned
    test counts of VF2+ and VF2."""
    rows = []
    for workload in workloads:
        _, evi_tests = harness.speedup(workload, "vf2+", "EVI")
        _, con_tests = harness.speedup(workload, "vf2+", "CON")
        for model in ("EVI", "CON"):
            a = harness.run(workload, "vf2+", model).monitor
            b = harness.run(workload, "vf2", model).monitor
            if a.total_method_tests != b.total_method_tests:
                raise AssertionError(
                    "sub-iso test counts differ across Method M — "
                    "violates the paper's §7.2 claim: "
                    f"{workload}/{model}: vf2+ {a.total_method_tests} "
                    f"vs vf2 {b.total_method_tests}"
                )
        paper = PAPER_FIG5.get(workload)
        rows.append({
            "workload": workload,
            "EVI speedup": evi_tests,
            "CON speedup": con_tests,
            "paper EVI": paper[0] if paper else "",
            "paper CON": paper[1] if paper else "",
        })
    return rows, render_table(
        "Figure 5 — GC+ speedup in number of sub-iso tests "
        "(method-independent)", rows
    )


# ----------------------------------------------------------------------
# Figure 6 — average execution time and overhead per query
# ----------------------------------------------------------------------
def figure6(harness: ExperimentHarness,
            workloads: tuple[str, ...] = ALL_CATEGORIES,
            matcher: str = "vf2"):
    """Per-query time breakdown for bare VF2, EVI and CON.

    Reproduces the two §7.2 conclusions: (i) the CON-exclusive cost
    (Algorithms 1+2) is a trivial share of CON overhead; (ii) CON beats
    EVI with negligible additional overhead.
    """
    rows = []
    for workload in workloads:
        base = harness.run(workload, matcher, "base").monitor.summary()
        evi = harness.run(workload, matcher, "EVI").monitor.summary()
        con_monitor = harness.run(workload, matcher, "CON").monitor
        con = con_monitor.summary()
        con_exclusive = (con_monitor.consistency_seconds
                         / max(con_monitor.overhead_seconds, 1e-12))
        paper = PAPER_FIG6.get(workload, {})
        rows.append({
            "workload": workload,
            f"{matcher} qtime ms": base["avg_query_time_ms"],
            "EVI qtime ms": evi["avg_query_time_ms"],
            "EVI overhead ms": evi["avg_overhead_ms"],
            "EVI purge ms": evi["avg_purge_ms"],
            "CON qtime ms": con["avg_query_time_ms"],
            "CON overhead ms": con["avg_overhead_ms"],
            "CON-excl % of overhead": con_exclusive * 100.0,
            "paper qtimes (vf2/EVI/CON) ms": (
                f"{paper.get('vf2')}/{paper.get('evi', ('?',))[0]}"
                f"/{paper.get('con', ('?',))[0]}" if paper else ""
            ),
        })
    return rows, render_table(
        "Figure 6 — average execution time and overhead per query", rows
    )


# ----------------------------------------------------------------------
# §7.2 insight — hit anatomy (ZU vs UU)
# ----------------------------------------------------------------------
def hit_anatomy(harness: ExperimentHarness,
                workloads: tuple[str, ...] = TYPE_A_CATEGORIES,
                matcher: str = "vf2+"):
    """Exact-match vs sub/supergraph hit composition under CON.

    The paper measures, for ZU vs UU: ~2.5× more exact-match cache hits
    in ZU, only 4%/11% of them yielding zero sub-iso tests, and ~2× more
    sub/supergraph matches in UU — explaining why GC+ benefits skewed
    *and* uniform workloads.
    """
    rows = []
    for workload in workloads:
        s = harness.run(workload, matcher, "CON").monitor.summary()
        rows.append({
            "workload": workload,
            "queries": s["queries"],
            "exact-hit queries": s["queries_with_exact_hit"],
            "zero-test queries": s["zero_test_queries"],
            "containing hits": s["total_containing_hits"],
            "contained hits": s["total_contained_hits"],
            "exact hits": s["total_exact_hits"],
        })
    return rows, render_table(
        "Hit anatomy under CON (paper §7.2 insight)", rows
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def ablation_policies(harness: ExperimentHarness, workload: str = "ZZ",
                      matcher: str = "vf2+",
                      policies: tuple[str, ...] = ("hd", "pin", "pinc",
                                                   "lru", "lfu")):
    """Replacement-policy ablation: HD should be on par with the best.

    The bare method replays in the same lockstep as the policies, so
    each time ratio is measured as a grid row's is
    (:meth:`ExperimentHarness.run`); so does the capacity ablation.
    """
    config = harness.scale.cache_config("CON", matcher)
    runs = harness.replay(workload, {"base": config, **{
        policy: config.replace(policy=policy) for policy in policies
    }})
    rows = []
    for policy in policies:
        time_speedup, test_speedup = runs[policy].speedup_over(runs["base"])
        rows.append({
            "policy": policy,
            "time speedup": time_speedup,
            "test speedup": test_speedup,
        })
    return rows, *_split(
        f"Ablation — replacement policy (CON, {workload}, {matcher})", rows)


def ablation_cache_size(harness: ExperimentHarness, workload: str = "ZZ",
                        matcher: str = "vf2+",
                        capacities: tuple[int, ...] = (25, 50, 100, 200)):
    """Speedup vs cache capacity (paper keeps the 'meagre' 100)."""
    s = harness.scale
    config = s.cache_config("CON", matcher)
    runs = harness.replay(workload, {"base": config, **{
        f"capacity {capacity}": config.replace(
            cache_capacity=capacity,
            window_capacity=min(s.window_capacity, max(1, capacity // 5)),
        )
        for capacity in capacities
    }})
    rows = []
    for capacity in capacities:
        time_speedup, test_speedup = runs[
            f"capacity {capacity}"].speedup_over(runs["base"])
        rows.append({
            "cache capacity": capacity,
            "time speedup": time_speedup,
            "test speedup": test_speedup,
        })
    return rows, *_split(
        f"Ablation — cache capacity (CON, {workload}, {matcher})", rows)


def ablation_churn(harness: ExperimentHarness, workload: str = "ZZ",
                   matcher: str = "vf2+",
                   batch_multipliers: tuple[float, ...] = (0.0, 0.5, 1.0,
                                                           2.0, 4.0)):
    """CON vs EVI as churn intensity grows.

    EVI degrades toward 1× (it purges ever more often); CON degrades far
    more slowly (only touched relations lose validity) — the paper's
    central qualitative claim.
    """
    s = harness.scale
    rows = []
    for mult in batch_multipliers:
        runs = harness.replay(
            workload,
            {model: s.cache_config(model, matcher) for model in ROW_MODELS},
            num_batches=int(round(s.num_batches * mult)),
        )
        evi_time, evi_tests = runs["EVI"].speedup_over(runs["base"])
        con_time, con_tests = runs["CON"].speedup_over(runs["base"])
        rows.append({
            "churn x paper ratio": mult,
            "EVI test speedup": evi_tests,
            "CON test speedup": con_tests,
            "EVI time speedup": evi_time,
            "CON time speedup": con_time,
        })
    return rows, *_split(
        f"Ablation — churn intensity (EVI vs CON, {workload}, {matcher})",
        rows)


def supergraph_workload(harness: ExperimentHarness, matcher: str = "vf2+"):
    """Supergraph-query evaluation (the paper's other query semantics).

    The paper presents the subgraph case and notes supergraph queries
    follow the exact inverse logic; this experiment exercises that
    inverse end to end.  Supergraph queries return dataset graphs
    *contained in* the query, so queries must be larger than typical
    dataset graphs: they are synthesized by BFS-extracting large
    patterns (25-45 edges) from a scaled-up replica population, against
    a dataset of small fragments extracted from the same population —
    guaranteeing non-trivial answers.
    """
    s = harness.scale
    rng = random.Random(s.workload_seed ^ 0xBEEF)
    population = harness.graphs

    def extract(count, pick, sizes):
        # As generate_type_a does: a pattern that no source yields in
        # 1000 tries ends the workload (smoke scale's longest run of
        # misses for a 25+-edge query is 115).
        patterns = []
        while len(patterns) < count:
            for _ in range(1000):
                src = population[pick()]
                pattern = bfs_extract(src, rng.randrange(src.num_vertices),
                                      rng.choice(sizes))
                if pattern is not None:
                    patterns.append(pattern)
                    break
            else:
                raise ValueError(
                    f"scale {s.name!r}: no graph yielded a pattern of "
                    f"{sizes} edges in 1000 attempts")
        return patterns

    # Dataset: small fragments (3-6 edges) of the population graphs.
    fragments = extract(max(s.num_graphs // 4, 50),
                        lambda: rng.randrange(len(population)), (3, 4, 5, 6))
    # Queries: large patterns, Zipf-selected sources (repetition and
    # containment structure, as in Type A).
    zipf = ZipfSampler(len(population), rng=rng)
    queries = extract(s.num_queries, zipf.sample, (25, 30, 35, 40, 45))

    runs = harness.replay("supergraph", {
        model: s.cache_config(model, matcher).replace(
            query_type=QueryType.SUPERGRAPH)
        for model in ROW_MODELS
    }, graphs=fragments, queries=queries)
    rows = []
    for model in ("EVI", "CON"):
        time_speedup, test_speedup = runs[model].speedup_over(runs["base"])
        rows.append({
            "model": model,
            "time speedup": time_speedup,
            "test speedup": test_speedup,
        })
    return rows, *_split(
        f"Supergraph-query workload (inverse logic, {matcher})", rows)
