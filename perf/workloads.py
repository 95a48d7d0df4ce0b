"""gcbench workloads: what each one sends to the program and why.

Every input is a pure function of ``(spec, seed)``.  The dataset, the
*multiset* of queries and the change plan are fixed — generated by the
repo's own generators with :data:`DATASET_SEED`.  ``--seed`` reorders
the stream within blocks of :data:`BLOCK` consecutive queries, i.e. it
swaps neighbours.

That is as much as a seed may move under bounds of 10%.  Per-query cost
is heavy tailed (a 20-edge pattern costs ~50x a 4-edge one) and depends
on what the 120-entry cache holds when the query arrives, so a
reordering sends the cache down another path: over 20 seeds and 600
measured queries ``verify_bound``'s Method-M test count (an exact,
noise-free proxy for its time) moved by 3.9% (interquartile range over
median) under a shuffle within blocks of five, 0.7% within blocks of
three, 0.5% within blocks of two; a full reshuffle of 300 queries moved
it 11.8%.  Reseeding the graphs and edges the change plan hits moved
``churn_con``'s ``ops_per_s`` by 3.5% and its ``query_ms_p50`` by 5.0%
between seeds whose repeats agree to 1%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro import ChangePlan, GCConfig, GraphStore, LabeledGraph, MethodMRunner
from repro.datasets.aids import generate_aids_like
from repro.matching import make_matcher
from repro.workloads.typea import generate_type_a
from repro.workloads.typeb import generate_type_b

DATASET_SEED = 2017
BLOCK = 2

#: The one configuration every workload runs (paper defaults, CON).
CONFIG = GCConfig(model="CON", matcher="vf2+", cache_capacity=100,
                  window_capacity=20)


@dataclass(frozen=True)
class Spec:
    """One workload: sizes are constants of the benchmark."""

    name: str
    why: str
    graphs: int          # dataset size
    warmup: int          # untimed queries before the measured stream
    measured: int        # N, the measured stream positions
    kind: str            # "typeA" (BFS, uniform picks) or "typeB" (pools)
    answer_pool: int = 0
    no_answer_pool: int = 0
    no_answer_share: float = 0.0
    churn: bool = False  # a change-plan batch may fire before each query
    http: bool = False   # queries go to a `python -m repro serve` child
    passes: int = 5      # R, the replays of the stream a run is reduced over
    toy: bool = False    # smoke-test size: layer shares are not asserted


SPECS = (
    Spec("verify_bound",
         "distinct BFS patterns over 600 graphs: time is Mverify and the "
         "matcher; the cache index is bypassed",
         graphs=600, warmup=20, measured=600, kind="typeA"),
    Spec("hit_bound",
         "Zipf over a 40-query pool that fits the cache: time is hit "
         "discovery, index and internal tests; Mverify is bypassed",
         graphs=300, warmup=100, measured=300, kind="typeB",
         answer_pool=40),
    Spec("churn_con",
         "ADD/DEL/UA/UR batches beside reads: CON consistency, store "
         "mutators and faded CGvalid bits run next to discovery and Mverify",
         graphs=500, warmup=100, measured=600, kind="typeB",
         answer_pool=120, no_answer_pool=30, no_answer_share=0.2,
         churn=True),
    Spec("http_hit",
         "hit_bound's stream over HTTP to a serve subprocess: the "
         "difference to hit_bound is the serve layer's per-request cost",
         graphs=300, warmup=100, measured=300, kind="typeB",
         answer_pool=40, http=True),
)


def toy(spec: Spec) -> Spec:
    """Smoke-test sizes: same code paths, numbers not comparable."""
    return replace(spec, graphs=40, warmup=6, measured=24, passes=2, toy=True,
                   answer_pool=min(spec.answer_pool, 8),
                   no_answer_pool=min(spec.no_answer_pool, 4))


@dataclass
class Inputs:
    graphs: list[LabeledGraph]
    warmup: list[LabeledGraph]
    measured: list[LabeledGraph]
    plan: ChangePlan | None

    @property
    def stream(self) -> list[LabeledGraph]:
        return self.warmup + self.measured


def build_inputs(spec: Spec, seed: int) -> Inputs:
    graphs = generate_aids_like(num_graphs=spec.graphs, mean_vertices=18,
                                std_vertices=8, max_vertices=60,
                                seed=DATASET_SEED)
    total = spec.warmup + spec.measured
    if spec.kind == "typeA":
        workload = generate_type_a(graphs, total, "UU", seed=DATASET_SEED)
    else:
        workload = generate_type_b(
            graphs, num_queries=total,
            no_answer_probability=spec.no_answer_share,
            answer_pool_size=spec.answer_pool,
            no_answer_pool_size=spec.no_answer_pool, seed=DATASET_SEED)
    queries = [q.graph for q in workload.queries]
    rng = random.Random(seed)
    for start in range(0, total, BLOCK):
        block = queries[start:start + BLOCK]
        rng.shuffle(block)
        queries[start:start + BLOCK] = block
    plan = None
    if spec.churn:
        plan = ChangePlan.generate(graphs, total, num_batches=total // 4,
                                   ops_per_batch=5, seed=DATASET_SEED)
    return Inputs(graphs, queries[:spec.warmup], queries[spec.warmup:], plan)


def oracle_answers(spec: Spec, seed: int) -> list[tuple[int, ...]]:
    """Per stream position (warm-up included), the answer of the bare
    Method M over the dataset as the change plan leaves it — no cache.

    A (query, dataset version) pair seen before is not recomputed: the
    pool workloads repeat a few dozen queries hundreds of times.
    """
    inputs = build_inputs(spec, seed)
    store = GraphStore.from_graphs(inputs.graphs)
    runner = MethodMRunner(store, make_matcher(CONFIG.matcher))
    memo: dict[tuple, tuple[int, ...]] = {}
    answers = []
    for position, query in enumerate(inputs.stream):
        if inputs.plan is not None:
            inputs.plan.apply_due(store, position)
        key = (query.labels, tuple(sorted(query.edges())), store.log.last_seq)
        if key not in memo:
            memo[key] = tuple(sorted(runner.execute(query).answer))
        answers.append(memo[key])
    return answers
