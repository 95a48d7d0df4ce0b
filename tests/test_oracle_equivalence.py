"""Randomized cross-config equivalence sweep: GC+ ≡ direct Method M.

The paper's §6 correctness claim — the cache never changes an answer,
only the work to produce it — has so far been spot-checked per
component.  This sweep asserts it *end to end* across the whole config
grid on seeded random workloads with interleaved dataset mutations:

* workload families: Type A (random-walk extracts) and Type B
  (answer-pool mixes with no-answer shares);
* all three Method M matchers (vf2, vf2+, graphql);
* both cache models (CON, EVI).

Every cell replays the identical (query, mutation) trace against a
fresh dataset replica; the oracle is a bare :class:`MethodMRunner`
(no cache, no index, no pruning) over its own replica.  Answers must
match **per stream index**, not merely in aggregate.
"""

from __future__ import annotations

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.matching import MATCHERS, make_matcher
from repro.runtime.method_m import MethodMRunner
from repro.workloads.typea import generate_type_a
from repro.workloads.typeb import TypeBConfig, generate_type_b

NUM_GRAPHS = 30
NUM_QUERIES = 14
SEED = 20170307  # the paper's venue date; any fixed seed works


@pytest.fixture(scope="module")
def dataset():
    return generate_aids_like(
        num_graphs=NUM_GRAPHS, mean_vertices=7.0, std_vertices=2.5,
        max_vertices=11, seed=SEED,
    )


@pytest.fixture(scope="module")
def workloads(dataset):
    type_a = generate_type_a(dataset, NUM_QUERIES, "ZZ", seed=SEED + 1)
    type_b = generate_type_b(dataset, TypeBConfig(
        num_queries=NUM_QUERIES, no_answer_probability=0.5,
        answer_pool_size=8, no_answer_pool_size=4, seed=SEED + 2,
    ))
    return {"typeA": [q.graph for q in type_a.queries],
            "typeB": [q.graph for q in type_b.queries]}


def _plan(dataset) -> ChangePlan:
    return ChangePlan.generate(dataset, num_queries=NUM_QUERIES,
                               num_batches=3, ops_per_batch=4,
                               seed=SEED + 3)


def _oracle_answers(dataset, queries) -> list[frozenset[int]]:
    """Bare Method M over a fresh replica with the same trace."""
    store = GraphStore.from_graphs(dataset)
    plan = _plan(dataset)
    runner = MethodMRunner(store, make_matcher("vf2+"))
    answers = []
    for index, query in enumerate(queries):
        plan.apply_due(store, index)
        answers.append(frozenset(runner.execute(query).answer))
    return answers


@pytest.fixture(scope="module")
def oracle(dataset, workloads):
    return {name: _oracle_answers(dataset, queries)
            for name, queries in workloads.items()}


@pytest.mark.parametrize("workload_name", ["typeA", "typeB"])
@pytest.mark.parametrize("matcher", tuple(MATCHERS))
@pytest.mark.parametrize("model", ["CON", "EVI"])
def test_gc_answers_equal_direct_matcher(dataset, workloads, oracle,
                                         workload_name, matcher, model):
    queries = workloads[workload_name]
    store = GraphStore.from_graphs(dataset)
    plan = _plan(dataset)
    service = GraphCacheService(store, GCConfig(
        model=model, matcher=matcher,
        cache_capacity=6, window_capacity=3,
    ))
    try:
        for index, query in enumerate(queries):
            service.apply(plan, index)
            answer = frozenset(service.execute(query).answer)
            assert answer == oracle[workload_name][index], (
                f"answer drift at query {index} for "
                f"({workload_name}, {matcher}, {model})"
            )
    finally:
        service.close()
