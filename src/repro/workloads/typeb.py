"""Type B workloads — pool-based, with controlled no-answer share (§7.1).

*"For each of the query sizes, we first create two query pools: a
10,000-query pool with queries with non-empty answer sets against the
initial dataset, and a second 3,000-query pool with no match in any
untreated dataset graph [...].  Queries for the first pool are extracted
from dataset graphs by uniformly selecting a start node across all nodes
in all dataset graphs, and then performing a random walk till the
required query graph size is reached.  Generation of no-answer queries
has one extra step: we continuously relabel the nodes in the query with
randomly selected labels from the dataset, until the resulting query has
a non-empty candidate set but an empty answer set against the dataset
graphs.  Once the query pools are filled up, we generate workloads by
first flipping a biased coin to choose between the two pools (with the
"no-answer" pool selected with probability 0%, 20% or 50%), then
randomly (Zipf) selecting a query from the chosen pool."*

Pool-level Zipf selection repeats popular queries, which is what makes
Type B workloads exercise the exact-match machinery of the cache.

"Non-empty candidate set" is interpreted against this system's
filter substrate: the no-answer query's monotone features must be
dominated by at least one dataset graph's (so a filter-then-verify
method would still have to run sub-iso tests — the query is *hard*, not
trivially rejectable), while exact verification finds no embedding.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.graphs.features import GraphFeatures
from repro.graphs.graph import Label, LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.matching.vf2plus import VF2PlusMatcher
from repro.util.zipf import DEFAULT_ALPHA, ZipfSampler
from repro.workloads.base import DEFAULT_QUERY_SIZES, Query, Workload

__all__ = ["TypeBConfig", "generate_type_b", "random_walk_extract"]


@dataclass(frozen=True)
class TypeBConfig:
    """Generation knobs; paper-scale pools are (10000, 3000)."""

    num_queries: int = 10_000
    no_answer_probability: float = 0.0   # 0%, 20% or 50% in the paper
    answer_pool_size: int = 10_000
    no_answer_pool_size: int = 3_000
    sizes: Sequence[int] = DEFAULT_QUERY_SIZES
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    max_relabel_attempts: int = 400

    def __post_init__(self) -> None:
        if not 0.0 <= self.no_answer_probability <= 1.0:
            raise ValueError("no_answer_probability must be in [0, 1]")
        if self.num_queries <= 0 or self.answer_pool_size <= 0:
            raise ValueError("query/pool counts must be positive")


def random_walk_extract(source: LabeledGraph, start: int, target_edges: int,
                        rng: random.Random) -> LabeledGraph | None:
    """Extract a connected query by random walk until ``target_edges``
    distinct edges have been traversed.  Returns None if the walk cannot
    reach the size (dead-ends in a too-small component)."""
    if target_edges <= 0:
        raise ValueError(f"target_edges must be positive, got {target_edges}")
    edges: set[tuple[int, int]] = set()
    current = start
    # A walk can revisit edges without progress; bound the step budget.
    for _ in range(target_edges * 30):
        neighbors = sorted(source.neighbors(current))
        if not neighbors:
            return None
        nxt = neighbors[rng.randrange(len(neighbors))]
        edge = (current, nxt) if current < nxt else (nxt, current)
        edges.add(edge)
        current = nxt
        if len(edges) == target_edges:
            break
    if len(edges) < target_edges:
        return None
    used = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(used)}
    return LabeledGraph.from_edges(
        [source.label(v) for v in used],
        [(index[a], index[b]) for a, b in edges],
    )


def _build_answer_pool(graphs: Sequence[LabeledGraph], pool_size: int,
                       sizes: Sequence[int],
                       rng: random.Random) -> list[Query]:
    """Pool 1: random-walk queries (non-empty answers by construction —
    the source graph contains each extracted query)."""
    # Uniform start node "across all nodes in all dataset graphs":
    # weight graphs by vertex count.
    weights = [g.num_vertices for g in graphs]
    pool: list[Query] = []
    attempts = 0
    max_attempts = pool_size * 200
    while len(pool) < pool_size:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError(
                "could not fill the Type B answer pool; dataset graphs "
                f"may be too small for sizes {tuple(sizes)}"
            )
        gidx = rng.choices(range(len(graphs)), weights=weights, k=1)[0]
        source = graphs[gidx]
        if source.num_vertices == 0:
            continue
        start = rng.randrange(source.num_vertices)
        size = rng.choice(list(sizes))
        query = random_walk_extract(source, start, size, rng)
        if query is not None:
            pool.append(Query(query, size, source_graph=gidx,
                              expected_nonempty=True))
    return pool


def _has_empty_answer(query: LabeledGraph, graphs: Sequence[LabeledGraph],
                      features: list[GraphFeatures],
                      verifier: SubgraphMatcher) -> tuple[bool, bool]:
    """(candidate set non-empty, answer empty) against the dataset."""
    qfeat = GraphFeatures.of(query)
    candidate_found = False
    for g, feat in zip(graphs, features):
        if not qfeat.may_be_subgraph_of(feat):
            continue
        candidate_found = True
        if verifier.is_subgraph_isomorphic(query, g):
            return candidate_found, False
    return candidate_found, True


def _relabel_population(graphs: Sequence[LabeledGraph]) -> list[Label]:
    """Every vertex label of the dataset, one entry per occurrence.

    "Randomly selected labels from the dataset" draws from the label
    *occurrences* (frequency-weighted), not the distinct alphabet: with
    ~62 heavily skewed labels, uniform-alphabet draws produce label
    multisets no dataset graph can cover (empty candidate set), so the
    relabel loop would almost never terminate.  Occurrence-weighted draws
    yield plausible multisets whose structure, not labels, makes them
    unmatchable.  The entries are the graphs' own label objects, so an
    ``int``-labelled dataset relabels with ``int`` labels.

    Raises ``ValueError`` for a dataset with one distinct label: every
    relabelling of a walk is then the walk itself, which embeds in its
    source graph, so no query could ever enter the pool.
    """
    population = [g.label(v) for g in graphs for v in g.vertices()]
    if len(set(population)) == 1:
        raise ValueError(
            "could not fill the Type B no-answer pool: the dataset has one "
            "distinct label, so every relabelled walk still matches the "
            "graph it came from"
        )
    return population


def _build_no_answer_pool(graphs: Sequence[LabeledGraph],
                          label_population: Sequence[Label], pool_size: int,
                          sizes: Sequence[int], rng: random.Random,
                          max_relabel_attempts: int,
                          dataset_features: Sequence[GraphFeatures] | None
                          = None) -> list[Query]:
    """Pool 2: relabeled walks with non-empty candidate set, empty answer,
    relabelled from ``label_population`` (:func:`_relabel_population`)."""
    features = (list(dataset_features) if dataset_features is not None
                else GraphFeatures.of_many(graphs))
    verifier = VF2PlusMatcher()
    pool: list[Query] = []
    weights = [g.num_vertices for g in graphs]
    guard = 0
    while len(pool) < pool_size:
        guard += 1
        if guard > pool_size * 50:
            raise ValueError("could not fill the Type B no-answer pool")
        gidx = rng.choices(range(len(graphs)), weights=weights, k=1)[0]
        source = graphs[gidx]
        if source.num_vertices == 0:
            continue
        size = rng.choice(list(sizes))
        walk = random_walk_extract(
            source, rng.randrange(source.num_vertices), size, rng
        )
        if walk is None:
            continue
        # "continuously relabel the nodes [...] until the resulting query
        # has a non-empty candidate set but an empty answer set".
        for _ in range(max_relabel_attempts):
            candidate = walk.copy()
            for v in candidate.vertices():
                candidate.set_label(v, rng.choice(label_population))
            has_candidates, empty = _has_empty_answer(
                candidate, graphs, features, verifier
            )
            if has_candidates and empty:
                pool.append(Query(candidate, size, source_graph=gidx,
                                  expected_nonempty=False))
                break
    return pool


def generate_type_b(graphs: Sequence[LabeledGraph],
                    config: TypeBConfig | None = None,
                    dataset_features: Sequence[GraphFeatures] | None = None,
                    **overrides: object) -> Workload:
    """Generate a Type B workload (paper categories "0%", "20%", "50%").

    ``dataset_features`` optionally supplies precomputed
    :meth:`GraphFeatures.of_many(graphs) <GraphFeatures.of_many>` so
    callers generating several workloads over the same dataset (the
    bench harness builds three Type B categories) don't recompute the
    dataset's feature set per call; it must align index-for-index with
    ``graphs``.
    """
    if config is None:
        config = TypeBConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise TypeError("pass either a config object or overrides, not both")
    if not graphs:
        raise ValueError("dataset must be non-empty")
    if dataset_features is not None and len(dataset_features) != len(graphs):
        raise ValueError(
            f"dataset_features length {len(dataset_features)} does not "
            f"match {len(graphs)} graphs"
        )
    label_population = (_relabel_population(graphs)
                        if config.no_answer_probability > 0 else [])
    rng = random.Random(config.seed)
    answer_pool = _build_answer_pool(
        graphs, config.answer_pool_size, config.sizes, rng
    )
    no_answer_pool: list[Query] = []
    if config.no_answer_probability > 0:
        no_answer_pool = _build_no_answer_pool(
            graphs, label_population, config.no_answer_pool_size,
            config.sizes, rng,
            config.max_relabel_attempts, dataset_features=dataset_features,
        )
    answer_zipf = ZipfSampler(len(answer_pool), config.alpha, rng=rng)
    no_answer_zipf = (ZipfSampler(len(no_answer_pool), config.alpha, rng=rng)
                      if no_answer_pool else None)
    queries: list[Query] = []
    for _ in range(config.num_queries):
        if (no_answer_zipf is not None
                and rng.random() < config.no_answer_probability):
            queries.append(no_answer_pool[no_answer_zipf.sample()])
        else:
            queries.append(answer_pool[answer_zipf.sample()])
    share = int(config.no_answer_probability * 100)
    return Workload(
        name=f"typeB-{share}%",
        queries=queries,
        metadata={
            "no_answer_probability": config.no_answer_probability,
            "alpha": config.alpha,
            "sizes": tuple(config.sizes),
            "seed": config.seed,
            "answer_pool": len(answer_pool),
            "no_answer_pool": len(no_answer_pool),
        },
    )
