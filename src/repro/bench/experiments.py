"""The paper's experiments — one function per figure, plus ablations.

Every function takes an :class:`~repro.bench.harness.ExperimentHarness`
and returns ``(rows, rendered_table)``.  Paper reference numbers (AIDS,
40k graphs, 10k queries, Java testbed) are embedded for side-by-side
comparison; at scaled-down Python sizes the *shapes* are expected to
hold — CON ≫ EVI > 1 everywhere, method-independent Figure 5, negligible
CON-exclusive overhead — while absolute magnitudes grow with stream
length toward the paper's values (README, "Benchmarks").  Every
stream replays through :meth:`ExperimentHarness.replay`, and a speedup
is read only after its two runs' answers compare equal
(:meth:`RunResult.speedup_over`).
"""

from __future__ import annotations

from repro.bench.harness import (
    MATCHER_NAMES,
    ROW_MODELS,
    TYPE_A_CATEGORIES,
    TYPE_B_CATEGORIES,
    ExperimentHarness,
)
from repro.bench.reporting import render_table

__all__ = [
    "PAPER_FIG4",
    "PAPER_FIG5",
    "PAPER_FIG6",
    "figure4",
    "figure5",
    "figure6",
    "hit_anatomy",
    "ablation_policies",
    "ablation_cache_size",
    "ablation_churn",
    "supergraph_workload",
]

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

ALL_CATEGORIES = TYPE_A_CATEGORIES + TYPE_B_CATEGORIES


# ----------------------------------------------------------------------
# Figure 4 — GC+ speedup in query time
# ----------------------------------------------------------------------
def figure4(harness: ExperimentHarness,
            matchers: tuple[str, ...] = MATCHER_NAMES,
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
            workloads: tuple[str, ...] = ALL_CATEGORIES,
            check_method_independence: bool = True):
    """Sub-iso-test speedups; the paper stresses these are independent of
    the Method M used, which is asserted here by comparing the pruned
    test counts across matchers."""
    rows = []
    for workload in workloads:
        _, evi_tests = harness.speedup(workload, "vf2+", "EVI")
        _, con_tests = harness.speedup(workload, "vf2+", "CON")
        if check_method_independence:
            for other in ("vf2",):
                for model in ("EVI", "CON"):
                    a = harness.run(workload, "vf2+", model)
                    b = harness.run(workload, other, model)
                    if a.total_method_tests != b.total_method_tests:
                        raise AssertionError(
                            "sub-iso test counts differ across Method M — "
                            "violates the paper's §7.2 claim: "
                            f"{workload}/{model}: vf2+ "
                            f"{a.total_method_tests} vs {other} "
                            f"{b.total_method_tests}"
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
        base = harness.run(workload, matcher, "base")
        evi = harness.run(workload, matcher, "EVI")
        con = harness.run(workload, matcher, "CON")
        con_exclusive = (con.total_consistency_seconds
                         / max(con.total_overhead_seconds, 1e-12))
        paper = PAPER_FIG6.get(workload, {})
        rows.append({
            "workload": workload,
            f"{matcher} qtime ms": base.avg_query_time_ms,
            "EVI qtime ms": evi.avg_query_time_ms,
            "EVI overhead ms": evi.avg_overhead_ms,
            "EVI purge ms": evi.avg_purge_ms,
            "CON qtime ms": con.avg_query_time_ms,
            "CON overhead ms": con.avg_overhead_ms,
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
        con = harness.run(workload, matcher, "CON")
        s = con.summary
        rows.append({
            "workload": workload,
            "queries": con.queries,
            "exact-hit queries": s.get("queries_with_exact_hit", 0),
            "zero-test queries": s.get("zero_test_queries", 0),
            "containing hits": s.get("total_containing_hits", 0),
            "contained hits": s.get("total_contained_hits", 0),
            "exact hits": s.get("total_exact_hits", 0),
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
    return rows, render_table(
        f"Ablation — replacement policy (CON, {workload}, {matcher})", rows
    )


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
    return rows, render_table(
        f"Ablation — cache capacity (CON, {workload}, {matcher})", rows
    )


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
    return rows, render_table(
        f"Ablation — churn intensity (EVI vs CON, {workload}, {matcher})",
        rows,
    )


def supergraph_workload(harness: ExperimentHarness,
                        matcher: str = "vf2+",
                        num_queries: int | None = None):
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
    import random as _random

    from repro.cache.entry import QueryType
    from repro.util.zipf import ZipfSampler
    from repro.workloads.typea import bfs_extract

    s = harness.scale
    rng = _random.Random(s.workload_seed ^ 0xBEEF)
    population = harness.graphs
    n_queries = num_queries if num_queries is not None else s.num_queries

    # Dataset: small fragments (3-6 edges) of the population graphs.
    fragments = []
    while len(fragments) < max(s.num_graphs // 4, 50):
        src = population[rng.randrange(len(population))]
        frag = bfs_extract(src, rng.randrange(src.num_vertices),
                           rng.choice((3, 4, 5, 6)))
        if frag is not None:
            fragments.append(frag)

    # Queries: large patterns, Zipf-selected sources (repetition and
    # containment structure, as in Type A).
    zipf = ZipfSampler(len(population), rng=rng)
    queries = []
    while len(queries) < n_queries:
        src = population[zipf.sample()]
        q = bfs_extract(src, rng.randrange(src.num_vertices),
                        rng.choice((25, 30, 35, 40, 45)))
        if q is not None:
            queries.append(q)

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
    return rows, render_table(
        f"Supergraph-query workload (inverse logic, {matcher})", rows
    )
