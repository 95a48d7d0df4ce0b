#!/usr/bin/env python
"""Deep dive: how CON keeps the cache consistent (paper Figure 2, live).

Replays the paper's Figure 2 running example with real machinery and
prints every state transition: the cached queries' ``Answer`` snapshots,
their ``CGvalid`` indicators degrading under dataset changes, and the
resulting candidate-set pruning for a final query — including the EVI
comparison (which would have thrown everything away, twice; the
service's ``purges`` counter shows both purges).

Run:  python examples/consistency_deep_dive.py
"""

from repro import GCConfig, GraphCacheService, GraphStore, LabeledGraph
from repro.util import bit_ids


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


def show_cache(service: GraphCacheService) -> None:
    service.refresh()
    entries = service.cache.all_entries()
    if not entries:
        print("    cache: (empty)")
        return
    for e in entries:
        print(f"    cached entry #{e.entry_id} "
              f"(|V|={e.num_vertices},|E|={e.num_edges}): "
              f"Answer={list(bit_ids(e.answer))} "
              f"CGvalid={list(bit_ids(e.valid))}")


def main() -> None:
    # T0: dataset {G0..G3}.  G2 and G3 contain the C-C-O pattern.
    initial = [
        path("NCN"),                                            # G0
        path("NNC"),                                            # G1
        path("CCOC"),                                           # G2
        LabeledGraph.from_edges("CCOO", [(0, 1), (1, 2), (2, 3)]),  # G3
    ]

    store = GraphStore.from_graphs(initial)
    service = GraphCacheService(store, GCConfig(model="CON"))

    print("== T1: query g' = C-C-O executes and enters the cache")
    result = service.execute(path("CCO"))
    print(f"    answer(g') = {sorted(result.answer_ids)}")
    show_cache(service)

    print("\n== T2: dataset changes — ADD G4, UR on G3 (edge removed)")
    g4 = service.add_graph(path("CCO"))
    service.remove_edge(3, 2, 3)
    print(f"    G{g4} added; G3 lost its O-O edge")
    show_cache(service)
    print("    note: g' lost validity on G3 (positive faded under UR)")
    print("    and has no validity on the new G4 — but kept G0, G1, G2.")

    print("\n== T3: query g'' = C-C executes and enters the cache")
    result = service.execute(path("CC"))
    print(f"    answer(g'') = {sorted(result.answer_ids)}")
    show_cache(service)

    print("\n== T4: dataset changes — DEL G0, UA on G1 (edge added)")
    service.delete_graph(0)
    service.add_edge(1, 0, 2)
    show_cache(service)
    print("    note: deleted G0 invalidated everywhere; G1's negative "
          "relations faded under UA.")

    print("\n== T5: new query g = C-C-O arrives — first the plan...")
    plan = service.explain(path("CCO"))
    for line in plan.describe().splitlines():
        print(f"    | {line}")
    print("   ...then the execution:")
    result = service.execute(path("CCO"))
    m = result.metrics
    print(f"    answer(g) = {sorted(result.answer_ids)}")
    print(f"    sub-iso tests executed: {m.method_tests} of "
          f"{m.candidate_size} candidates "
          f"({m.tests_saved} saved by the CON cache)")
    print(f"    hits: {m.containing_hits} containing, "
          f"{m.contained_hits} contained, {m.exact_hits} exact")

    # The EVI comparison on the identical history.
    store2 = GraphStore.from_graphs(initial)
    with GraphCacheService(store2, GCConfig(model="EVI")) as evi:
        print("\n== The same history under EVI:")
        evi.execute(path("CCO"))
        evi.add_graph(path("CCO"))
        evi.remove_edge(3, 2, 3)
        evi.execute(path("CC"))
        evi.delete_graph(0)
        evi.add_edge(1, 0, 2)
        result_evi = evi.execute(path("CCO"))
        print(f"    answer(g) = {sorted(result_evi.answer_ids)} (same, as "
              f"proved in §6)")
        print(f"    but sub-iso tests executed: "
              f"{result_evi.metrics.method_tests} — the cache was purged "
              f"at T2 and T4 (purges: {evi.counters()['purges']}), so "
              f"nothing was left to help.")


if __name__ == "__main__":
    main()
