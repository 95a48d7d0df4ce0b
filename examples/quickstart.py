#!/usr/bin/env python
"""Quickstart: cache-accelerated subgraph queries over a dynamic dataset.

Builds a small molecule-like dataset, runs a few pattern queries through
a GraphCacheService session and shows (1) answers, (2) the cache turning
repeat and related queries into candidate-set reductions, (3) an explain
plan for a query the cache can answer test-free, and (4) consistency
being maintained when the dataset changes mid-stream.

Run:  python examples/quickstart.py
"""

from repro import GCConfig, GraphCacheService, GraphStore, LabeledGraph


def path(labels: str) -> LabeledGraph:
    """A label string like "CCO" becomes the path C-C-O."""
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


def show(tag: str, result) -> None:
    m = result.metrics
    print(f"  {tag:<34} answers={sorted(result.answer_ids)!s:<18} "
          f"sub-iso tests={m.method_tests} (saved {m.tests_saved})")


def main() -> None:
    # A dataset of five labeled graphs (think: tiny molecules).
    dataset = [
        path("CCO"),                                            # G0
        path("CCCO"),                                           # G1
        path("CO"),                                             # G2
        LabeledGraph.from_edges("CCO", [(0, 1), (1, 2), (0, 2)]),  # G3
        path("NCC"),                                            # G4
    ]
    store = GraphStore.from_graphs(dataset)

    # The service wraps any sub-iso verifier ("Method M"); CON is the
    # consistency-tracking cache model from the paper.  All knobs live in
    # one validated config object.
    config = GCConfig(model="CON", matcher="vf2+")
    with GraphCacheService(store, config) as service:
        print("Fresh cache — every query pays full verification:")
        show("C-O pattern", service.execute(path("CO")))
        show("C-C-O pattern", service.execute(path("CCO")))

        print("\nWarm cache — repeats and contained patterns are cheap "
              "(execute_many runs execute once per query):")
        results = service.execute_many([
            path("CO"),    # exact hit
            path("OC"),    # isomorphic hit
            path("CCCO"),  # supergraph of the cached C-C-O
        ])
        for tag, result in zip(
            ("C-O again (exact hit)", "O-C (isomorphic hit)",
             "C-C-C-O (supergraph of C-C-O)"), results,
        ):
            show(tag, result)

        print("\nWhy is the repeat free?  Ask for the plan "
              "(read-only, nothing is admitted):")
        for line in service.explain(path("CO")).describe().splitlines():
            print(f"  | {line}")

        print("\nDataset changes via the service; the cache stays "
              "consistent:")
        gid = service.add_graph(path("COC"))
        print(f"  [ADD] new graph G{gid} = C-O-C")
        service.remove_edge(0, 1, 2)
        print("  [UR]  G0 loses its C-O edge")
        show("C-O after changes", service.execute(path("CO")))

        stats = service.summary()
        print(f"\nTotals: {stats['queries']:.0f} queries, "
              f"{stats['total_method_tests']:.0f} sub-iso tests executed, "
              f"{stats['total_tests_saved']:.0f} avoided by the cache, "
              f"{stats['zero_test_queries']:.0f} answered without any test.")


if __name__ == "__main__":
    main()
