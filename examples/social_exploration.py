#!/usr/bin/env python
"""Social-network exploration: broad-to-narrow queries over changing groups.

The paper's second motivating domain: *"in social network exploratory,
queries could start off broad (e.g., all people in a geographic
location) and become gradually narrower (e.g., by homing in on specific
demographics)"*, while *"newly added groups, break-up of existed groups,
and the changed relations/interactions among group members are
frequently happening"*.

Each dataset graph is a *group*: vertices are members labeled by
demographic (role:location), edges are interactions.  An analyst session
starts with a broad pattern (two connected members in a location) and
narrows it by growing the pattern — each narrower pattern *contains* the
previous one, so GC+'s supergraph-hit filtering kicks in: groups that
failed the broad pattern can never satisfy the narrow one.

Run:  python examples/social_exploration.py
"""

import random
import time

from repro import (
    GCConfig,
    GraphCacheService,
    GraphStore,
    LabeledGraph,
    MethodMRunner,
    VF2PlusMatcher,
)

ROLES = ["student", "engineer", "artist", "doctor", "teacher"]
PLACES = ["north", "south", "east", "west"]
NUM_GROUPS = 300
SESSIONS = 25


def random_group(rng: random.Random) -> LabeledGraph:
    """A group: 6-18 members with demographic labels, sparse interactions."""
    n = rng.randint(6, 18)
    g = LabeledGraph()
    place = rng.choice(PLACES)  # groups are geographically clustered
    for _ in range(n):
        role = rng.choice(ROLES)
        loc = place if rng.random() < 0.8 else rng.choice(PLACES)
        g.add_vertex(f"{role}:{loc}")
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))  # connected backbone
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def exploration_session(rng: random.Random) -> list[LabeledGraph]:
    """Broad → narrow: each query extends the previous with one member."""
    place = rng.choice(PLACES)
    labels = [f"{rng.choice(ROLES)}:{place}", f"{rng.choice(ROLES)}:{place}"]
    edges = [(0, 1)]
    session = [LabeledGraph.from_edges(list(labels), list(edges))]
    for _ in range(rng.randint(1, 3)):
        labels.append(f"{rng.choice(ROLES)}:{place}")
        edges.append((len(labels) - 1, rng.randrange(len(labels) - 1)))
        session.append(LabeledGraph.from_edges(list(labels), list(edges)))
    return session


def social_churn(store: GraphStore, rng: random.Random) -> str | None:
    """Group dynamics: formation, break-up, new/ended interactions."""
    live = sorted(store.ids())
    op = rng.randrange(4)
    if op == 0:
        store.add_graph(random_group(rng))
        return "group formed"
    if op == 1 and len(live) > 20:
        store.delete_graph(rng.choice(live))
        return "group broke up"
    if op == 2 and live:
        gid = rng.choice(live)
        non_edges = list(store.get(gid).non_edges())
        if non_edges:
            store.add_edge(gid, *rng.choice(non_edges))
            return "new interaction"
    if live:
        gid = rng.choice(live)
        edges = list(store.get(gid).edges())
        if edges:
            store.remove_edge(gid, *rng.choice(edges))
            return "interaction ended"
    return None


def drive(runner, seed: int):
    rng = random.Random(seed)
    tests = 0
    answers = []
    start = time.perf_counter()
    for _ in range(SESSIONS):
        for _ in range(rng.randint(0, 2)):
            social_churn(runner.store, rng)
        patterns = exploration_session(rng)
        if isinstance(runner, GraphCacheService):
            # An analyst session is a natural batch; execute_many runs
            # execute once per narrowing step, in order.
            results = runner.execute_many(patterns)
        else:
            results = [runner.execute(p) for p in patterns]
        for result in results:
            tests += result.metrics.method_tests
            answers.append(result.answer_ids)
    return time.perf_counter() - start, tests, answers


def main() -> None:
    rng = random.Random(11)
    print(f"Building {NUM_GROUPS} social groups...")
    groups = [random_group(rng) for _ in range(NUM_GROUPS)]

    bare = MethodMRunner(GraphStore.from_graphs(groups), VF2PlusMatcher())
    cached = GraphCacheService(GraphStore.from_graphs(groups),
                               GCConfig(model="CON", matcher="vf2+"))

    print(f"Running {SESSIONS} exploration sessions (broad → narrow) "
          f"with live group churn...\n")
    bare_time, bare_tests, bare_answers = drive(bare, seed=5)
    con_time, con_tests, con_answers = drive(cached, seed=5)
    assert bare_answers == con_answers, "cache changed the answers!"

    print(f"{'':<14}{'time':>10}{'sub-iso tests':>16}")
    print(f"{'bare VF2+':<14}{bare_time:>9.2f}s{bare_tests:>16,}")
    print(f"{'GC+ / CON':<14}{con_time:>9.2f}s{con_tests:>16,}")
    print(f"{'speedup':<14}{bare_time / con_time:>9.2f}x"
          f"{bare_tests / max(con_tests, 1):>15.2f}x")

    s = cached.summary()
    print(f"\nWhy it works: narrowing a pattern makes it a *supergraph* of "
          f"the previous query;\nGC+ recorded "
          f"{s['total_contained_hits']:.0f} such contained-query hits and "
          f"used their answer\nsets to skip groups that already failed the "
          f"broader pattern.")


if __name__ == "__main__":
    main()
