"""Seeded dead public code (GC205, never imported): a connectivity check
that only a test calls.  Nothing in the package, ``perf/``,
``benchmarks/`` or ``examples/`` names it, so it belongs in ``tests/``
beside the test that uses it."""


def is_connected(graph):
    # GC205: public, and referenced nowhere outside its own body.
    if graph.num_vertices == 0:
        return True
    seen, stack = {0}, [0]
    while stack:
        for v in graph.neighbors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == graph.num_vertices
