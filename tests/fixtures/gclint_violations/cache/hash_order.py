"""Seeded hash-order violations (GC203, never imported): an eviction
whose victim is whatever the table pops, and a loop whose order is the
set's hash order."""


def evict_one(table):
    # GC203: popitem() picks the victim; it must come from the policy.
    return table.popitem()


def first_live(ids, live):
    # GC203: the first live id found depends on the set's hash order.
    for graph_id in set(ids):
        if graph_id in live:
            return graph_id
    return None
