"""Deterministic fuzz of the snapshot decoder and restore path.

Whatever a snapshot file on disk has become — cut short, bytes
substituted (including bytes that are not UTF-8), lines dropped,
doubled or swapped — ``GraphCacheService.load`` either restores it or
raises a :class:`~repro.persist.SnapshotError`.  Any other exception is
a crash the CLI would print as a traceback (``docs/persistence.md``).

Every corruption is a pure function of the config and a fixed seed, so
a failure names a reproducible case.
"""

from __future__ import annotations

import random

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.persist import SnapshotError
from repro.workloads.typeb import TypeBConfig, generate_type_b

NUM_QUERIES = 30

#: Substitutes: the JSON and ``t/v/e`` alphabet, plus bytes >= 0x80.
ALPHABET = (b'{}[]",:0123456789-.e tvrueflsnabcdx\\\n'
            + bytes(range(0x80, 0x100, 7)))

CONFIGS = {
    "CON/hd": GCConfig(model="CON", policy="hd", cache_capacity=8,
                       window_capacity=4),
    "EVI/pin": GCConfig(model="EVI", policy="pin", cache_capacity=8,
                        window_capacity=4),
    "CON/lru": GCConfig(model="CON", policy="lru", cache_capacity=8,
                        window_capacity=4),
}


def corruptions(data: bytes, seed: int):
    """``(name, bytes)`` pairs: a stride of truncation points, seeded
    byte substitutions, and line deletions, duplications and swaps."""
    rng = random.Random(seed)
    stride = max(1, len(data) // 60)
    for cut in range(0, len(data), stride):
        yield f"truncate@{cut}", data[:cut]
    for i in range(300):
        at = rng.randrange(len(data))
        byte = ALPHABET[rng.randrange(len(ALPHABET))]
        yield f"substitute#{i}@{at}", data[:at] + bytes([byte]) + data[at + 1:]
    lines = data.split(b"\n")
    for i in range(60):
        edited = list(lines)
        a, b = rng.randrange(len(edited)), rng.randrange(len(edited))
        kind = ("delete", "duplicate", "swap")[i % 3]
        if kind == "delete":
            del edited[a]
        elif kind == "duplicate":
            edited.insert(b, edited[a])
        else:
            edited[a], edited[b] = edited[b], edited[a]
        yield f"{kind}#{i}@{a},{b}", b"\n".join(edited)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_corrupt_snapshot_restores_or_raises_snapshot_error(
        name, tmp_path):
    config = CONFIGS[name]
    graphs = generate_aids_like(num_graphs=30, mean_vertices=8.0,
                                std_vertices=3.0, max_vertices=14, seed=3)
    queries = [q.graph for q in generate_type_b(graphs, TypeBConfig(
        num_queries=NUM_QUERIES, no_answer_probability=0.2,
        answer_pool_size=15, no_answer_pool_size=5, seed=4,
    )).queries]
    plan = ChangePlan.generate(graphs, num_queries=NUM_QUERIES,
                               num_batches=2, ops_per_batch=3, seed=5)
    pristine = tmp_path / "pristine.snap.jsonl"
    target = tmp_path / "corrupt.snap.jsonl"
    with GraphCacheService(GraphStore.from_graphs(graphs),
                           config) as service:
        for position, query in enumerate(queries):
            service.apply(plan, position)
            service.execute(query)
        service.save(pristine)
        data = pristine.read_bytes()
        assert service.cache.cache_size
        service.load(pristine)

        leaks = []
        for case, corrupt in corruptions(data, seed=1):
            target.write_bytes(corrupt)
            try:
                service.load(target)
            except SnapshotError:
                pass
            except Exception as exc:    # noqa: BLE001 - the finding
                leaks.append(f"{case}: {exc!r:.200}")
    assert not leaks, f"{len(leaks)} leaks:\n" + "\n".join(leaks[:10])
