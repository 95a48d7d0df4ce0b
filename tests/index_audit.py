"""The query index's full self-check, for the tests that churn it.

:func:`audit` asserts that the buckets, signature groups, packed
signatures and structural map of a :class:`QueryIndex` mirror its entry
population exactly.  Nothing on the query path needs it — lookups read
the same structures and trust them — so it lives here and reads the
index's private fields.
"""

from __future__ import annotations

from repro.cache.entry import CacheEntry
from repro.cache.query_index import (_GUARD, QueryIndex, _feature_fields,
                                     _overflows, _structural_key)

__all__ = ["audit"]


def audit(index: QueryIndex) -> None:
    """Assert ``index``'s buckets, groups, signatures and structural
    map exactly mirror its entry population: no stale ids survive
    eviction/purge, no empty bucket/group/key is retained, every
    entry is findable."""
    bucketed: dict[int, CacheEntry] = {}
    for (bv, be), bucket in index._buckets.items():
        assert bucket, f"empty bucket {(bv, be)} retained"
        for sig_key, group in bucket.items():
            assert group[3], f"empty group {sig_key} retained"
            assert group[0] == sig_key, (
                f"group filed under wrong signature in {(bv, be)}"
            )
            assert group[2] == group[0] | index._all_guards, (
                f"stale guarded signature for group {sig_key}")
            for entry_id, entry in group[3].items():
                assert (entry.num_vertices, entry.num_edges) == \
                    (bv, be), (
                        f"entry {entry_id} filed under wrong bucket "
                        f"{(bv, be)}"
                    )
                assert index._sigs.get(entry_id) is group, (
                    f"entry {entry_id} maps to a different group"
                )
                assert entry_id not in bucketed, (
                    f"entry {entry_id} appears in two groups"
                )
                bucketed[entry_id] = entry
    for entry_id, entry in index._oversized.items():
        assert _overflows(entry.features), (
            f"entry {entry_id} filed as oversized but its features "
            f"are packable"
        )
        assert entry_id not in bucketed, (
            f"oversized entry {entry_id} also appears in a group"
        )
        bucketed[entry_id] = entry
    assert bucketed.keys() == index._entries.keys(), (
        f"bucket population {sorted(bucketed)} != "
        f"entries {sorted(index._entries)}"
    )
    assert all(bucketed[eid] is index._entries[eid] for eid in bucketed), (
        "bucket holds a different object than the entry map"
    )
    assert index._sigs.keys() | index._oversized.keys() == \
        index._entries.keys(), (
            "signature map drifted from the entry population"
        )
    for entry_id, entry in index._entries.items():
        if entry_id in index._oversized:
            continue
        sig = 0
        guards = 0
        for key, count in _feature_fields(entry.features):
            offset = index._offsets[key]
            sig |= count << offset
            guards |= _GUARD << offset
        assert index._sigs[entry_id][0] == sig, (
            f"stale packed signature for entry {entry_id}"
        )
        assert index._sigs[entry_id][1] == guards, (
            f"stale guard mask for entry {entry_id}"
        )
    expected_identical: dict[tuple, dict[int, CacheEntry]] = {}
    for entry_id, entry in index._entries.items():
        expected_identical.setdefault(
            _structural_key(entry.query), {})[entry_id] = entry
    assert index._identical == expected_identical, (
        "structural map drifted from the entry population (or a "
        "cached query was mutated)"
    )
    for same_key in index._identical.values():
        for entry_id, entry in same_key.items():
            oldest = index._holding(same_key, entry.query)
            assert index._sigs.get(entry_id) is \
                index._sigs.get(oldest.entry_id), (
                    f"identical entries {oldest.entry_id} and "
                    f"{entry_id} are filed under different signature "
                    f"groups"
                )
