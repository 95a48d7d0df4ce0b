"""BitSet unit and property tests.

BitSet carries the correctness of every pruning formula (the paper's
(1)–(5) are bulk boolean operations on Answer/CGvalid), so it is tested
both directly and against Python ``set`` semantics under hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.util.bitset import BitSet

index_sets = st.sets(st.integers(0, 200), max_size=40)


class TestConstruction:
    def test_empty(self):
        b = BitSet()
        assert b.size == 0
        assert b.is_empty()
        assert b.cardinality() == 0
        assert list(b) == []

    def test_sized_empty(self):
        b = BitSet(10)
        assert b.size == 10
        assert not b.get(3)
        assert b.is_empty()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BitSet(-1)

    def test_from_indices(self):
        b = BitSet.from_indices([0, 5, 2])
        assert sorted(b) == [0, 2, 5]
        assert b.size == 6

    def test_from_indices_with_size(self):
        b = BitSet.from_indices([1], size=10)
        assert b.size == 10
        assert b.get(1)

    def test_from_indices_size_too_small(self):
        with pytest.raises(ValueError):
            BitSet.from_indices([5], size=3)

    def test_from_indices_negative(self):
        with pytest.raises(ValueError):
            BitSet.from_indices([-1])

    def test_full(self):
        b = BitSet.full(5)
        assert b.cardinality() == 5
        assert sorted(b) == [0, 1, 2, 3, 4]

    def test_full_zero(self):
        assert BitSet.full(0).is_empty()

    def test_copy_is_independent(self):
        a = BitSet.from_indices([1, 2])
        b = a.copy()
        b.set(7)
        assert not a.get(7)
        assert a.size == 3 and b.size == 8


class TestSingleBit:
    def test_set_get(self):
        b = BitSet(4)
        b.set(2)
        assert b.get(2)
        assert not b.get(1)

    def test_set_false_clears(self):
        b = BitSet.from_indices([3])
        b.set(3, False)
        assert not b.get(3)
        assert b.is_empty()

    def test_set_grows_size(self):
        b = BitSet(2)
        b.set(9)
        assert b.size == 10

    def test_get_beyond_size_is_false(self):
        b = BitSet(3)
        assert not b.get(100)

    def test_clearing_beyond_size_never_grows(self):
        # Regression (PR 9): set(i, False) past the logical size used to
        # widen _size to i+1 — Java BitSet.clear never grows, and a
        # spurious grow changes the size every snapshot encodes next to
        # the indicator hex.
        b = BitSet.from_indices([0, 2])
        b.set(50, False)
        assert b.size == 3
        assert not b.get(50)

    def test_clear_bit_within_size_keeps_size(self):
        b = BitSet.from_indices([0, 4])
        b.set(2, False)
        assert b.size == 5

    def test_snapshot_codec_size_stable_after_oob_clear(self):
        # The logical size is half the hex round-trip contract: an
        # out-of-range clear must leave from_hex(to_hex(), size) exact.
        b = BitSet.from_indices([1, 3])
        before = (b.to_hex(), b.size)
        b.set(99, False)
        assert (b.to_hex(), b.size) == before
        round_tripped = BitSet.from_hex(b.to_hex(), b.size)
        assert round_tripped == b
        assert round_tripped.size == 4

    def test_negative_index_rejected(self):
        b = BitSet(3)
        with pytest.raises(IndexError):
            b.get(-1)
        with pytest.raises(IndexError):
            b.set(-2)

    def test_clear_keeps_size(self):
        b = BitSet.from_indices([0, 1, 2])
        b.clear()
        assert b.is_empty()
        assert b.size == 3

    def test_extend(self):
        b = BitSet.from_indices([1])
        b.extend(12)
        assert b.size == 12
        assert not b.get(11)
        assert b.get(1)

    def test_extend_shrink_rejected(self):
        b = BitSet(10)
        with pytest.raises(ValueError):
            b.extend(5)


class TestBulkOps:
    def test_and(self):
        a = BitSet.from_indices([1, 2, 3])
        b = BitSet.from_indices([2, 3, 4])
        assert sorted(a & b) == [2, 3]

    def test_or(self):
        a = BitSet.from_indices([1])
        b = BitSet.from_indices([4])
        assert sorted(a | b) == [1, 4]

    def test_xor(self):
        a = BitSet.from_indices([1, 2])
        b = BitSet.from_indices([2, 3])
        assert sorted(a ^ b) == [1, 3]

    def test_and_not(self):
        a = BitSet.from_indices([1, 2, 3])
        b = BitSet.from_indices([2])
        assert sorted(a.and_not(b)) == [1, 3]

    def test_complement_default_universe(self):
        b = BitSet.from_indices([0, 2], size=4)
        assert sorted(b.complement()) == [1, 3]

    def test_complement_explicit_universe(self):
        b = BitSet.from_indices([0])
        assert sorted(b.complement(3)) == [1, 2]

    def test_intersects(self):
        assert BitSet.from_indices([1]).intersects(BitSet.from_indices([1, 2]))
        assert not BitSet.from_indices([1]).intersects(BitSet.from_indices([2]))

    def test_contains_all(self):
        big = BitSet.from_indices([1, 2, 3])
        small = BitSet.from_indices([2, 3])
        assert big.contains_all(small)
        assert not small.contains_all(big)
        assert big.contains_all(BitSet())

    def test_result_size_is_max(self):
        a = BitSet(3)
        b = BitSet(9)
        assert (a | b).size == 9
        assert (a & b).size == 9


class TestDunder:
    def test_eq_ignores_logical_size(self):
        a = BitSet.from_indices([1], size=3)
        b = BitSet.from_indices([1], size=9)
        assert a == b
        assert hash(a) == hash(b)

    def test_eq_other_type(self):
        assert BitSet() != {1}

    def test_bool(self):
        assert not BitSet(5)
        assert BitSet.from_indices([0])

    def test_len_is_logical_size(self):
        assert len(BitSet(7)) == 7

    def test_repr_truncates(self):
        b = BitSet.from_indices(range(32))
        assert "..." in repr(b)

    def test_to_set(self):
        assert BitSet.from_indices([5, 1]).to_set() == {1, 5}


# ----------------------------------------------------------------------
# Property tests: BitSet ≡ set semantics
# ----------------------------------------------------------------------
@given(index_sets, index_sets)
def test_and_matches_set_intersection(xs, ys):
    assert set(BitSet.from_indices(xs) & BitSet.from_indices(ys)) == xs & ys


@given(index_sets, index_sets)
def test_or_matches_set_union(xs, ys):
    assert set(BitSet.from_indices(xs) | BitSet.from_indices(ys)) == xs | ys


@given(index_sets, index_sets)
def test_and_not_matches_set_difference(xs, ys):
    got = BitSet.from_indices(xs).and_not(BitSet.from_indices(ys))
    assert set(got) == xs - ys


@given(index_sets, index_sets)
def test_xor_matches_symmetric_difference(xs, ys):
    assert set(BitSet.from_indices(xs) ^ BitSet.from_indices(ys)) == xs ^ ys


@given(index_sets, st.integers(201, 260))
def test_complement_matches_set_complement(xs, universe):
    got = BitSet.from_indices(xs, size=201).complement(universe)
    assert set(got) == set(range(universe)) - xs


@given(index_sets, index_sets, st.integers(0, 60))
def test_integer_masks_match_set_difference(xs, ys, slack):
    """``from_int`` / ``clear_mask``: the packed-integer side door of
    the pruner and the validator."""
    size = max(xs, default=-1) + 1 + slack
    packed = sum(1 << i for i in xs)
    b = BitSet.from_int(packed, size)
    assert (set(b), b.size) == (xs, size)
    assert b == BitSet.from_indices(xs)
    b.clear_mask(sum(1 << i for i in ys))
    assert (set(b), b.size) == (xs - ys, size)


@given(index_sets)
def test_iteration_sorted_and_cardinality(xs):
    b = BitSet.from_indices(xs)
    assert list(b) == sorted(xs)
    assert b.cardinality() == len(xs)


@given(index_sets, index_sets)
def test_contains_all_matches_superset(xs, ys):
    got = BitSet.from_indices(xs).contains_all(BitSet.from_indices(ys))
    assert got == (ys <= xs)


class TestHexCodec:
    """to_hex/from_hex back the snapshot codec and must round-trip
    Answer/CGvalid indicators bit-identically."""

    def test_empty(self):
        assert BitSet(5).to_hex() == "0"
        restored = BitSet.from_hex("0", 5)
        assert restored.is_empty() and restored.size == 5

    @given(st.sets(st.integers(min_value=0, max_value=200)),
           st.integers(min_value=0, max_value=50))
    def test_round_trip(self, indices, slack):
        size = (max(indices) + 1 if indices else 0) + slack
        original = BitSet.from_indices(indices, size=size)
        restored = BitSet.from_hex(original.to_hex(), original.size)
        assert restored == original
        assert restored.size == original.size

    def test_rejects_bits_beyond_size(self):
        with pytest.raises(ValueError):
            BitSet.from_hex("10", 4)  # bit 4 does not fit size 4
        BitSet.from_hex("f", 4)       # bits 0..3 do

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            BitSet.from_hex("zz", 8)
