"""Id sets as plain integers: the id walk and the indicator codec.

``Answer``, ``CGvalid`` and every id set of the pipeline are ``int``
values (bit *i* ⟺ graph id *i*).  Two pieces of code are theirs alone:
:func:`repro.util.bits.bit_ids`, the walk over an id set, and the
snapshot codec's ``{size, hex}`` form of an indicator
(:mod:`repro.persist.snapshot`).  Both are tested here, the walk against
a naive per-bit scan under hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.persist.snapshot import (
    SnapshotFormatError,
    _decode_indicator,
    _encode_indicator,
)
from repro.util.bits import bit_ids
from tests.conftest import id_mask, packed_ids

index_sets = st.sets(st.integers(0, 200), max_size=40)


class TestConstruction:
    def test_empty(self):
        assert list(bit_ids(0)) == []
        assert _encode_indicator(0) == {"size": 0, "hex": "0"}

    def test_negative_size_rejected(self):
        with pytest.raises(SnapshotFormatError, match="non-negative"):
            _decode_indicator({"size": -1, "hex": "0"}, "valid")


# ----------------------------------------------------------------------
# Property tests: the id walk
# ----------------------------------------------------------------------
@given(index_sets)
def test_iteration_sorted_and_cardinality(xs):
    bits = id_mask(xs)
    assert list(bit_ids(bits)) == sorted(xs)
    assert bits.bit_count() == len(xs)


#: a few ids, the highest of them at or past 10⁵: a dataset of that many
#: graphs in its late life, where most ids were deleted
sparse_wide = st.builds(lambda top, ids: id_mask(ids) | 1 << top,
                        st.integers(10**5, 2 * 10**5),
                        st.sets(st.integers(0, 2 * 10**5), max_size=12))


@example(0)
@given(st.one_of(st.integers(min_value=0, max_value=2**300), sparse_wide))
def test_id_walk_equals_a_naive_scan(bits):
    assert list(bit_ids(bits)) == packed_ids(bits)


class TestHexCodec:
    """The codec's ``{size, hex}`` pair round-trips Answer/CGvalid
    indicators bit-identically; ``size`` is the indicator's
    ``bit_length()`` and, on decode, a corruption check."""

    def test_empty(self):
        assert _encode_indicator(0) == {"size": 0, "hex": "0"}
        assert _decode_indicator({"size": 5, "hex": "0"}, "answer") == 0

    @given(st.sets(st.integers(min_value=0, max_value=200)),
           st.integers(min_value=0, max_value=50))
    def test_round_trip(self, indices, slack):
        bits = id_mask(indices)
        encoded = _encode_indicator(bits)
        assert encoded["size"] == bits.bit_length()
        assert _decode_indicator(encoded, "answer") == bits
        # Older writers recorded a logical length past the highest bit:
        # any such size decodes to the same set.
        wider = {"size": encoded["size"] + slack, "hex": encoded["hex"]}
        assert _decode_indicator(wider, "answer") == bits

    def test_rejects_bits_beyond_size(self):
        with pytest.raises(SnapshotFormatError, match="beyond"):
            # bit 4 does not fit size 4
            _decode_indicator({"size": 4, "hex": "10"}, "valid")
        assert _decode_indicator({"size": 4, "hex": "f"}, "valid") == 0b1111

    def test_rejects_garbage(self):
        for obj in ({"size": 8, "hex": "zz"}, {"size": 8, "hex": "-1"},
                    {"size": 2.0, "hex": "1"}, {"size": "8", "hex": "1"},
                    {"hex": "1"}, {"size": 8}, [8, "1"]):
            with pytest.raises(SnapshotFormatError, match="bad valid"):
                _decode_indicator(obj, "valid")
