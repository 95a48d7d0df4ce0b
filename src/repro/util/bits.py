"""Id sets as plain integers.

The paper's Algorithm 2 keeps, per cached query, two bit vectors indexed
by dataset-graph id: ``Answer`` and ``CGvalid``.  A non-negative Python
``int`` is that bit vector (bit *i* set ⟺ graph id *i*): the pruning
formulas (1)–(5) are single C-level ``&`` / ``|`` / ``~`` operations on
it, and it grows for free — ids past ``bit_length()`` read 0, which is
Algorithm 2's "extend with False".  The one thing an ``int`` lacks is a
walk over its ids; that is :func:`bit_ids`.
"""

from __future__ import annotations

from collections.abc import Iterator

__all__ = ["bit_ids"]


def bit_ids(bits: int) -> Iterator[int]:
    """The ids of the one bits of the non-negative ``bits``, ascending.

    Skips to the lowest one bit and shifts it out, so the integer
    shrinks as the walk goes (one step per set bit, not per id).

    >>> list(bit_ids(0b101100))
    [2, 3, 5]
    """
    gid = 0
    while bits:
        skip = (bits & -bits).bit_length() - 1
        gid += skip
        yield gid
        bits >>= skip + 1
        gid += 1
