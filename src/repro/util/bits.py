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

    Reads them off the binary digits, lowest first: one C-level
    ``str.find`` per set bit over a string built once, where shifting
    the integer down would copy it once per set bit.

    >>> list(bit_ids(0b101100))
    [2, 3, 5]
    """
    digits = format(bits, "b")[::-1]
    find = digits.find
    gid = find("1")
    while gid >= 0:
        yield gid
        gid = find("1", gid + 1)
