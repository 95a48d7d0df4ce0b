"""A growable bit vector mirroring ``java.util.BitSet``.

The paper's Algorithm 2 stores, per cached query, two BitSet structures:
``Answer`` (bit *i* set iff dataset graph *i* was in the query's answer set
at execution time) and ``CGvalid`` (bit *i* set iff that recorded relation
is still valid against the up-to-date dataset).  Both are indexed by
dataset-graph id, which grows monotonically as graphs are added, so the
structure must support cheap logical growth (``extend``), and the pruning
formulas (1)–(5) of the paper need fast bulk AND / OR / AND-NOT.

The implementation packs bits into a single Python ``int``.  CPython big
integers make the bulk boolean operations single C-level operations, which
is both faster and simpler than a list of words.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["BitSet"]


class BitSet:
    """A dynamically sized bit vector with Java-BitSet-like semantics.

    ``size`` tracks the *logical* length (the paper's ``CGvalid.size``):
    bits at index ``>= size`` are conceptually absent and always read as
    ``False``.  Logical length only matters for :meth:`extend` (Algorithm 2
    line 4) and :meth:`complement` (formula (4) complements against the
    up-to-date dataset id space).

    >>> b = BitSet.from_indices([0, 2, 3])
    >>> b.get(2), b.get(1)
    (True, False)
    >>> sorted(b)
    [0, 2, 3]
    """

    __slots__ = ("_bits", "_size")

    def __init__(self, size: int = 0) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self._bits = 0
        self._size = size

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_indices(cls, indices: Iterable[int], size: int | None = None) -> "BitSet":
        """Build a bitset with the given bit indices set.

        When ``size`` is omitted the logical size becomes one past the
        highest set bit.  Indices are validated as they are consumed —
        an out-of-range or negative index raises *before* the bitset is
        materialised, never after partial construction work.
        """
        bits = 0
        top = -1
        for i in indices:
            if i < 0:
                raise ValueError(f"bit index must be non-negative, got {i}")
            if size is not None and i >= size:
                raise ValueError(f"index {i} does not fit in size {size}")
            bits |= 1 << i
            if i > top:
                top = i
        out = cls(size if size is not None else top + 1)
        out._bits = bits
        return out

    @classmethod
    def full(cls, size: int) -> "BitSet":
        """A bitset of logical length ``size`` with every bit set."""
        out = cls(size)
        out._bits = (1 << size) - 1
        return out

    @classmethod
    def from_hex(cls, digits: str, size: int) -> "BitSet":
        """Rebuild a bitset from :meth:`to_hex` output and a logical size.

        The inverse of :meth:`to_hex`; used by the snapshot codec
        (:mod:`repro.persist.snapshot`), which must round-trip ``Answer``
        and ``CGvalid`` indicators bit-identically.  Bits beyond ``size``
        are rejected — a snapshot indicator can never outgrow its
        recorded logical length.
        """
        bits = int(digits, 16) if digits else 0
        if bits < 0:
            raise ValueError(f"hex digits must encode a non-negative "
                             f"value, got {digits!r}")
        if bits >> size:
            raise ValueError(
                f"hex digits {digits!r} set bits beyond logical size {size}"
            )
        out = cls(size)
        out._bits = bits
        return out

    @classmethod
    def from_int(cls, bits: int, size: int) -> "BitSet":
        """The bitset whose set bits are the one bits of the
        non-negative integer ``bits`` (bit *i* ⟺ index *i*), over
        ``size`` logical bits.  Unchecked: for code that chained bulk
        operations on other bitsets' integers and allocates once, for
        the result (:mod:`repro.runtime.pruner`)."""
        out = cls(size)
        out._bits = bits
        return out

    def to_hex(self) -> str:
        """Compact lowercase-hex encoding of the set bits (no prefix).

        ``"0"`` for the empty set; round-trips through :meth:`from_hex`
        together with :attr:`size`.
        """
        return format(self._bits, "x")

    def copy(self) -> "BitSet":
        out = BitSet(self._size)
        out._bits = self._bits
        return out

    # ------------------------------------------------------------------
    # Single-bit access
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Logical length (one past the highest addressable bit)."""
        return self._size

    def get(self, index: int) -> bool:
        """Read bit ``index``; indices beyond the logical size read False."""
        if index < 0:
            raise IndexError(f"bit index must be non-negative, got {index}")
        return bool((self._bits >> index) & 1)

    def set(self, index: int, value: bool = True) -> None:
        """Write bit ``index``; setting a bit grows the logical size.

        Clearing never grows it (Java ``BitSet.clear`` semantics): a bit
        beyond the logical size already reads False, so clearing it is a
        no-op and must not widen the indicator space — snapshots encode
        ``size`` alongside the hex payload, and a spurious grow would
        change every codec round-trip after an out-of-range clear.
        """
        if index < 0:
            raise IndexError(f"bit index must be non-negative, got {index}")
        if value:
            self._bits |= 1 << index
            if index >= self._size:
                self._size = index + 1
        else:
            self._bits &= ~(1 << index)

    def clear(self) -> None:
        """Unset every bit (logical size is retained)."""
        self._bits = 0

    def clear_mask(self, bits: int) -> None:
        """Unset, in place, every index whose bit is one in the integer
        ``bits`` (as computed by the Cache Validator's mask algebra; like
        clearing single bits, it never changes the logical size)."""
        self._bits &= ~bits

    def extend(self, new_size: int) -> None:
        """Grow the logical size; new bits are False (Algorithm 2, line 5).

        Shrinking is rejected: dataset-graph ids are never reused, so the
        indicator spaces only ever grow.
        """
        if new_size < self._size:
            raise ValueError(
                f"cannot shrink BitSet from {self._size} to {new_size}"
            )
        self._size = new_size

    # ------------------------------------------------------------------
    # Bulk operations (formulas (1), (2), (4), (5) of the paper)
    # ------------------------------------------------------------------
    def __and__(self, other: "BitSet") -> "BitSet":
        out = BitSet(max(self._size, other._size))
        out._bits = self._bits & other._bits
        return out

    def __or__(self, other: "BitSet") -> "BitSet":
        out = BitSet(max(self._size, other._size))
        out._bits = self._bits | other._bits
        return out

    def __xor__(self, other: "BitSet") -> "BitSet":
        out = BitSet(max(self._size, other._size))
        out._bits = self._bits ^ other._bits
        return out

    def and_not(self, other: "BitSet") -> "BitSet":
        """Set difference ``self \\ other`` (formula (2))."""
        out = BitSet(self._size)
        out._bits = self._bits & ~other._bits
        return out

    def complement(self, universe_size: int | None = None) -> "BitSet":
        """All bits *not* set, within ``universe_size`` logical bits.

        This is the paper's overline operator in formula (4), where the
        complement of ``CGvalid`` is taken against the up-to-date dataset
        id space.  Defaults to the current logical size.
        """
        n = self._size if universe_size is None else universe_size
        out = BitSet(n)
        out._bits = ~self._bits & ((1 << n) - 1)
        return out

    def intersects(self, other: "BitSet") -> bool:
        return (self._bits & other._bits) != 0

    def contains_all(self, other: "BitSet") -> bool:
        """True iff every bit set in ``other`` is set in ``self``."""
        return (other._bits & ~self._bits) == 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cardinality(self) -> int:
        """Number of set bits."""
        return self._bits.bit_count()

    def is_empty(self) -> bool:
        return self._bits == 0

    def __iter__(self) -> Iterator[int]:
        """Iterate indices of set bits in ascending order."""
        bits = self._bits
        index = 0
        while bits:
            tz = (bits & -bits).bit_length() - 1
            index += tz
            yield index
            bits >>= tz + 1
            index += 1

    def to_set(self) -> set[int]:
        return set(self)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSet):
            return NotImplemented
        # Java BitSet equality ignores logical length; we do too, so that
        # indicator comparisons are insensitive to lazy extension.
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:
        shown = list(self)
        head = ", ".join(map(str, shown[:16]))
        ell = ", ..." if len(shown) > 16 else ""
        return f"BitSet(size={self._size}, bits={{{head}{ell}}})"
