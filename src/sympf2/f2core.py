"""Bit-packed linear algebra over GF(2).

Vectors are machine words (one bit per coordinate, bit i = coordinate on
basis vector i), matrices are tuples of row words.  Everything is immutable
and hashable, so values can be shared freely across threads.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

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
        cols = [0] * self.cols
        for i, r in enumerate(self.row_data):
            b = r.bits
            while b:
                j = (b & -b).bit_length() - 1
                cols[j] |= 1 << i
                b &= b - 1
        return cols

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_row_bits(self.column_bits(), self.rows)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and rank(self) == self.rows


# A linear system over GF(2) in reduced echelon form, grown one constraint
# parity(row & w) = rhs_i at a time: (pivots, dependencies).  Each pivot is
# (row, combo, pivot bit), where the combo's bit i is set when constraint i
# was added into the row, so the row's right-hand side is the parity of
# combo & rhs for any right-hand-side vector rhs.  The dependencies are the
# combos of added constraints that reduced to zero; a zero combo constrains
# nothing and is not kept.  This is the package's one elimination routine:
# the automorphism search grows and drops such systems level by level, and
# everything else builds one with _eliminate.
_System = tuple[list[tuple[int, int, int]], list[int]]


def _add_constraint(system: _System, row: int, combo: int) -> _System:
    pivots, deps = system
    for prow, pcombo, pbit in pivots:
        if row & pbit:
            row ^= prow
            combo ^= pcombo
    if not row:
        return pivots, deps + [combo] if combo else deps
    pbit = row & -row
    reduced = [
        (prow ^ row, pcombo ^ combo, q) if prow & pbit else (prow, pcombo, q)
        for prow, pcombo, q in pivots
    ]
    reduced.append((row, combo, pbit))
    return reduced, deps


def _solutions(system: _System, rhs: int, width: int) -> tuple[Optional[int], list[int]]:
    """(particular solution, homogeneous basis) over GF(2)^width for the
    right-hand sides rhs, or (None, []) when inconsistent."""
    pivots, deps = system
    for combo in deps:
        if (combo & rhs).bit_count() & 1:
            return None, []
    particular = 0
    pivot_mask = 0
    for _, combo, pbit in pivots:
        pivot_mask |= pbit
        if (combo & rhs).bit_count() & 1:
            particular |= pbit
    basis = []
    for b in range(width):
        fb = 1 << b
        if fb & pivot_mask:
            continue
        v = fb
        for row, _, pbit in pivots:
            if row & fb:
                v |= pbit
        basis.append(v)
    return particular, basis


def _eliminate(rows: Sequence[int]) -> _System:
    """The system of the constraints rows[i], every combo 0 (for rhs = 0)."""
    system: _System = ([], [])
    for row in rows:
        system = _add_constraint(system, row, 0)
    return system


def _echelonize(row_bits: list[int]) -> list[int]:
    """Reduced row-echelon form of a list of row words; zero rows dropped.

    Pivots taken at the lowest set bit, rows sorted by pivot.  The result is
    the unique canonical basis of the row space.
    """
    return [row for row, _, _ in sorted(_eliminate(row_bits)[0], key=lambda p: p[2])]


def _span(vectors: Sequence[int]) -> list[int]:
    """All subset sums: entry v is the XOR of vectors[i] over the set bits i of v."""
    table = [0]
    for w in vectors:
        table += [x ^ w for x in table]
    return table


def rank(m: F2Matrix) -> int:
    """Row rank over GF(2)."""
    return len(_eliminate(m.row_bits())[0])


def gl_order(n: int) -> int:
    """|GL(n, 2)| = prod_{i<n} (2^n - 2^i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out

