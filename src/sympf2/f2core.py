"""Bit-packed linear algebra over GF(2).

Vectors are machine words (one bit per coordinate, bit i = coordinate on
basis vector i), matrices are tuples of row words.  Everything is immutable
and hashable, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

MAX_WIDTH = 64


def _check_width(width: int) -> None:
    if not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"dimension {width} outside supported range 0..{MAX_WIDTH}")


@dataclass(frozen=True)
class F2Vector:
    """A vector in GF(2)^width, packed into a single word."""

    width: int
    bits: int

    def __post_init__(self) -> None:
        _check_width(self.width)
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError(f"bits {self.bits:#x} do not fit in width {self.width}")

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "F2Vector":
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= c << i
        return cls(len(coords), bits)

    def coords(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.width)]

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.width != other.width:
            raise ValueError("width mismatch")
        return F2Vector(self.width, self.bits ^ other.bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __str__(self) -> str:
        return "".join(str(c) for c in self.coords())


@dataclass(frozen=True)
class F2Matrix:
    """A rows x cols matrix over GF(2); row_data[i] is row i."""

    rows: int
    cols: int
    row_data: tuple[F2Vector, ...]

    def __post_init__(self) -> None:
        if len(self.row_data) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.row_data:
            if r.width != self.cols:
                raise ValueError("row width mismatch")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "F2Matrix":
        vecs = tuple(F2Vector.from_coords(r) for r in rows)
        cols = vecs[0].width if vecs else 0
        return cls(len(vecs), cols, vecs)

    @classmethod
    def from_row_bits(cls, row_bits: Sequence[int], cols: int) -> "F2Matrix":
        return cls(len(row_bits), cols, tuple(F2Vector(cols, b) for b in row_bits))

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls.from_row_bits([1 << i for i in range(n)], n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls.from_row_bits([0] * rows, cols)

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

    def entry(self, i: int, j: int) -> int:
        return (self.row_data[i].bits >> j) & 1

    def apply(self, v: F2Vector) -> F2Vector:
        """Matrix-vector product M v."""
        if v.width != self.cols:
            raise ValueError("width mismatch")
        out = 0
        for i, r in enumerate(self.row_data):
            out |= ((r.bits & v.bits).bit_count() & 1) << i
        return F2Vector(self.rows, out)

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        other_rows = other.row_bits()
        out = []
        for r in self.row_data:
            acc = 0
            b = r.bits
            while b:
                k = (b & -b).bit_length() - 1
                acc ^= other_rows[k]
                b &= b - 1
            out.append(acc)
        return F2Matrix.from_row_bits(out, other.cols)

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_row_bits(self.column_bits(), self.rows)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and rank(self) == self.rows

    def inverse(self) -> "F2Matrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        # full rank leaves unit rows e_p = combo_p . M: the combos are the rows of M^-1
        pivots, deps = _eliminate(self.row_bits(), combos=True)
        if deps:
            raise ValueError("matrix is singular")
        return F2Matrix.from_row_bits([c for _, c, _ in sorted(pivots, key=lambda p: p[2])], self.rows)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.row_data)


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


def _eliminate(rows: Sequence[int], combos: bool = False) -> _System:
    """The system of the constraints rows[i], with combos only when asked."""
    system: _System = ([], [])
    for i, row in enumerate(rows):
        system = _add_constraint(system, row, 1 << i if combos else 0)
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


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^ambient_width given by its reduced echelon basis.

    Equality of subspaces is equality of the basis tuples.
    """

    ambient_width: int
    basis: tuple[F2Vector, ...]

    def __post_init__(self) -> None:
        bits = [v.bits for v in self.basis]
        if _echelonize(bits) != bits:
            raise ValueError("basis is not in reduced echelon form")
        for v in self.basis:
            if v.width != self.ambient_width:
                raise ValueError("basis width mismatch")

    @classmethod
    def spanned_by(cls, vectors: Sequence[F2Vector] | Sequence[int], ambient_width: int) -> "Subspace":
        bits = [v.bits if isinstance(v, F2Vector) else v for v in vectors]
        ech = _echelonize(bits)
        return cls(ambient_width, tuple(F2Vector(ambient_width, b) for b in ech))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: F2Vector | int) -> bool:
        bits = v.bits if isinstance(v, F2Vector) else v
        for bv in self.basis:
            b = bv.bits
            low = b & -b
            if bits & low:
                bits ^= b
        return bits == 0

    def elements(self) -> Iterator[F2Vector]:
        """All 2^dim elements, in subset order of the basis."""
        for x in _span([v.bits for v in self.basis]):
            yield F2Vector(self.ambient_width, x)


def rank(m: F2Matrix) -> int:
    """Row rank over GF(2)."""
    return len(_eliminate(m.row_bits())[0])


def nullspace(m: F2Matrix) -> Subspace:
    """Echelon basis of {v : M v = 0}."""
    return Subspace.spanned_by(_solutions(_eliminate(m.row_bits()), 0, m.cols)[1], m.cols)


def solve(m: F2Matrix, b: F2Vector) -> Optional[F2Vector]:
    """Some x with M x = b, or None if the system is inconsistent."""
    if b.width != m.rows:
        raise ValueError("right-hand side width mismatch")
    x = _solutions(_eliminate(m.row_bits(), combos=True), b.bits, m.cols)[0]
    return None if x is None else F2Vector(m.cols, x)


def gl_order(n: int) -> int:
    """|GL(n, 2)| = prod_{i<n} (2^n - 2^i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


GL_ENUMERATION_BOUND = 5


def enumerate_gl(n: int) -> Iterator[F2Matrix]:
    """Yield every invertible n x n matrix over GF(2) exactly once.

    Rows are chosen lexicographically, so the stream is deterministic.
    Bounded at n <= 5; the count is gl_order(n).
    """
    if n > GL_ENUMERATION_BOUND:
        raise ValueError(
            f"enumerate_gl is bounded at n <= {GL_ENUMERATION_BOUND}; "
            f"use gl_order({n}) for the count"
        )
    if n == 0:
        yield F2Matrix.identity(0)
        return
    size = 1 << n
    in_span = bytearray(size)
    in_span[0] = 1
    picked: list[int] = []
    span_elems = [0]

    def extend(depth: int) -> Iterator[F2Matrix]:
        for v in range(1, size):
            if in_span[v]:
                continue
            picked.append(v)
            added = []
            for s in span_elems:
                w = s ^ v
                in_span[w] = 1
                added.append(w)
            span_elems.extend(added)
            if depth + 1 == n:
                yield F2Matrix.from_row_bits(picked, n)
            else:
                yield from extend(depth + 1)
            for w in added:
                in_span[w] = 0
            del span_elems[len(span_elems) - len(added):]
            picked.pop()

    yield from extend(0)
