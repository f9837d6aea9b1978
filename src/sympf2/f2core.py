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
        n = self.rows
        work = self.row_bits()
        aug = [1 << i for i in range(n)]
        row = 0
        for col in range(n):
            piv = None
            for i in range(row, n):
                if (work[i] >> col) & 1:
                    piv = i
                    break
            if piv is None:
                raise ValueError("matrix is singular")
            work[row], work[piv] = work[piv], work[row]
            aug[row], aug[piv] = aug[piv], aug[row]
            for i in range(n):
                if i != row and ((work[i] >> col) & 1):
                    work[i] ^= work[row]
                    aug[i] ^= aug[row]
            row += 1
        return F2Matrix.from_row_bits(aug, n)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.row_data)


def _echelonize(row_bits: list[int]) -> list[int]:
    """Reduced row-echelon form of a list of row words; zero rows dropped.

    Pivots taken at the lowest set bit, rows sorted by pivot.  The result is
    the unique canonical basis of the row space.
    """
    basis: list[int] = []
    for v in row_bits:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            low = v & -v
            basis = [b ^ v if b & low else b for b in basis]
            basis.append(v)
    basis.sort(key=lambda b: b & -b)
    return basis


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
        base = [v.bits for v in self.basis]
        for mask in range(1 << len(base)):
            acc = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                acc ^= base[i]
                m &= m - 1
            yield F2Vector(self.ambient_width, acc)


def rank(m: F2Matrix) -> int:
    """Row rank over GF(2)."""
    return len(_echelonize(m.row_bits()))


def nullspace(m: F2Matrix) -> Subspace:
    """Echelon basis of {v : M v = 0}."""
    n = m.cols
    # Eliminate on columns of the transpose so kernel vectors fall out of the
    # augmented identity.
    work = m.column_bits()
    aug = [1 << j for j in range(n)]
    kernel = []
    pivots: list[tuple[int, int]] = []  # (row word, position in aug) pairs
    for j in range(n):
        v, a = work[j], aug[j]
        for pv, pa in pivots:
            low = pv & -pv
            if v & low:
                v ^= pv
                a ^= pa
        if v == 0:
            kernel.append(a)
        else:
            pivots.append((v, a))
    return Subspace.spanned_by(kernel, n)


def solve(m: F2Matrix, b: F2Vector) -> Optional[F2Vector]:
    """Some x with M x = b, or None if the system is inconsistent."""
    if b.width != m.rows:
        raise ValueError("right-hand side width mismatch")
    n = m.cols
    # Row-reduce [M^T | I] and match b against the column space.
    cols = m.column_bits()
    pivots: list[tuple[int, int]] = []
    for j in range(n):
        v, a = cols[j], 1 << j
        for pv, pa in pivots:
            low = pv & -pv
            if v & low:
                v ^= pv
                a ^= pa
        if v:
            pivots.append((v, a))
    x = 0
    r = b.bits
    for pv, pa in pivots:
        low = pv & -pv
        if r & low:
            r ^= pv
            x ^= pa
    if r:
        return None
    return F2Vector(n, x)


def gl_order(n: int) -> int:
    """|GL(n, 2)| = prod_{i<n} (2^n - 2^i)."""
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
