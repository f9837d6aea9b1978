"""Symplectic metric spaces over GF(2).

A metric space is a pair (V, mu) where mu: V -> GF(2) vanishes at 0 and its
polarization m(x, y) = mu(x) + mu(y) + mu(x+y) is bilinear.  The mu-table is
stored additively: table bit v is mu(v), with bit convention "binary digits
of v = coordinates, least significant bit = first basis vector".

Every space is classified up to isomorphism by the tuple (eps, delta, r, s):
eps = 1 iff mu is nonzero somewhere on ker m, r = dim ker m - eps, delta the
Arf invariant of the descended nondegenerate form (0 when eps = 1), and
s = (dim V/ker m)/2 - delta.
"""

from __future__ import annotations

import functools
import json
from typing import Iterable, Iterator, Optional

from .f2core import F2Matrix, _eliminate, _set, _solutions, _span, _Value

MAX_RANK = 16  # a rank-16 mu-table has 2^16 bits


class InvariantTuple(_Value):
    """Classification signature (eps, delta, r, s) of a metric space."""

    __slots__ = _fields = ("eps", "delta", "r", "s")
    eps: int
    delta: int
    r: int
    s: int

    def __init__(self, eps: int, delta: int, r: int, s: int) -> None:
        if eps not in (0, 1) or delta not in (0, 1):
            raise ValueError("eps and delta must be 0 or 1")
        if eps and delta:
            raise ValueError("eps = 1 forces delta = 0")
        if r < 0 or s < 0:
            raise ValueError("r and s must be nonnegative")
        _set(self, "eps", eps)
        _set(self, "delta", delta)
        _set(self, "r", r)
        _set(self, "s", s)

    @property
    def ambient_rank(self) -> int:
        return self.r + self.eps + 2 * self.delta + 2 * self.s

    @property
    def defect_value(self) -> int:
        """Closed form (1-eps) * (-1)^delta * 2^(r+s+delta)."""
        return (1 - self.eps) * (-1) ** self.delta * (1 << (self.r + self.s + self.delta))

    def label(self) -> str:
        return f"V_{{{self.r},{self.s};{self.eps},{self.delta}}}"


EPS_DELTA = ((0, 0), (1, 0), (0, 1))  # the admissible (eps, delta) pairs


def admissible_tuples(max_rank: int) -> Iterator[InvariantTuple]:
    """Every tuple of ambient rank <= max_rank: (eps, delta) outermost, then r, then s."""
    for eps, delta in EPS_DELTA:
        room = max_rank - eps - 2 * delta
        for r in range(room + 1):
            for s in range((room - r) // 2 + 1):
                yield InvariantTuple(eps, delta, r, s)


class SymplecticMetricSpace(_Value):
    """(V, m, mu) with mu packed into an integer table of 2^rank bits."""

    __slots__ = _fields = ("rank", "table")
    rank: int
    table: int

    def __init__(self, rank: int, table: int) -> None:
        if rank < 0 or rank > MAX_RANK:
            raise ValueError(f"rank outside supported range 0..{MAX_RANK}")
        if table < 0 or table >> (1 << rank):
            raise ValueError(f"mu-table does not have length 2^{rank}")
        _set(self, "rank", rank)
        _set(self, "table", table)

    @classmethod
    def from_mu_list(cls, mu: list[int]) -> "SymplecticMetricSpace":
        n = len(mu)
        if n == 0 or n & (n - 1):
            raise ValueError(f"mu-table length {n} is not a power of two")
        try:
            if not set(map(type, mu)) <= {int}:
                raise ValueError
            bits = bytes(mu)  # raises ValueError for an int outside 0..255
            if bits.translate(None, b"\0\1"):
                raise ValueError
        except ValueError:
            raise ValueError("mu values must be 0 or 1") from None
        return cls(n.bit_length() - 1, _pack(bits))

    def mu(self, v: int) -> int:
        return (self.table >> v) & 1

    def mu_list(self) -> list[int]:
        return list(_unpack(self.rank, self.table))

    def m(self, x: int, y: int) -> int:
        """Polarized pairing m(x, y) = mu(x) + mu(y) + mu(x+y)."""
        return self.mu(x) ^ self.mu(y) ^ self.mu(x ^ y)


_DIGITS = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


def _pack(bits: list[int] | bytes) -> int:
    """The table whose bit v is bits[v], for a sequence of 0s and 1s."""
    return int(bytes(bits[::-1]).translate(_DIGITS) or b"0", 2)


def _unpack(k: int, table: int) -> bytes:
    """The inverse of _pack for a 2^k-bit table: byte v is bit v."""
    return format(table, f"0{1 << k}b")[::-1].encode().translate(_BITS)


def _gram_rows(space: SymplecticMetricSpace) -> tuple[bytes, list[int]]:
    """(mu, gram) from one unpacking of the table: byte v of mu is mu(v), and
    bit j of gram[i] is m(e_i, e_j)."""
    k = space.rank
    mu = _unpack(k, space.table)

    def shifted(x: int) -> int:  # bit j is mu(x + e_j)
        return sum([mu[x ^ 1 << j] << j for j in range(k)])

    basis, ones = shifted(0), (1 << k) - 1
    return mu, [shifted(1 << i) ^ basis ^ (ones if mu[1 << i] else 0) for i in range(k)]


@functools.cache
def _coordinates(k: int) -> tuple[int, ...]:
    """C_0..C_{k-1}, cached for k <= MAX_RANK: bit v of C_i is bit i of v.

    With h = 2^i, ALL = 2^(2^k) - 1 is (2^h - 1)(2^h + 1)(1 + 2^(2h) + ...),
    so ALL // (2^h + 1) repeats h ones, h zeros; shifted by h it is C_i.
    """
    ones = (1 << (1 << k)) - 1
    return tuple(ones // ((1 << (1 << i)) + 1) << (1 << i) for i in range(k))


def _table_from_basis_data(k: int, basis_mu: list[int], gram_rows: list[int]) -> int:
    """The table of mu(v) = sum_i v_i mu(e_i) + sum_{i<j} v_i v_j g_ij.

    That is the XOR over i of C_i & (mu(e_i) ALL ^ XOR_{j>i, g_ij=1} C_j),
    O(k^2) operations on 2^k-bit ints.  Only the upper triangle of g is
    read, so mu polarizes back to g only if g is symmetric with zero
    diagonal: _gram_rows gives such a g when mu(0) = 0, and so does the
    witness's Gram matrix of its new basis.
    """
    coords = _coordinates(k)
    ones = (1 << (1 << k)) - 1
    table = 0
    for i in range(k):
        acc = ones if basis_mu[i] else 0
        for j in range(i + 1, k):
            if gram_rows[i] >> j & 1:
                acc ^= coords[j]
        table ^= coords[i] & acc
    return table


def _translates(k: int, table: int) -> Iterator[tuple[int, int]]:
    """(x, T_x) for every x in Gray-code order, T_x the table of y -> mu(x + y).

    Each step is one block swap, and only the current table is kept.
    """
    coords = _coordinates(k)
    yield 0, table
    for n in range(1, 1 << k):  # the n-th Gray code n ^ n >> 1 flips bit h = n & -n
        h = n & -n
        c = coords[h.bit_length() - 1]
        table = (table & c) >> h | (table << h) & c
        yield n ^ n >> 1, table


_VALID = "valid symplectic metric space"


def _validity(space: SymplecticMetricSpace, mu: bytes, gram: list[int]) -> str:
    """validate's message for a space whose table unpacks to mu and whose Gram rows are gram.

    The polarization is bilinear exactly when mu is the quadratic form
    mu(v) = sum_i v_i mu(e_i) + sum_{i<j} v_i v_j m(e_i, e_j), which
    _table_from_basis_data builds from the basis values and the Gram matrix.
    """
    if mu[0]:
        return "mu(0) must be 0"
    basis_mu = [mu[1 << i] for i in range(space.rank)]
    if _table_from_basis_data(space.rank, basis_mu, gram) != space.table:
        return "polarization of mu is not bilinear"
    return _VALID


def validate(space: SymplecticMetricSpace) -> tuple[bool, str]:
    """Check mu(0) = 0 and that the polarization is bilinear."""
    reason = _validity(space, *_gram_rows(space))
    return reason == _VALID, reason


def require_valid(space: SymplecticMetricSpace) -> list[int]:
    """The Gram rows of a valid space (bit j of row i is m(e_i, e_j)); raises otherwise."""
    mu, rows = _gram_rows(space)
    reason = _validity(space, mu, rows)
    if reason != _VALID:
        raise ValueError(f"not a symplectic metric space: {reason}")
    return rows


def _split_kernel(mu: bytes, ker: list[int]) -> tuple[list[int], Optional[int]]:
    """(a basis of A_V, a v in ker m with mu(v) = 1, or None if none).

    mu is linear on ker m with basis ker.  With z the first basis vector of
    mu 1, A_V is spanned by the basis vectors of mu 0 and by z + v for the
    other basis vectors v of mu 1; the vectors of mu 1 form the coset z + A_V.
    """
    odd = [v for v in ker if mu[v]]
    z = odd[0] if odd else None
    return [v for v in ker if not mu[v]] + [z ^ v for v in odd[1:]], z


def defect(space: SymplecticMetricSpace) -> int:
    """#\\{mu = 0\\} - #\\{mu = 1\\} by direct count over the table."""
    return (1 << space.rank) - 2 * space.table.bit_count()


def _analyze(
    space: SymplecticMetricSpace, strict: bool = True
) -> tuple[str, bytes, list[int], Optional[list[int]], Optional[InvariantTuple]]:
    """(reason, mu, gram, ker, inv): validate once, then read ker m and
    (eps, delta, r, s) off the same Gram rows.

    reason is validate's message; byte v of mu is mu(v), from the one
    unpacking of the table; bit j of gram[i] is m(e_i, e_j); ker is a basis
    of ker m and inv the invariant tuple, both None for an invalid space.
    An invalid space raises ValueError as require_valid does, or with
    strict=False gives validate's reason.  mu is linear on ker m, so it is
    nonzero there (eps = 1) exactly when it is nonzero on a basis vector.
    """
    mu, rows = _gram_rows(space)
    reason = _validity(space, mu, rows)
    if reason != _VALID:
        if strict:
            raise ValueError(f"not a symplectic metric space: {reason}")
        return reason, mu, rows, None, None
    ker = _solutions(_eliminate(rows), 0, space.rank)[1]
    d = len(ker)
    eps = 1 if any(mu[v] for v in ker) else 0
    t = (space.rank - d) // 2
    if eps:
        delta = 0
    else:
        # mu is constant on ker-m cosets, so coset counts are table counts
        # shifted by dim ker.  A nondegenerate form takes value 1 on
        # 2^(2t-1) -+ 2^(t-1) vectors; the sign is the Arf invariant.
        ones_cosets = space.table.bit_count() >> d
        if ones_cosets == (1 << max(2 * t - 1, 0)) + (1 << (t - 1) if t else 0):
            delta = 1
        elif t == 0 or ones_cosets == (1 << (2 * t - 1)) - (1 << (t - 1)):
            delta = 0
        else:
            raise AssertionError("descended form is not nondegenerate")
    return reason, mu, rows, ker, InvariantTuple(eps, delta, d - eps, t - delta)


def invariants(space: SymplecticMetricSpace) -> InvariantTuple:
    return _analyze(space)[4]


def _block(bits: list[int]) -> tuple[int, int]:
    """(rank, mu table) from an explicit 0/1 list."""
    return len(bits).bit_length() - 1, _pack(bits)


# Standard blocks, as catalog label models tag them: A (one s2), B_s (all
# nonzero s1), C (a Klein four with tags s1, s2, s2), D (rank 3 with exactly
# one s1); s1 is mu = 1 and s2 is mu = 0.
_BLOCK_A = _block([0, 0])
_BLOCK_C = _block([0, 0, 0, 1])
_BLOCK_D = _block([0, 1, 0, 0, 0, 0, 0, 0])


def _block_b(s: int) -> tuple[int, int]:
    return s, ((1 << (1 << s)) - 1) & ~1


def _orthogonal_product(blocks: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Concatenate blocks; mu is the sum of the block values."""
    rank, table = 0, 0
    for brank, btable in blocks:
        # the entries with block coordinates hi are table, complemented where mu(hi) = 1
        size = 1 << rank
        ones = (1 << size) - 1
        product = 0
        for hi in range(1 << brank):
            product |= (table ^ ones if btable >> hi & 1 else table) << hi * size
        rank, table = rank + brank, product
    return rank, table


def canonical(t: InvariantTuple) -> SymplecticMetricSpace:
    """The canonical model, the orthogonal product A^r | B_1^eps | B_2^delta | C^s.

    B_1 is the eps vector, B_2 the hyperbolic pair with mu = 1 on all three
    nonzero vectors, and C a hyperbolic pair with mu = 0 on its basis.
    """
    if t.ambient_rank > MAX_RANK:
        raise ValueError(f"ambient rank {t.ambient_rank} outside supported range 0..{MAX_RANK}")
    blocks = (_BLOCK_A,) * t.r + (_block_b(1),) * t.eps + (_block_b(2),) * t.delta + (_BLOCK_C,) * t.s
    return SymplecticMetricSpace(*_orthogonal_product(blocks))


def transport(space: SymplecticMetricSpace, t: F2Matrix) -> SymplecticMetricSpace:
    """Pull the mu-table back along an invertible matrix: mu'(v) = mu(T v)."""
    k = space.rank
    if t.rows != k or t.cols != k:
        raise ValueError("basis change has wrong shape")
    if not t.is_invertible():
        raise ValueError("basis change is singular")
    mu = _unpack(k, space.table)
    return SymplecticMetricSpace(k, _pack([mu[img] for img in _span(t.column_bits())]))


def is_isomorphic(a: SymplecticMetricSpace, b: SymplecticMetricSpace) -> bool:
    """Equal rank and equal invariants decide isomorphism."""
    return a.rank == b.rank and invariants(a) == invariants(b)


def isomorphism_to_canonical(space: SymplecticMetricSpace) -> F2Matrix:
    """An invertible T with transport(space, T) == canonical(invariants(space)).

    Constructive symplectic Gram-Schmidt: translation-subgroup basis first,
    then the eps vector, then hyperbolic pairs with mu normalized to (0, 0)
    on each pair, the unique (1, 1) pair (if any) routed to the delta slot.
    """
    _, mu, gram, ker, inv = _analyze(space)
    k = space.rank
    trans, z = _split_kernel(mu, ker)
    fixed = trans + ([z] if inv.eps else [])
    pairs: list[tuple[int, int]] = []

    def m(x: int, y: int) -> int:
        return mu[x] ^ mu[y] ^ mu[x ^ y]

    def pairings(x: int) -> int:  # bit i is m(e_i, x)
        return sum(((g & x).bit_count() & 1) << i for i, g in enumerate(gram))

    def clear_cross_pairings(v: int) -> int:
        for e, f in pairs:
            v ^= (m(v, f) * e) ^ (m(v, e) * f)
        return v

    for i in range(k):
        # x is e_i cleared against the pairs so far, so orthogonal to them.
        # It is radical exactly when e_i lies in ker m + span(pairs), as every
        # earlier e_j does; otherwise x starts the next pair, and correcting y
        # below cannot disturb m(x, y).  The walk stops at the last pair.
        x = clear_cross_pairings(1 << i)
        row = pairings(x)
        if not row:
            continue
        y = clear_cross_pairings(row & -row)
        if m(x, y) != 1:
            raise AssertionError("pair reduction lost the pairing")
        # Normalize the mu pattern on the pair to (0, 0) when possible.
        if mu[x] == 1 and mu[y] == 0:
            x, y = y, x
        if mu[x] == 0 and mu[y] == 1:
            y ^= x
        if mu[x] == 1 and z is not None:
            # eps = 1 absorbs a (1, 1) pair: x + z has mu 0.
            x ^= z
            if mu[y] == 1:
                y ^= x
        pairs.append((x, y))
        if len(fixed) + 2 * len(pairs) == k:
            break

    ones = [p for p in pairs if mu[p[0]]]
    zeros = [p for p in pairs if not mu[p[0]]]
    while len(ones) >= 2:
        # Two (1, 1) pairs combine into two (0, 0) pairs.
        (e1, f1), (e2, f2) = ones.pop(), ones.pop()
        a = e1 ^ e2
        p1 = (a, a ^ f1)
        u, w = e2, f1 ^ f2
        if mu[u] == 1 and mu[w] == 0:
            u, w = w, u
        if mu[w] == 1:
            w ^= u
        p2 = (u, w)
        for p in (p1, p2):
            if m(*p) != 1 or mu[p[0]] or mu[p[1]]:
                raise AssertionError("pair combination failed")
        zeros.extend([p1, p2])
    if len(ones) != inv.delta:
        raise AssertionError("Arf count disagrees with invariants")

    ordered = fixed + [c for p in ones + zeros for c in p]
    # Columns of T are the constructed basis in the space's coordinates.
    t = F2Matrix.from_row_bits(ordered, k).transpose()
    # mu(T v) is the quadratic form with basis values mu(b_i) and pairings
    # m(b_i, b_j), so its table is transport(space, t).table in O(k^2) words.
    gram_rows = [
        sum(((p & b).bit_count() & 1) << j for j, b in enumerate(ordered))
        for p in map(pairings, ordered)
    ]
    basis_mu = [mu[b] for b in ordered]
    if not t.is_invertible() or _table_from_basis_data(k, basis_mu, gram_rows) != canonical(inv).table:
        raise AssertionError("constructed basis change does not canonicalize")
    return t


def census(k: int):
    """(valid tables, class map, orbit sizes) for the rank-k mu census.

    Every table with mu(0) = 0 is validated, the valid ones are counted per
    invariant tuple and split into orbits under basis change; 2^(2^k - 1)
    tables, so k <= 4 in practice.
    """
    valid = []
    classes: dict[InvariantTuple, int] = {}
    for table in range(0, 1 << (1 << k), 2):
        space = SymplecticMetricSpace(k, table)
        inv = _analyze(space, strict=False)[4]
        if inv is not None:
            valid.append(space)
            classes[inv] = classes.get(inv, 0) + 1
    # orbit partition under basis transport, by closure over
    # the elementary transvection generators of GL(k, 2)
    gens = [
        F2Matrix.from_row_bits([1 << a | (a == i) << j for a in range(k)], k)
        for i in range(k) for j in range(k) if i != j
    ]
    seen: set[int] = set()
    orbit_sizes = []
    for space in valid:
        if space.table in seen:
            continue
        orbit, todo = {space.table}, [space]
        while todo:
            cur = todo.pop()
            for g in gens:
                moved = transport(cur, g)
                if moved.table not in orbit:
                    orbit.add(moved.table)
                    todo.append(moved)
        seen |= orbit
        orbit_sizes.append(len(orbit))
    return valid, classes, sorted(orbit_sizes)


# mu-table file format: JSON with fields "rank" and "mu" (length 2^rank,
# index v's binary expansion gives coordinates, LSB = basis vector 1).


class _BitLiterals(dict):
    """JSON integer literals to ints: "0" and "1" by lookup, any other by int()."""

    __missing__ = int


_BIT_LITERALS = _BitLiterals({"0": 0, "1": 1})


def to_mu_table_json(space: SymplecticMetricSpace) -> str:
    return json.dumps({"rank": space.rank, "mu": space.mu_list()}, indent=None)


def parse_mu_table(text: str) -> SymplecticMetricSpace:
    # json.loads, not a prebuilt decoder: it is what refuses a leading BOM
    doc = json.loads(text, parse_int=_BIT_LITERALS.__getitem__)
    if not isinstance(doc, dict) or "rank" not in doc or "mu" not in doc:
        raise ValueError("mu-table document needs fields 'rank' and 'mu'")
    rank_field, mu = doc["rank"], doc["mu"]
    if type(rank_field) is not int or not isinstance(mu, list):
        raise ValueError("'rank' must be an integer and 'mu' an array")
    if not 0 <= rank_field <= MAX_RANK:
        raise ValueError(f"rank outside supported range 0..{MAX_RANK}")
    if len(mu) != 1 << rank_field:
        raise ValueError(f"'mu' must have length 2^rank = {1 << rank_field}, got {len(mu)}")
    return SymplecticMetricSpace.from_mu_list(mu)
