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

from .f2core import F2Matrix, _combine, _nullspace, _set, _span, _transpose, _Value

MAX_RANK = 16  # a rank-16 mu-table has 2^16 bits


class InvariantTuple(_Value):
    """Classification signature (eps, delta, r, s) of a metric space."""

    __slots__ = _fields = ("eps", "delta", "r", "s")
    eps: int
    delta: int
    r: int
    s: int

    def __init__(self, eps: int, delta: int, r: int, s: int) -> None:
        if type(eps) is not int or type(delta) is not int or type(r) is not int or type(s) is not int:
            raise ValueError("eps, delta, r and s must be ints")  # type(), so a bool is refused too
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
        if type(rank) is not int or type(table) is not int:
            raise ValueError("rank and mu-table must be ints")  # type(), so a bool is refused too
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
    diagonal, as the Gram rows of a valid space (_pairings) and the
    witness's Gram matrix of its new basis are.
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


@functools.cache
def _basis_marks(k: int) -> tuple[tuple[int, int], ...]:
    """(2^(2^j), 2^j) for j < k, cached for k <= MAX_RANK: the table bit of e_j, and e_j."""
    return tuple((1 << (1 << j), 1 << j) for j in range(k))


def _pairings(space: SymplecticMetricSpace) -> tuple[str, Optional[list[int]], Optional[list[int]]]:
    """(reason, func, gram) in one pass over the basis, stopping at the first failure.

    reason is validate's message.  For a valid space, func[b] is the mask
    of {x : m(x, e_b) = 1} and bit j of gram[b] is m(e_j, e_b); both are
    None for an invalid one.  A table has degree <= 2, so a bilinear
    polarization, exactly when each derivative D_b(x) = mu(x) + mu(x + e_b)
    is affine.  D_b is the table XOR its translate by e_b, the block swap
    of _translates; it is unchanged by x -> x + e_b, so the pass keeps only
    its half d on the words without bit b, which holds every e_j but e_b.
    With mu(e_b) added, d(x) is m(x, e_b), and gram[b] is d read at the
    basis words.  So the space is valid exactly when mu(0) = 0 and, for
    every b, d agrees on that half with the linear mask
    _combine(coordinates, gram[b]); that mask is func[b].
    """
    k, table = space.rank, space.table
    if table & 1:
        return "mu(0) must be 0", None, None
    coords, marks = _coordinates(k), _basis_marks(k)
    ones = (1 << (1 << k)) - 1
    func, gram = [], []
    for b, c in enumerate(coords):
        low = ones ^ c
        d = (table ^ table >> (1 << b)) & low
        if table & marks[b][0]:
            d ^= low
        row = 0
        for bit, e in marks:
            if d & bit:
                row |= e
        f = _combine(coords, row)
        if f & low != d:
            return "polarization of mu is not bilinear", None, None
        func.append(f)
        gram.append(row)
    return _VALID, func, gram


def validate(space: SymplecticMetricSpace) -> tuple[bool, str]:
    """Check mu(0) = 0 and that the polarization is bilinear: (verdict, message).

    One _pairings pass, which stops at the first basis vector whose
    derivative is not affine, so most invalid tables fail in one row.
    """
    reason = _pairings(space)[0]
    return reason == _VALID, reason


def require_valid(space: SymplecticMetricSpace) -> tuple[list[int], list[int]]:
    """(func, gram) of a valid space, as _pairings gives them; raises ValueError otherwise.

    func[b] is the mask of {x : m(x, e_b) = 1} and bit j of gram[b] is m(e_j, e_b).
    """
    reason, func, gram = _pairings(space)
    if reason != _VALID:
        raise ValueError(f"not a symplectic metric space: {reason}")
    return func, gram


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
) -> tuple[str, Optional[list[int]], Optional[list[int]], Optional[InvariantTuple]]:
    """(reason, gram, ker, inv): validate once, then read ker m and
    (eps, delta, r, s) off the Gram rows of the same _pairings pass.

    reason is validate's message; bit j of gram[i] is m(e_i, e_j); ker is a
    basis of ker m and inv the invariant tuple.  gram, ker and inv are None
    for an invalid space, which raises ValueError as require_valid does, or
    with strict=False gives validate's reason.  mu is linear on ker m, so it
    is nonzero there (eps = 1) exactly when it is nonzero on a basis vector.
    """
    reason, _, rows = _pairings(space)
    if rows is None:
        if strict:
            raise ValueError(f"not a symplectic metric space: {reason}")
        return reason, None, None, None
    ker = _nullspace(rows, space.rank)
    d = len(ker)
    eps = 1 if any(space.table >> v & 1 for v in ker) else 0
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
    return reason, rows, ker, InvariantTuple(eps, delta, d - eps, t - delta)


def invariants(space: SymplecticMetricSpace) -> InvariantTuple:
    return _analyze(space)[3]


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
    _, gram, ker, inv = _analyze(space)
    k = space.rank
    mu = _unpack(k, space.table)
    trans, z = _split_kernel(mu, ker)
    fixed = trans + ([z] if inv.eps else [])
    pairs: list[tuple[int, int]] = []

    def m(x: int, y: int) -> int:
        return mu[x] ^ mu[y] ^ mu[x ^ y]

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
        row = _combine(gram, x)  # bit j is m(e_j, x): G x, as G is symmetric
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
    rows = _transpose(ordered, k)
    t = F2Matrix.from_row_bits(rows, k)
    # mu(T v) is the quadratic form with basis values mu(b_i) and pairings
    # m(b_i, b_j), so its table is transport(space, t).table in O(k^2) words.
    # Those pairings are T^t G T: row i is the rows of T combined by G b_i.
    gram_rows = [_combine(rows, _combine(gram, b)) for b in ordered]
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
        inv = _analyze(space, strict=False)[3]
        if inv is not None:
            valid.append(space)
            classes[inv] = classes.get(inv, 0) + 1
    # orbit partition under basis transport, by closure over the elementary
    # transvections v -> v + v_j e_i of GL(k, 2); each moves a table by one
    # block swap, as in _translates, on the entries with bit j set
    coords = _coordinates(k)
    swaps = [(coords[j], coords[i], 1 << i) for i in range(k) for j in range(k) if i != j]
    seen: set[int] = set()
    orbit_sizes = []
    for space in valid:
        if space.table in seen:
            continue
        orbit, todo = {space.table}, [space.table]
        while todo:
            table = todo.pop()
            for cj, ci, h in swaps:
                x = table & cj
                moved = table ^ x ^ ((x & ci) >> h | (x << h) & ci)
                if moved not in orbit:
                    orbit.add(moved)
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
