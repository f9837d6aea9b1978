"""Exact projective monomial matrix models.

Elements are monomial matrices with entries in the unit set {1, -1, i, -i,
j, -j, k, -k}, optionally twisted by an antilinear conjugation flag, and
taken modulo the scalar unit group of the field mode (real: +-1, complex:
+-1 and +-i, quaternion: the central +-1 only).  Products, inverses,
squares and commutators stay monomial, so all arithmetic is exact.
Canonical constructions are kept as tensor-slot words (q, x, z) and become
matrices only on request; generator files take the general matrix path.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .f2core import _set, _span, _Value
from .sms import InvariantTuple, SymplecticMetricSpace, _pack, require_valid

# Units are encoded 0..7 as axis | sign<<2 with axes (1, i, j, k); the code
# order (+1, +i, +j, +k, -1, -i, -j, -k) is also the canonicalization order.
UNIT_NAMES = ("1", "i", "j", "k", "-1", "-i", "-j", "-k")
UNIT_CODES = {name: code for code, name in enumerate(UNIT_NAMES)}


def _build_unit_table() -> tuple[tuple[int, ...], ...]:
    def mul_axes(a: int, b: int) -> tuple[int, int]:
        if a == 0:
            return b, 0
        if b == 0:
            return a, 0
        if a == b:
            return 0, 1
        cyclic = {
            (1, 2): (3, 0), (2, 1): (3, 1),
            (2, 3): (1, 0), (3, 2): (1, 1),
            (3, 1): (2, 0), (1, 3): (2, 1),
        }
        return cyclic[(a, b)]

    out = []
    for a in range(8):
        row = []
        for b in range(8):
            ax, extra = mul_axes(a & 3, b & 3)
            sign = (a >> 2) ^ (b >> 2) ^ extra
            row.append(ax | (sign << 2))
        out.append(tuple(row))
    return tuple(out)


UNIT_MUL = _build_unit_table()


def unit_conj(a: int) -> int:
    """Quaternion conjugate: fixes +-1, negates i, j, k."""
    return a if (a & 3) == 0 else a ^ 4


def unit_complex_conj(a: int) -> int:
    """Complex conjugation; only the 1 and i axes may appear."""
    if (a & 3) >= 2:
        raise ValueError("complex conjugation applied to a quaternion unit")
    return a ^ 4 if (a & 3) == 1 else a


_MODE_AXES = {"real": {0}, "complex": {0, 1}, "quaternion": {0, 1, 2, 3}}
# scalars defining projective equality; for quaternions only the center
_MODE_SCALARS = {"real": (0, 4), "complex": (0, 1, 4, 5), "quaternion": (0, 4)}


class MonomialMatrix(_Value):
    """n x n monomial matrix: column c holds entries[c] at row perm[c]."""

    __slots__ = _fields = ("n", "perm", "entries", "field_mode")
    n: int
    perm: tuple[int, ...]
    entries: tuple[int, ...]
    field_mode: str

    def __init__(
        self, n: int, perm: tuple[int, ...], entries: tuple[int, ...], field_mode: str
    ) -> None:
        if field_mode not in _MODE_AXES:
            raise ValueError(f"unknown field mode {field_mode!r}")
        if sorted(perm) != list(range(n)) or len(entries) != n:
            raise ValueError("not a permutation with one entry per column")
        axes = _MODE_AXES[field_mode]
        for e in entries:
            if not isinstance(e, int) or not 0 <= e < 8 or (e & 3) not in axes:
                raise ValueError(f"entry {e!r} is not a unit of mode {field_mode}")
        _set(self, "n", n)
        _set(self, "perm", perm)
        _set(self, "entries", entries)
        _set(self, "field_mode", field_mode)

    @classmethod
    def _unchecked(
        cls, n: int, perm: tuple[int, ...], entries: tuple[int, ...], field_mode: str
    ) -> "MonomialMatrix":
        # products and scalings of valid monomials are valid; skip the
        # O(n log n) revalidation on these hot paths
        obj = object.__new__(cls)
        _set(obj, "n", n)
        _set(obj, "perm", perm)
        _set(obj, "entries", entries)
        _set(obj, "field_mode", field_mode)
        return obj

    # The closure's seen set hashes and compares every product: spelled out,
    # these beat the base's attrgetter calls.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.n, self.perm, self.entries, self.field_mode) == (
                other.n, other.perm, other.entries, other.field_mode
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.perm, self.entries, self.field_mode))

    @classmethod
    def identity(cls, n: int, field_mode: str) -> "MonomialMatrix":
        return cls(n, tuple(range(n)), (0,) * n, field_mode)

    @classmethod
    def scalar(cls, n: int, unit: int, field_mode: str) -> "MonomialMatrix":
        return cls(n, tuple(range(n)), (unit,) * n, field_mode)

    @classmethod
    def diagonal(cls, units: Iterable[int], field_mode: str) -> "MonomialMatrix":
        us = tuple(units)
        return cls(len(us), tuple(range(len(us))), us, field_mode)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.n != other.n or self.field_mode != other.field_mode:
            raise ValueError("size or mode mismatch")
        sp, se, op, oe = self.perm, self.entries, other.perm, other.entries
        mul = UNIT_MUL
        perm = tuple([sp[p] for p in op])
        entries = tuple([mul[se[p]][e] for p, e in zip(op, oe)])
        return MonomialMatrix._unchecked(self.n, perm, entries, self.field_mode)

    def inverse(self) -> "MonomialMatrix":
        perm = [0] * self.n
        entries = [0] * self.n
        for c in range(self.n):
            perm[self.perm[c]] = c
            entries[self.perm[c]] = unit_conj(self.entries[c])
        return MonomialMatrix._unchecked(self.n, tuple(perm), tuple(entries), self.field_mode)

    def conj_entries(self) -> "MonomialMatrix":
        """Entrywise complex conjugation (the twist across an antilinear factor)."""
        return MonomialMatrix._unchecked(
            self.n, self.perm, tuple(unit_complex_conj(e) for e in self.entries), self.field_mode
        )

    def scale(self, unit: int) -> "MonomialMatrix":
        """Left multiplication by a scalar unit."""
        mul = UNIT_MUL[unit]
        return MonomialMatrix._unchecked(
            self.n, self.perm, tuple(mul[e] for e in self.entries), self.field_mode
        )

    def is_scalar(self) -> bool:
        return self.perm == tuple(range(self.n)) and len(set(self.entries)) <= 1


# Left multiplication by distinct units gives distinct first entries, so the
# first entry alone decides which scalar multiple has the smallest entry
# tuple: _BEST_SCALAR[mode][e] is the mode scalar minimizing lam * e.
_BEST_SCALAR = {
    mode: tuple(min(scalars, key=lambda lam: UNIT_MUL[lam][e]) for e in range(8))
    for mode, scalars in _MODE_SCALARS.items()
}


def _canonical_scalar_form(m: MonomialMatrix) -> MonomialMatrix:
    lam = _BEST_SCALAR[m.field_mode][m.entries[0]] if m.n else 0
    return m if lam == 0 else m.scale(lam)


class ProjectiveElement(_Value):
    """A monomial matrix modulo scalars, with an optional antilinear flag.

    Instances are stored as the canonical scalar representative: among the
    scalar multiples, the one whose entry tuple is smallest in the unit
    code order (+1, +i, +j, +k, -1, -i, -j, -k), so the first nonzero
    entry in column order is minimized.
    """

    __slots__ = _fields = ("matrix", "conj")
    matrix: MonomialMatrix
    conj: bool

    def __init__(self, matrix: MonomialMatrix, conj: bool = False) -> None:
        if conj and matrix.field_mode != "complex":
            raise ValueError("antilinear flag only exists in complex mode")
        _set(self, "matrix", _canonical_scalar_form(matrix))
        _set(self, "conj", conj)

    # hot in the closure's seen set, as for MonomialMatrix
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.matrix, self.conj) == (other.matrix, other.conj)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.matrix, self.conj))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def field_mode(self) -> str:
        return self.matrix.field_mode


def _raw_mul(
    ma: MonomialMatrix, fa: bool, mb: MonomialMatrix, fb: bool
) -> tuple[MonomialMatrix, bool]:
    rhs = mb.conj_entries() if fa else mb
    return ma * rhs, fa != fb


def multiply(a: ProjectiveElement, b: ProjectiveElement) -> ProjectiveElement:
    """(A, a)(B, b) = (A sigma^a(B), a xor b), sigma = entrywise conjugation."""
    if a.n != b.n or a.field_mode != b.field_mode:
        raise ValueError("size or mode mismatch")
    mat, flag = _raw_mul(a.matrix, a.conj, b.matrix, b.conj)
    return ProjectiveElement(mat, flag)


def inverse(a: ProjectiveElement) -> ProjectiveElement:
    inv = a.matrix.inverse()
    return ProjectiveElement(inv.conj_entries() if a.conj else inv, a.conj)


def identity(n: int, field_mode: str) -> ProjectiveElement:
    return ProjectiveElement(MonomialMatrix.identity(n, field_mode))


def square_scalar(x: ProjectiveElement) -> int:
    """Unit scalar lambda with x^2 = lambda I; errors if x^2 is not scalar.

    Unit scalars have norm one, so lambda does not depend on the scalar
    representative; for antilinear x it distinguishes the two outer classes
    (the square of the associated real structure).
    """
    raw, _ = _raw_mul(x.matrix, x.conj, x.matrix, x.conj)
    if not raw.is_scalar():
        raise ValueError("not a projective involution: square is not scalar")
    return raw.entries[0] if raw.n else 0


def commutator_scalar(x: ProjectiveElement, y: ProjectiveElement) -> int:
    """Unit scalar lambda with x y x^-1 y^-1 = lambda I.

    Read from the raw products: x y x^-1 y^-1 = lambda I exactly when
    x y = lambda (y x), antilinear factors included, since both products
    carry the flag of x xor that of y.  So lambda = a_0 conj(b_0) from the
    first entries a of x y and b of y x, and the pair commutes projectively
    exactly when the two perms agree and lambda b_c = a_c in every column.
    """
    if x.n != y.n or x.field_mode != y.field_mode:
        raise ValueError("size or mode mismatch")
    xy, _ = _raw_mul(x.matrix, x.conj, y.matrix, y.conj)
    yx, _ = _raw_mul(y.matrix, y.conj, x.matrix, x.conj)
    lam = UNIT_MUL[xy.entries[0]][unit_conj(yx.entries[0])] if xy.n else 0
    if xy.perm != yx.perm or yx.scale(lam).entries != xy.entries:
        raise ValueError("pair does not projectively commute")
    return lam


def _mu_bit(scalar: int) -> int:
    if scalar == 0:
        return 0
    if scalar == 4:
        return 1
    raise ValueError("scalar is not +-1; element has no mu value")


def _element_key(e: ProjectiveElement) -> tuple:
    return e.conj, e.matrix.perm, e.matrix.entries


class GeneratedSubgroup(_Value):
    """Closure of a generator list inside the projective unitary quotient.

    Compared and shown by generators and elements; used (the generators
    that added a coset) and chain (the elements in build order) record how
    generate() built it.
    """

    _fields = ("generators", "elements")
    __slots__ = _fields + ("used", "chain")
    generators: tuple[ProjectiveElement, ...]
    elements: tuple[ProjectiveElement, ...]
    used: tuple[ProjectiveElement, ...]
    chain: tuple[ProjectiveElement, ...]

    def __init__(
        self,
        generators: tuple[ProjectiveElement, ...],
        elements: tuple[ProjectiveElement, ...],
        used: tuple[ProjectiveElement, ...],
        chain: tuple[ProjectiveElement, ...],
    ) -> None:
        _set(self, "generators", generators)
        _set(self, "elements", elements)
        _set(self, "used", used)
        _set(self, "chain", chain)

    @classmethod
    def generate(
        cls, generators: Iterable[ProjectiveElement], cap: int = 1 << 13
    ) -> "GeneratedSubgroup":
        """Closure of the generators, built coset by coset.

        This is Dimino's algorithm (as in Butler, Fundamental Algorithms for
        Permutation Groups, LNCS 559, 1991).  Let H be the group generated
        by the generators before g, and K the group generated with g; g is
        skipped when it lies in H.  K is a union of right cosets H r, and
        right multiplication by a generator s of K maps H r onto H (r s).
        H together with the cosets reached from H g through the products
        r s, one per coset representative r and generator s of K, is closed
        under right multiplication by every generator, so it is K.  Each
        new coset costs |H| - 1 products.  Raises ValueError exactly when
        the closure has more than cap elements, before adding the coset
        that would pass it.
        """
        gens = tuple(generators)
        if not gens:
            raise ValueError("no generators; use trivial() for the trivial group")
        elements = [identity(gens[0].n, gens[0].field_mode)]
        seen = set(elements)
        used: list[ProjectiveElement] = []
        for g in gens:
            if g in seen:
                continue
            used.append(g)
            subgroup = elements[1:]  # H without its identity
            reps = [g]
            for r in reps:  # grows while it is scanned
                if r in seen:  # its coset is in, and that coset's products are queued
                    continue
                if len(seen) + len(subgroup) >= cap:
                    raise ValueError("closure exceeds the size cap")
                coset = [r] + [multiply(h, r) for h in subgroup]
                elements += coset
                seen.update(coset)
                reps += [multiply(r, s) for s in used]
        return cls(gens, tuple(sorted(seen, key=_element_key)), tuple(used), tuple(elements))

    @classmethod
    def trivial(cls, n: int, field_mode: str) -> "GeneratedSubgroup":
        return cls((), (identity(n, field_mode),), (), (identity(n, field_mode),))

    def order(self) -> int:
        return len(self.elements)

    def rank(self) -> int:
        o = self.order()
        if o & (o - 1):
            raise ValueError("order is not a power of two")
        return o.bit_length() - 1


def extract_sms(group: GeneratedSubgroup | CanonicalSubgroup) -> SymplecticMetricSpace:
    """Tabulate mu over an F2 basis of an elementary abelian subgroup.

    mu comes from square scalars, the pairing from commutator scalars (read
    off x y against y x, once per unordered basis pair); the two must
    satisfy m = polarization of mu, and a mismatch is raised as a modeling
    bug.  The basis is the generator list when it is independent (so
    canonical constructions, tabulated on their tensor-slot words, give
    canonical tables bit for bit), else the greedy basis of the sorted
    elements.  Groups containing antilinear elements are rejected; their
    inner parts classify through the twisted comparison identities instead.

    A GeneratedSubgroup is read off generate()'s build order with no
    products: each used generator g_j of an elementary abelian group
    doubles the closure, chain[2^j + i] = chain[i] g_j, so chain[v] is the
    product over the subset v, and a closure that did not double is
    refused.  The tests multiply the subset products out again as the
    reference.
    """
    if isinstance(group, CanonicalSubgroup):
        return _tabulate(group.words, group._products, _word_square, _word_commutator)
    if any(e.conj for e in group.elements):
        raise ValueError("antilinear elements present: extract the inner part instead")
    chain = group.chain
    if len(chain) != 1 << len(group.used):
        raise ValueError("not elementary abelian: the closure did not double at each generator")
    if len(group.used) == len(group.generators):
        basis, coords = group.used, [1 << j for j in range(len(group.used))]
    else:
        basis, coords, span = [], [], {0}
        for v in sorted(range(len(chain)), key=lambda v: _element_key(chain[v])):
            if v not in span:
                basis.append(chain[v])
                coords.append(v)
                span |= {x ^ v for x in span}
    return _tabulate(basis, [chain[x] for x in _span(coords)], square_scalar, commutator_scalar)


def _tabulate(
    basis: Sequence, elem_of: Sequence, square: Callable, commutator: Callable
) -> SymplecticMetricSpace:
    """mu from square(elem_of[v]), checked against commutator() on the basis.

    One check per unordered pair i < j: commutator(x, x) = 1 and m(v, v) = 0,
    and commutator(y, x) = commutator(x, y)^-1 while m is symmetric, so the
    other pairs pass or fail with these and the first failure is the same.
    """
    k = len(basis)
    space = SymplecticMetricSpace(k, _pack([_mu_bit(square(e)) for e in elem_of]))
    require_valid(space)
    for i, j in itertools.combinations(range(k), 2):
        if _mu_bit(commutator(basis[i], basis[j])) != space.m(1 << i, 1 << j):
            raise ValueError("mu/m compatibility violation: modeling bug")
    return space


# --- tensor-slot words ----------------------------------------------------------
#
# Every generator of a canonical construction is q X^x Z^z on n = 2^slots
# coordinates: column c holds q (-1)^{|z & c|} at row c ^ x.  The word
# (q, x, z) is the binary symplectic form of a Pauli operator (Aaronson and
# Gottesman, PRA 70, 052328, 2004), so products, square scalars and
# commutator scalars are a unit-table lookup plus popcount parities.

_Word = tuple[int, int, int]


def _word_mul(a: _Word, b: _Word) -> _Word:
    """The word of the matrix product a b."""
    q1, x1, z1 = a
    q2, x2, z2 = b
    return UNIT_MUL[q1][q2] ^ ((z1 & x2).bit_count() & 1) << 2, x1 ^ x2, z1 ^ z2


def _word_square(a: _Word) -> int:
    q, x, z = a
    return UNIT_MUL[q][q] ^ ((x & z).bit_count() & 1) << 2


def _word_commutator(a: _Word, b: _Word) -> int:
    q1, x1, z1 = a
    q2, x2, z2 = b
    units = UNIT_MUL[UNIT_MUL[q1][q2]][UNIT_MUL[unit_conj(q1)][unit_conj(q2)]]
    return units ^ (((z1 & x2).bit_count() ^ (z2 & x1).bit_count()) & 1) << 2


def _word_matrix(a: _Word, n: int, mode: str) -> MonomialMatrix:
    q, x, z = a
    neg = q ^ 4
    perm = tuple([c ^ x for c in range(n)])
    entries = tuple([neg if (z & c).bit_count() & 1 else q for c in range(n)])
    return MonomialMatrix(n, perm, entries, mode)


class CanonicalSubgroup(_Value):
    """The subgroup generated by independent tensor-slot words.

    Offers what callers of GeneratedSubgroup use; generators and elements
    become matrices on first access, in the order generate() gives them,
    and are cached in the instance __dict__.
    """

    _fields = ("n", "field_mode", "words")
    __slots__ = _fields + ("__dict__",)
    n: int
    field_mode: str
    words: tuple[_Word, ...]

    def __init__(self, n: int, field_mode: str, words: tuple[_Word, ...]) -> None:
        _set(self, "n", n)
        _set(self, "field_mode", field_mode)
        _set(self, "words", words)

    @cached_property
    def _products(self) -> list[_Word]:
        """All 2^k subset products in canonical scalar form; index v is the
        characteristic vector of the subset.  Raises unless they are distinct."""
        table = [(0, 0, 0)]
        for w in self.words:
            table += [_word_mul(p, w) for p in table]
        best = _BEST_SCALAR[self.field_mode]
        table = [(UNIT_MUL[best[q]][q], x, z) for q, x, z in table]
        if len(set(table)) != len(table):
            raise ValueError("generators are not independent")
        return table

    def _element(self, w: _Word) -> ProjectiveElement:
        return ProjectiveElement(_word_matrix(w, self.n, self.field_mode))

    @cached_property
    def generators(self) -> tuple[ProjectiveElement, ...]:
        return tuple(self._element(w) for w in self.words)

    @cached_property
    def elements(self) -> tuple[ProjectiveElement, ...]:
        return tuple(sorted(map(self._element, self._products), key=_element_key))

    def order(self) -> int:
        return len(self._products)

    def rank(self) -> int:
        return self.order().bit_length() - 1


# --- canonical subgroup constructions ---------------------------------------

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
AMBIENT_SIZE_CAP = 64
GENERATOR_SIZE_CAP = 1 << 12  # generator files: n is checked before anything is built
GENERATOR_COUNT_CAP = 64  # and the list length; order <= 2^13 needs at most 13 generators


def canonical_subgroup(target: str, t: InvariantTuple) -> CanonicalSubgroup:
    """Generators realizing the invariant tuple inside O(n)/<-I> or Sp(n)/<-I>.

    Generator order matches the canonical basis layout (kernel | eps |
    delta-pair | s-pairs), and extract_sms of the result reproduces
    canonical(t) bit for bit.  Orthogonal targets spend one tensor slot on
    the eps block (a J) and two on the delta pair (a J and a K); symplectic
    targets realize those blocks as the quaternion scalars iI and jI.  The
    kernel and s-pair slots carry Z (diagonal signs) and X (bit flips).
    """
    if target not in (ORTHOGONAL, SYMPLECTIC):
        raise ValueError(f"unknown target {target!r}")
    if target == SYMPLECTIC:
        mode = "quaternion"
        slots = t.r + t.s
    else:
        mode = "real"
        slots = t.r + t.s + t.eps + 2 * t.delta
    n = 1 << slots
    if n > AMBIENT_SIZE_CAP:
        raise ValueError(f"ambient size {n} exceeds the cap {AMBIENT_SIZE_CAP}")

    words = [(0, 0, 1 << i) for i in range(t.r)]  # Z_i
    pair_base = t.r
    if target == SYMPLECTIC:
        i, j = UNIT_CODES["i"], UNIT_CODES["j"]
        words += [(i, 0, 0)] * t.eps + [(i, 0, 0), (j, 0, 0)] * t.delta  # iI, jI
    else:
        if t.eps:
            b = 1 << pair_base
            words.append((4, b, b))  # J
            pair_base += 1
        if t.delta:
            lo, hi = 1 << pair_base, 1 << (pair_base + 1)
            words += [(4, hi, hi), (4, lo, lo | hi)]  # J on the high slot, K
            pair_base += 2
    for p in range(pair_base, pair_base + t.s):
        words += [(0, 0, 1 << p), (0, 1 << p, 0)]  # Z_p, X_p
    return CanonicalSubgroup(n, mode, tuple(words))


def block_partition(group: GeneratedSubgroup | CanonicalSubgroup) -> list[tuple[int, ...]]:
    """Column partition of a +-1-diagonal subgroup by column character.

    Requires every nonzero element to be diagonal with exactly n/2 entries
    equal to -1; the 2^rank parts then all have size n / 2^rank.
    """
    elems = list(group.elements)
    n = elems[0].n
    for e in elems:
        m = e.matrix
        if any(m.perm[c] != c for c in range(n)) or any(x not in (0, 4) for x in m.entries):
            raise ValueError("subgroup is not +-1 diagonal")
        negs = sum(1 for x in m.entries if x == 4)
        if negs not in (0, n // 2):
            raise ValueError(
                f"element with {negs} entries -1 violates the half-and-half "
                f"property: {m.entries}"
            )
    r = group.rank()
    buckets: dict[tuple[int, ...], list[int]] = {}
    for c in range(n):
        sig = tuple(e.matrix.entries[c] for e in elems)
        buckets.setdefault(sig, []).append(c)
    parts = sorted(tuple(v) for v in buckets.values())
    if len(parts) != 1 << r or any(len(p) != n >> r for p in parts):
        raise ValueError("partition is not into 2^rank equal parts")
    return parts


# --- twisted (conjugation-extended) checks -----------------------------------


def conjugation_element(n: int) -> ProjectiveElement:
    """The plain antilinear involution (entrywise conjugation) on C^n."""
    return ProjectiveElement(MonomialMatrix.identity(n, "complex"), conj=True)


def diag_involution(n: int, p: int) -> ProjectiveElement:
    """[I_{p,n-p}] = [diag(-I_p, I_{n-p})] as a projective element."""
    units = tuple(4 if c < p else 0 for c in range(n))
    return ProjectiveElement(MonomialMatrix.diagonal(units, "complex"))


class TwistedCheckReport(_Value):
    __slots__ = _fields = ("conjugation_identity", "mu_product_identity")
    conjugation_identity: Optional[bool]
    mu_product_identity: Optional[bool]

    def __init__(
        self, conjugation_identity: Optional[bool], mu_product_identity: Optional[bool]
    ) -> None:
        _set(self, "conjugation_identity", conjugation_identity)
        _set(self, "mu_product_identity", mu_product_identity)


def twisted_mu_identity_check(z: ProjectiveElement, x: ProjectiveElement) -> TwistedCheckReport:
    """Verify the conjugation recipe tying an antilinear z to z x.

    For plain z (identity matrix part) and x = a +-1 diagonal with negative
    part P, the element u = [diag(i on P, 1 off P)] satisfies u z u^-1 = z x,
    so z and z x are conjugate; and the square scalars then satisfy
    mu(z) mu(zx) = mu-value of x in the z-fixed real form, which for plain z
    is the square scalar of x itself.
    """
    if not z.conj:
        raise ValueError("z must be antilinear")
    commutator_scalar(z, x)  # raises when the pair does not projectively commute
    n = z.n
    is_diag = all(x.matrix.perm[c] == c for c in range(n)) and all(
        e in (0, 4) for e in x.matrix.entries
    )
    z_plain = all(z.matrix.perm[c] == c for c in range(n)) and all(
        e == 0 for e in z.matrix.entries
    )
    if not (is_diag and z_plain):
        return TwistedCheckReport(None, None)
    u_units = tuple(UNIT_CODES["i"] if e == 4 else 0 for e in x.matrix.entries)
    u = ProjectiveElement(MonomialMatrix.diagonal(u_units, "complex"))
    zx = multiply(z, x)
    conj_ok = multiply(multiply(u, z), inverse(u)) == zx
    mu_ok = (_mu_bit(square_scalar(z)) ^ _mu_bit(square_scalar(zx))) == _mu_bit(
        square_scalar(x)
    )
    return TwistedCheckReport(conj_ok, mu_ok)


# --- generator file format ----------------------------------------------------


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def parse_generators(text: str) -> GeneratedSubgroup:
    """Generator file: JSON with field_mode, n, and a generator list.

    Each generator is {"perm": [...], "entries": ["1", "-1", "i", ...]} with
    an optional boolean "conj" flag (complex mode only).  n is at most
    GENERATOR_SIZE_CAP, the list holds at most GENERATOR_COUNT_CAP
    generators, perm holds n integers and entries n unit names; anything
    else raises ValueError.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("generator document must be an object")
    for key in ("field_mode", "n", "generators"):
        if key not in doc:
            raise ValueError(f"generator document needs field {key!r}")
    mode, n, raw = doc["field_mode"], doc["n"], doc["generators"]
    if not isinstance(mode, str) or mode not in _MODE_AXES:
        raise ValueError(f"unknown field mode {mode!r}")
    if not _is_int(n) or n < 1:
        raise ValueError("'n' must be a positive integer")
    if n > GENERATOR_SIZE_CAP:
        raise ValueError(f"'n' = {n} exceeds the generator size cap {GENERATOR_SIZE_CAP}")
    if not isinstance(raw, list) or not all(isinstance(g, dict) for g in raw):
        raise ValueError("'generators' must be a list of objects")
    if len(raw) > GENERATOR_COUNT_CAP:
        raise ValueError(f"{len(raw)} generators exceed the cap {GENERATOR_COUNT_CAP}")
    gens = []
    for idx, g in enumerate(raw):
        perm, entries, conj = g.get("perm"), g.get("entries"), g.get("conj", False)
        if not isinstance(perm, list) or len(perm) != n or not all(map(_is_int, perm)):
            raise ValueError(f"generator {idx}: 'perm' must be a list of {n} integers")
        if not isinstance(entries, list) or not all(
            isinstance(e, str) and e in UNIT_CODES for e in entries
        ):
            raise ValueError(f"generator {idx}: 'entries' must be a list of unit names")
        if not isinstance(conj, bool):
            raise ValueError(f"generator {idx}: 'conj' must be true or false")
        matrix = MonomialMatrix(n, tuple(perm), tuple(UNIT_CODES[e] for e in entries), mode)
        gens.append(ProjectiveElement(matrix, conj))
    if not gens:
        return GeneratedSubgroup.trivial(n, mode)
    return GeneratedSubgroup.generate(gens)
