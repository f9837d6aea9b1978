"""Exact projective monomial matrix models.

Elements are monomial matrices with entries in the unit set {1, -1, i, -i,
j, -j, k, -k}, optionally twisted by an antilinear conjugation flag, and
taken modulo the scalar unit group of the field mode (real: +-1, complex:
+-1 and +-i, quaternion: the central +-1 only).  Products, inverses,
squares and commutators stay monomial, so all arithmetic is exact.  An
element holds its perm and entries as bytes, so (conj, perm, entries) is
the key the product kernel runs on.  Canonical constructions are kept as
tensor-slot words (q, x, z), their subset products as packed projective
classes of words, and the closure of a generator file as keys; all become
elements only on request.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Sequence

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


# the unit codes of each mode: +-1 (real), +-1 and +-i (complex), all eight
_MODE_UNITS = {"real": b"\0\4", "complex": b"\0\1\4\5", "quaternion": bytes(range(8))}
# scalars defining projective equality; for quaternions only the center
_MODE_SCALARS = {"real": (0, 4), "complex": (0, 1, 4, 5), "quaternion": (0, 4)}
# The product kernel keeps a column index in one byte, so every element has n <= 256.
GENERATOR_SIZE_CAP = 256

# --- the product kernel --------------------------------------------------------
#
# A key (conj, perm, entries) is the last three fields of a ProjectiveElement:
# perm and entries are bytes, one byte per column; a byte holds every column
# index since n <= GENERATOR_SIZE_CAP.
# Each step of a product then runs over all n columns in one bytes.translate or
# int conversion.  The tables are 256-byte translate tables: _UNIT_PRODUCT maps
# a << 3 | b to the unit a b, _SCALE[lam] maps e to lam e, _COMPLEX_CONJ maps e
# to its complex conjugate (quaternion units never meet it: the antilinear flag
# exists only in complex mode), _UNIT_CONJ maps e to its quaternion conjugate.

_UNIT_PRODUCT = bytes(UNIT_MUL[a][b] for a in range(8) for b in range(8)).ljust(256, b"\0")
_SCALE = tuple(_UNIT_PRODUCT[a << 3:(a + 1) << 3].ljust(256, b"\0") for a in range(8))
_COMPLEX_CONJ = bytes(a ^ 4 if (a & 3) == 1 else a for a in range(8)).ljust(256, b"\0")
_UNIT_CONJ = bytes(map(unit_conj, range(8))).ljust(256, b"\0")
_IDENTITY_PERM = bytes(range(256))
# Left multiplication by distinct units gives distinct first entries, so the
# first entry alone decides which scalar multiple has the smallest entry
# string: _BEST_SCALAR[mode][e] is the mode scalar minimizing lam * e.
_BEST_SCALAR = {
    mode: tuple(min(scalars, key=lambda lam: UNIT_MUL[lam][e]) for e in range(8))
    for mode, scalars in _MODE_SCALARS.items()
}
# per mode, by first entry: the table taking an entry string to canonical
# scalar form, None where it is already; _RAW leaves every product raw
_CANONICAL = {
    mode: tuple(None if lam == 0 else _SCALE[lam] for lam in best)
    for mode, best in _BEST_SCALAR.items()
}
_RAW = (None,) * 8

_Key = tuple[bool, bytes, bytes]


class ProjectiveElement(_Value):
    """A monomial matrix modulo scalars, with an optional antilinear flag.

    Column c holds the unit entries[c] at row perm[c]; perm and entries are
    bytes, one byte per column, so (conj, perm, entries) is the element's
    key in the product kernel.  The entries are stored in canonical scalar
    form: among the scalar multiples, the one whose entry string is smallest
    in the unit code order (+1, +i, +j, +k, -1, -i, -j, -k), so the first
    entry is minimized.  perm and entries may be given as any sequences of
    ints.  The constructor raises ValueError unless perm is a permutation of
    range(n) with n <= GENERATOR_SIZE_CAP, entries holds one unit of the mode
    per column, and the antilinear flag is set only in complex mode.
    """

    __slots__ = _fields = ("field_mode", "conj", "perm", "entries")
    field_mode: str
    conj: bool
    perm: bytes
    entries: bytes

    def __init__(
        self, field_mode: str, conj: bool, perm: Sequence[int], entries: Sequence[int]
    ) -> None:
        if field_mode not in _MODE_UNITS:
            raise ValueError(f"unknown field mode {field_mode!r}")
        n = len(perm)
        if n > GENERATOR_SIZE_CAP:
            raise ValueError(f"size {n} exceeds the cap {GENERATOR_SIZE_CAP}")
        try:
            perm = bytes(perm)
        except (TypeError, ValueError):  # a column index that is not an int in 0..255
            perm = b""
        # a permutation of range(n): n distinct bytes, none of them n or above
        if perm.translate(None, _IDENTITY_PERM[:n]) or len(set(perm)) != n or len(entries) != n:
            raise ValueError("not a permutation with one entry per column")
        units = _MODE_UNITS[field_mode]
        try:
            codes = bytes(entries)
        except (TypeError, ValueError):  # an entry that is not an int in 0..255
            codes = b"\xff"  # no mode's unit, so the scan below runs
        if codes.translate(None, units):  # name the first entry that is not a unit
            bad = next(e for e in entries if not isinstance(e, int) or e not in set(units))
            raise ValueError(f"entry {bad!r} is not a unit of mode {field_mode}")
        if conj and field_mode != "complex":
            raise ValueError("antilinear flag only exists in complex mode")
        table = _CANONICAL[field_mode][codes[0]] if n else None
        _set(self, "field_mode", field_mode)
        _set(self, "conj", conj)
        _set(self, "perm", perm)
        _set(self, "entries", codes if table is None else codes.translate(table))

    @property
    def n(self) -> int:
        return len(self.perm)


def _product(a: _Key, b: _Key, pad: bytes, scalar: tuple) -> _Key:
    """The key of (A, a)(B, b) = (A sigma^a(B), a xor b), sigma = entrywise
    conjugation; pad is bytes(256 - n), and scalar is _CANONICAL[mode] or _RAW.

    Column c of A B' is A's column pb[c] times the unit eb'[c], so its row is
    pa[pb[c]] and its entry ea[pb[c]] eb'[c].  The gathered entries (< 8) are
    shifted into bits 3-5 of their byte as one integer, joined with eb', and
    looked up in _UNIT_PRODUCT.
    """
    fa, pa, ea = a
    fb, pb, eb = b
    if fa:
        eb = eb.translate(_COMPLEX_CONJ)
    gathered = int.from_bytes(pb.translate(ea + pad), "big")
    raw = ((gathered << 3) | int.from_bytes(eb, "big")).to_bytes(len(pb), "big")
    raw = raw.translate(_UNIT_PRODUCT)
    table = scalar[raw[0]] if raw else None
    return fa != fb, pb.translate(pa + pad), raw if table is None else raw.translate(table)


def _key_square(x: _Key, pad: bytes) -> int:
    _, perm, entries = _product(x, x, pad, _RAW)
    if perm != _IDENTITY_PERM[:len(perm)] or entries != entries[:1] * len(entries):
        raise ValueError("not a projective involution: square is not scalar")
    return entries[0] if entries else 0


def _key_commutator(x: _Key, y: _Key, pad: bytes) -> int:
    _, xy_perm, xy = _product(x, y, pad, _RAW)
    _, yx_perm, yx = _product(y, x, pad, _RAW)
    lam = UNIT_MUL[xy[0]][unit_conj(yx[0])] if xy else 0
    if xy_perm != yx_perm or yx.translate(_SCALE[lam]) != xy:
        raise ValueError("pair does not projectively commute")
    return lam


# an element's key is its last three fields
_key = attrgetter("conj", "perm", "entries")


def _identity_key(n: int) -> _Key:
    return False, _IDENTITY_PERM[:n], bytes(n)


def _require_same_space(a: ProjectiveElement, b: ProjectiveElement) -> None:
    if a.n != b.n or a.field_mode != b.field_mode:
        raise ValueError("size or mode mismatch")


def multiply(a: ProjectiveElement, b: ProjectiveElement) -> ProjectiveElement:
    """(A, a)(B, b) = (A sigma^a(B), a xor b), sigma = entrywise conjugation."""
    _require_same_space(a, b)
    mode = a.field_mode
    return ProjectiveElement(mode, *_product(_key(a), _key(b), bytes(256 - a.n), _CANONICAL[mode]))


def inverse(a: ProjectiveElement) -> ProjectiveElement:
    """(A, a)^-1 = (sigma^a(A^-1), a): column perm[c] of A^-1 holds the
    conjugate of entries[c] at row c."""
    rows = _IDENTITY_PERM[:a.n]
    perm = rows.translate(bytes.maketrans(a.perm, rows))  # perm[a.perm[c]] = c
    entries = perm.translate(a.entries + bytes(256 - a.n)).translate(_UNIT_CONJ)
    return ProjectiveElement(
        a.field_mode, a.conj, perm, entries.translate(_COMPLEX_CONJ) if a.conj else entries
    )


def identity(n: int, field_mode: str) -> ProjectiveElement:
    return ProjectiveElement(field_mode, False, range(n), bytes(n))


def square_scalar(x: ProjectiveElement) -> int:
    """Unit scalar lambda with x^2 = lambda I; errors if x^2 is not scalar.

    Unit scalars have norm one, so lambda does not depend on the scalar
    representative; for antilinear x it distinguishes the two outer classes
    (the square of the associated real structure).
    """
    return _key_square(_key(x), bytes(256 - x.n))


def commutator_scalar(x: ProjectiveElement, y: ProjectiveElement) -> int:
    """Unit scalar lambda with x y x^-1 y^-1 = lambda I.

    Read from the raw products: x y x^-1 y^-1 = lambda I exactly when
    x y = lambda (y x), antilinear factors included, since both products
    carry the flag of x xor that of y.  So lambda = a_0 conj(b_0) from the
    first entries a of x y and b of y x, and the pair commutes projectively
    exactly when the two perms agree and lambda b_c = a_c in every column.
    """
    _require_same_space(x, y)
    return _key_commutator(_key(x), _key(y), bytes(256 - x.n))


def _mu_bit(scalar: int) -> int:
    if scalar == 0:
        return 0
    if scalar == 4:
        return 1
    raise ValueError("scalar is not +-1; element has no mu value")


class GeneratedSubgroup(_Value):
    """Closure of a generator list inside the projective unitary quotient.

    Compared and shown by generators and elements.  keys holds the closure
    as element keys in the order generate() built it, and used the
    generators that added a coset.  elements, the closure sorted by key,
    becomes a ProjectiveElement tuple on first access and is cached in the
    instance __dict__.
    """

    _fields = ("generators", "elements")
    __slots__ = ("n", "field_mode", "generators", "used", "keys", "__dict__")
    n: int
    field_mode: str
    generators: tuple[ProjectiveElement, ...]
    used: tuple[ProjectiveElement, ...]
    keys: tuple[_Key, ...]

    def __init__(
        self,
        n: int,
        field_mode: str,
        generators: tuple[ProjectiveElement, ...],
        used: tuple[ProjectiveElement, ...],
        keys: tuple[_Key, ...],
    ) -> None:
        _set(self, "n", n)
        _set(self, "field_mode", field_mode)
        _set(self, "generators", generators)
        _set(self, "used", used)
        _set(self, "keys", keys)

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
        n, mode = gens[0].n, gens[0].field_mode
        if any(g.n != n or g.field_mode != mode for g in gens):
            raise ValueError("size or mode mismatch")
        pad, scalar = bytes(256 - n), _CANONICAL[mode]
        chain = [_identity_key(n)]
        seen = set(chain)
        used: list[ProjectiveElement] = []
        used_keys: list[_Key] = []
        for g in gens:
            key = _key(g)
            if key in seen:
                continue
            used.append(g)
            used_keys.append(key)
            subgroup = chain[1:]  # H without its identity
            reps = [key]
            for r in reps:  # grows while it is scanned
                if r in seen:  # its coset is in, and that coset's products are queued
                    continue
                if len(seen) + len(subgroup) >= cap:
                    raise ValueError("closure exceeds the size cap")
                coset = [r] + [_product(h, r, pad, scalar) for h in subgroup]
                chain += coset
                seen.update(coset)
                reps += [_product(r, s, pad, scalar) for s in used_keys]
        return cls(n, mode, gens, tuple(used), tuple(chain))

    @classmethod
    def trivial(cls, n: int, field_mode: str) -> "GeneratedSubgroup":
        return cls(n, field_mode, (), (), (_identity_key(n),))

    @cached_property
    def elements(self) -> tuple[ProjectiveElement, ...]:
        return tuple(ProjectiveElement(self.field_mode, *k) for k in sorted(self.keys))

    def order(self) -> int:
        return len(self.keys)

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

    A GeneratedSubgroup is read off generate()'s build order on its keys,
    with no subset products formed and no element objects built: each used
    generator g_j of an elementary abelian group doubles the closure,
    keys[2^j + i] = keys[i] g_j, so keys[v] is the product over the subset
    v, and a closure that did not double is refused.  A CanonicalSubgroup is
    read off its packed classes, with no signed product formed.  The tests
    multiply the subset products out again as the reference.
    """
    if isinstance(group, CanonicalSubgroup):
        return _tabulate(group.words, _squares(group._products, group.n), _word_commutator)
    keys = group.keys
    if any(k[0] for k in keys):
        raise ValueError("antilinear elements present: extract the inner part instead")
    if len(keys) != 1 << len(group.used):
        raise ValueError("not elementary abelian: the closure did not double at each generator")
    if len(group.used) == len(group.generators):
        coords = [1 << j for j in range(len(group.used))]  # keys[2^j] is g_j
    else:
        coords, span = [], {0}
        for v in sorted(range(len(keys)), key=keys.__getitem__):
            if v not in span:
                coords.append(v)
                span |= {x ^ v for x in span}
    pad = bytes(256 - group.n)
    # element by element, so the first faulty subset product names its fault;
    # -1 is the unit code 4
    squares = [_mu_bit(_key_square(keys[x], pad)) << 2 for x in _span(coords)]
    basis = [keys[v] for v in coords]
    return _tabulate(basis, squares, lambda x, y: _key_commutator(x, y, pad))


def _tabulate(basis: Sequence, squares: list[int], commutator: Callable) -> SymplecticMetricSpace:
    """mu from the square scalars of the subset products (entry v for the
    subset v of the basis), checked against commutator() on the basis.

    One check per unordered pair i < j, against the Gram rows of the validity
    check: commutator(x, x) = 1 and m(v, v) = 0, and commutator(y, x) =
    commutator(x, y)^-1 while m is symmetric, so the other pairs pass or fail
    with these and the first failure is the same.
    """
    codes = bytes(squares)
    if codes.translate(None, b"\0\4"):
        raise ValueError("scalar is not +-1; element has no mu value")
    space = SymplecticMetricSpace(len(basis), _pack(codes.replace(b"\4", b"\1")))
    gram = require_valid(space)
    for i, j in itertools.combinations(range(len(basis)), 2):
        if _mu_bit(commutator(basis[i], basis[j])) != gram[i] >> j & 1:
            raise ValueError("mu/m compatibility violation: modeling bug")
    return space


# --- tensor-slot words ----------------------------------------------------------
#
# Every generator of a canonical construction is q X^x Z^z on n = 2^slots
# coordinates: column c holds q (-1)^{|z & c|} at row c ^ x.  The word
# (q, x, z) is the binary symplectic form of a Pauli operator (Aaronson and
# Gottesman, PRA 70, 052328, 2004), so products, square scalars and
# commutator scalars are a unit-table lookup plus popcount parities.  Modulo
# scalars a word is its class best[q] << 2 slots | x << slots | z: best[q], the
# q of canonical scalar form, is an axis (0 or 2 in complex mode, where i is a
# scalar), and axes multiply by XOR, so a product's class is the XOR of classes.

_Word = tuple[int, int, int]


def _squares(table: list[int], n: int) -> list[int]:
    """The square scalar of the canonical word of each class on n coordinates."""
    sq = [row[q] for q, row in enumerate(UNIT_MUL)]  # sq[q] = q q
    slots = n.bit_length() - 1
    axis, mask = 2 * slots, n - 1
    return [sq[p >> axis] ^ ((p >> slots & p & mask).bit_count() & 1) << 2 for p in table]


def _word_commutator(a: _Word, b: _Word) -> int:
    q1, x1, z1 = a
    q2, x2, z2 = b
    units = UNIT_MUL[UNIT_MUL[q1][q2]][UNIT_MUL[unit_conj(q1)][unit_conj(q2)]]
    return units ^ (((z1 & x2).bit_count() ^ (z2 & x1).bit_count()) & 1) << 2


def _word_matrix(a: _Word, n: int) -> tuple[bytes, bytes]:
    """The perm and entries of the word's matrix on n coordinates."""
    q, x, z = a
    neg = q ^ 4
    entries = [neg if (z & c).bit_count() & 1 else q for c in range(n)]
    return bytes([c ^ x for c in range(n)]), bytes(entries)


class CanonicalSubgroup(_Value):
    """The subgroup generated by tensor-slot words independent modulo scalars.

    Its subset products are the F2 span of the words' packed classes.
    Offers what callers of GeneratedSubgroup use; generators and elements
    become ProjectiveElements on first access, in the order generate() gives
    them, and are cached in the instance __dict__.
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
    def _products(self) -> list[int]:
        """The classes of all 2^k subset products; index v is the
        characteristic vector of the subset.  Raises unless they are distinct."""
        s = self.n.bit_length() - 1
        best = [UNIT_MUL[lam][q] for q, lam in enumerate(_BEST_SCALAR[self.field_mode])]
        table = _span([best[q] << 2 * s | x << s | z for q, x, z in self.words])
        if len(set(table)) != len(table):
            raise ValueError("generators are not independent")
        return table

    def _element(self, w: _Word) -> ProjectiveElement:
        return ProjectiveElement(self.field_mode, False, *_word_matrix(w, self.n))

    @cached_property
    def generators(self) -> tuple[ProjectiveElement, ...]:
        return tuple(self._element(w) for w in self.words)

    @cached_property
    def elements(self) -> tuple[ProjectiveElement, ...]:
        s, mask = self.n.bit_length() - 1, self.n - 1
        words = [(p >> 2 * s, p >> s & mask, p & mask) for p in self._products]
        return tuple(sorted(map(self._element, words), key=_key))

    def order(self) -> int:
        return len(self._products)

    def rank(self) -> int:
        return self.order().bit_length() - 1


# --- canonical subgroup constructions ---------------------------------------

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
AMBIENT_SIZE_CAP = 64
GENERATOR_COUNT_CAP = 64  # generator files; order <= 2^13 needs at most 13 generators


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
        if e.perm != _IDENTITY_PERM[:n] or e.entries.translate(None, b"\0\4"):
            raise ValueError("subgroup is not +-1 diagonal")
        negs = e.entries.count(4)
        if negs not in (0, n // 2):
            raise ValueError(
                f"element with {negs} entries -1 violates the half-and-half "
                f"property: {tuple(e.entries)}"
            )
    r = group.rank()
    buckets: dict[tuple[int, ...], list[int]] = {}
    for c in range(n):
        sig = tuple(e.entries[c] for e in elems)
        buckets.setdefault(sig, []).append(c)
    parts = sorted(tuple(v) for v in buckets.values())
    if len(parts) != 1 << r or any(len(p) != n >> r for p in parts):
        raise ValueError("partition is not into 2^rank equal parts")
    return parts


# --- twisted (conjugation-extended) checks -----------------------------------


def conjugation_element(n: int) -> ProjectiveElement:
    """The plain antilinear involution (entrywise conjugation) on C^n."""
    return ProjectiveElement("complex", True, range(n), bytes(n))


def diag_involution(n: int, p: int) -> ProjectiveElement:
    """[I_{p,n-p}] = [diag(-I_p, I_{n-p})] as a projective element."""
    return ProjectiveElement("complex", False, range(n), [4] * p + [0] * (n - p))


def twisted_mu_identity_check(z: ProjectiveElement, x: ProjectiveElement) -> tuple[bool, bool]:
    """Verify the conjugation recipe tying the plain antilinear z to z x.

    For plain z (identity matrix part) and x = a +-1 diagonal with negative
    part P, the element u = [diag(i on P, 1 off P)] satisfies u z u^-1 = z x,
    so z and z x are conjugate; and the square scalars then satisfy
    mu(z) mu(zx) = mu-value of x in the z-fixed real form, which for plain z
    is the square scalar of x itself.  Returns the pair (conjugation
    identity holds, mu product identity holds); any other z or x raises
    ValueError.
    """
    if not z.conj:
        raise ValueError("z must be antilinear")
    n = z.n
    if z.perm != _IDENTITY_PERM[:n] or z.entries != bytes(n):
        raise ValueError("z must be plain: entrywise conjugation")
    if x.perm != z.perm or x.entries.translate(None, b"\0\4"):
        raise ValueError("x must be +-1 diagonal of the size of z")
    u_units = [UNIT_CODES["i"] if e == 4 else 0 for e in x.entries]
    u = ProjectiveElement("complex", False, range(n), u_units)
    zx = multiply(z, x)  # raises unless x is in complex mode too
    conj_ok = multiply(multiply(u, z), inverse(u)) == zx
    mu_ok = _mu_bit(square_scalar(z)) ^ _mu_bit(square_scalar(zx)) == _mu_bit(square_scalar(x))
    return conj_ok, mu_ok


# --- generator file format ----------------------------------------------------


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
    if not isinstance(mode, str) or mode not in _MODE_UNITS:
        raise ValueError(f"unknown field mode {mode!r}")
    if type(n) is not int or n < 1:  # JSON true and false are bools, not ints
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
        # by type, as for n: bytes() would take true and false
        if not isinstance(perm, list) or len(perm) != n or not set(map(type, perm)) <= {int}:
            raise ValueError(f"generator {idx}: 'perm' must be a list of {n} integers")
        codes = None
        if isinstance(entries, list):
            try:
                codes = bytes(map(UNIT_CODES.__getitem__, entries))
            except (KeyError, TypeError):  # a value that is not a unit name, or unhashable
                pass
        if codes is None:
            raise ValueError(f"generator {idx}: 'entries' must be a list of unit names")
        if not isinstance(conj, bool):
            raise ValueError(f"generator {idx}: 'conj' must be true or false")
        gens.append(ProjectiveElement(mode, conj, perm, codes))
    if not gens:
        return GeneratedSubgroup.trivial(n, mode)
    return GeneratedSubgroup.generate(gens)
