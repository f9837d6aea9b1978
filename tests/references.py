"""Brute-force references the tests hold the package's routines against.

None of these is package code: each is small enough to check by eye and
slow enough that only the tests call it.
"""

from __future__ import annotations

import re
from math import factorial
from typing import Iterator, Optional, Sequence, Union

from sympf2.autgrp import sp_full_order, sp_metric_order, sp_order, sp_vector_order
from sympf2.catalog import GraphInvariant, p_order
from sympf2.f2core import F2Matrix, _span, gl_order, rank
from sympf2.matgrp import UNIT_MUL, ProjectiveElement, unit_conj
from sympf2.sms import SymplecticMetricSpace, _table_from_basis_data, _unpack


# --- a linear-system solver with combos, the reference for f2core's echelon
# routine; inverse, echelonize and affine_candidates solve with it, so they
# share no elimination with the package
#
# A linear system over GF(2) in reduced echelon form, grown one constraint
# parity(row & w) = rhs_i at a time: (pivots, dependencies).  Each pivot is
# (row, combo, pivot bit), where the combo's bit i is set when constraint i
# was added into the row, so the row's right-hand side is the parity of
# combo & rhs for any right-hand-side vector rhs.  The dependencies are the
# combos of added constraints that reduced to zero; a zero combo constrains
# nothing and is not kept.

System = tuple[list[tuple[int, int, int]], list[int]]


def add_constraint(system: System, row: int, combo: int) -> System:
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


def solutions(system: System, rhs: int, width: int) -> tuple[Optional[int], list[int]]:
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


def eliminate(rows: Sequence[int]) -> System:
    """The system of the constraints rows[i], every combo 0 (for rhs = 0)."""
    system: System = ([], [])
    for row in rows:
        system = add_constraint(system, row, 0)
    return system


def partner_combos(gram: Sequence[int]) -> list[Optional[int]]:
    """Entry j is e_j + v for a v in span(e_0..e_{j-1}) with e_j + v radical, or None.

    Row j of the Gram matrix reduces to zero against rows 0..j-1 exactly
    when e_j has such a partner v, and its combo is then e_j + v.
    """
    system: System = ([], [])
    out: list[Optional[int]] = []
    for j, row in enumerate(gram):
        found = len(system[1])
        system = add_constraint(system, row, 1 << j)
        out.append(system[1][-1] if len(system[1]) > found else None)
    return out


# --- the validity check by unpacked bytes and a rebuilt quadratic form, the
# reference for sms._pairings, which reads the same verdict and Gram rows off
# one block swap per basis vector


def gram_rows(space: SymplecticMetricSpace) -> tuple[bytes, list[int]]:
    """(mu, gram) from one unpacking of the table: byte v of mu is mu(v), and
    bit j of gram[i] is m(e_i, e_j)."""
    k = space.rank
    mu = _unpack(k, space.table)

    def shifted(x: int) -> int:  # bit j is mu(x + e_j)
        return sum([mu[x ^ 1 << j] << j for j in range(k)])

    basis, ones = shifted(0), (1 << k) - 1
    return mu, [shifted(1 << i) ^ basis ^ (ones if mu[1 << i] else 0) for i in range(k)]


def validity(space: SymplecticMetricSpace) -> str:
    """validate's message, from gram_rows.

    The polarization is bilinear exactly when mu is the quadratic form
    mu(v) = sum_i v_i mu(e_i) + sum_{i<j} v_i v_j m(e_i, e_j), which
    _table_from_basis_data builds from the basis values and the Gram matrix.
    """
    mu, gram = gram_rows(space)
    if mu[0]:
        return "mu(0) must be 0"
    basis_mu = [mu[1 << i] for i in range(space.rank)]
    if _table_from_basis_data(space.rank, basis_mu, gram) != space.table:
        return "polarization of mu is not bilinear"
    return "valid symplectic metric space"


GL_ENUMERATION_BOUND = 5


def enumerate_gl(n: int) -> Iterator[F2Matrix]:
    """Yield every invertible n x n matrix over GF(2) exactly once.

    Rows are chosen lexicographically, so the stream is deterministic.
    Bounded at n <= 5; the count is gl_order(n).
    """
    if n > GL_ENUMERATION_BOUND:
        raise ValueError(f"enumerate_gl is bounded at n <= {GL_ENUMERATION_BOUND}")
    size = 1 << n
    in_span = bytearray(size)
    in_span[0] = 1
    picked: list[int] = []
    span_elems = [0]

    def extend() -> Iterator[F2Matrix]:
        if len(picked) == n:
            yield F2Matrix.from_row_bits(picked, n)
            return
        for v in range(1, size):
            if in_span[v]:
                continue
            picked.append(v)
            added = [s ^ v for s in span_elems]
            for w in added:
                in_span[w] = 1
            span_elems.extend(added)
            yield from extend()
            for w in added:
                in_span[w] = 0
            del span_elems[len(span_elems) - len(added):]
            picked.pop()

    yield from extend()


def identity(n: int) -> F2Matrix:
    return F2Matrix.from_row_bits([1 << i for i in range(n)], n)


def product(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """a @ b: row i is the sum of the rows of b picked by row i of a."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    rows = b.row_bits()
    out = []
    for r in a.row_bits():
        acc = 0
        for k in range(a.cols):
            if r >> k & 1:
                acc ^= rows[k]
        out.append(acc)
    return F2Matrix.from_row_bits(out, b.cols)


def inverse(m: F2Matrix) -> F2Matrix:
    """m^-1 from the combos of a full-rank elimination, which are its rows."""
    if m.rows != m.cols or rank(m) != m.rows:
        raise ValueError("matrix is not invertible")
    # full rank leaves unit rows e_p = combo_p . m: the combos are the rows of m^-1
    system: System = ([], [])
    for i, row in enumerate(m.row_bits()):
        system = add_constraint(system, row, 1 << i)
    pivots, _ = system
    return F2Matrix.from_row_bits([c for _, c, _ in sorted(pivots, key=lambda p: p[2])], m.rows)


def echelonize(row_bits: list[int]) -> list[int]:
    """Reduced row-echelon form of a list of row words; zero rows dropped.

    Pivots taken at the lowest set bit, rows sorted by pivot.  The result is
    the unique canonical basis of the row space.
    """
    return [row for row, _, _ in sorted(eliminate(row_bits)[0], key=lambda p: p[2])]


def labels(model: SymplecticMetricSpace) -> tuple[str, ...]:
    """The class tag of every element of a label model: "1", then "s1"
    where mu = 1 and "s2" elsewhere."""
    tags = ("s2", "s1")
    return ("1",) + tuple(tags[b] for b in _unpack(model.rank, model.table)[1:])


def count_label_automorphisms(model: SymplecticMetricSpace) -> int:
    """Brute force over GL(rank, 2): matrices preserving the label table."""
    if model.rank > 4:
        raise ValueError("label automorphism brute force is bounded at rank <= 4")
    want = list(labels(model))
    count = 0
    for mat in enumerate_gl(model.rank):
        # rows serve as the basis images: transposing is a bijection on GL
        images = mat.row_bits()
        # the basis images rule out most matrices before the table is built
        if all(want[c] == want[1 << i] for i, c in enumerate(images)):
            count += [want[x] for x in _span(images)] == want
    return count


def edges(graph: GraphInvariant) -> frozenset[frozenset[int]]:
    """The graph's edges as vertex pairs, read off the neighbourhood masks."""
    return frozenset(
        frozenset((a, b))
        for a, mask in zip(graph.vertices, graph.neighbours)
        for b in graph.vertices if mask >> b & 1
    )


# --- automizer descriptions: parsed and evaluated, the reference for the catalog's factors
#
# A description is a named factor or two operands joined by " : " or " x ";
# an operand whose text holds a space is parenthesized.  A parse is a factor
# string or a triple (left, join, right).

AutomizerTree = Union[str, tuple["AutomizerTree", str, "AutomizerTree"]]

_JOINS = (" : ", " x ")

# each named factor, its digits and its order formula; Sp(s;t) and Sp(s;e,d)
# differ by the comma
_FACTOR_ORDERS = (
    (r"GL\((\d+),F2\)", gl_order),
    (r"P\((\d+),(\d+),F2\)", p_order),
    (r"F2\^(\d+)", lambda m: 1 << m),
    (r"Hom\(F2\^(\d+),F2\^(\d+)\)", lambda a, b: 1 << a * b),
    (r"Sp\((\d+)\)", sp_order),
    (r"Sp\((\d+);(\d+),(\d+)\)", sp_metric_order),
    (r"Sp\((\d+);(\d+)\)", sp_vector_order),
    (r"Sp\((\d+),(\d+);(\d+),(\d+)\)", lambda r, s, e, d: sp_full_order(e, d, r, s)),
    (r"S(\d+)", factorial),
)


def parse_automizer(desc: str) -> AutomizerTree:
    """The parse of a whole description; ValueError if text is left over."""
    tree, rest = _parse_join(desc)
    if rest:
        raise ValueError(f"unparsed tail {rest!r} in {desc!r}")
    return tree


def _parse_join(text: str) -> tuple[AutomizerTree, str]:
    left, text = _parse_operand(text)
    for join in _JOINS:
        if text.startswith(join):
            right, text = _parse_operand(text[len(join):])
            return (left, join, right), text
    return left, text


def _parse_operand(text: str) -> tuple[AutomizerTree, str]:
    if text.startswith("("):
        tree, rest = _parse_join(text[1:])
        if not rest.startswith(")"):
            raise ValueError(f"unclosed parenthesis before {rest!r}")
        return tree, rest[1:]
    # a name, then at most one parenthesized argument list
    found = re.match(r"[^ ()]+(\([^()]*\))?", text)
    if found is None:
        raise ValueError(f"no factor at {text!r}")
    return found.group(), text[found.end():]


def automizer_value(tree: AutomizerTree) -> int:
    """The group order: joins multiply, each factor by its formula."""
    if isinstance(tree, tuple):
        left, _, right = tree
        return automizer_value(left) * automizer_value(right)
    for pattern, formula in _FACTOR_ORDERS:
        found = re.fullmatch(pattern, tree)
        if found is not None:
            return formula(*map(int, found.groups()))
    raise ValueError(f"unknown factor {tree!r}")


def render_automizer(tree: AutomizerTree) -> str:
    """The description again, each operand holding a space parenthesized."""
    if not isinstance(tree, tuple):
        return tree
    left, join, right = tree
    operands = (render_automizer(left), render_automizer(right))
    return join.join(f"({t})" if " " in t else t for t in operands)


def unit_mul(a: int, b: int) -> int:
    return UNIT_MUL[a][b]


# --- monomial products column by column: the references for matgrp's byte kernel
#
# A raw matrix is a pair (perm, entries) of int sequences: column c holds the
# unit entries[c] at row perm[c].  Nothing here rescales to a canonical form.

RawMatrix = tuple[Sequence[int], Sequence[int]]


def raw(e: ProjectiveElement) -> RawMatrix:
    """The element's stored representative as a raw matrix."""
    return tuple(e.perm), tuple(e.entries)


def scale(m: RawMatrix, unit: int) -> RawMatrix:
    """Left multiplication by a scalar unit."""
    perm, entries = m
    return tuple(perm), tuple([UNIT_MUL[unit][e] for e in entries])


def conj_entries(m: RawMatrix) -> RawMatrix:
    """Entrywise complex conjugation (the twist across an antilinear factor)."""
    perm, entries = m
    return tuple(perm), tuple([e ^ 4 if (e & 3) == 1 else e for e in entries])


def raw_inverse(m: RawMatrix) -> RawMatrix:
    """Column perm[c] of the inverse holds the conjugate of entries[c] at row c."""
    perm, entries = m
    inv, inv_entries = [0] * len(perm), [0] * len(perm)
    for c, (p, e) in enumerate(zip(perm, entries)):
        inv[p], inv_entries[p] = c, unit_conj(e)
    return tuple(inv), tuple(inv_entries)


def matrix_product(a: RawMatrix, b: RawMatrix) -> RawMatrix:
    """a b: column c of b holds its entry e at row p, so column c of a b is
    column p of a times e."""
    (pa, ea), (pb, eb) = a, b
    return tuple([pa[p] for p in pb]), tuple([UNIT_MUL[ea[p]][e] for p, e in zip(pb, eb)])


def raw_mul(a: RawMatrix, fa: bool, b: RawMatrix, fb: bool) -> tuple[RawMatrix, bool]:
    """(A, a)(B, b) = (A sigma^a(B), a xor b) with no scalar normalization."""
    return matrix_product(a, conj_entries(b) if fa else b), fa != fb


REFERENCE_UNITS = {"real": {0, 4}, "complex": {0, 1, 4, 5}, "quaternion": set(range(8))}
REFERENCE_SCALARS = {"real": (0, 4), "complex": (0, 1, 4, 5), "quaternion": (0, 4)}


# --- tensor-slot words q X^x Z^z: the signed references for matgrp's classes

Word = tuple[int, int, int]


def word_product(a: Word, b: Word) -> Word:
    """The word of the matrix product a b, sign included: moving Z^z of a
    past X^x of b gives (-1)^|z & x|."""
    q1, x1, z1 = a
    q2, x2, z2 = b
    return UNIT_MUL[q1][q2] ^ ((z1 & x2).bit_count() & 1) << 2, x1 ^ x2, z1 ^ z2


def word_class(mode: str, w: Word, slots: int) -> int:
    """The word's class modulo the scalars of the mode: the least q among its
    scalar multiples, then x, then z, packed with x and z slots bits wide."""
    q, x, z = w
    least = min(UNIT_MUL[lam][q] for lam in REFERENCE_SCALARS[mode])
    return least << 2 * slots | x << slots | z


def checked_fields(
    field_mode: str, conj: bool, perm: Sequence, entries: Sequence
) -> tuple[str, bool, bytes, bytes]:
    """The fields of ProjectiveElement(field_mode, conj, perm, entries), or
    the ValueError it raises, with its checks written column by column: the
    mode, n <= 256, perm a permutation of range(n) with one entry per column,
    each entry in turn a unit of the mode, then the antilinear flag.  The
    entries come back as the least entry string among the scalar multiples."""
    if field_mode not in REFERENCE_UNITS:
        raise ValueError(f"unknown field mode {field_mode!r}")
    n = len(perm)
    if n > 256:
        raise ValueError(f"size {n} exceeds the cap 256")
    try:
        perm = bytes(perm)
    except (TypeError, ValueError):  # a column index that is not an int in 0..255
        perm = b""
    if sorted(perm) != list(range(n)) or len(entries) != n:
        raise ValueError("not a permutation with one entry per column")
    for e in entries:
        if not isinstance(e, int) or e not in REFERENCE_UNITS[field_mode]:
            raise ValueError(f"entry {e!r} is not a unit of mode {field_mode}")
    if conj and field_mode != "complex":
        raise ValueError("antilinear flag only exists in complex mode")
    least = min(scale((perm, entries), lam)[1] for lam in REFERENCE_SCALARS[field_mode])
    return field_mode, conj, perm, bytes(least)


def is_scalar(m: RawMatrix) -> bool:
    perm, entries = m
    return tuple(perm) == tuple(range(len(perm))) and len(set(entries)) <= 1


def multiply(a: ProjectiveElement, b: ProjectiveElement) -> ProjectiveElement:
    if a.n != b.n or a.field_mode != b.field_mode:
        raise ValueError("size or mode mismatch")
    m, flag = raw_mul(raw(a), a.conj, raw(b), b.conj)
    return ProjectiveElement(a.field_mode, flag, *m)


def square_scalar(x: ProjectiveElement) -> int:
    m, _ = raw_mul(raw(x), x.conj, raw(x), x.conj)
    if not is_scalar(m):
        raise ValueError("not a projective involution: square is not scalar")
    return m[1][0] if x.n else 0


def commutator_scalar(x: ProjectiveElement, y: ProjectiveElement) -> int:
    """lambda = a_0 conj(b_0) from the first entries of x y and y x, when
    x y = lambda (y x) column by column."""
    if x.n != y.n or x.field_mode != y.field_mode:
        raise ValueError("size or mode mismatch")
    (xy_perm, xy), _ = raw_mul(raw(x), x.conj, raw(y), y.conj)
    (yx_perm, yx), _ = raw_mul(raw(y), y.conj, raw(x), x.conj)
    lam = UNIT_MUL[xy[0]][unit_conj(yx[0])] if x.n else 0
    if xy_perm != yx_perm or scale((yx_perm, yx), lam)[1] != xy:
        raise ValueError("pair does not projectively commute")
    return lam


def close_by_bits(
    points: list[int], mark: bytearray, flag: int, gens: Sequence[tuple[int, ...]], new: int
) -> None:
    """autgrp._close with each image an XOR over the set bits of the point.

    The points already listed have been closed under gens[:new]; the ones
    appended here see every generator.  A generator is the image tuple of a
    basis, applied to v as the XOR of its entries over the set bits of v.
    """
    listed = len(points)
    fresh = gens[new:]
    i = 0
    while i < len(points):
        v = points[i]
        for g in fresh if i < listed else gens:
            x = 0
            u = v
            while u:
                low = u & -u
                x ^= g[low.bit_length() - 1]
                u ^= low
            if not mark[x]:
                mark[x] = flag
                points.append(x)
        i += 1


def affine_candidates(gram: Sequence[int], mu: Optional[bytes], images: Sequence[int]) -> Iterator[int]:
    """autgrp._AffineSearch's candidates at level j = len(images), by solving
    the pairing conditions and walking the solutions in Gray-code order.

    The partner of e_j comes from an elimination of the Gram rows 0..j with
    combos; a partner level walks T v + ker m, with ker m solved from the
    whole Gram matrix, and any other level the solutions w of m(w, w_i) =
    m(e_j, e_i), i < j, that are not radical.  Either way w must lie
    outside span(images) and, given mu (byte v is mu(v)), have mu(w) =
    mu(e_j).  Each pairing x -> m(x, w) is a bit mask, entry w of the
    _span of the Gram rows.
    """
    k, j = len(gram), len(images)
    pairing = _span(gram)
    combo = partner_combos(gram)[j]
    span = _span(images)
    if combo is not None:
        particular = span[combo ^ 1 << j]
        hom_basis = solutions(eliminate(gram), 0, k)[1]
        radical_ok = True
    else:
        system: System = ([], [])
        for i, w in enumerate(images):
            system = add_constraint(system, pairing[w], 1 << i)
        particular, hom_basis = solutions(system, gram[j], k)
        if particular is None:
            return
        radical_ok = False
    in_span = set(span)
    want = mu[1 << j] if mu is not None else 0
    w = particular
    gray = 0
    for step in range(1 << len(hom_basis)):
        if step:
            nxt = step ^ (step >> 1)
            w ^= hom_basis[(gray ^ nxt).bit_length() - 1]
            gray = nxt
        if w not in in_span and (mu is None or mu[w] == want) and (radical_ok or pairing[w]):
            yield w
