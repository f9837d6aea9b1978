import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympf2 import matgrp
from sympf2.matgrp import (
    GeneratedSubgroup,
    ProjectiveElement,
    UNIT_CODES,
    block_partition,
    canonical_subgroup,
    commutator_scalar,
    conjugation_element,
    diag_involution,
    extract_sms,
    identity,
    inverse,
    multiply,
    parse_generators,
    square_scalar,
    twisted_mu_identity_check,
)
from sympf2.sms import InvariantTuple, canonical, invariants

import references
from references import matrix_product, raw, scale, unit_mul


def unit(name):
    return UNIT_CODES[name]


def test_unit_algebra():
    i, j, k = unit("i"), unit("j"), unit("k")
    assert unit_mul(i, j) == k
    assert unit_mul(j, i) == unit("-k")
    assert unit_mul(j, k) == i
    assert unit_mul(k, i) == j
    assert unit_mul(i, i) == unit("-1")
    assert unit_mul(unit("-1"), unit("-1")) == unit("1")


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_unit_associativity(a, b, c):
    assert unit_mul(unit_mul(a, b), c) == unit_mul(a, unit_mul(b, c))


def elem(perm, entry_names, mode, conj=False):
    return ProjectiveElement(mode, conj, perm, [UNIT_CODES[e] for e in entry_names])


def word_element(mode, word, n, conj=False):
    return ProjectiveElement(mode, conj, *matgrp._word_matrix(word, n))


def i22(mode="real"):
    return elem([0, 1, 2, 3], ["-1", "-1", "1", "1"], mode)


def jprime2(mode="real"):
    return elem([2, 3, 0, 1], ["1", "1", "1", "1"], mode)


def j2(mode="real"):
    # the [[0, I], [-I, 0]] block on 4 coordinates
    return elem([2, 3, 0, 1], ["-1", "-1", "1", "1"], mode)


def k1(mode="real"):
    return elem([1, 0, 3, 2], ["-1", "1", "1", "-1"], mode)


def test_multiply_examples():
    x = i22()
    assert multiply(identity(4, "real"), x) == x
    tau = conjugation_element(3)
    assert multiply(tau, tau) == identity(3, "complex")
    a, b = i22(), jprime2()
    raw_ab = matrix_product(raw(a), raw(b))
    raw_ba = matrix_product(raw(b), raw(a))
    assert raw_ab == scale(raw_ba, unit("-1"))
    assert multiply(a, b) == multiply(b, a)  # projectively equal
    assert commutator_scalar(a, b) == unit("-1")


def test_square_scalar_examples():
    assert square_scalar(j2()) == unit("-1")
    assert square_scalar(i22()) == unit("1")
    assert square_scalar(elem([0, 1], ["i", "i"], "quaternion")) == unit("-1")


def test_commutator_examples():
    # against the inverse-based reference: +1, -1, +-i (linear and
    # antilinear), the quaternion pair iI, jI, and both errors
    shift = elem([1, 2, 3, 0], ["1"] * 4, "complex")
    clock = elem([0, 1, 2, 3], ["1", "i", "-1", "-i"], "complex")
    tau = conjugation_element(4)
    iI, jI = (elem([0], [u], "quaternion") for u in ("i", "j"))
    cases = [
        (i22(), i22(), "1"),
        (i22(), jprime2(), "-1"),
        (j2(), k1(), "-1"),
        (shift, clock, "-i"),
        (clock, shift, "i"),
        (multiply(tau, elem([3, 2, 1, 0], ["1"] * 4, "complex")), clock, "i"),
        (multiply(tau, elem([1, 0, 3, 2], ["1"] * 4, "complex")), clock, "-i"),
        (iI, jI, "-1"),
    ]
    for x, y, lam in cases:
        assert commutator_scalar(x, y) == inverse_commutator(x, y) == unit(lam)
    cyc = elem([1, 2, 0], ["1", "1", "1"], "real")
    sign = elem([0, 1, 2], ["-1", "1", "1"], "real")
    swap = elem([1, 0, 2], ["1", "1", "1"], "real")  # x y and y x differ in perm only
    for x, y in ((cyc, sign), (cyc, swap), (i22(), i22("complex")), (i22(), cyc)):
        expected = value_or_error(lambda: inverse_commutator(x, y))
        assert value_or_error(lambda: commutator_scalar(x, y)) == expected
        assert expected in ("pair does not projectively commute", "size or mode mismatch")


@settings(deadline=None)
@given(
    st.sampled_from(["real", "complex", "quaternion"]),
    st.integers(1, 8) | st.just(256),
    st.booleans(),
    st.data(),
)
def test_scalar_canonicalization_stability(mode, n, conj, data):
    # in every mode, antilinear elements in complex mode, n from 1 to 8 and
    # n = 256: the stored entries are the least entry tuple among the
    # element's scalar multiples, whichever multiple it is built from, and
    # rebuilding an element from its own fields gives an equal element
    conj = conj and mode == "complex"
    perm = data.draw(st.permutations(range(n)))
    units = sorted(matgrp._MODE_UNITS[mode])
    entries = data.draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    scalars = matgrp._MODE_SCALARS[mode]
    e = ProjectiveElement(mode, conj, perm, entries)
    assert tuple(e.entries) == min(scale((perm, entries), lam)[1] for lam in scalars)
    assert (e.field_mode, e.conj, tuple(e.perm)) == (mode, conj, tuple(perm))
    assert ProjectiveElement(e.field_mode, e.conj, e.perm, e.entries) == e
    lam = data.draw(st.sampled_from(scalars))
    assert ProjectiveElement(mode, conj, perm, scale((perm, entries), lam)[1]) == e


@pytest.mark.parametrize(
    "perm, entries, reason",
    [
        ([0.0, 1.0], [0, 0], "not a permutation with one entry per column"),
        ([None, 0], [0, 0], "not a permutation with one entry per column"),
        ([0, 256], [0, 0], "not a permutation with one entry per column"),
        ([0, 1], [0, 1.0], "entry 1.0 is not a unit of mode real"),
        ([0, 1], [0, -4], "entry -4 is not a unit of mode real"),
    ],
)
def test_constructor_refuses_values_that_are_not_column_indices_or_units(perm, entries, reason):
    # ints outside 0..255 and non-ints, which bytes() would refuse or misread,
    # raise the constructor's own ValueError
    with pytest.raises(ValueError) as exc:
        ProjectiveElement("real", False, perm, entries)
    assert str(exc.value) == reason


# what a caller might put where a column index or a unit code goes
odd_values = st.integers(-300, 300) | st.sampled_from(
    [True, False, 0.0, 1.5, -1, -4, 256, 2**70, None, "1"]
)


@st.composite
def constructor_arguments(draw):
    """A mode (now and then an unknown one), a flag, and a perm and entries
    that start valid and then may get odd values, repeats, one column too
    many or too few, or become bytes; n runs up to 6 and over the cap."""
    mode = draw(st.sampled_from(MODES * 3 + ["octonion"]))
    n = draw(st.sampled_from([*range(7), *range(1, 7), 255, 256, 257]))
    units = sorted(references.REFERENCE_UNITS.get(mode, range(8)))
    columns = [
        draw(st.permutations(range(n))),
        draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)),
    ]
    for values, edits in zip(columns, ([0, 0, 0, 0, 1, 2], [0, 0, 1, 2])):
        for _ in range(draw(st.sampled_from(edits))):
            if values:
                spot = draw(st.integers(0, len(values) - 1))
                values[spot] = draw(odd_values | st.sampled_from(values))
        length = draw(st.sampled_from(["same"] * 4 + ["shorter", "longer"]))
        if length == "shorter" and values:
            values.pop()
        elif length == "longer":
            values.append(draw(odd_values | st.sampled_from(units)))
    if draw(st.booleans()):
        columns = [bytes_if_possible(values) for values in columns]
    return mode, draw(st.booleans()), *columns


def bytes_if_possible(values):
    try:
        return bytes(values)
    except (TypeError, ValueError):
        return values


@settings(max_examples=300, deadline=None)
@given(constructor_arguments())
def test_constructor_matches_column_by_column_checks(arguments):
    # the same element or the same message as the checks written column by
    # column; bools pass as the column indices and unit codes 0 and 1, as
    # bytes() reads them
    def fields():
        e = ProjectiveElement(*arguments)
        return e.field_mode, e.conj, e.perm, e.entries

    expected = value_or_error(lambda: references.checked_fields(*arguments))
    assert value_or_error(fields) == expected


small_monomials = st.builds(
    lambda perm, signs: ProjectiveElement("real", False, perm, [4 * s for s in signs]),
    st.permutations(range(3)).map(tuple),
    st.tuples(*[st.integers(0, 1)] * 3),
)


@given(small_monomials, small_monomials, small_monomials)
def test_multiply_associative(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_extract_sms_examples():
    gamma1 = GeneratedSubgroup.generate([i22(), jprime2()])
    assert invariants(extract_sms(gamma1)) == InvariantTuple(0, 0, 0, 1)

    iI, jI = (elem([0], [u], "quaternion") for u in ("i", "j"))
    quat = GeneratedSubgroup.generate([iI, jI])
    assert invariants(extract_sms(quat)) == InvariantTuple(0, 1, 0, 0)

    single = GeneratedSubgroup.generate([i22()])
    assert invariants(extract_sms(single)) == InvariantTuple(0, 0, 1, 0)


def test_commutator_cocycle_and_mu_compatibility():
    # m(xy, z) = m(x, z) m(y, z) and m(x, y) = mu(x) mu(y) mu(xy) over the
    # whole subgroup, not just generator pairs
    group = canonical_subgroup(matgrp.ORTHOGONAL, InvariantTuple(0, 1, 1, 1))
    elems = group.elements
    for x in elems[::3]:
        for y in elems[::5]:
            mu_x = square_scalar(x)
            mu_y = square_scalar(y)
            xy = multiply(x, y)
            assert commutator_scalar(x, y) == unit_mul(
                unit_mul(mu_x, mu_y), square_scalar(xy)
            )
            for z in elems[::7]:
                lhs = commutator_scalar(xy, z)
                rhs = unit_mul(commutator_scalar(x, z), commutator_scalar(y, z))
                assert lhs == rhs


def test_extract_sms_gamma2():
    gamma2 = GeneratedSubgroup.generate([j2(), k1()])
    space = extract_sms(gamma2)
    assert invariants(space) == InvariantTuple(0, 1, 0, 0)
    from sympf2.sms import defect

    assert defect(space) == -2


def test_canonical_subgroup_round_trip():
    for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
        for eps, delta, r, s in itertools.product((0, 1), (0, 1), range(3), range(3)):
            if eps and delta:
                continue
            t = InvariantTuple(eps, delta, r, s)
            try:
                group = canonical_subgroup(target, t)
            except ValueError:
                continue
            space = extract_sms(group)
            assert space.table == canonical(t).table, (target, t)


def test_canonical_subgroup_examples():
    quat_pair = canonical_subgroup(matgrp.SYMPLECTIC, InvariantTuple(0, 1, 0, 0))
    assert quat_pair.elements[0].n == 1
    assert quat_pair.order() == 4

    gamma1 = canonical_subgroup(matgrp.ORTHOGONAL, InvariantTuple(0, 0, 0, 1))
    assert gamma1.elements[0].n == 2
    assert extract_sms(gamma1).mu_list() == [0, 0, 0, 1]

    diag2 = canonical_subgroup(matgrp.SYMPLECTIC, InvariantTuple(0, 0, 2, 0))
    assert diag2.elements[0].n == 4
    assert invariants(extract_sms(diag2)) == InvariantTuple(0, 0, 2, 0)


def test_block_partition_examples():
    f1 = GeneratedSubgroup.generate([elem([0, 1, 2, 3], ["-1", "-1", "1", "1"], "real")])
    parts = block_partition(f1)
    assert sorted(len(p) for p in parts) == [2, 2]

    f2 = GeneratedSubgroup.generate(
        [
            elem([0, 1, 2, 3], ["-1", "-1", "1", "1"], "real"),
            elem([0, 1, 2, 3], ["-1", "1", "-1", "1"], "real"),
        ]
    )
    assert sorted(len(p) for p in block_partition(f2)) == [1, 1, 1, 1]

    kernel_grp = canonical_subgroup(matgrp.SYMPLECTIC, InvariantTuple(0, 0, 2, 0))
    assert all(len(p) == 1 for p in block_partition(kernel_grp))
    # a rank-2 diagonal group at n = 8: four parts of size 2
    big = GeneratedSubgroup.generate(
        [
            elem(range(8), ["-1", "1"] * 4, "real"),
            elem(range(8), ["-1", "-1", "1", "1"] * 2, "real"),
        ]
    )
    parts = block_partition(big)
    assert len(parts) == 4 and all(len(p) == 2 for p in parts)


def test_block_partition_rejects_unbalanced():
    bad = GeneratedSubgroup.generate([elem([0, 1, 2, 3], ["-1", "1", "1", "1"], "real")])
    with pytest.raises(ValueError, match="half-and-half"):
        block_partition(bad)


def test_twisted_identity_small():
    for n in range(1, 9):
        z = conjugation_element(n)
        for p in range(n + 1):
            assert twisted_mu_identity_check(z, diag_involution(n, p)) == (True, True)


def test_twisted_identity_refuses_other_pairs():
    # the recipe holds for plain z and +-1 diagonal x only; any other pair raises
    z = conjugation_element(4)
    with pytest.raises(ValueError, match="z must be plain"):
        twisted_mu_identity_check(multiply(z, j2("complex")), diag_involution(4, 2))
    with pytest.raises(ValueError, match=r"x must be \+-1 diagonal"):
        twisted_mu_identity_check(z, j2("complex"))
    with pytest.raises(ValueError, match=r"x must be \+-1 diagonal"):
        twisted_mu_identity_check(z, diag_involution(3, 1))
    with pytest.raises(ValueError, match="z must be antilinear"):
        twisted_mu_identity_check(diag_involution(4, 1), diag_involution(4, 2))


def test_twisted_j_case():
    # z = tau0 [J] (the quaternionic outer class), x = [I_{2,2}] at n = 4.
    # The comparison identity reads mu(z) mu(zx) = mu-value of x in the
    # z-fixed form, and the latter equals commutator(z, x) * square(x):
    # when z x z^-1 = -x, the z-fixed lift of x is i x, whose square flips.
    jmat = j2("complex")
    z = multiply(conjugation_element(4), jmat)
    assert square_scalar(z) == unit("-1")
    x = diag_involution(4, 2)
    lam = commutator_scalar(z, x)
    assert lam == unit("-1")
    zx = multiply(z, x)
    assert square_scalar(zx) == unit("1")  # z x ~ plain conjugation
    lhs = unit_mul(square_scalar(z), square_scalar(zx))
    rhs = unit_mul(lam, square_scalar(x))
    assert lhs == rhs == unit("-1")


def test_extract_rejects_antilinear():
    grp = GeneratedSubgroup.generate([conjugation_element(2)])
    with pytest.raises(ValueError, match="antilinear"):
        extract_sms(grp)


def test_non_elementary_abelian_group_is_refused():
    # a 3-cycle has projective order 3 and a non-scalar commutator with a
    # diagonal sign pattern
    cyc = elem([1, 2, 0], ["1", "1", "1"], "real")
    sign = elem([0, 1, 2], ["-1", "1", "1"], "real")
    bad = GeneratedSubgroup.generate([cyc, sign])
    with pytest.raises(ValueError, match="power of two"):
        bad.rank()
    with pytest.raises(ValueError, match="closure did not double"):
        extract_sms(bad)


def test_generate_cap():
    cyc = elem([1, 2, 0], ["1", "1", "1"], "real")
    sign = elem([0, 1, 2], ["-1", "1", "1"], "real")
    with pytest.raises(ValueError, match="cap"):
        GeneratedSubgroup.generate([cyc, sign], cap=4)


# --- generate() against the breadth-first closure ------------------------------


def breadth_first_closure(generators, cap):
    """The sorted closure, found by multiplying every element by every generator.

    The reference for GeneratedSubgroup.generate: same elements, and the
    same ValueError exactly when the closure has more than cap elements.
    """
    gens = tuple(generators)
    ident = identity(gens[0].n, gens[0].field_mode)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                prod = references.multiply(cur, g)
                if prod not in seen:
                    if len(seen) >= cap:
                        raise ValueError("closure exceeds the size cap")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(seen, key=element_tuple))


def element_tuple(e):
    return e.conj, tuple(e.perm), tuple(e.entries)


MODES = ["real", "complex", "quaternion"]


def monomials(n, mode, perms=None):
    """Random n x n monomials of the mode, antilinear ones in complex mode."""
    units = sorted(matgrp._MODE_UNITS[mode])
    return st.builds(
        lambda perm, entries, conj: ProjectiveElement(mode, conj, perm, entries),
        st.permutations(range(n)).map(tuple) if perms is None else perms,
        st.lists(st.sampled_from(units), min_size=n, max_size=n).map(tuple),
        st.booleans() if mode == "complex" else st.just(False),
    )


@settings(deadline=None)
@given(st.sampled_from(MODES), st.integers(1, 8) | st.just(256), st.data())
def test_inverse_round_trip(mode, n, data):
    # in every mode, antilinear elements included, n from 1 to 8 and
    # n = 256: inverse(a) is the column-by-column inverse, conjugated
    # entrywise when a is antilinear, and a inverse(a) = inverse(a) a = 1
    a = data.draw(monomials(n, mode))
    inv = references.raw_inverse(raw(a))
    expected = ProjectiveElement(mode, a.conj, *(references.conj_entries(inv) if a.conj else inv))
    assert inverse(a) == expected
    assert multiply(a, inverse(a)) == multiply(inverse(a), a) == identity(n, mode)


@st.composite
def generator_lists(draw):
    """Monomial generators on n <= 4 in one field mode, antilinear ones in
    complex mode, then repeats and products of earlier ones appended and
    the list shuffled.  Random monomials rarely commute."""
    mode = draw(st.sampled_from(MODES))
    gens = draw(st.lists(monomials(draw(st.integers(1, 4)), mode), min_size=1, max_size=4))
    links = st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7))
    for product, i, j in draw(st.lists(links, max_size=4)):
        a, b = gens[i % len(gens)], gens[j % len(gens)]
        gens.append(multiply(a, b) if product else a)
    return draw(st.permutations(gens))


def value_or_error(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(generator_lists())
def test_generate_matches_breadth_first_closure(gens):
    # at cap 200 and, when the closure fits, at its size and one below
    closure = value_or_error(lambda: breadth_first_closure(gens, 200))
    caps = [200] if isinstance(closure, str) else [200, len(closure), len(closure) - 1]
    for cap in caps:
        expected = value_or_error(lambda: breadth_first_closure(gens, cap))
        assert value_or_error(lambda: GeneratedSubgroup.generate(gens, cap).elements) == expected


def test_generate_skips_listed_generators_already_in_the_group(monkeypatch):
    # a rank-9 group with each generator listed 40 times (360 generators):
    # the breadth-first closure multiplies each of the 512 elements by all
    # 360 of them, the coset closure makes 502 coset products and 45
    # representative products in the byte kernel, and extract_sms, reading
    # the closure's build order, makes none; its kernel calls are the raw
    # products of 512 squares and 36 commutators.  Neither builds an element
    # object, nor does parse_generators beyond the listed generators (here
    # each listed 7 times, under the cap of 64).
    t = InvariantTuple(0, 0, 3, 3)
    group = canonical_subgroup(matgrp.ORTHOGONAL, t)
    doc = {"field_mode": group.field_mode, "n": group.n, "generators": [
        {"perm": list(g.perm), "entries": [matgrp.UNIT_NAMES[e] for e in g.entries]}
        for g in group.generators for _ in range(7)
    ]}
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            raw = name == "_product" and args[3] is matgrp._RAW
            calls["raw products" if raw else name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(matgrp, "_product")
    count(ProjectiveElement, "__init__")
    listed = GeneratedSubgroup.generate([g for g in group.generators for _ in range(40)])
    assert calls == {"_product": 547}
    space = extract_sms(listed)
    assert calls == {"_product": 547, "raw products": 512 + 2 * 36}
    calls.clear()
    parsed = parse_generators(json.dumps(doc))
    parsed_space = extract_sms(parsed)
    monkeypatch.undo()
    assert calls["__init__"] == 63
    assert listed.elements == parsed.elements == group.elements
    assert invariants(space) == t  # on a greedy basis of the elements
    assert space == parsed_space == reference_extract(listed)


# --- extract_sms against the re-multiplying extraction ------------------------


def reference_extract(group):
    """extract_sms with all 2^k subset products of the basis multiplied out.

    The reference for extract_sms on a GeneratedSubgroup: the listed
    generators when they are independent, else the greedy basis of the
    sorted elements, spanned by products.  Gives the same space, and raises
    ValueError exactly when extract_sms does, though not always with the
    same reason.
    """
    if any(e.conj for e in group.elements):
        raise ValueError("antilinear elements present: extract the inner part instead")
    ident = identity(group.elements[0].n, group.elements[0].field_mode)
    basis = list(group.generators)
    if (1 << len(basis)) != group.order():
        basis, span = [], {ident}
        for e in group.elements:
            if e not in span:
                basis.append(e)
                span |= {references.multiply(s, e) for s in span}
    if (1 << len(basis)) != group.order():
        raise ValueError("basis does not span the subgroup")
    elem_of = [ident] * (1 << len(basis))
    for v in range(1, 1 << len(basis)):
        low = (v & -v).bit_length() - 1
        elem_of[v] = references.multiply(elem_of[v ^ (1 << low)], basis[low])
    if len(set(elem_of)) != len(elem_of):
        raise ValueError("basis is not independent")
    return matgrp._tabulate(
        basis, [references.square_scalar(e) for e in elem_of], references.commutator_scalar
    )


# --- commutator_scalar against the inverse-based commutator -------------------


def inverse_commutator(x, y):
    """x y x^-1 y^-1 multiplied out with two inverses and three products.

    The reference for commutator_scalar: the same scalar, or the same
    ValueError.
    """
    if x.n != y.n or x.field_mode != y.field_mode:
        raise ValueError("size or mode mismatch")

    def raw_inv(a):
        inv = references.raw_inverse(raw(a))
        return (references.conj_entries(inv) if a.conj else inv), a.conj

    m1, f1 = references.raw_mul(raw(x), x.conj, raw(y), y.conj)
    m2, f2 = references.raw_mul(*raw_inv(x), *raw_inv(y))
    m, flag = references.raw_mul(m1, f1, m2, f2)
    if flag or not references.is_scalar(m):
        raise ValueError("pair does not projectively commute")
    return m[1][0] if x.n else 0


@st.composite
def commuting_pairs(draw, mode):
    """Pairs that commute projectively: diagonal units (exactly commuting in
    real and complex mode), tensor-slot words, or the clock and shift
    matrices of n = 4, whose commutator in complex mode is +-i."""
    kind = draw(st.sampled_from(["diagonal", "slot", "clock"]))
    if kind == "diagonal":
        n = draw(st.integers(1, 4))
        diagonal = monomials(n, mode, perms=st.just(tuple(range(n))))
        return draw(diagonal), draw(diagonal)
    units = (0, 4) if mode == "real" else (0, 1, 4, 5) if mode == "complex" else range(8)
    if kind == "slot":
        n = 1 << draw(st.integers(0, 2))
        word = st.tuples(st.sampled_from(units), st.integers(0, n - 1), st.integers(0, n - 1))
        flag = st.booleans() if mode == "complex" else st.just(False)
        return tuple(word_element(mode, draw(word), n, draw(flag)) for _ in range(2))
    root = unit("i") if mode != "real" else unit("-1")
    powers = [0]
    for _ in range(3):
        powers.append(unit_mul(powers[-1], root))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    shift = ProjectiveElement(mode, False, [(c + a) % 4 for c in range(4)], (0,) * 4)
    clock = ProjectiveElement(mode, False, range(4), [powers[b * c % 4] for c in range(4)])
    return shift, clock


@st.composite
def commutator_pairs(draw):
    """Pairs on n <= 4 in one field mode: commuting patterns, conjugated
    by a random monomial half the time, or two random monomials, which
    rarely commute; now and then the sizes or modes differ."""
    mode = draw(st.sampled_from(MODES))
    kind = draw(st.sampled_from(["pattern", "pattern", "random", "mismatch"]))
    if kind == "random":
        n = draw(st.integers(1, 4))
        return draw(monomials(n, mode)), draw(monomials(n, mode))
    if kind == "mismatch":
        other = draw(st.sampled_from(MODES))
        n = draw(st.integers(1, 4))
        m = n if other != mode else draw(st.integers(1, 4))
        return draw(monomials(n, mode)), draw(monomials(m, other))
    x, y = draw(commuting_pairs(mode))
    if draw(st.booleans()):
        g = draw(monomials(x.n, mode))
        x, y = (multiply(multiply(g, e), inverse(g)) for e in (x, y))
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(max_examples=400, deadline=None)
@given(commutator_pairs())
def test_commutator_scalar_matches_inverse_commutator(pair):
    x, y = pair
    expected = value_or_error(lambda: inverse_commutator(x, y))
    assert value_or_error(lambda: commutator_scalar(x, y)) == expected


def test_commutator_scalar_matches_inverse_commutator_for_n_up_to_2():
    # every pair of monomials on n <= 2 in each mode, antilinear ones in
    # complex mode: quaternion pairs reach every unit as lambda here, and
    # lambda = a_0 conj(b_0) must not be taken as conj(b_0) a_0
    outcomes = set()
    for mode, n in itertools.product(MODES, (1, 2)):
        units = sorted(matgrp._MODE_UNITS[mode])
        elements = [
            ProjectiveElement(mode, conj, perm, entries)
            for perm in itertools.permutations(range(n))
            for entries in itertools.product(units, repeat=n)
            for conj in ((False, True) if mode == "complex" else (False,))
        ]
        for x, y in itertools.product(elements, repeat=2):
            expected = value_or_error(lambda: inverse_commutator(x, y))
            assert value_or_error(lambda: commutator_scalar(x, y)) == expected, (x, y)
            outcomes.add(expected)
    assert outcomes == set(range(8)) | {"pair does not projectively commute"}


# --- the byte kernel against the column-by-column products -------------------


def kernel_outcomes(x, y, module, sort_key):
    """x y, y x, both squares and the commutator by module's multiply,
    square_scalar and commutator_scalar, each a value or the ValueError's
    text; then the order in which the elements among them sort by sort_key."""
    mul, square = module.multiply, module.square_scalar
    out = [value_or_error(lambda: mul(x, y)), value_or_error(lambda: mul(y, x))]
    out += [value_or_error(lambda: square(e)) for e in (x, y)]
    out.append(value_or_error(lambda: module.commutator_scalar(x, y)))
    elems = [e for e in out[:2] if isinstance(e, ProjectiveElement)] + [x, y]
    out.append([elems.index(e) for e in sorted(elems, key=sort_key)])
    return out


def assert_kernel_matches(x, y):
    got = kernel_outcomes(x, y, matgrp, matgrp._key)
    assert got == kernel_outcomes(x, y, references, element_tuple), (x, y)


def element_order(x, mul):
    """The least k <= 1000 with x^k = 1, else None; orders on n <= 8 stay
    at or below 8 * 15 (an antilinear flag, a unit, a permutation order)."""
    ident = identity(x.n, x.field_mode)
    power = x
    for k in range(1, 1001):
        if power == ident:
            return k
        power = mul(power, x)
    return None


def conjugated(g, x):
    return references.multiply(references.multiply(g, x), inverse(g))


@st.composite
def kernel_pairs(draw):
    """Two monomials on n <= 8 in one field mode, antilinear ones in complex
    mode: random, diagonal, x with its square, or conjugated tensor-slot
    words (n a power of two), which commute projectively; now and then the
    sizes or modes differ."""
    mode = draw(st.sampled_from(MODES))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "diagonal", "square", "slot", "mismatch"]))
    x = draw(monomials(n, mode))
    if kind == "random":
        return x, draw(monomials(n, mode))
    if kind == "diagonal":
        diagonal = monomials(n, mode, perms=st.just(tuple(range(n))))
        return draw(diagonal), draw(diagonal)
    if kind == "square":
        return x, references.multiply(x, x)
    if kind == "mismatch":
        other = draw(st.sampled_from(MODES))
        m = n if other != mode else draw(st.integers(1, 8))
        return x, draw(monomials(m, other))
    n = 1 << (n.bit_length() - 1)
    units = (0, 4) if mode == "real" else (0, 1, 4, 5) if mode == "complex" else range(8)
    word = st.tuples(st.sampled_from(units), st.integers(0, n - 1), st.integers(0, n - 1))
    flag = st.booleans() if mode == "complex" else st.just(False)
    g = draw(monomials(n, mode))
    return tuple(conjugated(g, word_element(mode, draw(word), n, draw(flag))) for _ in range(2))


@settings(max_examples=400, deadline=None)
@given(kernel_pairs())
def test_kernel_matches_column_by_column_products(pair):
    x, y = pair
    assert_kernel_matches(x, y)
    assert element_order(x, multiply) == element_order(x, references.multiply)


def test_kernel_matches_column_by_column_products_at_full_width():
    # n = 255 and 256, where perm and entries fill every byte value up to
    # n - 1: random pairs, diagonal pairs, x with its square, and (n = 256)
    # conjugated tensor-slot words
    rng = random.Random(256)
    for n, mode in itertools.product((255, 256), MODES):
        units = sorted(matgrp._MODE_UNITS[mode])

        def monomial(diagonal=False):
            perm = list(range(n))
            if not diagonal:
                rng.shuffle(perm)
            entries = tuple(rng.choice(units) for _ in range(n))
            conj = mode == "complex" and rng.random() < 0.5
            return ProjectiveElement(mode, conj, perm, entries)

        x = monomial()
        pairs = [(x, monomial()), (monomial(True), monomial(True)), (x, references.multiply(x, x))]
        if n == 256:
            g = monomial()
            words = [(rng.choice(units), rng.randrange(n), rng.randrange(n)) for _ in range(4)]
            slots = [conjugated(g, word_element(mode, w, n)) for w in words]
            pairs += [(slots[0], slots[1]), (slots[2], slots[3])]
        for x, y in pairs:
            assert_kernel_matches(x, y)


def test_generator_file_round_trip():
    doc = """
    {"field_mode": "real", "n": 4,
     "generators": [
       {"perm": [0, 1, 2, 3], "entries": ["-1", "-1", "1", "1"]},
       {"perm": [2, 3, 0, 1], "entries": ["1", "1", "1", "1"]}
     ]}
    """
    group = parse_generators(doc)
    assert group.order() == 4
    assert invariants(extract_sms(group)) == InvariantTuple(0, 0, 0, 1)


def test_generator_file_errors():
    with pytest.raises(ValueError):
        parse_generators('{"field_mode": "real", "n": 2}')
    with pytest.raises(ValueError):
        parse_generators('{"field_mode": "real", "n": 2, "generators": [{"perm": [0, 1]}]}')


# --- tensor-slot words against column-by-column matrices ---------------------


@st.composite
def word_pairs(draw, mode):
    """n <= 16 and two words (q, x, z) on it with units of the mode."""
    n = 1 << draw(st.integers(0, 4))
    units = (0, 4) if mode == "real" else tuple(range(8))
    word = st.tuples(st.sampled_from(units), st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(word), draw(word)


@pytest.mark.parametrize("mode", ["real", "quaternion"])
@given(data=st.data())
def test_word_arithmetic_matches_matrices(mode, data):
    n, a, b = data.draw(word_pairs(mode))
    ab = references.word_product(a, b)
    product = matrix_product(matgrp._word_matrix(a, n), matgrp._word_matrix(b, n))
    assert tuple(map(tuple, matgrp._word_matrix(ab, n))) == product
    pa, pb = word_element(mode, a, n), word_element(mode, b, n)
    assert word_element(mode, ab, n) == multiply(pa, pb)
    slots = n.bit_length() - 1
    assert matgrp._squares([references.word_class(mode, a, slots)], n) == [square_scalar(pa)]
    assert matgrp._word_commutator(a, b) == commutator_scalar(pa, pb)


@pytest.mark.parametrize("mode", sorted(matgrp._BEST_SCALAR))
def test_scalar_class_is_an_xor_homomorphism(mode):
    # the class of a product of words is the XOR of their classes, so the
    # subset products of CanonicalSubgroup are the span of the generators'
    # classes; best is the lookup _products packs q through
    best = [unit_mul(lam, q) for q, lam in enumerate(matgrp._BEST_SCALAR[mode])]
    assert max(best) < 4  # the class field above x and z is two bits wide
    for a, b in itertools.product(range(8), repeat=2):
        assert best[unit_mul(a, b)] == best[a] ^ best[b], (a, b)


@st.composite
def independent_words(draw, mode):
    """n = 2^slots with up to 6 slots, and words on it with units of the mode
    that are independent modulo scalars: their classes (references.word_class)
    are independent.  The class of q X^x Z^z is (x, z) and the least q of its
    scalar multiples: q & 3 in real and quaternion mode, but 0 for +-1 and
    +-i in complex mode, where i is a scalar."""
    slots = draw(st.integers(0, 6))
    n = 1 << slots
    units = sorted(references.REFERENCE_UNITS[mode])
    word = st.tuples(st.sampled_from(units), st.integers(0, n - 1), st.integers(0, n - 1))
    words, span = [], {0}
    for w in draw(st.lists(word, max_size=8)):
        v = references.word_class(mode, w, slots)
        if v not in span:
            words.append(w)
            span |= {s ^ v for s in span}
    return n, words


@pytest.mark.parametrize("mode", MODES)
@settings(deadline=None)
@given(data=st.data())
def test_word_kernels_match_products_element_by_element(mode, data):
    # entry v of the product table is the class of the product of the words
    # in the subset v, taken in list order with its sign, and its square
    # scalar is entry v of the squares: multiplied out as matrices for
    # n <= 16, by the word formula above that
    n, words = data.draw(independent_words(mode))
    slots = n.bit_length() - 1
    products = matgrp.CanonicalSubgroup(n, mode, tuple(words))._products
    squares = matgrp._squares(products, n)
    assert len(products) == len(squares) == 1 << len(words)
    for v, (packed, square) in enumerate(zip(products, squares)):
        factors = [w for i, w in enumerate(words) if v >> i & 1]
        signed = (0, 0, 0)
        for f in factors:
            signed = references.word_product(signed, f)
        assert packed == references.word_class(mode, signed, slots)
        word = (packed >> 2 * slots, packed >> slots & n - 1, packed & n - 1)
        if n <= 16:
            matrix = (range(n), (0,) * n)
            for f in factors:
                matrix = matrix_product(matrix, matgrp._word_matrix(f, n))
            element = ProjectiveElement(mode, False, *matrix)
            assert matgrp._word_matrix(word, n) == (element.perm, element.entries)
            assert square == references.square_scalar(element)
        else:
            q, x, z = word  # the scalar multiple with the least q
            assert square == unit_mul(q, q) ^ ((x & z).bit_count() & 1) << 2


# The matrix patterns canonical_subgroup is defined by, built column by column.


def diag_sign_pattern(n, bit, mode):
    units = [4 if (c >> bit) & 1 else 0 for c in range(n)]
    return ProjectiveElement(mode, False, range(n), units)


def bitflip_pattern(n, bit, mode):
    perm = [c ^ (1 << bit) for c in range(n)]
    return ProjectiveElement(mode, False, perm, (0,) * n)


def j_pattern(n, bit, mode):
    perm = [c ^ (1 << bit) for c in range(n)]
    entries = [0 if (c >> bit) & 1 else 4 for c in range(n)]
    return ProjectiveElement(mode, False, perm, entries)


def k_pattern(n, bit_lo, mode):
    lo, hi = 1 << bit_lo, 1 << (bit_lo + 1)
    perm = [c ^ lo for c in range(n)]
    entries = [(4 if c & lo else 0) if c & hi else (0 if c & lo else 4) for c in range(n)]
    return ProjectiveElement(mode, False, perm, entries)


def reference_generators(target, t, n, mode):
    gens = [diag_sign_pattern(n, i, mode) for i in range(t.r)]
    base = t.r
    if target == matgrp.SYMPLECTIC:
        i, j = (ProjectiveElement(mode, False, range(n), (unit(u),) * n) for u in ("i", "j"))
        gens += [i] * t.eps + [i, j] * t.delta
    else:
        if t.eps:
            gens.append(j_pattern(n, base, mode))
            base += 1
        if t.delta:
            gens += [j_pattern(n, base + 1, mode), k_pattern(n, base, mode)]
            base += 2
    for p in range(base, base + t.s):
        gens += [diag_sign_pattern(n, p, mode), bitflip_pattern(n, p, mode)]
    return tuple(gens)


def accepted_tuples():
    for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
        for eps, delta in ((0, 0), (1, 0), (0, 1)):
            for r in range(7):
                for s in range(7):
                    t = InvariantTuple(eps, delta, r, s)
                    try:
                        group = canonical_subgroup(target, t)
                    except ValueError:
                        continue
                    yield target, t, group


def test_canonical_words_expand_to_reference_patterns():
    seen = 0
    for target, t, group in accepted_tuples():
        if target == matgrp.SYMPLECTIC:
            n, mode = 1 << (t.r + t.s), "quaternion"
        else:
            n, mode = 1 << (t.r + t.s + t.eps + 2 * t.delta), "real"
        assert group.generators == reference_generators(target, t, n, mode), (target, t)
        assert group.order() == 1 << t.ambient_rank
        seen += 1
    assert seen == 148  # every tuple with ambient size <= 64


def test_canonical_words_match_generated_group():
    # generate() closes the matrices with no use of the words.  Ranks 10-14
    # (26 of the 148 tuples) would add about 7 s, most of it extract_sms
    # on the reference, so they are left to the round trip against
    # canonical(t).
    seen = 0
    for target, t, group in accepted_tuples():
        if t.ambient_rank > 9:
            continue
        if group.generators:
            reference = GeneratedSubgroup.generate(group.generators)
        else:
            reference = GeneratedSubgroup.trivial(group.n, group.field_mode)
        assert group.elements == reference.elements, (target, t)
        space = extract_sms(reference)
        assert extract_sms(group) == space == reference_extract(reference), (target, t)
        seen += 1
    assert seen > 0


def test_dependent_words_are_rejected():
    # each list is dependent only modulo the scalars of its mode
    cases = [
        (2, "real", ((0, 0, 1), (4, 0, 1))),  # Z_0 and -Z_0 are one projective element
        (4, "quaternion", ((1, 1, 2), (5, 1, 2))),  # i X Z and -i X Z
        (4, "complex", ((0, 3, 1), (1, 3, 1))),  # X Z and i X Z: i is a scalar
        (4, "complex", ((5, 2, 0), (4, 1, 3), (0, 3, 3))),  # their product is i times the third
        (2, "quaternion", ((1, 1, 0), (2, 0, 1), (3, 1, 1))),  # (i X)(j Z)(k X Z) = 1
    ]
    for n, mode, words in cases:
        group = matgrp.CanonicalSubgroup(n, mode, words)
        with pytest.raises(ValueError, match="not independent"):
            extract_sms(group)
        with pytest.raises(ValueError, match="not independent"):
            group.order()
