import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympf2 import autgrp, cli, matgrp, sms
from sympf2.autgrp import count_automorphisms
from sympf2.f2core import F2Matrix, _combine, _span
from sympf2.sms import (
    MAX_RANK,
    InvariantTuple,
    SymplecticMetricSpace,
    _analyze,
    _coordinates,
    _pack,
    _pairings,
    _split_kernel,
    _table_from_basis_data,
    _translates,
    _unpack,
    canonical,
    defect,
    invariants,
    is_isomorphic,
    isomorphism_to_canonical,
    parse_mu_table,
    to_mu_table_json,
    transport,
    validate,
)

from references import echelonize, enumerate_gl, gram_rows, validity


def space_of(mu):
    return SymplecticMetricSpace.from_mu_list(list(mu))


HYPERBOLIC = space_of([0, 0, 0, 1])
ALL_ONES = space_of([0, 1, 1, 1])


def _translate(k, table, x):
    """The table of y -> mu(x + y), one block swap per set bit of x: the reference for _translates."""
    for i, c in enumerate(_coordinates(k)):
        if x >> i & 1:
            h = 1 << i
            table = (table >> h) & ~c | (table << h) & c
    return table


def brute_force_bilinear(space):
    """Oracle: check m(x+y, z) = m(x, z) + m(y, z) over every triple."""
    n = 1 << space.rank
    if space.mu(0):
        return False
    return all(
        space.m(x ^ y, z) == (space.m(x, z) ^ space.m(y, z))
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def test_validate_examples():
    assert validate(HYPERBOLIC)[0]
    one_nonzero = space_of([0, 1, 0, 0, 0, 0, 0, 0])
    assert not validate(one_nonzero)[0]
    four_even = space_of([0, 1, 1, 1, 1, 0, 0, 0])
    assert validate(four_even)[0]
    assert validate(SymplecticMetricSpace(1, 3)) == (False, "mu(0) must be 0")


def test_validate_against_brute_force_rank_le_3():
    for k in range(4):
        for table in range(0, 1 << (1 << k), 2):  # mu(0) = 0
            space = SymplecticMetricSpace(k, table)
            assert validate(space)[0] == brute_force_bilinear(space)


def test_validate_against_brute_force_rank4_sample():
    # full triple-loop bilinearity oracle on a deterministic sample
    for table in range(0, 1 << 16, 2 * 61):
        space = SymplecticMetricSpace(4, table)
        assert validate(space)[0] == brute_force_bilinear(space)


def test_rank3_parity_rule():
    for table in range(0, 1 << 8, 2):
        space = SymplecticMetricSpace(3, table)
        even = table.bit_count() % 2 == 0
        assert validate(space)[0] == even


def translation_basis(space):
    """A basis of A_V = {x in ker m : mu(x) = 0}."""
    ker = _analyze(space)[2]
    return _split_kernel(_unpack(space.rank, space.table), ker)[0]


def test_kernel_examples():
    assert _analyze(HYPERBOLIC)[2] == []
    assert len(_analyze(SymplecticMetricSpace(3, 0))[2]) == 3
    v110 = canonical(InvariantTuple(0, 0, 1, 1))
    assert _analyze(v110)[2] == [0b001]


def test_translation_subgroup_examples():
    assert len(translation_basis(SymplecticMetricSpace(2, 0))) == 2
    z_only = canonical(InvariantTuple(1, 0, 0, 0))
    assert translation_basis(z_only) == []
    v210 = canonical(InvariantTuple(0, 0, 2, 1))
    assert len(echelonize(translation_basis(v210))) == 2


def test_translation_inside_kernel():
    for eps, delta, r, s in itertools.product((0, 1), (0, 1), range(3), range(3)):
        if eps and delta:
            continue
        space = canonical(InvariantTuple(eps, delta, r, s))
        a = translation_basis(space)
        ker = _analyze(space)[2]
        assert echelonize(ker + a) == echelonize(ker)
        assert not any(space.mu(v) for v in a)


def test_invariants_examples():
    assert invariants(HYPERBOLIC) == InvariantTuple(0, 0, 0, 1)
    assert invariants(ALL_ONES) == InvariantTuple(0, 1, 0, 0)
    assert invariants(space_of([0, 1])) == InvariantTuple(1, 0, 0, 0)


def test_defect_examples():
    assert defect(HYPERBOLIC) == 2
    assert defect(ALL_ONES) == -2
    assert defect(space_of([0, 1])) == 0
    assert defect(SymplecticMetricSpace(0, 0)) == 1


def test_defect_closed_form_small():
    for eps, delta, r, s in itertools.product((0, 1), (0, 1), range(4), range(3)):
        if eps and delta:
            continue
        t = InvariantTuple(eps, delta, r, s)
        assert defect(canonical(t)) == t.defect_value


def test_admissible_tuples_in_loop_order():
    for max_rank in range(9):
        expected = [
            InvariantTuple(eps, delta, r, s)
            for eps, delta in ((0, 0), (1, 0), (0, 1))
            for r in range(max_rank + 1)
            for s in range(max_rank // 2 + 1)
            if r + eps + 2 * delta + 2 * s <= max_rank
        ]
        assert list(sms.admissible_tuples(max_rank)) == expected


def test_canonical_examples():
    assert canonical(InvariantTuple(0, 0, 0, 1)).mu_list() == [0, 0, 0, 1]
    assert canonical(InvariantTuple(0, 1, 0, 0)).mu_list() == [0, 1, 1, 1]
    # (eps, delta, r, s) = (1, 0, 2, 0): mu = 1 exactly on the z-coset of
    # the translation subgroup, forced by polarization.
    z_exp = canonical(InvariantTuple(1, 0, 2, 0))
    assert z_exp.rank == 3
    assert [v for v in range(8) if z_exp.mu(v)] == [4, 5, 6, 7]


def test_canonical_rejects_eps_delta_both():
    with pytest.raises(ValueError):
        InvariantTuple(1, 1, 0, 0)


def test_invariant_tuple_refuses_a_float_field():
    # otherwise canonical() of it raises TypeError deep in the block product
    with pytest.raises(ValueError, match="must be ints"):
        InvariantTuple(0, 0, 1.5, 0)


def test_space_refuses_a_bool_rank():
    # True == 1, so a space of rank True would equal and hash like one of rank 1
    with pytest.raises(ValueError, match="must be ints"):
        SymplecticMetricSpace(True, 0)


def test_space_refuses_a_float_table():
    with pytest.raises(ValueError, match="must be ints"):
        SymplecticMetricSpace(2, 1.5)


def test_canonical_round_trip():
    for eps, delta, r, s in itertools.product((0, 1), (0, 1), range(5), range(4)):
        if eps and delta:
            continue
        t = InvariantTuple(eps, delta, r, s)
        if t.ambient_rank > 10:
            continue
        assert invariants(canonical(t)) == t


def test_is_isomorphic_examples():
    assert is_isomorphic(HYPERBOLIC, HYPERBOLIC)
    assert not is_isomorphic(HYPERBOLIC, ALL_ONES)


small_gl2 = st.sampled_from(
    [[0b01, 0b10], [0b10, 0b01], [0b11, 0b10], [0b01, 0b11], [0b11, 0b01], [0b10, 0b11]]
)


@given(small_gl2)
def test_isomorphic_after_basis_change(rows):
    t = F2Matrix.from_row_bits(rows, 2)
    assert is_isomorphic(HYPERBOLIC, transport(HYPERBOLIC, t))


def all_valid_spaces(k):
    for table in range(0, 1 << (1 << k), 2):
        space = SymplecticMetricSpace(k, table)
        if validate(space)[0]:
            yield space


def test_transport_preserves_invariants_rank3():
    mats = list(enumerate_gl(3))
    for space in all_valid_spaces(3):
        inv = invariants(space)
        for t in mats[::11]:
            assert invariants(transport(space, t)) == inv


admissible_tuples = st.builds(
    lambda ed, r, s: InvariantTuple(ed[0], ed[1], r, s),
    st.sampled_from([(0, 0), (1, 0), (0, 1)]),
    st.integers(0, 3),
    st.integers(0, 2),
).filter(lambda t: t.ambient_rank <= 5)

transvections = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
    max_size=8,
)


@given(admissible_tuples, transvections)
def test_transport_invariance_random(t, moves):
    space = canonical(t)
    k = space.rank
    rows = [1 << i for i in range(k)]
    for i, j in moves:
        if i < k and j < k:
            rows[i] ^= rows[j]  # elementary row operation, stays invertible
    mat = F2Matrix.from_row_bits(rows, k)
    moved = transport(space, mat)
    assert invariants(moved) == t
    assert is_isomorphic(moved, space)


def test_isomorphism_to_canonical_is_identity_on_canonical():
    tuples = list(sms.admissible_tuples(MAX_RANK))
    assert len(tuples) == 217
    for t in tuples:
        space = canonical(t)
        got = isomorphism_to_canonical(space)
        assert got.row_bits() == [1 << i for i in range(space.rank)], t


def test_isomorphism_to_canonical_permuted_hyperbolic():
    swapped = space_of([0, 0, 0, 1])
    t = isomorphism_to_canonical(transport(swapped, F2Matrix.from_row_bits([0b10, 0b01], 2)))
    assert t.is_invertible()


def test_isomorphism_to_canonical_exhaustive_rank_le_3():
    for k in range(4):
        for space in all_valid_spaces(k):
            t = isomorphism_to_canonical(space)
            assert transport(space, t).table == canonical(invariants(space)).table


def _random_invertible(rng, k):
    while True:
        m = F2Matrix.from_row_bits([rng.getrandbits(k) for _ in range(k)], k)
        if m.is_invertible():
            return m


def tuples_of_rank(k):
    return [
        InvariantTuple(eps, delta, r, (k - r - eps - 2 * delta) // 2)
        for eps, delta in ((0, 0), (1, 0), (0, 1))
        for r in range(k - eps - 2 * delta + 1)
        if (k - r - eps - 2 * delta) % 2 == 0
    ]


WITNESS_RANKS = range(4, MAX_RANK + 1)


@pytest.mark.parametrize("k", WITNESS_RANKS)
def test_witness_canonicalizes_after_seeded_basis_changes(k):
    # the full transported table is the reference for the witness's own
    # check, which rebuilds that table from the pairings of the new basis
    rng = random.Random(1000 + k)
    for t in tuples_of_rank(k):
        space = transport(canonical(t), _random_invertible(rng, k))
        w = isomorphism_to_canonical(space)
        assert transport(space, w).table == canonical(t).table, t


def test_witness_tuples_include_large_radicals():
    big = [t for k in WITNESS_RANKS for t in tuples_of_rank(k) if t.eps and t.r + t.eps >= 8]
    assert {InvariantTuple(1, 0, 11, 0), InvariantTuple(1, 0, 15, 0)} <= set(big) and len(big) == 25


@st.composite
def valid_space_and_basis_change(draw, max_rank=9):
    k, basis_mu, rows = draw(basis_data(max_rank))
    columns = [1 << i for i in range(k)]
    # transvections generate GL(k, 2), and each keeps the columns independent
    for i, j in draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=40)):
        if k > 1 and i % k != j % k:
            columns[i % k] ^= columns[j % k]
    t = F2Matrix.from_row_bits(columns, k).transpose()
    return SymplecticMetricSpace(k, _table_from_basis_data(k, basis_mu, rows)), t


@settings(deadline=None)
@given(valid_space_and_basis_change())
def test_basis_data_table_is_the_transported_table(data):
    # for a bilinear polarization, mu(T v) is fixed by mu(b_i) and m(b_i, b_j)
    # on the columns b_i of T, which is how the witness checks itself
    space, t = data
    k = space.rank
    cols = t.column_bits()
    basis_mu = [space.mu(b) for b in cols]
    rows = [sum(space.m(a, b) << j for j, b in enumerate(cols)) for a in cols]
    assert _table_from_basis_data(k, basis_mu, rows) == transport(space, t).table


def test_mu_table_json_round_trip():
    doc = to_mu_table_json(ALL_ONES)
    assert parse_mu_table(doc).table == ALL_ONES.table
    with pytest.raises(ValueError):
        parse_mu_table('{"rank": 2, "mu": [0, 0, 0]}')
    with pytest.raises(ValueError, match="does not have length"):
        SymplecticMetricSpace(1, 4)  # more than 2^rank bits


def test_rank_zero_space():
    empty = SymplecticMetricSpace(0, 0)
    assert validate(empty)[0]
    assert invariants(empty) == InvariantTuple(0, 0, 0, 0)
    assert defect(empty) == 1


# --- the word-parallel table kernel against the per-entry recurrence ---------


def recurrence(k, basis_mu, gram_rows):
    """Oracle: fill the table entry by entry by polarization,
    mu(v + e_i) = mu(v) + mu(e_i) + m(v, e_i) with e_i the lowest bit of v."""
    vals = bytearray(1 << k)
    for v in range(1, 1 << k):
        i = (v & -v).bit_length() - 1
        rest = v ^ (1 << i)
        vals[v] = vals[rest] ^ basis_mu[i] ^ ((gram_rows[i] & rest).bit_count() & 1)
    return int("".join(map(str, reversed(vals))), 2)


def recurrence_validates(space):
    """Oracle for validate(): mu(0) = 0 and the table equals the recurrence
    fed with its own basis values and m(e_i, e_j) from the definition."""
    if space.mu(0):
        return False
    k = space.rank
    basis_mu = [space.mu(1 << i) for i in range(k)]
    rows = [sum(space.m(1 << i, 1 << j) << j for j in range(k)) for i in range(k)]
    return recurrence(k, basis_mu, rows) == space.table


def symmetric_basis_data(rng_bits, k):
    """(basis mu, symmetric zero-diagonal Gram rows) from a bit source."""
    basis_mu = [rng_bits(1) for _ in range(k)]
    upper = [rng_bits(k) >> (i + 1) << (i + 1) for i in range(k)]  # bits j > i
    rows = [upper[i] | sum(((upper[j] >> i) & 1) << j for j in range(i)) for i in range(k)]
    return basis_mu, rows


@st.composite
def basis_data(draw, max_rank=10):
    k = draw(st.integers(0, max_rank))
    return (k, *symmetric_basis_data(lambda n: draw(st.integers(0, (1 << n) - 1)), k))


@given(basis_data())
def test_word_parallel_build_matches_recurrence(data):
    k, basis_mu, rows = data
    table = _table_from_basis_data(k, basis_mu, rows)
    assert table == recurrence(k, basis_mu, rows)
    # a symmetric zero-diagonal Gram polarizes back to itself
    space = SymplecticMetricSpace(k, table)
    assert validate(space)[0]
    assert _pairings(space)[2] == gram_rows(space)[1] == rows
    assert [space.mu(1 << i) for i in range(k)] == basis_mu


@pytest.mark.parametrize("k", [0, MAX_RANK])
def test_word_parallel_build_matches_recurrence_at_range_ends(k):
    basis_mu, rows = symmetric_basis_data(random.Random(k).getrandbits, k)
    assert _table_from_basis_data(k, basis_mu, rows) == recurrence(k, basis_mu, rows)


tables_rank_le_5 = st.integers(0, 5).flatmap(
    lambda k: st.builds(SymplecticMetricSpace, st.just(k), st.integers(0, (1 << (1 << k)) - 1))
)


@given(tables_rank_le_5)
def test_validate_matches_recurrence(space):
    assert validate(space)[0] == recurrence_validates(space)


def rank6_tuples():
    return [
        InvariantTuple(eps, delta, r, s)
        for eps, delta in ((0, 0), (1, 0), (0, 1))
        for r in range(7)
        for s in range(4)
        if r + eps + 2 * delta + 2 * s == 6
    ]


@settings(max_examples=20)
@given(
    st.sampled_from(rank6_tuples()),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1])),
)
def test_validate_every_single_bit_flip_rank6(t, moves):
    rows = [1 << i for i in range(6)]
    for i, j in moves:
        rows[i] ^= rows[j]
    space = transport(canonical(t), F2Matrix.from_row_bits(rows, 6))
    assert validate(space)[0] and recurrence_validates(space)
    for v in range(64):
        flipped = SymplecticMetricSpace(6, space.table ^ (1 << v))
        assert validate(flipped)[0] == recurrence_validates(flipped)


@given(basis_data(max_rank=6))
def test_gram_is_the_pairing_of_basis_vectors(data):
    # on a valid table, func[b] marks the x with m(x, e_b) = 1 and gram[i]
    # holds m(e_i, e_j), and func[b] is the linear mask of gram[b]
    k, basis_mu, rows = data
    space = SymplecticMetricSpace(k, _table_from_basis_data(k, basis_mu, rows))
    reason, func, gram = _pairings(space)
    assert reason == "valid symplectic metric space"
    assert len(func) == len(gram) == k and all(0 <= row < 1 << k for row in gram)
    assert all((func[b] >> x & 1) == space.m(x, 1 << b) for b in range(k) for x in range(1 << k))
    assert all((gram[i] >> j & 1) == space.m(1 << i, 1 << j) for i in range(k) for j in range(k))
    assert func == [_combine(_coordinates(k), row) for row in gram]


@given(st.integers(0, 6).flatmap(
    lambda k: st.builds(SymplecticMetricSpace, st.just(k), st.integers(0, (1 << (1 << k)) - 1))
))
def test_reference_gram_rows_are_the_pairing_of_basis_vectors(space):
    k = space.rank
    mu, gram = gram_rows(space)
    assert list(mu) == [space.mu(v) for v in range(1 << k)]
    assert len(gram) == k and all(0 <= row < 1 << k for row in gram)
    assert all((gram[i] >> j & 1) == space.m(1 << i, 1 << j) for i in range(k) for j in range(k))


def test_validate_matches_references_on_every_table_of_rank_le_4():
    # the same verdict and reason as the reference check, and the same
    # verdict as the recurrence, on all 2 + 4 + 16 + 256 + 65,536 tables
    tables = 0
    for k in range(5):
        for table in range(1 << (1 << k)):
            space = SymplecticMetricSpace(k, table)
            ok, reason = validate(space)
            assert reason == validity(space), space
            assert ok == (reason == "valid symplectic metric space") == recurrence_validates(space), space
            tables += 1
    assert tables == 65_814


@pytest.mark.parametrize("k", range(5, MAX_RANK + 1))
def test_validate_matches_reference_on_seeded_flips(k):
    # a rebased valid table of each rank 5..16 and seeded one-bit flips of
    # it, bit 0 (mu(0) = 1) among them: the same verdict and reason as the
    # reference check; a one-bit flip adds a term of degree k, so none is valid
    rng = random.Random(33 + k)
    t = rng.choice([t for t in sms.admissible_tuples(k) if t.ambient_rank == k])
    space = _rebased(t, k)
    assert validate(space) == (True, validity(space))
    for v in [0] + rng.sample(range(1, 1 << k), 4):
        flipped = SymplecticMetricSpace(k, space.table ^ 1 << v)
        ok, reason = validate(flipped)
        assert not ok and reason == validity(flipped), (t, v)


def test_canonical_refuses_rank_above_bound():
    assert canonical(InvariantTuple(0, 0, MAX_RANK, 0)).rank == MAX_RANK
    for t in (InvariantTuple(0, 0, MAX_RANK + 1, 0), InvariantTuple(1, 0, 10**9, 10**9)):
        with pytest.raises(ValueError, match="outside supported range"):
            canonical(t)


@given(st.integers(0, 8).flatmap(lambda k: st.lists(st.integers(0, 1), min_size=1 << k, max_size=1 << k)))
def test_from_mu_list_packs_bit_v(mu):
    space = space_of(mu)
    assert space.mu_list() == mu
    assert space.table == sum(bit << v for v, bit in enumerate(mu))


@pytest.mark.parametrize(
    "mu", [[False, True], [0, True], [0, 2], [0, -1], [0, 1.0], [0, "1"], [0, None], [0, 256]]
)
def test_from_mu_list_rejects_non_bits(mu):
    with pytest.raises(ValueError, match="mu values must be 0 or 1"):
        SymplecticMetricSpace.from_mu_list(mu)


@pytest.mark.parametrize(
    "doc",
    [
        '{"rank": true, "mu": [0, 0]}',
        '{"rank": 1.0, "mu": [0, 0]}',
        '{"rank": -1, "mu": []}',
        '{"rank": 17, "mu": []}',
        '{"rank": 1000000000000, "mu": [0]}',
    ],
)
def test_parse_mu_table_checks_rank_before_length(doc):
    with pytest.raises(ValueError, match="'rank' must be an integer|outside supported range"):
        parse_mu_table(doc)


@given(st.integers(0, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, (1 << (1 << k)) - 1))))
def test_translate_is_the_table_of_y_to_mu_x_plus_y(data):
    k, table = data
    space = SymplecticMetricSpace(k, table)
    walk = list(_translates(k, table))
    assert sorted(x for x, _ in walk) == list(range(1 << k))
    for x, moved in walk:
        assert moved == sum(space.mu(x ^ y) << y for y in range(1 << k)) == _translate(k, table, x)


@given(st.integers(0, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, (1 << (1 << k)) - 1))))
def test_unpack_inverts_pack(data):
    k, table = data
    bits = _unpack(k, table)
    assert list(bits) == [table >> v & 1 for v in range(1 << k)]
    assert _pack(bits) == _pack(list(bits)) == table


@given(basis_data(max_rank=6))
def test_translate_radical_is_the_translation_subgroup(data):
    # x with mu(x + y) = mu(y) for all y are the x in ker m with mu(x) = 0
    k, basis_mu, rows = data
    space = SymplecticMetricSpace(k, _table_from_basis_data(k, basis_mu, rows))
    radical = [x for x in range(1 << k) if _translate(k, space.table, x) == space.table]
    assert radical == sorted(_span(translation_basis(space)))


def _rebased(t, seed):
    space = canonical(t)
    rng = random.Random(seed)
    while True:
        m = F2Matrix.from_row_bits([rng.getrandbits(space.rank) for _ in range(space.rank)], space.rank)
        if m.is_invertible():
            return transport(space, m)


def test_one_gram_and_one_validity_check_per_call(monkeypatch, tmp_path):
    # one _pairings pass gives the verdict and the Gram rows; a count hands
    # that pass's func masks to the search and builds none of its own
    counts = collections.Counter()
    passes = []

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def pairings(space):
        passes.append(pairings_of(space))
        return passes[-1]

    pairings_of = sms._pairings
    monkeypatch.setattr(sms, "_pairings", counted("pairings", pairings))
    # count_pairing_automorphisms' way of building func masks from Gram rows
    monkeypatch.setattr(autgrp, "_combine", counted("autgrp._combine", autgrp._combine))

    def per_call(fn, *args):
        counts.clear()
        fn(*args)
        return dict(counts)

    one_each = {"pairings": 1}
    for t in (InvariantTuple(0, 1, 2, 1), InvariantTuple(1, 0, 1, 2), InvariantTuple(0, 0, 2, 2)):
        space = _rebased(t, 5)
        assert per_call(sms.isomorphism_to_canonical, space) == one_each, t
        assert per_call(count_automorphisms, space) == one_each, t  # no autgrp._combine call
        assert autgrp._space_search(space).func is passes[-1][1], t
        path = tmp_path / "space.json"
        path.write_text(to_mu_table_json(space))
        assert per_call(cli.main, ["classify", "--mu-table", str(path)]) == one_each, t
        path.write_text(to_mu_table_json(SymplecticMetricSpace(space.rank, space.table ^ 2)))
        assert per_call(cli.main, ["classify", "--mu-table", str(path)]) == one_each, t
    # extract_sms checks the pairing against the Gram rows of its one validity check
    for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
        group = matgrp.canonical_subgroup(target, InvariantTuple(0, 1, 1, 1))
        assert per_call(matgrp.extract_sms, group) == one_each, target
        doc = {"field_mode": group.field_mode, "n": group.n, "generators": [
            {"perm": list(g.perm), "entries": [matgrp.UNIT_NAMES[e] for e in g.entries]}
            for g in group.generators
        ]}
        parsed = matgrp.parse_generators(json.dumps(doc))
        assert per_call(matgrp.extract_sms, parsed) == one_each, target
