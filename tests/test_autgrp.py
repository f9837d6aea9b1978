import functools
import itertools
import random
import time

import pytest

from sympf2.autgrp import (
    COUNT_RANK_BOUND,
    ENUMERATION_RANK_BOUND,
    _AffineSearch,
    _SpanSearch,
    _space_search,
    count_automorphisms,
    count_pairing_automorphisms,
    enumerate_automorphisms,
    mu_zero_nonzero_count,
    plain_symplectic_space,
    sp_full_order,
    sp_metric_order,
    sp_order,
    sp_vector_order,
)
from sympf2.catalog import build_label_model, enumerate_all, p_order
from sympf2.f2core import F2Matrix, _nullspace, _span, gl_order
from sympf2.sms import (
    MAX_RANK,
    InvariantTuple,
    SymplecticMetricSpace,
    _unpack,
    admissible_tuples,
    canonical,
    is_isomorphic,
    isomorphism_to_canonical,
    transport,
    validate,
)
from sympf2.verify import verify_comparisons

from references import affine_candidates, close_by_bits, inverse, partner_combos, product


def test_order_examples():
    assert sp_order(1) == 6
    assert sp_order(2) == 720
    assert sp_order(3) == 1451520
    assert sp_metric_order(1, 0, 0) == 2
    assert sp_metric_order(0, 0, 1) == 6
    assert sp_metric_order(3, 0, 0) == 40320
    assert sp_metric_order(1, 0, 1) == 120
    assert sp_metric_order(2, 0, 1) == 51840
    assert sp_vector_order(1, 0) == 6
    assert sp_vector_order(1, 2) == 2 ** 4 * 6 * 6 == 576


@pytest.mark.parametrize(
    "order, args",
    [
        (sp_full_order, (0, 0, -1, 0)),
        (sp_vector_order, (-1, 0)),
        (sp_order, (-2,)),
        (gl_order, (-3,)),
        (p_order, (-1, -1)),
    ],
)
def test_closed_forms_reject_negative_arguments(order, args):
    with pytest.raises(ValueError, match="nonnegative"):
        order(*args)


def test_enumerate_small_spaces():
    only_z = canonical(InvariantTuple(1, 0, 0, 0))
    mats = list(enumerate_automorphisms(only_z))
    assert len(mats) == 1
    assert mats[0].row_bits() == [1]

    hyperbolic = canonical(InvariantTuple(0, 0, 0, 1))
    assert len(list(enumerate_automorphisms(hyperbolic))) == 2

    all_ones = canonical(InvariantTuple(0, 1, 0, 0))
    assert len(list(enumerate_automorphisms(all_ones))) == 6


def test_enumerated_matrices_preserve_mu():
    space = canonical(InvariantTuple(0, 0, 1, 1))
    mats = list(enumerate_automorphisms(space))
    assert len(mats) == sp_full_order(0, 0, 1, 1)
    for t in mats:
        assert transport(space, t).table == space.table


def test_stream_is_sorted_and_duplicate_free():
    space = canonical(InvariantTuple(0, 1, 1, 0))
    keys = [tuple(m.transpose().row_bits()) for m in enumerate_automorphisms(space)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_closure_under_product_and_inverse():
    space = canonical(InvariantTuple(0, 0, 0, 1))
    group = {tuple(m.row_bits()) for m in enumerate_automorphisms(space)}
    mats = [F2Matrix.from_row_bits(list(k), space.rank) for k in group]
    for a in mats:
        assert tuple(inverse(a).row_bits()) in group
        for b in mats:
            assert tuple(product(a, b).row_bits()) in group


def test_count_matches_enumeration_and_formula():
    for eps, delta, r, s in itertools.product((0, 1), (0, 1), range(3), range(3)):
        if eps and delta:
            continue
        t = InvariantTuple(eps, delta, r, s)
        if t.ambient_rank > 5:
            continue
        space = canonical(t)
        n = count_automorphisms(space)
        assert n == len(list(enumerate_automorphisms(space)))
        assert n == sp_full_order(eps, delta, r, s)


def _leaf_count(search):
    return sum(1 for _ in search.tuples())


def _random_invertible(rng, k):
    while True:
        mat = F2Matrix.from_row_bits([rng.getrandbits(k) for _ in range(k)], k)
        if mat.is_invertible():
            return mat


def _reference_order(search):
    """|Aut| by one existence search per level-j candidate, top-down.

    The count that order() replaced: with e_0..e_{j-1} fixed, the level-j
    orbit is e_j plus every other candidate that reaches a leaf.  It keeps
    no automorphism, so it shares no orbit bookkeeping with order().
    """

    def extends(w):
        if len(search.images) + 1 == search.k:
            return True
        search._push(w)
        found = any(extends(x) for x in search._candidates(len(search.images)))
        search._pop()
        return found

    total = 1
    for j in range(search.k):
        e = 1 << j
        total *= 1 + sum(1 for w in search._candidates(j) if w != e and extends(w))
        search._push(e)
    for _ in range(search.k):
        search._pop()
    return total


def test_order_matches_reference_on_canonical_tuples():
    checked = 0
    for t in admissible_tuples(7):
        space = canonical(t)
        assert _space_search(space).order() == _reference_order(_space_search(space)), t
        checked += 1
    assert checked == 48


def test_order_matches_reference_after_basis_change():
    rng = random.Random(3)
    checked = 0
    for t in admissible_tuples(6):
        if t.ambient_rank == 0:
            continue
        space = canonical(t)
        for _ in range(3):
            moved = transport(space, _random_invertible(rng, space.rank))
            assert _space_search(moved).order() == _reference_order(_space_search(moved)), t
            checked += 1
    assert checked == 3 * 36


def test_order_matches_reference_on_label_models():
    checked = 0
    for e in enumerate_all():
        model = build_label_model(e)
        if model is None:
            continue
        mu = _unpack(model.rank, model.table)
        order = _SpanSearch(model.rank, mu).order()
        assert order == _reference_order(_SpanSearch(model.rank, mu)), e
        checked += 1
    assert checked == 85


def _images(gen, v):
    out = 0
    for i, w in enumerate(gen):
        if v >> i & 1:
            out ^= w
    return out


def _check_certificate(search, preserves, expected):
    # each generator is an automorphism fixing the prefix of its level, and
    # each orbit is exactly the orbit of e_j under the generators of levels
    # >= j; by orbit-stabilizer the group they generate then has order at
    # least the product of the orbit sizes, which here is the formula
    orbits, generators = search._chain()
    k = search.k
    assert len(orbits) == len(generators) == k
    total = 1
    for j in range(k):
        for gen in generators[j]:
            assert len(gen) == k
            assert gen[:j] == tuple(1 << i for i in range(j))
            assert len({_images(gen, v) for v in range(1 << k)}) == 1 << k
            assert preserves(gen)
        gens = [g for level in generators[j:] for g in level]
        orbit = {1 << j}
        todo = [1 << j]
        while todo:
            v = todo.pop()
            for gen in gens:
                x = _images(gen, v)
                if x not in orbit:
                    orbit.add(x)
                    todo.append(x)
        assert orbits[j][0] == 1 << j
        assert len(orbits[j]) == len(orbit) and set(orbits[j]) == orbit
        total *= len(orbit)
    assert total == expected == search.order()


def test_chain_certifies_metric_orders():
    for t in admissible_tuples(ENUMERATION_RANK_BOUND):
        space = canonical(t)

        def preserves(gen):
            return all(space.mu(_images(gen, v)) == space.mu(v) for v in range(1 << space.rank))

        _check_certificate(
            _space_search(space), preserves, sp_full_order(t.eps, t.delta, t.r, t.s)
        )


def test_chain_certifies_pairing_orders():
    for s in range(ENUMERATION_RANK_BOUND // 2 + 1):
        for t in range(ENUMERATION_RANK_BOUND - 2 * s + 1):
            gram = list(plain_symplectic_space(s, t))
            k = len(gram)

            def preserves(gen):
                # m(x, y) is the parity of y against the XOR of the rows of x
                return all(
                    bin(_images(gram, gen[a]) & gen[b]).count("1") % 2 == gram[a] >> b & 1
                    for a in range(k)
                    for b in range(k)
                )

            _check_certificate(
                _AffineSearch(k, gram), preserves, sp_vector_order(s, t)
            )


def test_orbit_stabilizer_order_matches_leaf_count():
    # V_{5,0;0,0} is left out: its 9,999,360 leaves take about ten seconds
    checked = 0
    for t in admissible_tuples(5):
        if (t.eps, t.delta, t.r) == (0, 0, 5):
            continue
        space = canonical(t)
        order = _space_search(space).order()
        assert order == _leaf_count(_space_search(space)), t
        assert order == sp_full_order(t.eps, t.delta, t.r, t.s), t
        checked += 1
    assert checked == 26


def test_orbit_stabilizer_order_matches_leaf_count_after_basis_change():
    # a non-canonical basis reorders the levels and moves the radical, so
    # the prefix stabilizers differ from those of the canonical basis
    rng = random.Random(2)
    checked = 0
    for t in admissible_tuples(6):
        order = sp_full_order(t.eps, t.delta, t.r, t.s)
        if t.ambient_rank == 0 or order >= 1 << 17:
            continue
        space = canonical(t)
        for _ in range(3):
            moved = transport(space, _random_invertible(rng, space.rank))
            assert _space_search(moved).order() == order, t
            assert _leaf_count(_space_search(moved)) == order, t
            checked += 1
    assert checked == 3 * 28


def test_count_after_basis_change_reaches_enumeration_rank_bound():
    # every tuple under four basis changes, and the two spaces whose counts
    # took 26 s and 51 s before the candidates kept the radical structure.
    # The 242 counts take about 0.45 s together on a 2-vCPU 2.1 GHz Xeon.
    spaces = [
        (t, transport(canonical(t), _random_invertible(random.Random(seed), t.ambient_rank)))
        for t in admissible_tuples(ENUMERATION_RANK_BOUND)
        for seed in range(4)
    ]
    spaces += [
        (t, transport(canonical(t), _random_invertible(random.Random(5), t.ambient_rank)))
        for t in (InvariantTuple(1, 0, 1, 3), InvariantTuple(0, 1, 2, 2))
    ]
    assert len(spaces) == 4 * 61 + 2
    start = time.perf_counter()
    for t, space in spaces:
        assert count_automorphisms(space) == sp_full_order(t.eps, t.delta, t.r, t.s), t
    assert time.perf_counter() - start < 5.0


@functools.cache
def _gl_columns(k):
    """Every invertible k x k matrix over GF(2) as its column words, ascending."""
    out = []

    def extend(cols, span):
        if len(cols) == k:
            out.append(tuple(cols))
            return
        for w in range(1, 1 << k):
            if w not in span:
                extend(cols + [w], span | {x ^ w for x in span})

    extend([], {0})
    return out


def _pairs(gram, x, y):
    # m(x, y): the parity of y against the XOR of the Gram rows over x
    return bin(_images(gram, x) & y).count("1") % 2


def _preserving(gl, mu):
    """The column tuples in gl whose matrices preserve the table mu, in gl's order.

    The basis images rule out most matrices before the table is built.
    """
    return [
        c for c in gl
        if all(mu[w] == mu[1 << i] for i, w in enumerate(c))
        and bytes(mu[x] for x in _span(c)) == mu
    ]


def test_isomorphisms_match_gl_brute_force():
    # the search on a basis change of each space against every invertible
    # matrix, at rank <= 4: a candidate rule that drops a leaf or lets a
    # non-isometry through fails here, whatever order() says
    rng = random.Random(11)
    checked = 0
    for k in range(1, 5):
        gl = _gl_columns(k)
        for t in admissible_tuples(k):
            if t.ambient_rank != k:
                continue
            a = transport(canonical(t), _random_invertible(rng, k))
            brute = _preserving(gl, _unpack(k, a.table))
            assert [tuple(m.column_bits()) for m in enumerate_automorphisms(a)] == brute, t
            checked += 1
        for s in range(k // 2 + 1):
            gram = list(plain_symplectic_space(s, k - 2 * s))
            b = _random_invertible(rng, k).column_bits()
            ga = [sum(_pairs(gram, b[i], b[j]) << j for j in range(k)) for i in range(k)]
            brute = [
                c for c in gl
                if all(_pairs(ga, c[i], c[j]) == ga[i] >> j & 1 for i in range(k) for j in range(k))
            ]
            assert list(_AffineSearch(k, ga).tuples()) == brute, (s, k)
            checked += 1
    assert checked == 18 + 8


def test_span_check_leaves_match_gl_brute_force():
    # the span-check rule lists exactly the matrices preserving each label
    # model's table, bilinear or not, at rank <= 4, and each seeded table
    models = {}
    for e in enumerate_all():
        model = build_label_model(e)
        if model is not None and model.rank <= 4:
            models[model.rank, model.table] = model
    assert len(models) == 28
    assert sum(not validate(model)[0] for model in models.values()) == 5
    for (k, table), model in sorted(models.items()):
        mu = _unpack(k, table)
        assert list(_SpanSearch(k, mu).tuples()) == _preserving(_gl_columns(k), mu), model
    # seeded tables with mu(0) = 0 and little symmetry: on a quadratic or a
    # highly symmetric table, a check that skips some v can still list the
    # right leaves
    rng = random.Random(29)
    for k in (3, 4):
        for _ in range(4):
            mu = bytes([0, *(rng.getrandbits(1) for _ in range((1 << k) - 1))])
            assert list(_SpanSearch(k, mu).tuples()) == _preserving(_gl_columns(k), mu), mu


def test_count_reaches_enumeration_rank_bound():
    checked = 0
    for t in admissible_tuples(ENUMERATION_RANK_BOUND):
        assert count_automorphisms(canonical(t)) == sp_full_order(t.eps, t.delta, t.r, t.s), t
        checked += 1
    assert checked == 61
    for s in range(ENUMERATION_RANK_BOUND // 2 + 1):
        for t in range(ENUMERATION_RANK_BOUND - 2 * s + 1):
            gram = plain_symplectic_space(s, t)
            assert count_pairing_automorphisms(gram) == sp_vector_order(s, t), (s, t)


@pytest.mark.parametrize("eps,delta,r,s", [(0, 1, 0, 5), (0, 0, 0, 6), (1, 0, 3, 4)])
def test_order_reaches_rank_twelve(eps, delta, r, s):
    # each count takes 0.04-0.15 s on a 2-vCPU 2.1 GHz Xeon; one existence
    # search per candidate took 1.8-2.3 s
    space = canonical(InvariantTuple(eps, delta, r, s))
    assert space.rank == 12
    start = time.perf_counter()
    assert count_automorphisms(space) == sp_full_order(eps, delta, r, s)
    assert time.perf_counter() - start < 1.0


def test_counts_above_enumeration_rank_bound():
    # every metric tuple and every pairing-only space of rank 9-12, and the
    # chain certificate on a few of rank 9-10: about 3 s together on a
    # 2-vCPU 2.1 GHz Xeon
    start = time.perf_counter()
    checked = 0
    for t in admissible_tuples(12):
        if t.ambient_rank > ENUMERATION_RANK_BOUND:
            assert count_automorphisms(canonical(t)) == sp_full_order(t.eps, t.delta, t.r, t.s), t
            checked += 1
    assert checked == 127 - 61
    for k in range(ENUMERATION_RANK_BOUND + 1, 13):
        for s in range(k // 2 + 1):
            gram = plain_symplectic_space(s, k - 2 * s)
            assert count_pairing_automorphisms(gram) == sp_vector_order(s, k - 2 * s), (s, k)
    for t in (InvariantTuple(0, 1, 1, 3), InvariantTuple(1, 0, 2, 3), InvariantTuple(0, 0, 10, 0)):
        space = canonical(t)

        def preserves(gen):
            return all(space.mu(_images(gen, v)) == space.mu(v) for v in range(1 << space.rank))

        _check_certificate(
            _space_search(space), preserves, sp_full_order(t.eps, t.delta, t.r, t.s)
        )
    assert time.perf_counter() - start < 15.0


def test_enumeration_rank_bound(monkeypatch):
    # listing stops at ENUMERATION_RANK_BOUND; the counts reach sms.MAX_RANK,
    # which a metric space (a label model too) cannot exceed, and refuse a
    # larger pairing-only space before the search allocates anything
    assert (ENUMERATION_RANK_BOUND, COUNT_RANK_BOUND) == (8, MAX_RANK)
    with pytest.raises(ValueError, match="enumeration is bounded at rank <= 8"):
        next(enumerate_automorphisms(canonical(InvariantTuple(0, 0, 9, 0))))
    monkeypatch.setattr("sympf2.autgrp._AffineSearch", None)
    with pytest.raises(ValueError, match="bounded at rank <= 16"):
        count_pairing_automorphisms(plain_symplectic_space(0, 17))
    with pytest.raises(ValueError, match="outside supported range"):
        SymplecticMetricSpace(17, 0)


def test_table_closure_matches_bit_loop(monkeypatch):
    # the same orbits, listed in the same order, and the same kept generators
    spaces = [canonical(t) for t in admissible_tuples(ENUMERATION_RANK_BOUND)]
    rng = random.Random(7)
    for t in (InvariantTuple(0, 0, 3, 2), InvariantTuple(1, 0, 2, 2), InvariantTuple(0, 1, 1, 2)):
        spaces += [transport(canonical(t), _random_invertible(rng, t.ambient_rank)) for _ in range(2)]
    assert len(spaces) == 61 + 6
    by_tables = [_space_search(space)._chain() for space in spaces]

    def close(points, mark, flag, tables, new):
        # a table's entries at the basis vectors are its generator's basis images
        gens = [tuple(t[1 << i] for i in range(len(t).bit_length() - 1)) for t in tables]
        close_by_bits(points, mark, flag, gens, new)

    monkeypatch.setattr("sympf2.autgrp._close", close)
    for space, chain in zip(spaces, by_tables):
        assert _space_search(space)._chain() == chain, space


def _affine_cases():
    """(search, mu bytes or None) for each canonical table of rank <= 8 and
    two seeded basis changes of it, and each pairing-only space of rank <= 8."""
    rng = random.Random(30)
    cases = []
    for t in admissible_tuples(ENUMERATION_RANK_BOUND):
        space = canonical(t)
        for x in [space] + [transport(space, _random_invertible(rng, t.ambient_rank)) for _ in range(2)]:
            cases.append((_space_search(x), _unpack(x.rank, x.table)))
    for s in range(ENUMERATION_RANK_BOUND // 2 + 1):
        for t in range(ENUMERATION_RANK_BOUND - 2 * s + 1):
            gram = list(plain_symplectic_space(s, t))
            cases.append((_AffineSearch(len(gram), gram), None))
    assert len(cases) == 3 * 61 + 25
    return cases


def test_mask_candidates_match_gray_walk_reference():
    # every _candidates call of a chain, at its own levels and in the _leaf
    # descents, against the Gray walk over the solved pairing system that
    # the table masks replaced
    cases = _affine_cases()
    calls = levels = 0
    for search, mu in cases:
        candidates = search._candidates

        def checked(j, search=search, mu=mu, candidates=candidates):
            nonlocal calls
            calls += 1
            assert j == len(search.images)
            got = list(candidates(j))
            assert got == sorted(affine_candidates(search.gram, mu, search.images)), search.images
            return iter(got)

        search._candidates = checked
        search._chain()
        levels += search.k
    # more calls than chain levels: the descents were checked too
    assert calls > levels


def test_partners_from_kernel_mask_match_reference_pass():
    # _AffineSearch reads each partner off the kernel mask; the reference
    # eliminates the Gram rows with combos.  A level has a partner under
    # both or neither, and e_j + v is radical for the mask's v: the cases
    # of the candidate test, V_{16,0;0,0} and V_{0,8;0,0}
    searches = [search for search, _ in _affine_cases()]
    for t in (InvariantTuple(0, 0, 16, 0), InvariantTuple(0, 0, 0, 8)):
        searches.append(_space_search(canonical(t)))
    with_partner = 0
    for search in searches:
        gram = search.gram
        for j, (partner, combo) in enumerate(zip(search.partners, partner_combos(gram))):
            assert (partner is None) == (combo is None), (gram, j)
            if partner is None:
                continue
            with_partner += 1
            assert partner == sorted(set(partner)) and all(i < j for i in partner)
            pairing = gram[j]
            for i in partner:
                pairing ^= gram[i]
            assert pairing == 0, (gram, j, partner)
    assert with_partner > len(searches)


@pytest.mark.parametrize(
    "gram, message",
    [
        ((2, 0), "Gram rows are not symmetric"),
        ((5,), r"each Gram row must be an int in 0\.\.1$"),
        ((1,), "Gram rows have a nonzero diagonal"),
        ((-1,), r"each Gram row must be an int in 0\.\.1$"),
        ((0b10, 0b01, 0b1000), r"each Gram row must be an int in 0\.\.7$"),
        ((True,), r"each Gram row must be an int in 0\.\.1$"),
        ((1.0,), r"each Gram row must be an int in 0\.\.1$"),
        ((1,) * 17, "bounded at rank <= 16"),
    ],
    ids=["asymmetric", "row-too-wide", "diagonal", "negative-row", "row-past-rank",
         "bool-row", "float-row", "rank-17"],
)
def test_pairing_count_rejects_rows_that_are_not_alternating(monkeypatch, gram, message):
    # checked before any search is built; the rank bound comes first
    monkeypatch.setattr("sympf2.autgrp._AffineSearch", None)
    with pytest.raises(ValueError, match=message):
        count_pairing_automorphisms(gram)


def test_isomorphism_search_between_transported_spaces():
    # the explicit map space -> moved from the two canonical witnesses:
    # transport(x, T_x) is the canonical model for either x, so
    # T = T_space T_moved^-1 pulls `space` back to `moved`
    space = canonical(InvariantTuple(0, 1, 0, 1))
    moved = transport(space, F2Matrix.from_row_bits([0b0011, 0b0010, 0b0100, 0b1001], 4))
    t = product(isomorphism_to_canonical(space), inverse(isomorphism_to_canonical(moved)))
    assert transport(space, t).table == moved.table


def _isomorphic_by_brute_force(a, b):
    """Whether some invertible T has b.mu(T v) = a.mu(v) for every v."""
    mu_a, mu_b = _unpack(a.rank, a.table), _unpack(b.rank, b.table)
    return a.rank == b.rank and any(
        bytes(mu_b[x] for x in _span(c)) == mu_a for c in _gl_columns(a.rank)
    )


def test_no_isomorphism_between_different_classes():
    a = canonical(InvariantTuple(0, 0, 0, 1))
    b = canonical(InvariantTuple(0, 1, 0, 0))
    assert not _isomorphic_by_brute_force(a, b)


def test_is_isomorphic_matches_bijection_search():
    # invariant equality against a search over GL(k, 2), exhaustively at
    # rank <= 2 and across class representatives plus a sample at rank 3
    for k in (1, 2):
        spaces = [
            SymplecticMetricSpace(k, table)
            for table in range(0, 1 << (1 << k), 2)
            if validate(SymplecticMetricSpace(k, table))[0]
        ]
        for a in spaces:
            for b in spaces:
                assert is_isomorphic(a, b) == _isomorphic_by_brute_force(a, b)

    rank3 = [
        SymplecticMetricSpace(3, table)
        for table in range(0, 1 << 8, 2)
        if validate(SymplecticMetricSpace(3, table))[0]
    ]
    for a in rank3[::7]:
        for b in rank3[::9]:
            assert is_isomorphic(a, b) == _isomorphic_by_brute_force(a, b)


def test_vanishing_count_identity():
    for s in (1, 2, 3):
        assert mu_zero_nonzero_count(s) == ((1 << s) - 1) * ((1 << (s - 1)) + 1)


def test_metric_to_plain_counting_identity():
    # |Sp(s;eps,delta)| * (number of suitable involution images) recovers
    # |Sp(s+delta;eps)|: the orbit-stabilizer bridge between the metric
    # orders and the plain symplectic orders
    for eps, delta in ((0, 0), (1, 0), (0, 1)):
        for s in range(0, 4):
            lhs = sp_metric_order(s, eps, delta)
            a = s + delta
            orbit = (1 << (a + eps)) + (1 - eps) * (-1) ** delta * (1 << eps)
            orbit <<= a - 1 if a else 0
            if a == 0:
                continue
            assert lhs * orbit == sp_vector_order(a, eps), (eps, delta, s)


def test_verify_comparisons():
    checks = list(verify_comparisons())
    assert all(check.passed for check in checks)
    assert len(checks) == 12


def test_rank_zero_group_is_trivial():
    assert count_automorphisms(SymplecticMetricSpace(0, 0)) == 1


@pytest.mark.parametrize(
    "s,t", [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (0, 3)]
)
def test_plain_symplectic_orders_by_enumeration(s, t):
    gram = plain_symplectic_space(s, t)
    rows = list(gram)
    leaves = _leaf_count(_AffineSearch(len(rows), rows))
    reference = _reference_order(_AffineSearch(len(rows), rows))
    assert count_pairing_automorphisms(gram) == leaves == reference == sp_vector_order(s, t)


def test_plain_symplectic_space_shape():
    gram = plain_symplectic_space(2, 1)
    assert gram == (0b10, 0b01, 0b1000, 0b0100, 0)
    assert len(_nullspace(gram, len(gram))) == 1
