from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympf2.f2core import F2Matrix, _combine, _echelon, _nullspace, _span, _transpose, gl_order, rank

from references import (
    add_constraint,
    echelonize,
    eliminate,
    enumerate_gl,
    identity,
    inverse,
    product,
    solutions,
)


def solve(rows, rhs, cols):
    """Some x with parity(rows[i] & x) = bit i of rhs, or None, by the reference solver."""
    system = ([], [])
    for i, row in enumerate(rows):
        system = add_constraint(system, row, 1 << i)
    return solutions(system, rhs, cols)[0]


def apply(rows, v):
    """M v as a word: bit i is parity(rows[i] & v)."""
    return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(rows))


def test_rank_examples():
    assert rank(F2Matrix.from_row_bits([0, 0, 0], 3)) == 0
    assert rank(identity(4)) == 4
    assert rank(F2Matrix.from_row_bits([0b10, 0b01], 2)) == 2


def test_nullspace_examples():
    assert _nullspace([0b001, 0b010, 0b100], 3) == []
    assert _nullspace([0, 0], 2) == [0b01, 0b10]
    assert _nullspace([0b10, 0b01], 2) == []
    assert _nullspace([0b011], 3) == [0b011, 0b100]


def test_solve_examples():
    assert solve([0b001, 0b010, 0b100], 0b101, 3) == 0b101
    assert solve([0, 0], 0b01, 2) is None
    assert solve([0b11, 0b10], 0b11, 2) == 0b10


matrices = st.integers(1, 7).flatmap(
    lambda c: st.integers(1, 7).flatmap(
        lambda r: st.lists(
            st.integers(0, (1 << c) - 1), min_size=r, max_size=r
        ).map(lambda rows: F2Matrix.from_row_bits(rows, c))
    )
)


@given(matrices)
def test_rank_nullity(m):
    assert rank(m) + len(_nullspace(m.row_bits(), m.cols)) == m.cols


@given(matrices)
def test_nullspace_vectors_annihilate(m):
    rows = m.row_bits()
    basis = _nullspace(rows, m.cols)
    for v in _span(basis):
        assert apply(rows, v) == 0


@given(matrices, st.integers(0, (1 << 7) - 1))
def test_solve_contract(m, raw):
    rows = m.row_bits()
    b = raw & ((1 << m.rows) - 1)
    x = solve(rows, b, m.cols)
    if x is not None:
        assert apply(rows, x) == b
    else:
        aug = F2Matrix.from_row_bits([r | (b >> i & 1) << m.cols for i, r in enumerate(rows)], m.cols + 1)
        assert rank(aug) == rank(m) + 1


systems = st.integers(0, 16).flatmap(
    lambda width: st.tuples(
        st.lists(st.integers(0, (1 << width) - 1), max_size=20), st.just(width)
    )
)


@given(systems)
def test_echelon_and_nullspace_match_reference_solver(case):
    # the pivots in the same order, and the same kernel basis in the same
    # order, which isomorphism_to_canonical's witness is built from
    rows, width = case
    system = eliminate(rows)
    assert _echelon(rows) == [(row, pbit) for row, _, pbit in system[0]]
    assert _nullspace(rows, width) == solutions(system, 0, width)[1]


@given(systems)
def test_combine_and_transpose_match_their_definitions(case):
    # the witness's two products: G x and the rows of T, as word routines
    vectors, width = case
    table = _span(vectors)
    # every x up to 13 vectors, then the lowest and highest 2^12: hypothesis
    # draws many 20-vector lists, and 2^20 calls each would take seconds
    edge = 1 << 12
    for x in chain(range(min(len(table), edge)), range(max(edge, len(table) - edge), len(table))):
        assert _combine(vectors, x) == table[x]
    cols = _transpose(vectors, width)
    assert len(cols) == width
    assert all((cols[j] >> i & 1) == (v >> j & 1) for i, v in enumerate(vectors) for j in range(width))
    assert _transpose(cols, len(vectors)) == vectors


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 6), (3, 168)])
def test_enumerate_gl_counts(n, count):
    mats = list(enumerate_gl(n))
    assert len(mats) == count == gl_order(n)
    assert len({tuple(m.row_bits()) for m in mats}) == count
    assert all(rank(m) == n for m in mats)


def test_enumerate_gl_four():
    assert sum(1 for _ in enumerate_gl(4)) == gl_order(4) == 20160


def test_enumerate_gl_bound():
    with pytest.raises(ValueError):
        next(enumerate_gl(6))


def test_matrix_product_and_inverse():
    m = F2Matrix.from_row_bits([0b011, 0b110, 0b100], 3)
    inv = inverse(m)
    assert product(m, inv) == product(inv, m) == identity(3)


def test_subspace_canonical_form():
    s1 = echelonize([0b011, 0b110])
    assert s1 == echelonize([0b101, 0b011]) == [0b101, 0b110]
    assert echelonize(s1 + [0b110]) == s1
    assert echelonize(s1 + [0b001]) != s1


@given(matrices)
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


@given(matrices)
def test_inverse_exactly_when_full_rank(m):
    if m.rows != m.cols:
        with pytest.raises(ValueError):
            inverse(m)
    # the leading square block, so singular and invertible cases both occur
    n = min(m.rows, m.cols)
    sq = F2Matrix.from_row_bits([r & ((1 << n) - 1) for r in m.row_bits()[:n]], n)
    if rank(sq) < n:
        with pytest.raises(ValueError):
            inverse(sq)
        return
    inv = inverse(sq)
    assert product(sq, inv) == product(inv, sq) == identity(n)


@given(matrices, st.data())
def test_spanned_by_ignores_order_and_sums(m, data):
    rows = m.row_bits()
    base = echelonize(rows)
    order = data.draw(st.permutations(rows))
    assert echelonize(order) == base
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows) - 1))
    assert echelonize(rows + [rows[i] ^ rows[j]]) == base


@given(st.lists(st.integers(0, (1 << 9) - 1), max_size=6))
def test_span_table_is_subset_sums(vs):
    table = _span(vs)
    assert len(table) == 1 << len(vs)
    for v, x in enumerate(table):
        acc = 0
        for i, w in enumerate(vs):
            if (v >> i) & 1:
                acc ^= w
        assert x == acc
