import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympf2.f2core import (
    F2Matrix,
    _add_constraint,
    _echelonize,
    _eliminate,
    _solutions,
    _span,
    gl_order,
    rank,
)

from references import enumerate_gl, identity, inverse, product


def kernel_basis(rows, cols):
    """A basis of {v : parity(row & v) = 0 for every row}."""
    return _solutions(_eliminate(rows), 0, cols)[1]


def solve(rows, rhs, cols):
    """Some x with parity(rows[i] & x) = bit i of rhs, or None."""
    system = ([], [])
    for i, row in enumerate(rows):
        system = _add_constraint(system, row, 1 << i)
    return _solutions(system, rhs, cols)[0]


def apply(rows, v):
    """M v as a word: bit i is parity(rows[i] & v)."""
    return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(rows))


def test_rank_examples():
    assert rank(F2Matrix.from_row_bits([0, 0, 0], 3)) == 0
    assert rank(identity(4)) == 4
    assert rank(F2Matrix.from_row_bits([0b10, 0b01], 2)) == 2


def test_nullspace_examples():
    assert kernel_basis([0b001, 0b010, 0b100], 3) == []
    assert kernel_basis([0, 0], 2) == [0b01, 0b10]
    assert kernel_basis([0b10, 0b01], 2) == []
    assert kernel_basis([0b011], 3) == [0b011, 0b100]


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
    assert rank(m) + len(kernel_basis(m.row_bits(), m.cols)) == m.cols


@given(matrices)
def test_nullspace_vectors_annihilate(m):
    rows = m.row_bits()
    basis = kernel_basis(rows, m.cols)
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
    s1 = _echelonize([0b011, 0b110])
    assert s1 == _echelonize([0b101, 0b011]) == [0b101, 0b110]
    assert _echelonize(s1 + [0b110]) == s1
    assert _echelonize(s1 + [0b001]) != s1


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
    base = _echelonize(rows)
    order = data.draw(st.permutations(rows))
    assert _echelonize(order) == base
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows) - 1))
    assert _echelonize(rows + [rows[i] ^ rows[j]]) == base


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
