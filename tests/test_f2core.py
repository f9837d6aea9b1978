import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympf2.f2core import (
    F2Matrix,
    F2Vector,
    Subspace,
    _span,
    enumerate_gl,
    gl_order,
    nullspace,
    rank,
    solve,
)


def test_rank_examples():
    assert rank(F2Matrix.zero(3, 3)) == 0
    assert rank(F2Matrix.identity(4)) == 4
    assert rank(F2Matrix.from_rows([[0, 1], [1, 0]])) == 2


def test_nullspace_examples():
    assert nullspace(F2Matrix.identity(3)).dim == 0
    full = nullspace(F2Matrix.zero(2, 2))
    assert full.dim == 2
    assert nullspace(F2Matrix.from_rows([[0, 1], [1, 0]])).dim == 0


def test_solve_examples():
    ident = F2Matrix.identity(3)
    b = F2Vector.from_coords([1, 0, 1])
    assert solve(ident, b) == b
    assert solve(F2Matrix.zero(2, 2), F2Vector.from_coords([1, 0])) is None
    m = F2Matrix.from_rows([[1, 1], [0, 1]])
    x = solve(m, F2Vector.from_coords([1, 1]))
    assert x == F2Vector.from_coords([0, 1])


matrices = st.integers(1, 7).flatmap(
    lambda c: st.integers(1, 7).flatmap(
        lambda r: st.lists(
            st.integers(0, (1 << c) - 1), min_size=r, max_size=r
        ).map(lambda rows: F2Matrix.from_row_bits(rows, c))
    )
)


@given(matrices)
def test_rank_nullity(m):
    assert rank(m) + nullspace(m).dim == m.cols


@given(matrices)
def test_nullspace_vectors_annihilate(m):
    ker = nullspace(m)
    for v in ker.elements():
        assert m.apply(v).is_zero()


@given(matrices, st.integers(0, (1 << 7) - 1))
def test_solve_contract(m, raw):
    b = F2Vector(m.rows, raw & ((1 << m.rows) - 1))
    x = solve(m, b)
    if x is not None:
        assert m.apply(x) == b
    else:
        aug = F2Matrix(
            m.rows + 0,
            m.cols + 1,
            tuple(
                F2Vector(m.cols + 1, r.bits | (((b.bits >> i) & 1) << m.cols))
                for i, r in enumerate(m.row_data)
            ),
        )
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
    m = F2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    inv = m.inverse()
    assert (m @ inv).row_bits() == F2Matrix.identity(3).row_bits()
    assert (inv @ m).row_bits() == F2Matrix.identity(3).row_bits()


def test_subspace_canonical_form():
    s1 = Subspace.spanned_by([0b011, 0b110], 3)
    s2 = Subspace.spanned_by([0b101, 0b011], 3)
    assert s1 == s2
    assert s1.dim == 2
    assert s1.contains(0b101)
    assert not s1.contains(0b001)


@given(matrices)
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


@given(matrices)
def test_inverse_exactly_when_full_rank(m):
    if m.rows != m.cols:
        with pytest.raises(ValueError):
            m.inverse()
    # the leading square block, so singular and invertible cases both occur
    n = min(m.rows, m.cols)
    sq = F2Matrix.from_row_bits([r & ((1 << n) - 1) for r in m.row_bits()[:n]], n)
    if rank(sq) < n:
        with pytest.raises(ValueError):
            sq.inverse()
        return
    inv = sq.inverse()
    assert sq @ inv == inv @ sq == F2Matrix.identity(n)


@given(matrices, st.data())
def test_spanned_by_ignores_order_and_sums(m, data):
    rows = m.row_bits()
    base = Subspace.spanned_by(rows, m.cols)
    order = data.draw(st.permutations(rows))
    assert Subspace.spanned_by(order, m.cols) == base
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows) - 1))
    assert Subspace.spanned_by(rows + [rows[i] ^ rows[j]], m.cols) == base


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
