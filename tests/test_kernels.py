"""The elimination kernel against the dense oracle.

`build_rref` is the routine every kernel, solve and subquotient goes
through.  A rank needs no canonical form and comes from `echelon`, the
same loop without the back-substitution.  Random sparse inputs over
Q and several F_p are checked against plain Gaussian elimination in
`_oracle.py`, the rref against the definition of a reduced row echelon
form, and the echelon against the rref's pivots.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochcap import kernels, zoo
from hochcap.complexes import boundary_matrix, coboundary_matrix
from hochcap.fields import GF, QQ
from hochcap.linalg import Echelon, kernel_basis

from _oracle import dense_rank

PRIMES = [2, 3, 101, (1 << 31) + 11]


@st.composite
def sparse_rows(draw, p):
    """(ncols, rows); rows may hold zeros."""
    ncols = draw(st.integers(1, 10))
    if p is None:
        value = st.one_of(
            st.integers(-9, 9),
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
        )
    else:
        value = st.integers(-2 * p, 2 * p)
    row = st.dictionaries(st.integers(0, ncols - 1), value, max_size=ncols)
    rows = draw(st.lists(row, max_size=9))
    return ncols, rows


def is_canonical_q(v):
    """An int, or a Fraction that is not integral."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _rank(rows, ncols, p):
    return dense_rank([[r.get(c, 0) for c in range(ncols)] for r in rows], p)


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=80)
@given(data=st.data())
def test_build_rref_matches_oracle(p, data):
    field = QQ if p is None else GF(p)
    ncols, rows = data.draw(sparse_rows(p))

    pivots, out = kernels.build_rref(field, rows, ncols)
    assert len(pivots) == _rank(rows, ncols, p)
    # the output spans the same row space
    assert _rank(rows + out, ncols, p) == len(pivots)
    assert pivots == sorted(set(pivots)) and len(out) == len(pivots)
    for lead, row in zip(pivots, out):
        assert min(row) == lead and row[lead] == 1
        assert set(row) & set(pivots) == {lead}  # fully reduced
        for v in row.values():
            assert v != 0
            assert is_canonical_q(v) if p is None else 0 <= v < p


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=60)
@given(data=st.data())
def test_build_rref_ignores_row_order(p, data):
    # the rref is a function of the row space, so any fill-reducing row
    # order must leave pivots and rows, values and their types, unchanged
    field = QQ if p is None else GF(p)
    ncols, rows = data.draw(sparse_rows(p))
    shuffled = data.draw(st.permutations(rows))

    pivots, out = kernels.build_rref(field, rows, ncols)
    got_pivots, got = kernels.build_rref(field, shuffled, ncols)
    assert got_pivots == pivots
    assert [list(r.items()) for r in got] == [list(r.items()) for r in out]
    assert [[type(v) for v in r.values()] for r in got] == [
        [type(v) for v in r.values()] for r in out
    ]


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=80)
@given(data=st.data())
def test_echelon_leads_at_the_pivots_of_the_rref(p, data):
    # a row echelon form of a row space leads at the rref's pivot columns,
    # whatever was left above its pivots
    field = QQ if p is None else GF(p)
    ncols, rows = data.draw(sparse_rows(p))
    before = [list(r.items()) for r in rows]

    basis = kernels.echelon(field, rows)
    pivots, _ = kernels.build_rref(field, rows, ncols)
    assert sorted(basis) == pivots
    assert all(min(row) == lead for lead, row in basis.items())
    assert _rank(rows + list(basis.values()), ncols, p) == len(pivots)
    assert [list(r.items()) for r in rows] == before


def test_pure_lane_always_importable():
    # the kernel needs nothing beyond the standard library
    pivots, rows = kernels.build_rref(
        QQ, [{0: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}], 2
    )
    assert pivots == [0, 1]
    assert rows == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_rational_rows_keep_fractions_only_where_needed():
    pivots, rows = kernels.build_rref(
        QQ, [{0: 2, 1: 1}, {0: Fraction(1, 2), 2: Fraction(3, 2)}], 3
    )
    assert pivots == [0, 1]
    assert rows == [{0: 1, 2: 3}, {1: 1, 2: -6}]
    assert all(type(v) is int for row in rows for v in row.values())
    _, rows = kernels.build_rref(QQ, [{0: 2, 1: 1}], 2)
    assert rows == [{0: 1, 1: Fraction(1, 2)}] and type(rows[0][0]) is int


@pytest.mark.parametrize("name", [n for n in zoo.ZOO if zoo.get(n).field is QQ])
def test_zoo_differentials_stay_integral(name):
    # every Q zoo algebra has integral structure constants, so its
    # differentials hold only ints; their rrefs and kernel bases hold an
    # int wherever the value is integral (truncated_cubic's b_2 and
    # delta^1 genuinely need halves)
    N = zoo.get(name).regular()
    mats = [boundary_matrix(N, n) for n in range(1, 4)]
    mats += [coboundary_matrix(N, m) for m in range(3)]
    for mat in mats:
        assert all(type(v) is int for col in mat.cols for v in col.values())
        rows = Echelon(QQ, mat.rows_view(), mat.ncols).rows
        for vecs in (rows, kernel_basis(mat).cols):
            assert all(is_canonical_q(v) for vec in vecs for v in vec.values())
