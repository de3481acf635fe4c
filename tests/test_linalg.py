import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochcap import QQ, GF, SparseMat, Solver, kernel_basis, rank, subquotient
from hochcap.bimodules import kron
from hochcap.errors import InclusionViolation, NotACycle, ParseError
from hochcap.fields import field_from_json
from hochcap.linalg import Echelon, axpy, image_basis, on_slots

from _oracle import dense_null_space_rref, dense_rank, dense_solve

PRIMES = [2, 3, 101, (1 << 31) + 11]


def F(x):
    return Fraction(x)


def test_field_parsing():
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert QQ.coerce(-2) == Fraction(-2)
    assert GF(5).coerce("12") == 2
    assert GF(5).coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    assert field_from_json({"kind": "Q"}) is QQ
    assert field_from_json({"kind": "Fp", "p": 7}) is GF(7)
    with pytest.raises(ParseError):
        GF(4)
    with pytest.raises(ParseError):
        QQ.coerce("x")
    with pytest.raises(ParseError):
        field_from_json({"kind": "R"})


def test_qq_coerce_is_integer_first():
    for x in (0, -7, Fraction(6, 3), Fraction(0), "4/2", " -3 ", "2.0"):
        assert type(QQ.coerce(x)) is int, x
    assert QQ.coerce("4/2") == 2
    # a JSON boolean is not a coefficient, although bool subclasses int
    with pytest.raises(ParseError, match="boolean"):
        QQ.coerce(True)
    assert type(QQ.zero) is int and type(QQ.one) is int
    for x in (Fraction(1, 3), Fraction(-5, 2), "3/4", "1.5"):
        y = QQ.coerce(x)
        assert type(y) is Fraction and y.denominator > 1, x
    with pytest.raises(ParseError):
        QQ.coerce(1.5)


@pytest.mark.parametrize("field", [GF(2), GF(101)])
def test_fp_coerce_refuses_booleans(field):
    for x in (True, False):
        with pytest.raises(ParseError, match="boolean"):
            field.coerce(x)


def test_qq_inv_is_exact_and_integer_first():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert type(QQ.inv(Fraction(1, 4))) is int and QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@given(
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=9)),
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=9)),
)
def test_qq_operations_never_return_float(a, b):
    a, b = QQ.coerce(a), QQ.coerce(b)
    out = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    if b:
        out.append(QQ.inv(b))
        assert QQ.mul(b, QQ.inv(b)) == 1
    for v in out:
        assert type(v) in (int, Fraction), (a, b, v)


def test_is_prime_agrees_with_trial_division():
    from hochcap.fields import _is_prime

    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 5000) if _is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)
    ]


def test_sparsemat_basics():
    m = SparseMat.from_dense(QQ, [[1, 2], [3, 4]])
    assert m.entry(0, 1) == 2
    assert m.transpose().entry(1, 0) == 2
    i = SparseMat.identity(2, QQ)
    assert (m @ i).to_dense() == m.to_dense()
    assert (m - m).is_zero()
    v = m.matvec({0: F(1), 1: F(1)})
    assert v == {0: F(3), 1: F(7)}
    assert m.to_dense() == [[F(1), F(2)], [F(3), F(4)]]


def _rref(m):
    """The echelon of the rows of m."""
    return Echelon(m.field, m.rows_view(), m.ncols)


def test_rref_examples():
    ech = _rref(SparseMat.from_dense(QQ, [[1, 2], [2, 4]]))
    assert ech.rows == [{0: F(1), 1: F(2)}] and ech.pivots == [0]

    ech = _rref(SparseMat.from_dense(GF(2), [[1, 1], [1, 1]]))
    assert ech.rows == [{0: 1, 1: 1}] and ech.pivots == [0]

    m = SparseMat.identity(3, QQ)
    ech = _rref(m)
    assert ech.rows == m.cols and ech.pivots == [0, 1, 2]


def test_rref_is_canonical_under_row_shuffle():
    rng = random.Random(7)
    for p in (None, 5):
        fld = QQ if p is None else GF(p)
        for _ in range(25):
            rows = [
                [rng.randint(-4, 4) for _ in range(6)]
                for _ in range(rng.randint(1, 7))
            ]
            m1 = SparseMat.from_dense(fld, rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            scale = rng.choice([2, 3, -1]) if p is None else rng.choice([2, 3, 4])
            shuffled.append([x * scale for x in rng.choice(rows)])
            m2 = SparseMat.from_dense(fld, shuffled)
            e1, e2 = _rref(m1), _rref(m2)
            assert e1.pivots == e2.pivots and e1.rows == e2.rows


def test_kernel_basis():
    m = SparseMat.from_dense(QQ, [[1, 2]])
    k = kernel_basis(m)
    assert k.to_dense() == [[F(-2)], [F(1)]]
    assert (m @ k).is_zero()

    m = SparseMat.from_dense(GF(2), [[1, 1, 0], [0, 0, 1]])
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.ncols == 1
    assert k.cols[0] == {0: 1, 1: 1}

    # rank + nullity
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        m = SparseMat.from_dense(QQ, rows)
        assert rank(m) + kernel_basis(m).ncols == 5


def test_solve():
    m = SparseMat.from_dense(QQ, [[1, 2], [3, 4]])
    x = Solver(m).solve([1, 1])
    assert x == {0: F(-1), 1: F(1)}

    # inconsistent
    sv = Solver(SparseMat.from_dense(QQ, [[1, 2], [2, 4]]))
    assert sv.solve([0, 1]) is None
    # consistent with free variable -> free var = 0
    x = sv.solve([3, 6])
    assert x == {0: F(3)}

    m = SparseMat.from_dense(GF(3), [[1, 1], [1, 2]])
    x = Solver(m).solve([2, 0])
    mx = m.matvec(x)
    assert mx.get(0, 0) == 2 and mx.get(1, 0) == 0


def _dense_solve(m, b):
    """The oracle's solution of m x = b; b is a sparse dict."""
    p = None if m.field.kind == "Q" else m.field.p
    return dense_solve(m.to_dense(), [b.get(i, 0) for i in range(m.nrows)], p)


def test_solver_repeated():
    rng = random.Random(11)
    for fld in (QQ, GF(7)):
        m = SparseMat.from_dense(
            fld, [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        )
        sv = Solver(m)
        for _ in range(20):
            y = {i: fld.coerce(rng.randint(-5, 5)) for i in range(6)}
            b = m.matvec(y)
            x = sv.solve(b)
            assert x is not None
            assert m.matvec(x) == b
            assert x == _dense_solve(m, b)
        # something outside the column space must be rejected by both
        for _ in range(20):
            b = {i: fld.coerce(rng.randint(-5, 5)) for i in range(4)}
            assert (sv.solve(b) is None) == (_dense_solve(m, b) is None)


def test_subquotient_canonical_coords():
    # span{e0, e1, e2} / span{e0 + e1}
    Z = SparseMat.from_dense(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    B = SparseMat.from_dense(QQ, [[1], [1], [0]])
    sq = subquotient(Z, B)
    assert sq.dim == 2
    # e0 + e1 is a boundary, so [e0] = -[e1]; the canonical generators
    # sit at the free pivots 1 and 2
    assert sq.coset_reduce({0: F(1)}) == (F(-1), F(0))
    assert sq.coset_reduce({1: F(1)}) == (F(1), F(0))
    assert sq.coset_reduce({2: F(1)}) == (F(0), F(1))
    assert not any(sq.coset_reduce({0: F(1), 1: F(1)}))

    # generators reduce to unit vectors and lift back to themselves
    for k in range(sq.dim):
        rep = sq.representative(k)
        coords = sq.coset_reduce(rep)
        assert list(coords).count(QQ.one) == 1 and coords[k] == QQ.one


def test_subquotient_linearity_and_errors():
    rng = random.Random(5)
    Z = SparseMat.from_dense(QQ, [[1, 0], [0, 1], [1, 1], [0, 0]]).transpose()
    # Z columns span a 2-dim subspace of k^4... build something richer:
    Z = SparseMat.from_columns(
        4, QQ, [{0: F(1), 2: F(1)}, {1: F(1)}, {2: F(1), 3: F(2)}]
    )
    B = SparseMat.from_columns(4, QQ, [{0: F(2), 2: F(2)}])
    sq = subquotient(Z, B)
    assert sq.dim == 2

    def rand_cycle():
        cols = [Z.col(j) for j in range(Z.ncols)]
        v = {}
        for col in cols:
            f = F(rng.randint(-3, 3))
            for i, w in col.items():
                v[i] = v.get(i, F(0)) + f * w
        return {i: w for i, w in v.items() if w}

    for _ in range(25):
        a, b = rand_cycle(), rand_cycle()
        ca = sq.coset_reduce(a)
        cb = sq.coset_reduce(b)
        s = dict(a)
        for i, w in b.items():
            s[i] = s.get(i, F(0)) + w
        cs = sq.coset_reduce(s)
        assert all(x + y == z for x, y, z in zip(ca, cb, cs))

    with pytest.raises(NotACycle):
        sq.coset_reduce({3: F(1)})  # e3 alone is not in span(Z)

    with pytest.raises(InclusionViolation):
        subquotient(Z, SparseMat.from_columns(4, QQ, [{3: F(1)}]))


def test_subquotient_mod_p():
    # over F_2: span{e0+e1, e1+e2, e0+e2} has dim 2; quotient by e0+e1
    fld = GF(2)
    Z = SparseMat.from_columns(3, fld, [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}])
    B = SparseMat.from_columns(3, fld, [{0: 1, 1: 1}])
    sq = subquotient(Z, B)
    assert sq.dim == 1
    assert sq.coset_reduce({1: 1, 2: 1}) == (1,)
    assert not any(sq.coset_reduce({0: 1, 1: 1}))


# -- properties of the echelon layer on random sparse input --------------


def _field(p):
    return QQ if p is None else GF(p)


def _scalars(p):
    if p is None:
        return st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.integers(0, p - 1)


@st.composite
def sparse_columns(draw, field, p, nrows, ncols):
    """ncols sparse columns of length nrows, at most 3 entries each."""
    col = st.dictionaries(st.integers(0, nrows - 1), _scalars(p), max_size=3)
    return [
        {i: field.coerce(v) for i, v in c.items() if v}
        for c in draw(st.lists(col, min_size=ncols, max_size=ncols))
    ]


@st.composite
def sparse_matrices(draw, p):
    field = _field(p)
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return SparseMat.from_columns(
        nrows, field, draw(sparse_columns(field, p, nrows, ncols))
    )


def _rank_of_columns(cols, n, p):
    return dense_rank([[c.get(i, 0) for i in range(n)] for c in cols], p)


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
@settings(max_examples=60)
@given(data=st.data())
def test_rank_is_the_dense_rank(p, shape, data):
    # every shape takes the forward elimination; sizes start at 0, so 0 x n, n x 0 and all-zero matrices are drawn
    field = _field(p)
    short, extra = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 5))
    long = short + (extra if shape != "square" else 0)
    nrows, ncols = (long, short) if shape == "tall" else (short, long)
    col = st.dictionaries(st.integers(0, max(nrows - 1, 0)), _scalars(p),
                          max_size=min(nrows, 5))
    cols = [{i: field.coerce(v) for i, v in c.items() if v}
            for c in data.draw(st.lists(col, min_size=ncols, max_size=ncols))]
    m = SparseMat.from_columns(nrows, field, cols)
    before = [list(c.items()) for c in m.cols]
    assert rank(m) == dense_rank(m.to_dense(), p)
    # the elimination scales its working rows in place; they must be copies
    assert [list(c.items()) for c in m.cols] == before


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@settings(max_examples=60)
@given(data=st.data())
def test_image_basis_is_keyed_by_leads(p, data):
    # a dimension query restricts the next differential to the columns off
    # these keys, which is exact only if each is its vector's lead and the
    # vectors span the column space
    m = data.draw(sparse_matrices(p))
    basis = image_basis(m)
    assert all(min(v) == lead for lead, v in basis.items())
    assert _rank_of_columns(m.cols + list(basis.values()), m.nrows, p) == len(basis) == rank(m)


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@pytest.mark.parametrize("nrows,ncols", [(0, 0), (0, 4), (4, 0), (6, 3), (3, 6), (4, 4)])
def test_rank_of_empty_and_zero_matrices(p, nrows, ncols):
    assert rank(SparseMat.zero(nrows, ncols, _field(p))) == 0


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=60)
@given(data=st.data())
def test_kernel_basis_properties(p, data):
    m = data.draw(sparse_matrices(p))
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.ncols == m.ncols - dense_rank(m.to_dense(), p)
    # column j is {f_j: 1} followed by the pivots in increasing order, and
    # the free columns f_j are exactly the non-pivot columns, increasing
    pivots = _rref(m).pivots
    free = [next(iter(c)) for c in k.cols]
    assert free == [f for f in range(m.ncols) if f not in pivots]
    for j, col in enumerate(k.cols):
        assert col[free[j]] == 1
        rest = list(col)[1:]
        assert rest == sorted(rest) and set(rest) <= set(pivots)
        assert not any(free[j] in other for i, other in enumerate(k.cols) if i != j)


def _raw_columns(data, p, nrows, ncols):
    """ncols sparse columns of length nrows, not coerced: Fractions over Q
    (integral ones too), ints in [-2p, 2p] over F_p, so that multiples of
    p and negative entries are stored."""
    scalars = _scalars(None) if p is None else st.integers(-2 * p, 2 * p)
    col = st.dictionaries(st.integers(0, max(nrows - 1, 0)), scalars, max_size=min(nrows, 4))
    return [{i: v for i, v in c.items() if v}
            for c in data.draw(st.lists(col, min_size=ncols, max_size=ncols))]


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@settings(max_examples=60)
@given(data=st.data())
def test_kills_is_a_zero_product(p, data):
    # kills sums each column of the product in plain ints or Fractions and
    # reduces once at its end; it must read every product as `@` does, on
    # empty shapes, zero and cancelling factors and unreduced entries
    field = _field(p)
    n, k, m = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = SparseMat(n, k, field, _raw_columns(data, p, n, k))
    form = data.draw(st.sampled_from(["random", "zero", "kernel"]))
    if form == "random":
        b = SparseMat(k, m, field, _raw_columns(data, p, k, m))
    elif form == "zero":
        b = SparseMat.zero(k, m, field)
    else:
        # the kernel of a's reduction, so every column cancels, over F_p
        # in sums that are nonzero multiples of p
        b = kernel_basis(SparseMat.from_columns(
            n, field, [{i: field.coerce(v) for i, v in c.items()} for c in a.cols]))
    assert a.kills(b) == (a @ b).is_zero()
    if form != "random":
        assert a.kills(b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kills_reduces_each_sum_mod_p(p):
    # 1 + (p - 1) and (p + 1) - 1 are p, zero in F_p; 1 + p is not
    a = SparseMat(1, 2, GF(p), [{0: 1}, {0: 1}])
    assert a.kills(SparseMat(2, 2, GF(p), [{0: 1, 1: p - 1}, {0: p + 1, 1: -1}]))
    assert not a.kills(SparseMat(2, 2, GF(p), [{0: 1, 1: p - 1}, {0: 1, 1: p}]))
    # over Q the same sums are not zero
    assert not SparseMat(1, 2, QQ, [{0: 1}, {0: 1}]).kills(
        SparseMat(2, 1, QQ, [{0: 1, 1: p - 1}]))
    q = SparseMat(1, 2, QQ, [{0: Fraction(1, 2)}, {0: Fraction(1, 3)}])
    assert q.kills(SparseMat(2, 1, QQ, [{0: Fraction(2, 3), 1: -1}]))
    assert not q.kills(SparseMat(2, 1, QQ, [{0: 1, 1: -1}]))


@pytest.mark.parametrize("shapes", [((2, 3), (2, 2)), ((0, 1), (0, 4)), ((3, 0), (1, 0))])
def test_kills_refuses_a_shape_mismatch_as_matmul_does(shapes):
    (n, k), (r, m) = shapes
    a, b = SparseMat.zero(n, k, QQ), SparseMat.zero(r, m, QQ)
    with pytest.raises(ValueError, match="shape mismatch") as product:
        a @ b
    with pytest.raises(ValueError, match="shape mismatch") as killed:
        a.kills(b)
    assert str(killed.value) == str(product.value)


def _same_echelon(got, want):
    assert got.ncols == want.ncols
    assert got.pivots == want.pivots
    assert [[(c, type(v), v) for c, v in r.items()] for r in got.rows] == [
        [(c, type(v), v) for c, v in r.items()] for r in want.rows
    ]
    assert list(got.index.items()) == list(want.index.items())


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def _is_dense_null_space(got, rows, p):
    # the rref of the null space of the dense rows, from the oracle's own
    # Gauss-Jordan elimination, twice
    pivots, want = dense_null_space_rref(rows, got.ncols, p)
    assert got.pivots == pivots
    assert _dense(got.rows, got.ncols) == want


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=60)
@given(data=st.data())
def test_null_space_echelon_is_the_kernel_basis_rref(p, data):
    # one elimination of the column-reversed rows gives the rref that
    # eliminating the kernel basis a second time gives
    field = _field(p)
    nrows, ncols = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 8))
    cols = data.draw(sparse_columns(field, p, nrows, ncols)) if nrows else [{}] * ncols
    m = SparseMat.from_columns(nrows, field, cols)
    got = Echelon.null_space(m)
    _same_echelon(got, Echelon(field, kernel_basis(m).cols, m.ncols))
    _is_dense_null_space(got, m.to_dense(), p)
    assert all(m.matvec(row) == {} for row in got.rows)


@pytest.mark.parametrize("p", [None] + PRIMES)
@pytest.mark.parametrize("shape", ["zero", "full rank", "no rows"])
def test_null_space_echelon_edge_cases(p, shape):
    field = _field(p)
    if shape == "zero":
        m = SparseMat.zero(3, 4, field)
    elif shape == "full rank":
        m = SparseMat.identity(4, field) + SparseMat.from_columns(
            4, field, [{}, {0: field.coerce(2)}, {1: field.coerce(3)}, {0: field.one}])
    else:
        m = SparseMat.zero(0, 5, field)
    got = Echelon.null_space(m)
    _same_echelon(got, Echelon(field, kernel_basis(m).cols, m.ncols))
    _is_dense_null_space(got, m.to_dense(), p)
    assert len(got.pivots) == m.ncols - rank(m)


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=30)
@given(data=st.data())
def test_annihilators_of_the_reversed_rows_and_their_extension(p, data):
    # a homology class space's two read-backs: the echelon of the rows
    # with the columns reversed gives the vectors the rows kill (the
    # cycles), and its extension by the reversed functionals Phi those
    # that the rows and Phi kill (the boundaries).  Phi may be empty or
    # lie in the row space, and a row may be zero
    field = _field(p)
    ncols = data.draw(st.integers(1, 8))
    rows = data.draw(sparse_columns(field, p, ncols, data.draw(st.integers(0, 6))))
    phis = data.draw(sparse_columns(field, p, ncols, data.draw(st.integers(0, 3))))
    if data.draw(st.booleans()):
        rows.append({})
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(_scalars(p), min_size=len(rows), max_size=len(rows)))
        inside = {}
        for c, row in zip(coeffs, rows):
            axpy(inside, field.coerce(c), row, field)
        phis.append(inside)

    def flip(vecs):
        return [{ncols - 1 - c: v for c, v in vec.items()} for vec in vecs]

    space = Echelon(field, flip(rows), ncols)
    for got, vecs in ((space.annihilator(), rows),
                      (space.extend(flip(phis)).annihilator(), rows + phis)):
        m = SparseMat.from_columns(ncols, field, vecs).transpose()
        _same_echelon(got, Echelon(field, kernel_basis(m).cols, ncols))
        _is_dense_null_space(got, _dense(vecs, ncols), p)


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=30)
@given(data=st.data())
def test_extend_is_the_echelon_of_the_rows_and_the_vectors(p, data):
    # a row with no entry at a new pivot is shared
    field = _field(p)
    ncols = data.draw(st.integers(1, 8))
    rows = data.draw(sparse_columns(field, p, ncols, data.draw(st.integers(0, 6))))
    vecs = data.draw(sparse_columns(field, p, ncols, data.draw(st.integers(0, 3))))
    space = Echelon(field, rows, ncols)
    got = space.extend(vecs)
    _same_echelon(got, Echelon(field, rows + vecs, ncols))
    new = set(got.pivots) - set(space.pivots)
    for q, row in space.index.items():
        if not new & set(row):
            assert got.index[q] is row


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=60)
@given(data=st.data())
def test_solver_agrees_with_solve(p, data):
    m = data.draw(sparse_matrices(p))
    field = m.field
    if data.draw(st.booleans()):
        b = m.matvec(data.draw(sparse_columns(field, p, m.ncols, 1))[0])
    else:
        b = data.draw(sparse_columns(field, p, m.nrows, 1))[0]
    x = Solver(m).solve(b)
    assert x == _dense_solve(m, b)
    consistent = _rank_of_columns(m.cols + [b], m.nrows, p) == _rank_of_columns(
        m.cols, m.nrows, p
    )
    assert (x is None) == (not consistent)
    if x is not None:
        assert m.matvec(x) == b


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=60)
@given(data=st.data())
def test_solve_matrix_is_solve_column_by_column(p, data):
    # each column of rhs is in the column space of m or drawn at random,
    # so some draws have every column solvable and some do not
    m = data.draw(sparse_matrices(p))
    field = m.field
    ncols = data.draw(st.integers(0, 4))
    images = [m.matvec(x) for x in data.draw(sparse_columns(field, p, m.ncols, ncols))]
    others = data.draw(sparse_columns(field, p, m.nrows, ncols))
    cols = [c if data.draw(st.booleans()) else o for c, o in zip(images, others)]
    want = [_dense_solve(m, c) for c in cols]
    got = Solver(m).solve_matrix(SparseMat.from_columns(m.nrows, field, cols))
    if any(x is None for x in want):
        assert got is None
    else:
        assert (got.nrows, got.ncols) == (m.ncols, ncols)
        assert got.cols == want


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=60)
@given(data=st.data())
def test_solver_conditions_are_a_basis_of_the_left_null_space(p, data):
    m = data.draw(sparse_matrices(p))
    cond = Solver(m).conditions
    assert (cond @ m).is_zero()
    assert cond.nrows == m.nrows - dense_rank(m.to_dense(), p)
    assert dense_rank(cond.to_dense(), p) == cond.nrows


def test_solver_refuses_a_right_hand_side_outside_its_space():
    sv = Solver(SparseMat.identity(2, QQ))
    for b in ({5: 1}, {-1: 1}, {2: 1}):
        with pytest.raises(ValueError, match="out of range"):
            sv.solve(b)
    assert sv.solve({1: 3}) == {1: 3}
    with pytest.raises(ValueError, match="shape mismatch"):
        sv.solve_matrix(SparseMat.identity(3, QQ))


def _full_scan_coords(sq, v):
    """Coset coordinates by scanning every pivot of B, then of Z."""
    fld = sq.field
    u, rec = dict(v), {}
    for ech, out in ((sq.boundaries, {}), (sq.cycles, rec)):
        for q, row in zip(ech.pivots, ech.rows):
            f = u.get(q)
            if f:
                out[q] = f
                axpy(u, fld.neg(f), row, fld)
    assert not u
    return tuple(rec.get(q, fld.zero) for q in sq.free_pivots)


@pytest.mark.parametrize("p", [None] + PRIMES)
@settings(max_examples=60)
@given(data=st.data())
def test_subquotient_properties(p, data):
    field = _field(p)
    n = data.draw(st.integers(1, 8))
    Z = SparseMat.from_columns(
        n, field, data.draw(sparse_columns(field, p, n, data.draw(st.integers(1, 6))))
    )
    C = SparseMat.from_columns(
        Z.ncols, field, data.draw(sparse_columns(field, p, Z.ncols, 3))
    )
    B = Z @ C
    sq = subquotient(Z, B)
    rank_z = _rank_of_columns(Z.cols, n, p)
    assert sq.dim == rank_z - _rank_of_columns(B.cols, n, p)

    for y in data.draw(sparse_columns(field, p, Z.ncols, 3)):
        v = Z.matvec(y)
        coords = sq.coset_reduce(v)
        assert coords == _full_scan_coords(sq, v)
        # v and the lift of its class differ by a boundary
        back = sq.lift(coords)
        assert sq.coset_reduce(back) == coords
        diff = dict(v)
        axpy(diff, field.neg(field.one), back, field)
        assert not any(sq.coset_reduce(diff))

    for w in data.draw(sparse_columns(field, p, n, 2)):
        if _rank_of_columns(Z.cols + [w], n, p) > rank_z:
            with pytest.raises(NotACycle):
                sq.coset_reduce(w)

    outside = [
        t for t in range(n) if _rank_of_columns(Z.cols + [{t: field.one}], n, p) > rank_z
    ]
    if outside:
        bad = SparseMat.from_columns(n, field, B.cols + [{outside[0]: field.one}])
        with pytest.raises(InclusionViolation):
            subquotient(Z, bad)


class _CountingDict(dict):
    """A dict that counts its keyed lookups."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@pytest.mark.parametrize("support", [1, 2, 3])
def test_reduce_cost_is_support_plus_fill_not_rank(support):
    # rank 6000, two entries per row: pivot 2i, tail 2i + 1
    fld = GF(101)
    rank_ = 6000
    ech = Echelon(fld, [{2 * i: 1, 2 * i + 1: i % 100 + 1} for i in range(rank_)], 2 * rank_)
    assert len(ech.pivots) == rank_
    hit = [2 * i for i in (17, 2900, 5999)][:support]
    fill = sum(len(ech.index[q]) for q in hit)
    ech.index = _CountingDict(ech.index)
    v = _CountingDict({q: 3 for q in hit})
    rec = {}
    ech.reduce(v, record=rec)
    # a scan over every pivot would make rank_ lookups here
    assert v.lookups + ech.index.lookups <= 3 * (support + fill)
    assert rec == {q: 3 for q in hit}
    assert v == {q + 1: (-3 * (q // 2 % 100 + 1)) % 101 for q in hit}


@pytest.mark.parametrize("p", [None, 2, 3])
@settings(max_examples=60)
@given(data=st.data())
def test_on_slots_is_the_kronecker_product(p, data):
    # 1 (x) mat (x) 1 on I_a (x) mat (x) I_low, keyed by tuple rank
    field = _field(p)
    a, low = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    nrows, ncols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    mat = SparseMat.from_columns(nrows, field, data.draw(sparse_columns(field, p, nrows, ncols)))
    n = a * ncols * low
    vec = data.draw(sparse_columns(field, p, n, 1))[0]
    big = kron(kron(SparseMat.identity(a, field), mat), SparseMat.identity(low, field))
    assert on_slots(mat, vec, low) == big.matvec(vec)
