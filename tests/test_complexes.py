import gc
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochcap import GF, QQ, cap, complexes, config, linalg, zoo
from hochcap.algebras import AlgebraPresentation
from hochcap.bimodules import Bimodule, coinduced, induced, invariants_subspace
from hochcap.complexes import (
    boundary_matrix,
    central_action,
    coboundary_matrix,
    cochain_dim,
    class_space,
    cohomology,
    cohomology_dims,
    coinvariants,
    degree_zero_cocycle,
    differential,
    homology,
    homology_dims,
    module_slot,
    Normalized,
    tuple_rank,
)
from hochcap.errors import (
    InclusionViolation, MemoryGuardError, NotACycle, NotCentral, NotInvariant)
from hochcap.linalg import Echelon, SparseMat, acc, axpy, kernel_basis, on_slots

import _oracle


# frozen by the dense oracle in _oracle.py before any of this was written
HOMOLOGY_TABLE = {
    "rationals": (1, 0, 0, 0, 0),
    "dual_numbers": (2, 1, 1, 1, 1),
    "truncated_cubic": (3, 2, 2, 2, 2),
    "product_qq": (2, 0, 0, 0, 0),
    "two_by_two_matrices": (1, 0, 0, 0),
    "upper_triangular": (2, 0, 0, 0),
    "f2_c2": (2, 2, 2, 2, 2),
}
COHOMOLOGY_TABLE = {
    "rationals": (1, 0, 0, 0, 0),
    "dual_numbers": (2, 1, 1, 1, 1),
    "truncated_cubic": (3, 2, 2, 2, 2),
    "product_qq": (2, 0, 0, 0, 0),
    "two_by_two_matrices": (1, 0, 0, 0),
    "upper_triangular": (1, 0, 0, 0),
    "f2_c2": (2, 2, 2, 2, 2),
}

ORACLE_ALGS = {
    "dual_numbers": (_oracle.alg_dual_numbers(), None),
    "upper_triangular": (_oracle.alg_upper_triangular(), None),
    "f2_c2": (_oracle.alg_f2_c2(), 2),
}


def test_boundary_squares_to_zero():
    for name in zoo.ZOO:
        reg = zoo.get(name).regular()
        top = 3 if reg.algebra.dim == 4 else 4
        for n in range(2, top + 1):
            prod = boundary_matrix(reg, n - 1) @ boundary_matrix(reg, n)
            assert prod.is_zero(), (name, n)


def test_coboundary_squares_to_zero():
    for name in zoo.ZOO:
        reg = zoo.get(name).regular()
        top = 2 if reg.algebra.dim == 4 else 3
        for m in range(0, top + 1):
            prod = coboundary_matrix(reg, m + 1) @ coboundary_matrix(reg, m)
            assert prod.is_zero(), (name, m)


def test_boundary_matches_dense_oracle():
    # entrywise agreement with the independently written dense construction
    for name, (alg, p) in ORACLE_ALGS.items():
        a = zoo.get(name)
        reg = a.regular()
        left, right = _oracle.regular_actions(alg)
        for n in (1, 2, 3):
            mine = boundary_matrix(reg, n)
            ref = _oracle.chain_boundary_dense(alg, left, right, alg["d"], n)
            for i in range(mine.nrows):
                for j in range(mine.ncols):
                    got = mine.entry(i, j)
                    want = ref[i][j] if p is None else ref[i][j] % p
                    assert got == want, (name, n, i, j)


def test_coboundary_matches_dense_oracle():
    for name, (alg, p) in ORACLE_ALGS.items():
        a = zoo.get(name)
        reg = a.regular()
        left, right = _oracle.regular_actions(alg)
        for m in (0, 1, 2):
            mine = coboundary_matrix(reg, m)
            ref = _oracle.cochain_differential_dense(alg, left, right, alg["d"], m)
            for i in range(mine.nrows):
                for j in range(mine.ncols):
                    got = mine.entry(i, j)
                    want = ref[i][j] if p is None else ref[i][j] % p
                    assert got == want, (name, m, i, j)


@pytest.mark.parametrize(
    "name", ["upper_triangular", "two_by_two_matrices", "dual_numbers", "f2_c2"])
@pytest.mark.parametrize("build", [coinduced, induced])
def test_differentials_match_dense_oracle_off_the_regular_bimodule(name, build):
    # the two actions differ here, so a side swapped in the outer faces
    # of the boundary or the outer cofaces of the coboundary fails
    alg = _oracle.ALGEBRAS[name]()
    p = alg["p"]
    N = build(zoo.get(name).regular()).module
    left = [m.to_dense() for m in N.left]
    right = [m.to_dense() for m in N.right]
    for m in (0, 1):
        pairs = [(coboundary_matrix(N, m),
                  _oracle.cochain_differential_dense(alg, left, right, N.dim, m)),
                 (boundary_matrix(N, m + 1),
                  _oracle.chain_boundary_dense(alg, left, right, N.dim, m + 1))]
        for mine, ref in pairs:
            want = ref if p is None else [[v % p for v in row] for row in ref]
            assert mine.to_dense() == want, (name, m)


def _face_arguments(name, kind):
    """The arguments of the `complexes._faces` calls of one kind on one
    zoo algebra: its regular bimodule to degree 4, the normalized
    letters, the coinduced and induced modules to degree 2, the dual
    actions of the regular and coinduced modules, and a product table
    holding explicit zeros."""
    A = zoo.get(name)
    fld, d = A.field, A.dim
    reg = A.regular()
    if kind in ("coinduced", "induced"):
        N = (coinduced if kind == "coinduced" else induced)(reg).module
        sources = [(N.left, N.right, N.mult, N.dim, 2)]
    elif kind == "normalized":
        cx = Normalized(reg)
        sources = [(cx.left, cx.right, cx.mult, cx.dim, 4)]
    elif kind == "dual":
        # M* acts on the left by the transposed right action of M, and
        # on the right by the transposed left one
        sources = [([a.transpose() for a in N.right], [a.transpose() for a in N.left],
                    N.mult, N.dim, top) for N, top in ((reg, 4), (coinduced(reg).module, 2))]
    elif kind == "zero coefficient":
        # every product gets an explicit zero, over a letter it has or not
        mult = [[{**entry, (i + j) % d: fld.zero} for j, entry in enumerate(row)]
                for i, row in enumerate(A.mult)]
        sources = [(reg.left, reg.right, mult, reg.dim, 3)]
    else:
        sources = [(reg.left, reg.right, reg.mult, reg.dim, 4)]
    return [(left, right, mult, fld, r, n)
            for left, right, mult, r, top in sources for n in range(1, top + 1)]


FACE_KINDS = ["regular", "normalized", "coinduced", "induced", "dual", "zero coefficient"]


def _assert_same_faces(got, want):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert got.cols == want.cols
    assert all(all(col.values()) for col in got.cols)


@pytest.mark.parametrize("kind", FACE_KINDS)
@pytest.mark.parametrize("name", list(zoo.ZOO))
def test_face_loop_matches_the_term_by_term_loop(name, kind):
    # the merged interior faces and the outer face lists give the matrix
    # that adding every term by its own `acc` call gives, entry for entry,
    # and no column stores a zero
    for args in _face_arguments(name, kind):
        _assert_same_faces(complexes._faces(*args), _oracle.faces(*args))


def _module(left, right, mult, fld, r):
    return SimpleNamespace(left=left, right=right, mult=mult, field=fld, dim=r, label=None,
                           _cache={})


def _transposed_dual_faces(left, right, mult, fld, r, n):
    """The term-by-term b_n on M* = Hom_k(M, k), the transposed actions,
    transposed, with the dual chain (j; w) read as the cochain
    rank(w)*r + j: delta^(n-1) on M."""
    d = len(mult)
    block, rest = d ** n, d ** (n - 1)
    chains = _oracle.faces([a.transpose() for a in right], [a.transpose() for a in left],
                           mult, fld, r, n)
    cols = [{} for _ in range(rest * r)]
    for c, col in enumerate(chains.cols):
        y, u = divmod(c, block)
        for t, v in col.items():
            j, w = divmod(t, rest)
            cols[w * r + j][u * r + y] = v
    return SparseMat(block * r, rest * r, fld, cols)


def _assert_transposed_dual_faces(left, right, mult, fld, r, n):
    # the coface loop must give the transposed dual faces entry for entry,
    # and store no zero
    _assert_same_faces(coboundary_matrix(_module(left, right, mult, fld, r), n - 1),
                       _transposed_dual_faces(left, right, mult, fld, r, n))


@pytest.mark.parametrize("kind", FACE_KINDS)
@pytest.mark.parametrize("name", list(zoo.ZOO))
def test_coboundaries_are_the_assembled_and_the_transposed_dual_faces(name, kind):
    # delta^m psi, spread over the cofaces of psi's support off the coface
    # loop's tables, is the assembled delta^m applied to psi, and the
    # transpose of the term-by-term b_(m+1) on M* applied to it
    rng = random.Random(f"{name}/{kind}")
    for left, right, mult, fld, r, n in _face_arguments(name, kind):
        M = _module(left, right, mult, fld, r)
        delta = coboundary_matrix(M, n - 1)
        dual = _transposed_dual_faces(left, right, mult, fld, r, n)
        psis = [{}] + [{rng.randrange(delta.ncols): fld.coerce(rng.randint(1, 3))
                        for _ in range(3)} for _ in range(4 if delta.ncols else 0)]
        got = complexes._coboundaries(M, n - 1, psis)
        assert got == [delta.matvec(psi) for psi in psis], (n, psis)
        assert got == [dual.matvec(psi) for psi in psis], (n, psis)


@pytest.mark.parametrize("kind", FACE_KINDS)
@pytest.mark.parametrize("name", list(zoo.ZOO))
def test_coface_loop_is_the_transposed_face_loop_on_the_dual(name, kind):
    for args in _face_arguments(name, kind):
        _assert_transposed_dual_faces(*args)


@pytest.mark.parametrize("name", ["dual_numbers", "truncated_cubic"])
def test_coface_loop_when_the_unit_is_no_basis_vector(name):
    # pi(e_0) = ebar_1 here, so the normalized product table has terms the
    # standard one lacks
    a = _rebased(name)
    reg = a.regular()
    for M in (reg, Normalized(reg), complexes._dual(reg), Normalized(complexes._dual(reg)),
              coinduced(reg).module):
        for n in range(1, 4):
            _assert_transposed_dual_faces(M.left, M.right, M.mult, M.field, M.dim, n)


@pytest.mark.parametrize("name", list(zoo.ZOO))
def test_bar_terms_match_the_term_by_term_loop(name):
    A = zoo.get(name)
    fld, d = A.field, A.dim
    zero, point = [SparseMat.zero(d, d, fld)] * d, [SparseMat.zero(1, 1, fld)] * d
    right = [A.right_matrix(a) for a in range(d)]
    for n in range(1, 4):
        _assert_same_faces(cap.bar_differential(A, n),
                           _oracle.faces(zero, right, A.mult, fld, d, n + 1))
        _assert_same_faces(cap._interior_faces(A, n),
                           _oracle.faces(point, point, A.mult, fld, 1, n))


def test_homology_dimension_tables():
    for name, table in HOMOLOGY_TABLE.items():
        reg = zoo.get(name).regular()
        assert tuple(homology_dims(reg, len(table) - 1)) == table, name


def test_cohomology_dimension_tables():
    for name, table in COHOMOLOGY_TABLE.items():
        reg = zoo.get(name).regular()
        assert tuple(cohomology_dims(reg, len(table) - 1)) == table, name


# -- dimensions from the normalized complex ------------------------------


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_normalized_dims_match_class_spaces(kind):
    # a class space reads a zero dimension off the normalized complex, so
    # the standard side is the two-elimination route, which never does
    for name in zoo.ZOO:
        a = zoo.get(name)
        top = 4 if a.dim == 4 else 5
        modules = [(a.regular(), top),
                   (coinduced(a.regular()).module, 3),
                   (induced(a.regular()).module, 3)]
        for M, up_to in modules:
            want = [_oracle.two_elimination_class_space(M, n, kind).dim
                    for n in range(up_to + 1)]
            got = homology_dims(M, up_to) if kind == "homology" else cohomology_dims(M, up_to)
            assert got == want, (name, M.label, kind)


def _echelon_items(ech):
    """Pivots and rows of an echelon, with key order and value types."""
    return ech.pivots, [[(c, type(v), v) for c, v in row.items()] for row in ech.rows]


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
@pytest.mark.parametrize("name", list(zoo.ZOO))
def test_class_spaces_match_the_two_elimination_route(name, kind):
    # the cycles are read off one elimination of the differential; the
    # old route eliminated a kernel basis of it a second time.  A zero
    # space keeps no echelon, so it is compared by dimension and membership
    a = zoo.get(name)
    top = 3 if a.dim == 4 else 4
    for M in (a.regular(), coinduced(a.regular()).module, induced(a.regular()).module):
        for n in range(top + 1):
            got = class_space(M, n, kind).space
            want = _oracle.two_elimination_class_space(M, n, kind)
            assert got.dim == want.dim and got.free_pivots == want.free_pivots, (M.label, n)
            if want.dim:
                assert _echelon_items(got.cycles) == _echelon_items(want.cycles), (M.label, n)
                assert _echelon_items(got.boundaries) == _echelon_items(want.boundaries)
                continue
            assert all(got.coordinates(row) == {} for row in want.cycles.rows), (M.label, n)
            units = range(want.ambient_dim)
            assert [_in_cycles(got, j) for j in units] == [_in_cycles(want, j) for j in units]


def _in_cycles(space, j):
    try:
        space.coordinates({j: 1})
    except NotACycle:
        return False
    return True


def _rebased(name):
    """The zoo algebra k[x]/(x^m) on the basis 1 + x, x, .., x^(m-1), whose
    unit e_0 - e_1 is no basis vector, so pi(e_0) = ebar_1 is not zero."""
    A = zoo.get(name)
    fld, d = A.field, A.dim
    basis = [{0: 1, 1: 1}] + [{j: 1} for j in range(1, d)]

    def rebase(v):  # old e_0 is f_0 - f_1, old e_j is f_j
        out = dict(v)
        if 0 in v:
            axpy(out, fld.neg(v[0]), {1: 1}, fld)
        return out

    structure = [(i, j, l, c) for i in range(d) for j in range(d)
                 for l, c in rebase(A.multiply(basis[i], basis[j])).items()]
    B = AlgebraPresentation(fld, ["1+x"] + list(A.basis[1:]), structure,
                            rebase(A.unit), label=f"{name} rebased").validate()
    assert B.unit == {0: 1, 1: -1}
    return B


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
@pytest.mark.parametrize("name", ["dual_numbers", "truncated_cubic"])
def test_class_spaces_match_the_two_elimination_route_when_the_unit_is_no_basis_vector(name, kind):
    # a normalized class pulls back along pi through e_0 as well as
    # through its own letters; a wrong coefficient there gives a wrong B
    # (homology) or Z (cohomology) that the dimension alone cannot see
    a = _rebased(name)
    for M in (a.regular(), coinduced(a.regular()).module, induced(a.regular()).module):
        for n in range(5):
            got = class_space(M, n, kind).space
            want = _oracle.two_elimination_class_space(M, n, kind)
            assert got.dim == want.dim and got.free_pivots == want.free_pivots, (M.label, n)
            if want.dim:
                assert _echelon_items(got.cycles) == _echelon_items(want.cycles), (M.label, n)
                assert _echelon_items(got.boundaries) == _echelon_items(want.boundaries)
            else:
                units = range(want.ambient_dim)
                assert [_in_cycles(got, j) for j in units] == [_in_cycles(want, j) for j in units]


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
@pytest.mark.parametrize("name,degree", [("truncated_cubic", 5), ("f2_c2", 7)])
def test_a_nonzero_class_space_assembles_nothing_in_the_larger_degree(monkeypatch, name,
                                                                      degree, kind):
    # H_n needs b_n and H^m needs delta^(m-1), whose spaces are C_n and
    # C_(n-1) (C^(m-1) and C^m); b_(n+1) and delta^m, on r d^(n+1)
    # coordinates, are never built, through either entry point, nor is
    # any face or coface loop run on the standard letters in degree n + 1
    # (the degree of the larger space: n for b_n, m + 1 for delta^m)
    reg = zoo.get(name).regular()
    built = []
    for fn in ("boundary_matrix", "coboundary_matrix"):
        def counted(M, n, fn=fn, inner=getattr(complexes, fn)):
            if M is reg:
                built.append((fn, n))
            return inner(M, n)
        monkeypatch.setattr(complexes, fn, counted)
    faces = []

    def counted_faces(left, right, mult, fld, r, n, inner=complexes._faces):
        faces.append((len(mult), n))
        return inner(left, right, mult, fld, r, n)

    def counted_cofaces(left, right, mult, fld, r, m, inner=complexes._coface_loop):
        faces.append((len(mult), m + 1))
        return inner(left, right, mult, fld, r, m)

    monkeypatch.setattr(complexes, "_faces", counted_faces)
    monkeypatch.setattr(complexes, "_coface_loop", counted_cofaces)
    cs = class_space(reg, degree, kind)
    assert cs.dim == 2
    if kind == "homology":
        assert built == [("boundary_matrix", degree)]
    else:
        assert built == [("coboundary_matrix", degree - 1)]
    assert (reg.algebra.dim, degree + 1) not in faces and faces
    assert ("boundary", degree + 1) not in reg._cache
    assert ("coboundary", degree) not in reg._cache


# the degrees the dense oracle cannot reach, by algebra
STANDARD_CROSS_CHECK = {"f2_c2": 10, "dual_numbers": 10, "truncated_cubic": 6,
                        "upper_triangular": 6, "two_by_two_matrices": 5}


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_class_spaces_match_normalized_dims_at_high_degree(kind):
    # the standard and the normalized complex share no elimination; the
    # standard side is the two-elimination route, which never asks the
    # normalized complex for a dimension
    for name, top in STANDARD_CROSS_CHECK.items():
        reg = zoo.get(name).regular()
        want = homology_dims(reg, top) if kind == "homology" else cohomology_dims(reg, top)
        got = [_oracle.two_elimination_class_space(reg, n, kind).dim for n in range(top + 1)]
        assert got == want, name


# k[x]/(x^m): HH_0 = m, and HH_n = m - 1 for n >= 1, or m when char k
# divides m.  These are symmetric algebras, so HH^n has the same dimension.
TRUNCATED_POLYNOMIALS = {"dual_numbers": 2, "f2_c2": 2, "truncated_cubic": 3}
# split semisimple: HH_0 = HH^0 = the number of matrix blocks, 0 above
SEMISIMPLE_BLOCKS = {"rationals": 1, "product_qq": 2, "two_by_two_matrices": 1}
CLOSED_FORM_DEGREE = {1: 12, 2: 12, 3: 9, 4: 6}  # by algebra dimension


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
@pytest.mark.parametrize("name", sorted(TRUNCATED_POLYNOMIALS) + sorted(SEMISIMPLE_BLOCKS))
def test_closed_form_dimensions(name, kind):
    a = zoo.get(name)
    top = CLOSED_FORM_DEGREE[a.dim]
    if name in TRUNCATED_POLYNOMIALS:
        m = TRUNCATED_POLYNOMIALS[name]
        rest = m if a.field.characteristic and m % a.field.characteristic == 0 else m - 1
        want = [m] + [rest] * top
    else:
        want = [SEMISIMPLE_BLOCKS[name]] + [0] * top
    dims = homology_dims if kind == "homology" else cohomology_dims
    assert dims(a.regular(), top) == want


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_corrupted_normalized_product_is_refused(kind):
    dims = homology_dims if kind == "homology" else cohomology_dims
    letters = len(Normalized(zoo.get("two_by_two_matrices").regular()).mult)
    for i in range(letters):
        for j in range(letters):
            for l in range(letters):
                a = zoo.get("two_by_two_matrices")  # a fresh table each time
                reg = a.regular()
                table = Normalized(reg).mult  # the table cached on the algebra
                table[i][j][l] = table[i][j].get(l, 0) + 1
                with pytest.raises(InclusionViolation, match=f"{kind} degree"):
                    dims(reg, 3)


def test_degree_zero_homology_is_coinvariants():
    rng = random.Random(11)
    for name in zoo.ZOO:
        reg = zoo.get(name).regular()
        h0 = homology(reg, 0)
        co = coinvariants(reg)
        assert h0.dim == co.dim, name
        fld = reg.field
        for _ in range(5):
            v = {i: fld.coerce(rng.randint(-4, 4)) for i in range(reg.dim)}
            assert h0.class_of(v) == co.coset_reduce(v), name


def test_degree_zero_cohomology_is_invariants():
    for name in zoo.ZOO:
        reg = zoo.get(name).regular()
        assert cohomology(reg, 0).dim == invariants_subspace(reg).ncols == len(reg.algebra.center())


def test_degree_zero_cocycle_checks_invariance():
    m2 = zoo.get("two_by_two_matrices")
    reg = m2.regular()
    c = degree_zero_cocycle(reg, {0: 1, 3: 1})  # the identity matrix
    h0 = cohomology(reg, 0)
    assert h0.class_of(c) != (0,) * h0.dim
    with pytest.raises(NotInvariant):
        degree_zero_cocycle(reg, {1: 1})  # strictly upper triangular


def test_central_action_unit_is_identity():
    for name in ("dual_numbers", "truncated_cubic", "f2_c2"):
        a = zoo.get(name)
        reg = a.regular()
        for n in (0, 1, 2):
            for cs in (homology(reg, n), cohomology(reg, n)):
                act = central_action(cs, a.unit)
                assert act == SparseMat.identity(cs.dim, a.field), (name, cs)


def test_central_action_nilpotent_kills_degree_one():
    # over Q[x]/(x^2): x . dx = 0 in degree 1
    a = zoo.get("dual_numbers")
    hs = homology(a.regular(), 1)
    act = central_action(hs, {1: 1})
    assert act.is_zero()


def test_central_action_rejects_non_central():
    a = zoo.get("upper_triangular")
    hs = homology(a.regular(), 1)
    with pytest.raises(NotCentral):
        central_action(hs, {0: 1})


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_module_slot_reads_both_layouts(kind):
    # truncated_cubic: d = 3; its coinduced module has r = 9, so the two
    # layouts put (x; w) at different coordinates, and a 4 x 9 matrix on
    # the module slot changes the dimension, so the target layout shows too
    M = coinduced(zoo.get("truncated_cubic").regular()).module
    d, r, n = M.algebra.dim, M.dim, 2
    rng = random.Random(kind)
    mat = SparseMat.from_dense(M.field, [[rng.randint(-2, 2) for _ in range(r)]
                                         for _ in range(4)])
    entries = {}
    for _ in range(20):
        x, w = rng.randrange(r), tuple(rng.randrange(d) for _ in range(n))
        entries[x, w] = rng.randint(1, 9)

    def pos(x, w, dim):
        if kind == "homology":
            return x * d ** n + tuple_rank(d, w)
        return tuple_rank(d, w) * dim + x

    vec = {pos(x, w, r): v for (x, w), v in entries.items()}
    assert max(vec) < cochain_dim(M, n)
    want = {}
    for (x, w), v in entries.items():
        for t, c in mat.cols[x].items():
            k = pos(t, w, 4)
            want[k] = want.get(k, 0) + v * c
    assert on_slots(mat, vec, module_slot(M, n, kind)) == {
        k: v for k, v in want.items() if v}


def test_coinduced_cohomology_vanishes():
    for name in ("dual_numbers", "product_qq", "upper_triangular", "f2_c2"):
        a = zoo.get(name)
        e = coinduced(a.regular()).module
        for m in (1, 2, 3):
            assert cohomology(e, m).dim == 0, (name, m)


def test_induced_homology_vanishes():
    for name in ("dual_numbers", "product_qq", "upper_triangular", "f2_c2"):
        a = zoo.get(name)
        p = induced(a.regular()).module
        for n in (1, 2, 3):
            assert homology(p, n).dim == 0, (name, n)


def test_bar_form_cross_check():
    for name in ("dual_numbers", "product_qq"):
        a = zoo.get(name)
        reg = a.regular()
        d = a.dim
        forms = [_oracle.bar_form(reg, n) for n in range(4)]
        for n, bf in enumerate(forms):
            assert bf.dim == reg.dim * d ** n, (name, n)
            to_std = _oracle.bar_to_standard(reg, bf)
            from_std = _oracle.standard_to_bar(reg, bf)
            ident = SparseMat.identity(bf.dim, a.field)
            assert to_std @ from_std == SparseMat.identity(reg.dim * d ** n, a.field)
            assert from_std @ to_std == ident, (name, n)
        # conversion intertwines the differentials
        for n in (1, 2, 3):
            db = _oracle.bar_form_boundary(reg, forms[n], forms[n - 1])
            lhs = _oracle.bar_to_standard(reg, forms[n - 1]) @ db
            rhs = boundary_matrix(reg, n) @ _oracle.bar_to_standard(reg, forms[n])
            assert lhs == rhs, (name, n)
        # and therefore computes the same homology
        for n in (1, 2):
            zb = _oracle.bar_form_boundary(reg, forms[n], forms[n - 1])
            bb = _oracle.bar_form_boundary(reg, forms[n + 1], forms[n])
            from hochcap.linalg import kernel_basis, subquotient

            sq = subquotient(kernel_basis(zb), bb)
            assert sq.dim == homology(reg, n).dim, (name, n)


def test_memory_guard_trips():
    a = zoo.get("two_by_two_matrices")  # fresh instance, empty cache
    reg = a.regular()
    config.set_max_coordinates(100)
    try:
        with pytest.raises(MemoryGuardError):
            boundary_matrix(reg, 3)
    finally:
        config.set_max_coordinates(None)
    assert config.max_coordinates() == 1 << 24


def test_memory_guard_names_the_degree_and_the_module():
    # the larger space of b_n is C_n, and of delta^m is C^(m+1), except on
    # a complex with no letters (the normalized rationals), where it is
    # the module itself in the lower degree
    reg = zoo.get("two_by_two_matrices").regular()
    E = coinduced(reg).module
    Q = zoo.get("rationals")
    one = SparseMat.identity(2, Q.field)
    plane = Normalized(Bimodule(Q, 2, [one], [one], label="Q^2").validate())
    refusals = [
        (lambda: boundary_matrix(reg, 3), "256 coordinates for a chain space in degree 3 of regular "),
        (lambda: coboundary_matrix(E, 2), "1024 coordinates for a cochain space in degree 3 of "
                                          "Hom(A, regular) "),
        (lambda: coboundary_matrix(Normalized(reg), 3), "324 coordinates for a cochain space in "
                                                        "degree 4 of the normalized complex of regular "),
        (lambda: class_space(reg, 3, "homology"), "1024 coordinates for a chain space in degree 4 "),
    ]
    config.set_max_coordinates(100)
    try:
        for build, message in refusals:
            with pytest.raises(MemoryGuardError) as info:
                build()
            assert message in str(info.value)
        config.set_max_coordinates(1)
        with pytest.raises(MemoryGuardError, match="2 coordinates for a cochain space in degree 0 "
                                                   "of the normalized complex of Q\\^2 "):
            coboundary_matrix(plane, 0)
    finally:
        config.set_max_coordinates(None)


def test_memory_guard_trips_on_cached_builds():
    from hochcap.cap import bar_differential

    a = zoo.get("two_by_two_matrices")
    reg = a.regular()
    builders = [
        lambda: boundary_matrix(reg, 3),
        lambda: coboundary_matrix(reg, 3),
        lambda: bar_differential(a, 2),
    ]
    for build in builders:
        build()  # now cached
    config.set_max_coordinates(100)
    try:
        for build in builders:
            with pytest.raises(MemoryGuardError):
                build()
    finally:
        config.set_max_coordinates(None)
    assert config.max_coordinates() == 1 << 24


def test_lowered_cap_refuses_a_cached_class_space():
    # a cached class space is guarded as its build would be
    reg = zoo.get("two_by_two_matrices").regular()
    homology(reg, 3)
    cohomology(reg, 3)
    config.set_max_coordinates(100)
    try:
        with pytest.raises(MemoryGuardError):
            homology(reg, 3)
        with pytest.raises(MemoryGuardError):
            cohomology(reg, 3)
    finally:
        config.set_max_coordinates(None)


# -- zero class spaces ---------------------------------------------------


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_a_zero_class_space_assembles_no_differential(kind):
    # M_2 is separable, so H_3 and H^3 vanish: the normalized ranks say
    # so, and neither the differential entering degree 3 (b_4, delta^2)
    # nor the one leaving it is assembled.  The ranks of homology are kept
    # on M*, which M keeps under "dual module", and M* keeps nothing else;
    # cohomology builds no M*
    reg = zoo.get("two_by_two_matrices").regular()
    cs = class_space(reg, 3, kind)
    assert cs.dim == 0
    assert ("boundary", 4) not in reg._cache and ("coboundary", 2) not in reg._cache
    families = {key if isinstance(key, str) else key[0] for key in reg._cache}
    dual = {"dual module"} if kind == "homology" else set()
    assert families <= {"normalized rank", kind} | dual, list(reg._cache)
    if kind == "homology":
        dual = complexes._dual(reg)
        assert all(key[0] == "normalized rank" for key in dual._cache), list(dual._cache)
    # the zero vector is tested without the differential
    assert cs.class_of({}) == () and ("boundary", 3) not in reg._cache


@pytest.mark.parametrize("name", ["dual_numbers", "truncated_cubic", "f2_c2"])
def test_a_cohomology_class_space_builds_no_dual_module(name):
    # the pulled-back cocycles of M are certified by delta^m on M itself;
    # only homology, whose normalized work is cohomology of M*, builds M*
    reg = zoo.get(name).regular()
    assert all(cohomology(reg, m).dim for m in range(4))
    assert "dual module" not in reg._cache
    assert homology(reg, 2).dim
    assert "dual module" in reg._cache


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_a_zero_class_space_tests_cycles_by_its_outgoing_differential(kind):
    reg = zoo.get("two_by_two_matrices").regular()
    cs = class_space(reg, 3, kind)
    leaving = differential(reg, 3, kind)
    entering = differential(reg, 4 if kind == "homology" else 2, kind)
    cycle = {}
    for j in range(0, entering.ncols, 7):
        axpy(cycle, 1, entering.cols[j], reg.field)
    assert cycle and cs.class_of(cycle) == ()
    assert cs.classes([cycle, {}]).nrows == 0
    j = next(j for j, col in enumerate(leaving.cols) if col)
    with pytest.raises(NotACycle):
        cs.class_of({j: 1})
    with pytest.raises(NotACycle):
        cs.classes([{j: 1}])


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_a_zero_class_space_has_no_representatives(kind):
    # the pivot is read before the (absent) cycle echelon, so an index
    # past the dimension is an IndexError, as on any other class space
    cs = class_space(zoo.get("two_by_two_matrices").regular(), 3, kind)
    assert cs.dim == 0 and cs.lift({}) == {} and cs.lift(()) == {}
    with pytest.raises(IndexError):
        cs.representative(0)


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_a_corrupted_normalized_rank_is_caught(kind):
    # H_2 caches the normalized rank it shares with H_3, of deltabar^2 on
    # M, or on M* for homology (the transpose of bbar_3); one bumped by 1
    # gives a normalized dimension of 1 for a space with 2 classes
    reg = zoo.get("truncated_cubic").regular()
    assert class_space(reg, 2, kind).dim == 2
    owner = reg if kind == "cohomology" else complexes._dual(reg)
    owner._cache["normalized rank", "cohomology", 2] += 1
    with pytest.raises(InclusionViolation, match=f"{kind} degree 3"):
        class_space(reg, 3, kind)


FORGED_FACES = [
    (name, kind, k) for name in ("two_by_two_matrices", "truncated_cubic")
    for kind in ("homology", "cohomology") for k in (1, 2, 3, 4)
    # deltabar^0 of a commutative algebra is zero on M and on M*: its image
    # touches no column
    if (name, k) != ("truncated_cubic", 1)]


def _forged(reg, kind, k, skipped):
    """The normalized complex that carries the kind's work, M's or M*'s,
    with one entry forged into deltabar^k at a column the image of
    deltabar^(k-1) touches: one of the leads of its basis, or not."""
    cx = Normalized(reg if kind == "cohomology" else complexes._dual(reg))
    before = differential(cx, k - 1, "cohomology")
    leads = set(Echelon(reg.field, list(before.cols), before.nrows).pivots)
    touched = {i for col in before.cols for i in col}
    j = min(leads if skipped else touched - leads)
    acc(differential(cx, k, "cohomology").cols[j], 0, reg.field.one, reg.field)
    return cx


@pytest.mark.parametrize("skipped", [True, False])
@pytest.mark.parametrize("name,kind,k", FORGED_FACES)
def test_a_forged_normalized_face_is_caught(monkeypatch, name, kind, k, skipped):
    # a dimension query ranks deltabar^k (on M*, the transpose of bbar_(k+1))
    # only on the columns off the leads of the image of deltabar^(k-1); one
    # entry forged into a column the image touches, skipped or kept, makes
    # their composite nonzero, and the certificate must see it, whichever
    # columns the rank reads, and name the kind asked for
    reg = zoo.get(name).regular()
    cx = _forged(reg, kind, k, skipped)
    monkeypatch.setattr(complexes, "Normalized", lambda module: cx)
    with pytest.raises(InclusionViolation, match=f"{kind} degree {k}:"):
        complexes.class_dims(reg, 4, kind)


@pytest.mark.parametrize("skipped", [True, False])
@pytest.mark.parametrize("name,kind,k", FORGED_FACES)
def test_a_forged_normalized_face_is_caught_by_a_class_space(monkeypatch, name, kind, k,
                                                             skipped):
    # a class space ranks the forged coboundary the same way, as the one
    # leaving degree k or entering degree k + 1, and reads its classes off
    # the columns off the leads: it must raise, or give the canonical space
    # it gives unforged
    reg = zoo.get(name).regular()
    want = {n: class_space(reg, n, kind).space for n in (k, k + 1)}
    cx = _forged(reg, kind, k, skipped)
    monkeypatch.setattr(complexes, "Normalized", lambda module: cx)
    for n, space in want.items():
        reg._cache.clear()  # no kept rank or class space
        try:
            got = class_space(reg, n, kind).space
        except InclusionViolation as error:
            assert str(error).startswith(f"{kind} degree {n}:")
            continue
        assert got.dim == space.dim and got.free_pivots == space.free_pivots, n
        if space.dim:
            assert _echelon_items(got.cycles) == _echelon_items(space.cycles), n
            assert _echelon_items(got.boundaries) == _echelon_items(space.boundaries), n


def _cyclic_group_algebra(p, n):
    c = _oracle.group_algebra(p, n)["c"]
    return AlgebraPresentation(
        GF(p), [f"g{i}" for i in range(n)],
        [(i, j, l, c[i][j][l]) for i in range(n) for j in range(n) for l in range(n)
         if c[i][j][l]],
        [1] + [0] * (n - 1)).validate()


@pytest.mark.parametrize("skipped", [True, False])
@pytest.mark.parametrize("kind", ["homology", "cohomology"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_a_forged_normalized_face_is_caught_over_fp(monkeypatch, p, n, k, kind, skipped):
    # the certificate sums each column of the composite in plain ints and
    # reduces mod p once at its end.  Over F_2[C_4] and F_3[C_3] (p | n,
    # so the coboundaries are nonzero) the composites cancel only mod p
    # (1 + 1, 1 + 2), and a forged entry must still be seen.  f2_c2 cannot
    # serve: Cbar^k and HH^k both have dimension 2, so every normalized
    # coboundary is zero and no single entry makes a composite nonzero
    reg = _cyclic_group_algebra(p, n).regular()
    assert complexes.class_dims(reg, 5, kind) == [n] * 6
    reg._cache.clear()  # no kept rank
    cx = _forged(reg, kind, k, skipped)
    monkeypatch.setattr(complexes, "Normalized", lambda module: cx)
    with pytest.raises(InclusionViolation, match=f"^{kind} degree {k}:"):
        complexes.class_dims(reg, 5, kind)


def _field(p):
    return QQ if p is None else GF(p)


@st.composite
def _matrices(draw, field, p, nrows, ncols):
    """A zero, sparse random or full rank (unit lower triangular) matrix."""
    scalars = (st.fractions(min_value=-3, max_value=3, max_denominator=3) if p is None
               else st.integers(0, p - 1))
    form = draw(st.sampled_from(["zero", "sparse", "sparse", "full", "full"]))
    cols = [{} for _ in range(ncols)]
    if form != "zero":
        for j in range(ncols):
            below = range(j + 1, nrows) if form == "full" else range(nrows)
            entries = draw(st.dictionaries(st.sampled_from(below), scalars, max_size=3)
                           if below else st.just({}))
            cols[j] = {i: field.coerce(v) for i, v in entries.items() if v}
            if form == "full" and j < nrows:
                cols[j][j] = field.one
    return SparseMat(nrows, ncols, field, cols)


@st.composite
def _complexes(draw, field, p):
    """Two or three differentials in the order of a walk, each killing the
    image of the one before it: a later one is X times a basis of the
    left null space of its predecessor."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=3, max_size=4))
    mats = [draw(_matrices(field, p, sizes[1], sizes[0]))]
    for n in sizes[2:]:
        left_null = kernel_basis(mats[-1].transpose()).transpose()
        mats.append(draw(_matrices(field, p, n, left_null.nrows)) @ left_null)
    return mats


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@pytest.mark.parametrize("kind", ["homology", "cohomology"])
@settings(max_examples=60)
@given(data=st.data())
def test_the_rank_walk_is_the_dense_rank(p, kind, data):
    # every rank the walk keeps is the dense rank of the whole matrix,
    # whether it was eliminated on the columns off its neighbour's image or
    # found in the cache; one entry forged into a column the neighbour's
    # image touches makes their composite nonzero, and the walk raises there,
    # naming the kind asked for (homology walks the coboundaries of M*)
    field = _field(p)
    mats = data.draw(_complexes(field, p))
    degrees = range(len(mats))
    ranks = [_oracle.dense_rank(m.to_dense(), p) for m in mats]
    known = data.draw(st.sets(st.sampled_from(degrees)))
    assert all((after @ d).is_zero() for d, after in zip(mats, mats[1:]))

    def walk(steps):
        owner = SimpleNamespace(_cache={("normalized rank", "cohomology", k): r
                                        for k, r in zip(degrees, ranks) if k in known})
        complexes._rank_walk(owner, kind, list(zip(degrees, steps)))
        return [owner._cache["normalized rank", "cohomology", k] for k in degrees]

    assert walk(mats) == ranks
    at = data.draw(st.integers(1, len(mats) - 1))
    touched = sorted({i for col in mats[at - 1].cols for i in col})
    if touched and mats[at].nrows:
        forged = SparseMat(mats[at].nrows, mats[at].ncols, field,
                           [dict(c) for c in mats[at].cols])
        acc(forged.cols[data.draw(st.sampled_from(touched))],
            data.draw(st.integers(0, forged.nrows - 1)), field.one, field)
        with pytest.raises(InclusionViolation, match=f"{kind} degree {degrees[at]}:"):
            walk(mats[:at] + [forged] + mats[at + 1:])


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@settings(max_examples=60)
@given(data=st.data())
def test_classes_are_the_kernel_off_the_leads_of_the_image(p, data):
    # with into = deltabar^0 and out = deltabar^1 drawn (empty and zero
    # matrices included), the classes of degree 1 are the null space of
    # out on the columns off the leads of image_basis(into): nullity(out) -
    # rank(into) cocycles, off those leads, independent modulo the image of
    # into, and both ranks are kept as the dense ones
    field = _field(p)
    into, out = data.draw(_complexes(field, p))[:2]
    cx = SimpleNamespace(field=field, dim=1, mult=[None],
                         _cache={("coboundary", 0): into, ("coboundary", 1): out})
    owner = SimpleNamespace(dim=out.ncols, mult=[None, None], _cache={})
    with mock.patch.object(complexes, "Normalized", lambda module: cx):
        classes = complexes._normalized_classes(owner, 1, "cohomology")
    r_in, r_out = (_oracle.dense_rank(m.to_dense(), p) for m in (into, out))
    assert len(classes) == out.ncols - r_out - r_in
    assert owner._cache == {("normalized rank", "cohomology", 0): r_in,
                            ("normalized rank", "cohomology", 1): r_out}
    leads = set(linalg.image_basis(into))
    assert all(v and not leads & set(v) and not out.matvec(v) for v in classes)
    span = [[c.get(i, 0) for i in range(out.ncols)] for c in into.cols + classes]
    assert _oracle.dense_rank(span, p) == r_in + len(classes)


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_dimension_queries_of_edge_complexes(kind):
    # a zero-dimensional bimodule has no chains at all, and the rationals
    # have no letters, so every normalized differential past degree 0 is empty
    dims = homology_dims if kind == "homology" else cohomology_dims
    A = zoo.get("truncated_cubic")
    empty = [SparseMat.zero(0, 0, A.field) for _ in range(A.dim)]
    assert dims(Bimodule(A, 0, empty, list(empty)).validate(), 4) == [0] * 5
    assert dims(zoo.get("rationals").regular(), 4) == [1, 0, 0, 0, 0]


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its first argument."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_class_spaces_reuse_the_ranks_of_a_dimension_query(monkeypatch, kind):
    # class_dims keeps its normalized ranks on the module (M* for
    # homology), where a class space looks for its dimension: M_2 to
    # degree 6 needs no new rank, and H_0 (H^0), the one nonzero space,
    # eliminates only the zero map into degree 0, for the leads of its image
    from hochcap import complexes

    reg = zoo.get("two_by_two_matrices").regular()
    assert complexes.class_dims(reg, 6, kind) == [1] + [0] * 6
    calls = _counting(monkeypatch, complexes, "image_basis")
    assert [class_space(reg, n, kind).dim for n in range(7)] == [1] + [0] * 6
    assert [m.ncols for m in calls] == [0]


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_a_dimension_query_reuses_the_ranks_of_a_class_space(monkeypatch, kind):
    # H_5 (H^5) ranks the two normalized coboundaries touching degree 5;
    # the query to degree 5 ranks only the four others.  Both rank through
    # `image_basis`
    from hochcap import complexes, linalg

    reg = zoo.get("truncated_cubic").regular()
    calls = _counting(monkeypatch, linalg, "image_basis")
    monkeypatch.setattr(complexes, "image_basis", linalg.image_basis)
    assert class_space(reg, 5, kind).dim == 2
    assert len(calls) == 2
    calls.clear()
    assert complexes.class_dims(reg, 5, kind) == [3, 2, 2, 2, 2, 2]
    assert len(calls) == 4


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
@pytest.mark.parametrize("name,degree,dim", [("truncated_cubic", 4, 2),
                                             ("two_by_two_matrices", 3, 0)])
def test_a_fresh_class_space_ranks_each_normalized_differential_once(monkeypatch, name,
                                                                      degree, dim, kind):
    # with no rank kept, the class space ranks deltabar^(n-1) and deltabar^n
    # (of M*, for homology) once each, by `image_basis`, the second on its
    # columns off the leads of the first; a zero space takes no normalized
    # null space, and a nonzero one one, of deltabar^n on those columns.  A
    # second request eliminates nothing
    reg = zoo.get(name).regular()
    reg._cache.clear()
    letters = reg.algebra.dim - 1
    size = reg.dim * letters ** degree  # normalized cochains in the degree
    ranked = _counting(monkeypatch, complexes, "image_basis")
    monkeypatch.setattr(linalg, "image_basis", complexes.image_basis)
    nulls = []
    inner = Echelon.null_space.__func__

    def null_space(cls, m):
        if m.nrows == size * letters:  # not b_n, which a nonzero H_n takes
            nulls.append(m)
        return inner(cls, m)

    monkeypatch.setattr(Echelon, "null_space", classmethod(null_space))
    assert class_space(reg, degree, kind).dim == dim
    assert [m.nrows for m in ranked] == [size, size * letters]
    assert [m.ncols for m in nulls] == ([ranked[1].ncols] if dim else [])
    ranked.clear()
    nulls.clear()
    del reg._cache[kind, degree]
    assert class_space(reg, degree, kind).dim == dim
    assert (len(ranked), len(nulls)) == ((1, 1) if dim else (0, 0))


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_dimension_queries_are_refused_before_any_elimination(monkeypatch, kind):
    # normalized M_2 has 4 * 3**n coordinates in degree n: 8,748 in degree
    # 7 and 26,244 in degree 8, so to degree 7 the largest space is over a
    # 10,000 cap, and a refusal made on reaching it would come after seven
    # eliminations, through either entry point a rank may take
    from hochcap import linalg

    dims = homology_dims if kind == "homology" else cohomology_dims
    reg = zoo.get("two_by_two_matrices").regular()
    rrefs = _counting(monkeypatch, linalg, "build_rref")
    echelons = _counting(monkeypatch, linalg, "echelon")
    what = "chain" if kind == "homology" else "cochain"
    config.set_max_coordinates(10_000)
    try:
        assert len(dims(reg, 6)) == 7
        assert rrefs or echelons
        rrefs.clear()
        echelons.clear()
        with pytest.raises(MemoryGuardError,
                           match=f"26244 coordinates for degree 8 of the normalized {what}"):
            dims(reg, 7)
    finally:
        config.set_max_coordinates(None)
    assert rrefs == echelons == []


@pytest.mark.parametrize("kind", ["homology", "cohomology"])
def test_dimension_queries_rank_by_the_shape_of_each_differential(monkeypatch, kind):
    # the normalized coboundaries of M_2, and of M*, which carry homology,
    # are tall (4 * 3**(m+1) rows, 4 * 3**m columns) and need only the
    # forward elimination, none the canonical rref.  Degree 5 ranks six
    from hochcap import linalg

    dims = homology_dims if kind == "homology" else cohomology_dims
    reg = zoo.get("two_by_two_matrices").regular()
    rrefs = _counting(monkeypatch, linalg, "build_rref")
    echelons = _counting(monkeypatch, linalg, "echelon")
    assert dims(reg, 5) == [1] + [0] * 5
    assert (rrefs, len(echelons)) == ([], 6)


@pytest.mark.parametrize("name,kind,up_to", [
    ("two_by_two_matrices", "homology", 5),
    ("two_by_two_matrices", "cohomology", 4),
    ("truncated_cubic", "homology", 7),
    ("truncated_cubic", "cohomology", 0),
    ("dual_numbers", "cohomology", 6),
    ("upper_triangular", "homology", 3),
    ("rationals", "homology", 3),
    ("rationals", "cohomology", 2),
])
def test_dimension_guard_predicts_the_largest_space(monkeypatch, name, kind, up_to):
    # the first size the guard is asked about is the prediction, and no
    # space built later may be larger
    dims = homology_dims if kind == "homology" else cohomology_dims
    reg = zoo.get(name).regular()
    asked = _counting(monkeypatch, config, "guard")
    assert len(dims(reg, up_to)) == up_to + 1
    assert len(asked) > 1 and asked[0] == max(asked)


@pytest.mark.parametrize("p,n,top", [(2, 2, 10), (3, 3, 8), (2, 4, 5), (5, 5, 3),
                                     (2, 3, 8), (3, 2, 10)])
def test_group_algebra_of_a_cyclic_group(p, n, top):
    # F_p[C_n] is commutative, so HH_k = HH^k; it is k[x]/(x^n - 1), with
    # HH of dimension n in every degree when p | n (x^n - 1 = (x - 1)^n
    # is inseparable) and n in degree 0 only when p does not divide n
    # (the algebra is separable)
    alg = _oracle.group_algebra(p, n)
    c = alg["c"]
    A = AlgebraPresentation(
        GF(p), [f"g{i}" for i in range(n)],
        [(i, j, l, c[i][j][l]) for i in range(n) for j in range(n) for l in range(n)
         if c[i][j][l]],
        alg["unit"]).validate()
    reg = A.regular()
    want = [n] * (top + 1) if n % p == 0 else [n] + [0] * top
    assert homology_dims(reg, top) == want
    assert cohomology_dims(reg, top) == want


def test_class_lift_reads_sparse_and_dense_coordinates():
    # a dict is read by key, not enumerated, and an index past the
    # dimension is an error rather than some other representative
    hs = homology(zoo.get("truncated_cubic").regular(), 1)
    assert hs.dim == 2
    assert hs.lift({1: 1}) == hs.lift((0, 1)) == hs.representative(1)
    assert hs.lift({0: 2, 1: -1}) == hs.lift((2, -1))
    for coords in ((0, 0, 5), {2: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="out of range"):
            hs.lift(coords)


def test_classes_is_class_of_column_by_column():
    N = zoo.get("truncated_cubic").regular()
    rng = random.Random(5)
    for kind in ("homology", "cohomology"):
        cs = class_space(N, 2, kind)
        vecs = [cs.lift([rng.randint(-3, 3) for _ in range(cs.dim)]) for _ in range(4)]
        mat = cs.classes(vecs)
        assert (mat.nrows, mat.ncols) == (cs.dim, 4)
        for v, col in zip(vecs, mat.cols):
            assert tuple(col.get(k, 0) for k in range(cs.dim)) == cs.class_of(v)
            assert list(col) == sorted(col)


def test_caches_are_freed_by_reference_counting():
    # nothing a computation caches points back at its algebra or module,
    # so dropping the module frees it and its caches at once, without
    # waiting for the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        assert homology_dims(zoo.get("truncated_cubic").regular(), 3) == [3, 2, 2, 2]
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["two_by_two_matrices", "truncated_cubic", "product_qq"])
def test_the_dual_module_closes_no_cycle_of_caches(name):
    # homology is the cohomology of M*, which M keeps in its cache; M* has
    # a cache of its own and never caches its dual, a twin of M, so
    # dropping M frees both by reference counting.  The regular module of
    # Q x Q is its own dual
    gc.collect()
    gc.disable()
    try:
        reg = zoo.get(name).regular()
        dims = homology_dims(reg, 4)
        assert [class_space(reg, n, "homology").dim for n in range(5)] == dims
        del reg
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("normalized", [False, True])
def test_cache_keys_read_by_the_benchmark_tracer(normalized):
    # perfbench/spans.py reports the cache hit ratio of these four builds
    # by probing (kind, degree) in the `_cache` of their first argument; a
    # renamed key would read as a miss on every call.  A `Normalized` owns
    # differentials only: class spaces live on the module
    reg = zoo.get("upper_triangular").regular()
    owner = Normalized(reg) if normalized else reg
    boundary_matrix(owner, 2)
    coboundary_matrix(owner, 1)
    keys = [("boundary", 2), ("coboundary", 1)]
    if not normalized:
        homology(owner, 1)
        cohomology(owner, 1)
        keys += [("homology", 1), ("cohomology", 1)]
    for key in keys:
        assert key in owner._cache, key


def test_regular_is_shared_while_held():
    A = zoo.get("dual_numbers")
    N = A.regular()
    assert A.regular() is N and A.is_regular(N)
    assert homology(N, 1).space is homology(N, 1).space
    assert not A.is_regular(coinduced(N).module)
