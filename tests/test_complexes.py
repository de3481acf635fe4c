import gc
import random
from fractions import Fraction

import pytest

from hochcap import config, zoo
from hochcap.bimodules import coinduced, induced
from hochcap.complexes import (
    bar_form,
    bar_form_boundary,
    bar_to_standard,
    boundary_matrix,
    central_action_homology,
    coboundary_matrix,
    cohomology,
    cohomology_dims,
    coinvariants,
    degree_zero_cocycle,
    homology,
    homology_dims,
    invariants_dim,
    standard_to_bar,
)
from hochcap.errors import MemoryGuardError, NotCentral, NotInvariant
from hochcap.linalg import SparseMat

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


def test_homology_dimension_tables():
    for name, table in HOMOLOGY_TABLE.items():
        reg = zoo.get(name).regular()
        assert tuple(homology_dims(reg, len(table) - 1)) == table, name


def test_cohomology_dimension_tables():
    for name, table in COHOMOLOGY_TABLE.items():
        reg = zoo.get(name).regular()
        assert tuple(cohomology_dims(reg, len(table) - 1)) == table, name


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
        assert cohomology(reg, 0).dim == invariants_dim(reg) == len(reg.algebra.center())


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
            hs = homology(reg, n)
            act = central_action_homology(hs, a.unit)
            assert act == SparseMat.identity(hs.dim, a.field), (name, n)


def test_central_action_nilpotent_kills_degree_one():
    # over Q[x]/(x^2): x . dx = 0 in degree 1
    a = zoo.get("dual_numbers")
    hs = homology(a.regular(), 1)
    act = central_action_homology(hs, {1: 1})
    assert act.is_zero()


def test_central_action_rejects_non_central():
    a = zoo.get("upper_triangular")
    hs = homology(a.regular(), 1)
    with pytest.raises(NotCentral):
        central_action_homology(hs, {0: 1})


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
        forms = [bar_form(reg, n) for n in range(4)]
        for n, bf in enumerate(forms):
            assert bf.dim == reg.dim * d ** n, (name, n)
            to_std = bar_to_standard(reg, bf)
            from_std = standard_to_bar(reg, bf)
            ident = SparseMat.identity(bf.dim, a.field)
            assert to_std @ from_std == SparseMat.identity(reg.dim * d ** n, a.field)
            assert from_std @ to_std == ident, (name, n)
        # conversion intertwines the differentials
        for n in (1, 2, 3):
            db = bar_form_boundary(reg, forms[n], forms[n - 1])
            lhs = bar_to_standard(reg, forms[n - 1]) @ db
            rhs = boundary_matrix(reg, n) @ bar_to_standard(reg, forms[n])
            assert lhs == rhs, (name, n)
        # and therefore computes the same homology
        for n in (1, 2):
            zb = bar_form_boundary(reg, forms[n], forms[n - 1])
            bb = bar_form_boundary(reg, forms[n + 1], forms[n])
            from hochcap.linalg import kernel_basis, subquotient

            sq = subquotient(kernel_basis(zb), bb)
            assert sq.dim == homology(reg, n).dim, (name, n)


def test_memory_guard_trips():
    a = zoo.two_by_two_matrices()  # fresh instance, empty cache
    reg = a.regular()
    config.set_max_coordinates(100)
    try:
        with pytest.raises(MemoryGuardError):
            boundary_matrix(reg, 3)
    finally:
        config.set_max_coordinates(None)
    assert config.max_coordinates() == 1 << 24


def test_memory_guard_trips_on_cached_builds():
    from hochcap.cap import bar_differential, diagonal_matrix

    a = zoo.two_by_two_matrices()
    reg = a.regular()
    builders = [
        lambda: boundary_matrix(reg, 3),
        lambda: coboundary_matrix(reg, 3),
        lambda: bar_differential(a, 2),
        lambda: diagonal_matrix(a, 1, 1),
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


def test_regular_is_shared_while_held():
    A = zoo.get("dual_numbers")
    N = A.regular()
    assert A.regular() is N and A.is_regular(N)
    assert homology(N, 1).space is homology(N, 1).space
    assert not A.is_regular(coinduced(N).module)
