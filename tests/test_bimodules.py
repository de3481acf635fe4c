import gc
import random
from fractions import Fraction

import pytest

from hochcap import complexes, config, zoo
from hochcap.axioms import algebra_suite
from hochcap.bimodules import (
    Bimodule,
    BimoduleMorphism,
    coinduced,
    commutator_subspace,
    direct_sum,
    induced,
    invariants_subspace,
    kron,
    make_ses,
    split_ses,
    tensor_over_algebra,
)
from hochcap.complexes import boundary_matrix, coboundary_matrix, homology
from hochcap.errors import MemoryGuardError, NotExact, ValidationError
from hochcap.fields import QQ
from hochcap.linalg import SparseMat, rank


ALL = [zoo.get(name) for name in zoo.ZOO]


def test_regular_bimodule_validates():
    for a in ALL:
        a.regular().validate()


def test_commutator_subspace_dims():
    expected = {
        "rationals": 0,
        "dual_numbers": 0,
        "truncated_cubic": 0,
        "product_qq": 0,
        "two_by_two_matrices": 3,   # trace-zero matrices
        "upper_triangular": 1,      # spanned by the arrow
        "f2_c2": 0,
    }
    for a in ALL:
        c = commutator_subspace(a.regular())
        assert c.ncols == expected[a.label], a.label


def test_invariants_of_regular_is_center():
    for a in ALL:
        inv = invariants_subspace(a.regular())
        assert inv.ncols == len(a.center()), a.label


def test_kron_shape_and_values():
    a = SparseMat.from_dense(QQ, [[1, 2], [0, 1]])
    b = SparseMat.from_dense(QQ, [[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.nrows == 4 and k.ncols == 4
    assert k.entry(0, 1) == Fraction(1)   # a[0,0] * b[0,1]
    assert k.entry(0, 3) == Fraction(2)   # a[0,1] * b[0,1]


def test_tensor_regular_collapses():
    # A tensor_A A has the dimension of A, for every zoo algebra
    for a in ALL:
        t = tensor_over_algebra(a.regular(), a.regular())
        assert t.module.dim == a.dim, a.label
        t.module.validate()


def test_tensor_balance_relation():
    rng = random.Random(1)
    for a in (zoo.get("dual_numbers"), zoo.get("upper_triangular"), zoo.get("f2_c2")):
        reg = a.regular()
        t = tensor_over_algebra(reg, reg)
        fld = a.field
        for _ in range(10):
            x = {i: fld.coerce(rng.randint(-3, 3)) for i in range(a.dim)}
            y = {i: fld.coerce(rng.randint(-3, 3)) for i in range(a.dim)}
            z = {i: fld.coerce(rng.randint(-3, 3)) for i in range(a.dim)}
            xa = reg.act_right(x, z)
            ay = reg.act_left(z, y)
            assert t.project_pure(xa, y) == t.project_pure(x, ay)


def test_tensor_with_quotient_can_drop_dimension():
    # over D: (D/xD) tensor_D (D/xD) is 1-dimensional
    d = zoo.get("dual_numbers")
    reg = d.regular()
    co = coinduced(reg)
    # instead of building D/xD by hand, sanity check the generic machinery
    # on the coinduced quotient: dimensions follow the rank computations
    t = tensor_over_algebra(co.quotient, reg)
    assert t.module.dim <= co.quotient.dim * reg.dim
    t.module.validate()


def test_coinduced_shapes_and_ses():
    for a in ALL:
        reg = a.regular()
        co = coinduced(reg)
        d = a.dim
        assert co.module.dim == d * d
        assert co.quotient.dim == d * d - d
        co.module.validate()
        co.quotient.validate()
        # the sequence 0 -> M -> Hom(A, M) -> coker -> 0 was checked exact
        assert co.ses.middle is co.module


def test_induced_shapes_and_ses():
    for a in ALL:
        reg = a.regular()
        ind = induced(reg)
        d = a.dim
        assert ind.module.dim == d * d
        assert ind.kernel.dim == d * d - d
        ind.module.validate()
        ind.kernel.validate()
        assert ind.ses.right is reg


def test_direct_sum_and_split():
    a = zoo.get("dual_numbers")
    reg = a.regular()
    s, i1, i2, p1, p2 = direct_sum(reg, reg)
    s.validate()
    i1.validate(), i2.validate(), p1.validate(), p2.validate()
    assert (p1.matrix @ i1.matrix) == SparseMat.identity(reg.dim, a.field)
    assert (p1.matrix @ i2.matrix).is_zero()
    ses = split_ses(reg, reg)
    assert ses.middle.dim == 2 * reg.dim


def test_make_ses_rejects_non_exact():
    a = zoo.get("dual_numbers")
    reg = a.regular()
    s, i1, i2, p1, p2 = direct_sum(reg, reg)
    # g = p1 with f = i1: composite is the identity, not zero
    with pytest.raises(NotExact):
        make_ses(i1, p1)


def test_morphism_validation():
    a = zoo.get("upper_triangular")
    reg = a.regular()
    # the identity is a bimodule map; a generic matrix is not
    BimoduleMorphism(reg, reg, SparseMat.identity(3, QQ)).validate()
    bad = BimoduleMorphism(reg, reg, SparseMat.from_dense(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(ValidationError):
        bad.validate()


def test_tensor_morphism_wellformed():
    from hochcap.les import tensor_ses_with

    a = zoo.get("dual_numbers")
    reg = a.regular()
    tses, (t_src, t_tgt, _) = tensor_ses_with(induced(reg).ses, reg)
    f = tses.f
    f.validate()
    assert rank(f.matrix) <= min(t_src.module.dim, t_tgt.module.dim)


# -- one cache per module content --------------------------------------


def _twin(M, label="twin"):
    """A new bimodule with copies of M's action matrices."""
    def copy(mats):
        return tuple(SparseMat(m.nrows, m.ncols, m.field, [dict(c) for c in m.cols]) for m in mats)
    return Bimodule(M.algebra, M.dim, copy(M.left), copy(M.right), label=label)


def test_equal_actions_share_class_spaces(monkeypatch):
    A = zoo.get("upper_triangular")
    N = A.regular()
    twin = _twin(N)
    assert twin._cache is N._cache and not A.is_regular(twin)
    # N (x)_A A is N again, with the regular actions
    tens = tensor_over_algebra(N, N).module
    calls = []
    for name in ("image_basis", "_faces", "_coface_loop"):
        def counted(*args, name=name, inner=getattr(complexes, name)):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(complexes, name, counted)
    # both spaces are zero: each request gets a fresh handle on the one
    # shared cache entry, which holds nothing bound to a module
    for M, n in ((twin, 2), (tens, 1)):
        cycle = next(col for col in boundary_matrix(N, n + 1).cols if col)
        assert ("boundary", n) not in N._cache
        assert homology(M, n).class_of(cycle) == () and N._cache["homology", n] is None
        # the outgoing differential b_n the zero space tests with is built
        # once, into the shared cache, whichever twin asks
        built, made = N._cache["boundary", n], len(calls)
        assert homology(N, n).class_of(cycle) == ()
        assert len(calls) == made and N._cache["boundary", n] is built


def test_different_actions_do_not_share():
    # e_1 acts by 1 on the left of both; on the right, e_1 or e_2 does
    A = zoo.get("product_qq")
    one, zero = SparseMat.identity(1, A.field), SparseMat.zero(1, 1, A.field)
    S11 = Bimodule(A, 1, (one, zero), (one, zero)).validate()
    S12 = Bimodule(A, 1, (one, zero), (zero, one)).validate()
    assert S11._cache is not S12._cache
    assert (homology(S11, 0).dim, homology(S12, 0).dim) == (1, 0)
    N = zoo.get("upper_triangular").regular()
    E, P = coinduced(N).module, induced(N).module
    assert E.dim == P.dim and E._cache is not P._cache


def test_a_later_twin_shares_after_the_first_is_dropped():
    # the registry holds the shared cache weakly, so the cache lives, and
    # a new twin adopts it, for as long as any twin does
    A = zoo.get("dual_numbers")
    d = A.dim

    def fresh(label):
        return Bimodule(A, d, [A.left_matrix(i) for i in range(d)],
                        [A.right_matrix(i) for i in range(d)], label=label)

    first = fresh("first")
    second = _twin(first, "second")
    space = homology(second, 1).space
    assert homology(first, 1).space is space
    del first
    third = _twin(second, "third")
    assert third._cache is second._cache
    assert homology(third, 1).space is space
    del second, third
    # with every twin gone, the cache went with them
    last = fresh("last")
    assert not last._cache
    assert homology(last, 1).space is not space


def test_lowered_cap_refuses_a_build_cached_through_a_twin():
    A = zoo.get("two_by_two_matrices")
    N = A.regular()
    boundary_matrix(N, 3)
    coboundary_matrix(N, 3)
    twin = _twin(N)
    assert ("boundary", 3) in twin._cache and ("coboundary", 3) in twin._cache
    config.set_max_coordinates(100)
    try:
        with pytest.raises(MemoryGuardError):
            boundary_matrix(twin, 3)
        with pytest.raises(MemoryGuardError):
            coboundary_matrix(twin, 3)
    finally:
        config.set_max_coordinates(None)


def test_shared_caches_make_no_reference_cycle():
    # the registry of twins holds its bimodules weakly, so a whole suite
    # run, with its tensor, coinduced and induced modules, leaves nothing
    # for the cyclic garbage collector
    # two_by_two_matrices has zero class spaces, whose outgoing
    # differential is built on first use into the cache that holds them
    gc.collect()
    gc.disable()
    try:
        for name, n_max in (("dual_numbers", 3), ("two_by_two_matrices", 2)):
            rows = algebra_suite(zoo.get(name), n_max=n_max)
            assert rows and all(r.status != "fail" for r in rows)
            del rows
            assert gc.collect() == 0, name
    finally:
        gc.enable()
