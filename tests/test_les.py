"""Long exact sequences: pushforwards, connecting maps, exactness."""

import pytest
from hypothesis import given, strategies as st

from hochcap import linalg, zoo
from hochcap.bimodules import (
    Bimodule,
    BimoduleMorphism,
    coinduced,
    induced,
    make_ses,
    split_ses,
)
from hochcap.complexes import chain_dim, class_space, homology, homology_dims
from hochcap.errors import NotExact, Unsolvable
from hochcap.les import (
    _preimage,
    connecting,
    connecting_cohomology,
    connecting_homology,
    map_coefficients,
    pushforward_cohomology,
    pushforward_homology,
    tensor_ses_with,
    tensor_with_ses,
)
from hochcap.linalg import SparseMat, rank

from _oracle import verify_les


def identity_morphism(N):
    return BimoduleMorphism(N, N, SparseMat.identity(N.dim, N.field))


KINDS = ("homology", "cohomology")


def verify_both(ses, up_to):
    return verify_les(ses, up_to, "homology") + verify_les(ses, up_to, "cohomology")


@pytest.mark.parametrize("kind", KINDS)
def test_map_coefficients_identity(kind):
    A = zoo.get("dual_numbers")
    N = A.regular()
    ident = identity_morphism(N)
    vec = {0: A.field.coerce(3), 5: A.field.coerce(-1), 6: A.field.coerce(2)}
    assert map_coefficients(ident, vec, 2, kind) == vec


def test_pushforward_identity_is_identity():
    A = zoo.get("truncated_cubic")
    N = A.regular()
    ident = identity_morphism(N)
    for n in range(3):
        hs = homology(N, n)
        assert pushforward_homology(ident, n) == SparseMat.identity(hs.dim, A.field)
        cm = pushforward_cohomology(ident, n)
        assert cm == SparseMat.identity(cm.nrows, A.field)


@pytest.mark.parametrize("name", ["dual_numbers", "product_qq", "f2_c2"])
def test_split_ses_les_exact_and_connecting_zero(name):
    A = zoo.get(name)
    N = A.regular()
    ses = split_ses(N, N)
    assert verify_both(ses, 2) == []
    for n in range(1, 4):
        assert connecting_homology(ses, n).is_zero()
    for m in range(3):
        assert connecting_cohomology(ses, m).is_zero()
    # H of the sum is the sum of the H's
    assert homology_dims(ses.middle, 2) == [2 * k for k in homology_dims(N, 2)]


@pytest.mark.parametrize(
    "name, up_to",
    [
        ("dual_numbers", 3),
        ("truncated_cubic", 2),
        ("product_qq", 2),
        ("upper_triangular", 2),
        ("f2_c2", 2),
    ],
)
def test_les_for_induced_ses(name, up_to):
    A = zoo.get(name)
    ses = induced(A.regular()).ses
    assert verify_both(ses, up_to) == []


@pytest.mark.parametrize(
    "name, up_to",
    [
        ("dual_numbers", 3),
        ("truncated_cubic", 2),
        ("upper_triangular", 2),
        ("f2_c2", 2),
    ],
)
def test_les_for_coinduced_ses(name, up_to):
    A = zoo.get(name)
    ses = coinduced(A.regular()).ses
    assert verify_both(ses, up_to) == []


def test_connecting_homology_nonzero_and_seed_independent():
    # 0 -> K -> A (x) A -> A -> 0 over the dual numbers: the middle term
    # has no homology above degree 0, so the snake map H_2(A) -> H_1(K)
    # is an isomorphism of one dimensional spaces.
    A = zoo.get("dual_numbers")
    ses = induced(A.regular()).ses
    delta = connecting_homology(ses, 2)
    assert delta.nrows == 1 and delta.ncols == 1
    assert not delta.is_zero()
    for seed in range(5):
        assert connecting_homology(ses, 2, seed=seed) == delta


def test_connecting_cohomology_nonzero_and_seed_independent():
    # dual picture: Hom(A, M) has no cohomology above degree 0, so
    # H^1(C) -> H^2(M) is an isomorphism.
    A = zoo.get("dual_numbers")
    ses = coinduced(A.regular()).ses
    conn = connecting_cohomology(ses, 1)
    assert conn.nrows == 1 and conn.ncols == 1
    assert not conn.is_zero()
    for seed in range(5):
        assert connecting_cohomology(ses, 1, seed=seed) == conn


def test_connecting_gives_dimension_shift():
    # all the higher homology of A gets shifted into the kernel term
    A = zoo.get("truncated_cubic")
    data = induced(A.regular())
    for n in (2, 3):
        delta = connecting_homology(data.ses, n)
        assert rank(delta) == delta.nrows == delta.ncols


def _scalar_module(A, label):
    """One dimensional bimodule where the nilpotent generator acts as zero."""
    fld = A.field
    ident = SparseMat.identity(1, fld)
    zero = SparseMat.zero(1, 1, fld)
    return Bimodule(A, 1, (ident, zero), (ident, zero), label=label).validate()


def _torsion_ses(A):
    """0 -> x.A -> A -> A/x.A -> 0 over the dual numbers."""
    fld = A.field
    S = _scalar_module(A, "x.A")
    Q = _scalar_module(A, "A/x.A")
    N = A.regular()
    f = BimoduleMorphism(S, N, SparseMat.from_columns(2, fld, [{1: fld.one}]))
    g = BimoduleMorphism(N, Q, SparseMat.from_columns(1, fld, [{0: fld.one}, {}]))
    return make_ses(f.validate(), g.validate(), label="x torsion"), S, Q


def test_tensoring_can_destroy_exactness():
    # A/x.A is not flat: x.A (x)_A A/x.A -> A (x)_A A/x.A kills the
    # generator, so the tensored sequence is no longer exact on the left.
    A = zoo.get("dual_numbers")
    ses, _, Q = _torsion_ses(A)
    with pytest.raises(NotExact):
        tensor_ses_with(ses, Q)
    with pytest.raises(NotExact):
        tensor_with_ses(Q, ses)


def test_tensoring_with_free_module_keeps_exactness():
    A = zoo.get("dual_numbers")
    ses, _, _ = _torsion_ses(A)
    tses, (t1, t2, t3) = tensor_ses_with(ses, A.regular())
    assert (t1.module.dim, t2.module.dim, t3.module.dim) == (1, 2, 1)
    assert verify_les(tses, 2, "homology") == []
    tses2, _ = tensor_with_ses(A.regular(), ses)
    assert verify_les(tses2, 2, "cohomology") == []


def test_les_of_torsion_ses():
    A = zoo.get("dual_numbers")
    ses, _, _ = _torsion_ses(A)
    assert verify_both(ses, 3) == []


@pytest.mark.parametrize("kind", KINDS)
def test_preimage_requires_membership(kind):
    A = zoo.get("dual_numbers")
    ses, _, _ = _torsion_ses(A)
    # the unit of A, as the module entry of a degree 0 or 1 (co)chain
    # (coordinate 0 in both layouts), is not in the image of x.A -> A
    for n in (0, 1):
        with pytest.raises(Unsolvable):
            _preimage(ses.f, {0: A.field.one}, n, kind)


def test_connecting_degree_bounds():
    ses = induced(zoo.get("dual_numbers").regular()).ses
    with pytest.raises(ValueError, match="degree 1"):
        connecting(ses, 0, "homology")
    with pytest.raises(ValueError, match="degree 0"):
        connecting(ses, -1, "cohomology")


def _sequences():
    for name in ("dual_numbers", "truncated_cubic", "upper_triangular", "f2_c2"):
        A = zoo.get(name)
        yield f"{name} induced", induced(A.regular()).ses
        yield f"{name} coinduced", coinduced(A.regular()).ses
    yield "torsion", _torsion_ses(zoo.get("dual_numbers"))[0]


SEQUENCES = dict(_sequences())


@given(
    label=st.sampled_from(sorted(SEQUENCES)),
    kind=st.sampled_from(KINDS),
    n=st.integers(0, 2),
    data=st.data(),
)
def test_preimage_round_trip(label, kind, n, data):
    # a random (co)chain of the left term, pushed into the middle term by
    # f and pulled back by the preimage, returns to itself: f is injective,
    # and the left and middle terms have different dimensions, so a mix-up
    # of the two layouts would send it elsewhere
    ses = SEQUENCES[label]
    fld = ses.left.field
    vec = data.draw(st.dictionaries(
        st.integers(0, chain_dim(ses.left, n) - 1),
        st.integers(-5, 5).map(fld.coerce).filter(bool),
        max_size=6,
    ))
    image = map_coefficients(ses.f, vec, n, kind)
    assert _preimage(ses.f, image, n, kind) == vec
    assert map_coefficients(ses.f, _preimage(ses.f, image, n, kind), n, kind) == image


@pytest.mark.parametrize("kind,build", [("homology", induced), ("cohomology", coinduced)])
def test_connecting_factors_each_coefficient_map_once(monkeypatch, kind, build):
    # the Solver of f and of g is kept on the morphism: one connecting map
    # factors each at most once, whatever the number of classes, and a
    # repeat factors nothing
    ses = build(zoo.get("truncated_cubic").regular()).ses
    assert class_space(ses.right, 2, kind).dim >= 2
    factored = []
    init = linalg.Solver.__init__

    def counted(self, m):
        factored.append(m)
        init(self, m)

    monkeypatch.setattr(linalg.Solver, "__init__", counted)
    first = connecting(ses, 2, kind)
    assert 1 <= len(factored) <= 2
    factored.clear()
    assert connecting(ses, 2, kind) == first
    assert connecting(ses, 2, kind, seed=5) == first
    assert factored == []
