import hashlib
import random

import pytest

from hochcap import GF, QQ, cap, config, linalg, zoo
from hochcap.bimodules import coinduced, tensor_over_algebra
from hochcap.cap import (
    CapPairing,
    bar_differential,
    cap_chain,
    cap_chain_regular,
    cap_via_lift,
    check_diagonal_identities,
    coboundary_lift,
    descent_defect,
    explicit_lift,
    solve_lift,
    unit_cocycle,
    verify_lift,
)
from hochcap.complexes import (
    boundary_matrix,
    coboundary_matrix,
    cochain_dim,
    chain_dim,
    cohomology,
    homology,
    tuple_rank,
    tuples,
)
from hochcap.errors import DegreeError, HochcapError, LiftFailed, MemoryGuardError
from hochcap.linalg import coerce_vector

import _oracle


def rand_vec(rng, fld, dim, k=4):
    out = {}
    for _ in range(k):
        v = fld.coerce(rng.randint(-3, 3))
        if v != fld.zero:
            out[rng.randrange(dim)] = v
    return out


def test_diagonal_identities_hold():
    for name in zoo.ZOO:
        a = zoo.get(name)
        top = 2 if a.dim == 4 else 3
        assert check_diagonal_identities(a, top) == [], name


def _insertions():
    """(algebra, total, inserted element): the unit, then each e_k and
    2 e_k at total 2 (over F_2, 2 e_k is the zero element)."""
    for name in zoo.ZOO:
        a = zoo.get(name)
        yield pytest.param(name, 2 if a.dim == 4 else 3, None, id=f"{name}-unit")
        for k in range(a.dim):
            for c in (1, 2):
                yield pytest.param(name, 2, {k: a.field.coerce(c)}, id=f"{name}-{c}e{k}")
    yield pytest.param("dual_numbers", 1, {1: 1}, id="dual_numbers-1e1-total1")


@pytest.mark.parametrize("name,total,inserted", _insertions())
def test_diagonal_check_matches_the_oracle(name, total, inserted):
    # the same failures, in the same order, as one generator and split at
    # a time; inserting anything but the unit cannot satisfy the equations
    a = zoo.get(name)
    got = check_diagonal_identities(a, total, inserted)
    assert got == _oracle.diagonal_failures(a, total, inserted)
    assert (got == []) == (inserted is None or inserted == a.unit)


@pytest.mark.parametrize("name", ["upper_triangular", "f2_c2"])
def test_diagonal_check_finds_a_broken_differential(monkeypatch, name):
    # d_2 with one entry changed breaks the identities wherever it enters:
    # on the left at total 1, and in the block maps of (0, 1), (1, 0) and,
    # at total 2, (1, 1)
    real = cap.bar_differential

    def broken(A, n):
        m = real(A, n)
        if n != 2:
            return m
        cols = [dict(col) for col in m.cols]
        k, v = next(iter(cols[5].items()))
        v = A.field.add(v, A.field.one)  # zero over F_2: the entry goes
        if v:
            cols[5][k] = v
        else:
            del cols[5][k]
        return linalg.SparseMat(m.nrows, m.ncols, m.field, cols)

    monkeypatch.setattr(cap, "bar_differential", broken)
    a = zoo.get(name)
    got = check_diagonal_identities(a, 2)
    assert got and got == _oracle.diagonal_failures(a, 2)
    assert {(i, j) for _, i, j, _ in got} == {(0, 1), (1, 0), (1, 1)}


def test_diagonal_identities_reject_a_negative_bound():
    with pytest.raises(DegreeError):
        check_diagonal_identities(zoo.get("dual_numbers"), -1)


def test_diagonal_matrix_matches_tuple_insertion():
    # D_{i,j} as `check_diagonal_identities` applies it: the unit inserted
    # by `on_slots` with d**(j+1) slots below it, i.e. after slot i
    for name in ("dual_numbers", "upper_triangular"):
        a = zoo.get(name)
        d = a.dim
        ins = linalg.SparseMat(d, 1, a.field, [a.unit])
        for i in range(3):
            for j in range(3 - i):
                for col, c in enumerate(tuples(d, i + j + 2)):
                    got = linalg.on_slots(ins, {col: a.field.one}, d ** (j + 1))
                    want = {tuple_rank(d, c[: i + 1] + (s,) + c[i + 1 :]): v
                            for s, v in a.unit.items()}
                    assert got == want, (name, i, j, c)


@pytest.mark.parametrize("name", sorted(_oracle.ALGEBRAS))
def test_bar_differential_matches_dense_oracle(name):
    # b' is b on A (x) A^{(x)(n+1)} with right multiplication and a zero
    # left action
    alg = _oracle.ALGEBRAS[name]()
    p, d = alg["p"], alg["d"]
    a = zoo.get(name)
    _, right = _oracle.regular_actions(alg)
    zero_left = [[[0] * d for _ in range(d)] for _ in range(d)]
    for n in range(1, 3 if d == 4 else 4):
        ref = _oracle.chain_boundary_dense(alg, zero_left, right, d, n + 1)
        want = ref if p is None else [[v % p for v in row] for row in ref]
        assert bar_differential(a, n).to_dense() == want, (name, n)


def test_cap_chain_hand_example():
    # over Q[x]/(x^2): (e; x) cap E = x for the cocycle E with E(x) = x
    a = zoo.get("dual_numbers")
    reg = a.regular()
    xi = {1: a.field.one}           # (e; x)
    T = {3: a.field.one}            # E(e) = 0, E(x) = x
    assert coboundary_matrix(reg, 1).matvec(T) == {}
    assert boundary_matrix(reg, 1).matvec(xi) == {}
    got = cap_chain_regular(reg, 1, xi, 1, T)
    assert got == {1: a.field.one}  # the element x in C_0 = A
    h0 = homology(reg, 0)
    assert h0.class_of(got) == h0.class_of({1: 1})
    assert any(c != a.field.zero for c in h0.class_of(got))


def test_cap_with_unit_cocycle_is_identity():
    for name in ("dual_numbers", "truncated_cubic", "f2_c2", "product_qq"):
        a = zoo.get(name)
        reg = a.regular()
        unit_class = cohomology(reg, 0).class_of(unit_cocycle(a))
        for n in range(4):
            pairing = CapPairing(reg, n, reg, 0)
            for k in range(pairing.chains.dim):
                gamma = tuple(
                    a.field.one if i == k else a.field.zero
                    for i in range(pairing.chains.dim)
                )
                assert pairing.of_classes(gamma, unit_class) == gamma, (name, n, k)


def test_cap_degree_errors():
    a = zoo.get("dual_numbers")
    reg = a.regular()
    with pytest.raises(DegreeError):
        cap_chain_regular(reg, 1, {}, 2, {})
    with pytest.raises(DegreeError):
        descent_defect(reg, 1, {}, reg, 1, {})


def test_descent_identity_regular_coefficients():
    rng = random.Random(23)
    for name in zoo.ZOO:
        a = zoo.get(name)
        reg = a.regular()
        fld = a.field
        top = 3 if a.dim == 4 else 4
        for n in range(1, top + 1):
            for m in range(0, n):
                for _ in range(3):
                    xi = rand_vec(rng, fld, chain_dim(reg, n))
                    T = rand_vec(rng, fld, cochain_dim(reg, m))
                    assert descent_defect(reg, n, xi, reg, m, T) == {}, (name, n, m)


def test_descent_identity_general_coefficients():
    rng = random.Random(29)
    a = zoo.get("dual_numbers")
    reg = a.regular()
    e = coinduced(reg).module
    tens = tensor_over_algebra(reg, e)
    fld = a.field
    for n in (1, 2, 3):
        for m in range(0, n):
            for _ in range(3):
                xi = rand_vec(rng, fld, chain_dim(reg, n))
                T = rand_vec(rng, fld, cochain_dim(e, m))
                assert descent_defect(reg, n, xi, e, m, T, tens) == {}, (n, m)


def test_cap_chain_bilinear():
    rng = random.Random(31)
    a = zoo.get("upper_triangular")
    reg = a.regular()
    fld = a.field
    n, m = 2, 1
    for _ in range(5):
        x1 = rand_vec(rng, fld, chain_dim(reg, n))
        x2 = rand_vec(rng, fld, chain_dim(reg, n))
        T = rand_vec(rng, fld, cochain_dim(reg, m))
        both = dict(x1)
        for i, v in x2.items():
            s = fld.add(both.get(i, fld.zero), v)
            if s == fld.zero:
                both.pop(i, None)
            else:
                both[i] = s
        lhs = cap_chain_regular(reg, n, both, m, T)
        r1 = cap_chain_regular(reg, n, x1, m, T)
        r2 = cap_chain_regular(reg, n, x2, m, T)
        for i, v in r2.items():
            s = fld.add(r1.get(i, fld.zero), v)
            if s == fld.zero:
                r1.pop(i, None)
            else:
                r1[i] = s
        assert lhs == r1


def test_cap_class_invariant_under_representative_choice():
    a = zoo.get("dual_numbers")
    reg = a.regular()
    fld = a.field
    rng = random.Random(37)
    pairing = CapPairing(reg, 2, reg, 1)
    hs, cs = pairing.chains, pairing.cochains
    assert hs.dim >= 1 and cs.dim >= 1
    xi = hs.lift((fld.one,) * hs.dim)
    T = cs.lift((fld.one,) * cs.dim)
    base = pairing.target.class_of(cap_chain(reg, 2, xi, reg, 1, T))
    for _ in range(5):
        eta = rand_vec(rng, fld, chain_dim(reg, 3))
        S = rand_vec(rng, fld, cochain_dim(reg, 0))
        xi2 = dict(xi)
        for i, v in boundary_matrix(reg, 3).matvec(eta).items():
            s = fld.add(xi2.get(i, fld.zero), v)
            if s == fld.zero:
                xi2.pop(i, None)
            else:
                xi2[i] = s
        T2 = dict(T)
        for i, v in coboundary_matrix(reg, 0).matvec(S).items():
            s = fld.add(T2.get(i, fld.zero), v)
            if s == fld.zero:
                T2.pop(i, None)
            else:
                T2[i] = s
        assert pairing.target.class_of(cap_chain(reg, 2, xi2, reg, 1, T2)) == base


def test_explicit_lift_is_chain_map():
    for name in ("dual_numbers", "truncated_cubic", "f2_c2"):
        a = zoo.get(name)
        reg = a.regular()
        cs = cohomology(reg, 1)
        assert cs.dim >= 1
        T = cs.representative(0)
        lift = explicit_lift(a, T, 1, 3)
        assert verify_lift(a, T, 1, lift) > 0


def test_explicit_lift_of_non_cocycle_fails_verification():
    a = zoo.get("dual_numbers")
    T = {0: a.field.one}  # T(e) = e, T(x) = 0 is not a cocycle
    assert coboundary_matrix(a.regular(), 1).matvec(T) != {}
    lift = explicit_lift(a, T, 1, 2)
    with pytest.raises(LiftFailed):
        verify_lift(a, T, 1, lift)


def test_cap_via_explicit_lift_matches_direct_formula():
    rng = random.Random(41)
    for name in ("dual_numbers", "upper_triangular", "f2_c2"):
        a = zoo.get(name)
        reg = a.regular()
        fld = a.field
        for n in (1, 2, 3):
            for m in range(0, n + 1):
                T = rand_vec(rng, fld, cochain_dim(reg, m))
                lift = explicit_lift(a, T, m, n - m)
                for _ in range(3):
                    xi = rand_vec(rng, fld, chain_dim(reg, n))
                    direct = cap_chain_regular(reg, n, xi, m, T)
                    via = cap_via_lift(reg, n, xi, lift)
                    assert via == direct, (name, n, m)


def test_solved_lifts_agree_on_classes():
    a = zoo.get("dual_numbers")
    reg = a.regular()
    fld = a.field
    # three instances: the nonzero degree (1,1) product, a higher degree
    # pair, and a cap against the unit; classes must not depend on the seed
    # and must match the direct formula
    instances = [
        (1, 1, {1: fld.one}, {3: fld.one}),
        (2, 1, homology(reg, 2).lift((fld.one,)), cohomology(reg, 1).representative(0)),
        (1, 0, homology(reg, 1).lift((fld.one,)), unit_cocycle(a)),
        # depth two, nonzero product class
        (3, 1, homology(reg, 3).lift((fld.one,)), cohomology(reg, 1).representative(0)),
    ]
    for n, m, xi, T in instances:
        target = homology(reg, n - m)
        direct = target.class_of(cap_chain_regular(reg, n, xi, m, T))
        for seed in (None, 1, 2, 3, 4, 5):
            lift = solve_lift(a, T, m, n - m, seed=seed)
            verify_lift(a, T, m, lift)
            got = target.class_of(cap_via_lift(reg, n, xi, lift))
            assert got == direct, (n, m, seed)
    # the degree (1,1) product is the nonzero class [x]
    h0 = homology(reg, 0)
    assert h0.class_of(cap_chain_regular(reg, 1, {1: fld.one}, 1, {3: fld.one})) != (
        fld.zero,
    ) * h0.dim


def test_solve_lift_rejects_non_cocycle():
    a = zoo.get("dual_numbers")
    T = {0: a.field.one}
    with pytest.raises(LiftFailed):
        solve_lift(a, T, 1, 2)


def test_coboundary_lift_gives_boundaries():
    rng = random.Random(43)
    for name in ("dual_numbers", "truncated_cubic"):
        a = zoo.get(name)
        reg = a.regular()
        fld = a.field
        for m in (1, 2):
            S = rand_vec(rng, fld, cochain_dim(reg, m - 1))
            T = coboundary_matrix(reg, m - 1).matvec(S)
            lift = coboundary_lift(a, S, m, 2)
            verify_lift(a, T, m, lift)
            for i in (1, 2):
                assert all(not c for c in lift.values[i].cols)
            # n = m: the product of any cycle with dS is a boundary
            hs = homology(reg, m)
            h0 = homology(reg, 0)
            for k in range(hs.dim):
                out = cap_via_lift(reg, m, hs.representative(k), lift)
                assert not any(h0.class_of(out)), (name, m, k)


# sha256 of every lift value, generator by generator, for the cases of
# `_lift_cases`; frozen from the tuple-keyed implementation, so a change of
# layer storage cannot change a single value
LIFT_DIGESTS = {
    "rationals": "b3db20595b10f5d7c20eb5314a79b66386101b356215a4b03bdaf5756546ad71",
    "dual_numbers": "ae215c438219a30f7dd5466bae2cda93b7cd06cd1f686125a54981ef88567228",
    "truncated_cubic": "17f5a45e16467f03a5ae17cbd6af4a4798f2301021e7b394faa862ae14e1f318",
    "product_qq": "c8fcc98b57e8567fc1901379ccc39d66eff530f08053e14a3dee963dbb100dd8",
    "two_by_two_matrices": "17c92d3950735ce252cdcef0946c60baf1f357ef96bfbc0438215fc8103957f3",
    "upper_triangular": "a83ed470d30edbeac4c89625dfcf411e63b29efd86a50124cc02e1d590e8eedc",
    "f2_c2": "c0aaf11b473aee7dec8a92b4330f9ef3250fa789a5baae89f920b8e76972350f",
}


def _lift_digest(lift):
    h = hashlib.sha256()
    for i in range(lift.depth + 1):
        for w in tuples(lift.algebra.dim, lift.m + i):
            entries = sorted((k, str(v)) for k, v in lift.value(i, w).items())
            h.update(repr((i, w, entries)).encode())
    return h.hexdigest()


def _lift_cases(name):
    """(label, lift) for m <= 2 at depth 2: the closed form, the solved
    lift unseeded and seeded, and the coboundary lift."""
    a = zoo.get(name)
    reg = a.regular()
    fld = a.field
    rng = random.Random(f"lift/{name}")
    for m in range(3):
        cs = cohomology(reg, m)
        T = cs.lift((fld.one,) * cs.dim)
        S = rand_vec(rng, fld, cochain_dim(reg, m - 1)) if m else {}
        if m:
            linalg.axpy(T, fld.one, coboundary_matrix(reg, m - 1).matvec(S), fld)
        yield f"explicit:{m}", explicit_lift(a, T, m, 2)
        yield f"solve:{m}", solve_lift(a, T, m, 2)
        yield f"solve:{m}:7", solve_lift(a, T, m, 2, seed=7)
        if m:
            yield f"coboundary:{m}", coboundary_lift(a, S, m, 2)


@pytest.mark.parametrize("name", list(zoo.ZOO))
def test_lift_values_are_frozen(name):
    got = hashlib.sha256()
    for label, lift in _lift_cases(name):
        got.update(f"{label}={_lift_digest(lift)};".encode())
    assert got.hexdigest() == LIFT_DIGESTS[name]


def test_verify_lift_names_the_degree_of_a_forged_entry():
    a = zoo.get("dual_numbers")
    reg = a.regular()
    fld = a.field
    T = cohomology(reg, 1).representative(0)
    lift = explicit_lift(a, T, 1, 3)
    assert verify_lift(a, T, 1, lift) > 0
    col = lift.value(2, (1, 0, 1))
    col[0] = fld.add(col.get(0, fld.zero), fld.one)  # d_2 e_0 = e_0 is not zero
    with pytest.raises(LiftFailed, match="degree 2"):
        verify_lift(a, T, 1, lift)


def test_seeded_lift_is_refused_before_any_solve(monkeypatch):
    # d_1..d_4 fit under the cap, the seeded homotopy's d_5 (3^7) does not
    # every layer is one solve_matrix, so those are the calls to count
    T = dict(zoo.get("truncated_cubic").unit)
    calls = []
    solve_matrix = linalg.Solver.solve_matrix

    def counted(self, rhs):
        calls.append(rhs)
        return solve_matrix(self, rhs)

    monkeypatch.setattr(linalg.Solver, "solve_matrix", counted)
    config.set_max_coordinates(3 ** 7 - 1)
    try:
        assert solve_lift(zoo.get("truncated_cubic"), T, 0, 4).depth == 4
        assert len(calls) == 5
        calls.clear()
        with pytest.raises(MemoryGuardError):
            solve_lift(zoo.get("truncated_cubic"), T, 0, 4, seed=1)
    finally:
        config.set_max_coordinates(None)
    assert calls == []


@pytest.mark.parametrize("call,size", [
    (lambda A: explicit_lift(A, unit_cocycle(A), 0, 8), 3 ** 10),
    (lambda A: coboundary_lift(A, {0: A.field.one}, 1, 8), 3 ** 10),
    (lambda A: solve_lift(A, {0: A.field.one}, 8, 0), 3 ** 8),
])
def test_lifts_are_refused_before_any_layer(monkeypatch, call, size):
    # the top layer has d^(up_to+2) values on d^(m+up_to) generators; the
    # larger side is refused before a layer, a solver or a bar term is built
    built = []
    for name in ("_cochain_layer", "_coboundary", "_solver", "bar_differential"):
        inner = getattr(cap, name)
        monkeypatch.setattr(cap, name, lambda *args, inner=inner: built.append(args) or inner(*args))
    config.set_max_coordinates(1000)
    try:
        with pytest.raises(MemoryGuardError, match=f"{size} coordinates for the top layer"):
            call(zoo.get("truncated_cubic"))
    finally:
        config.set_max_coordinates(None)
    assert built == []


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_random_draws_are_the_randrange_draws(field):
    # the same draws as the randrange form for every dimension below 5000,
    # and the same generator state after them; the state is compared every
    # 50 dimensions and at the end, since getstate copies 625 words
    table = [field.coerce(c) for c in range(-2, 3)]
    for seed in (0, 1, 7, 2 ** 40 + 3):
        fast, slow = random.Random(seed), random.Random(seed)
        for dim in range(1, 5000):
            got = cap._random_sparse(fast, dim, table)
            assert list(got.items()) == list(_oracle.random_sparse(slow, dim, table).items())
            if dim % 50 == 0 or dim == 4999:
                assert fast.getstate() == slow.getstate(), (seed, dim)


def test_cap_via_lift_refuses_other_modules():
    a = zoo.get("truncated_cubic")
    reg = a.regular()
    fld = a.field
    T = cohomology(reg, 1).representative(0)
    lift = explicit_lift(a, T, 1, 1)
    xi = homology(reg, 2).representative(0)
    assert cap_via_lift(reg, 2, xi, lift) == cap_chain_regular(reg, 2, xi, 1, T)
    dual = coinduced(reg).module
    with pytest.raises(HochcapError, match="regular"):
        cap_via_lift(dual, 2, {3 * 9: fld.one}, lift)
    other = zoo.get("truncated_cubic").regular()
    with pytest.raises(HochcapError, match="algebra"):
        cap_via_lift(other, 2, xi, lift)


def _check_cap_matrix(pairing, rng):
    """Column a of the cap matrix of c is the class of e_a cap c, for the
    basis cochain classes and seeded random ones, as dicts and as tuples,
    and the matrix is linear in the chain class too."""
    fld = pairing.module.field
    hd, cd = pairing.chains.dim, pairing.cochains.dim
    classes = [{b: fld.one} for b in range(cd)]
    classes += [{b: fld.coerce(rng.randint(-3, 3)) for b in range(cd)} for _ in range(2)]
    for c in classes:
        for coords in (c, tuple(fld.coerce(c.get(b, fld.zero)) for b in range(cd))):
            mat = pairing.matrix(coords)
            assert (mat.nrows, mat.ncols) == (pairing.target.dim, hd)
            for a in range(hd):
                e_a = tuple(fld.one if i == a else fld.zero for i in range(hd))
                want = coerce_vector(fld, pairing.of_classes(e_a, coords))
                assert mat.cols[a] == want and list(mat.cols[a]) == sorted(want)
            h = [fld.coerce(rng.randint(-3, 3)) for _ in range(hd)]
            assert mat.matvec(coerce_vector(fld, h)) == coerce_vector(
                fld, pairing.of_classes(h, coords))


@pytest.mark.parametrize("name", list(zoo.ZOO))
def test_cap_matrix_columns_are_of_classes(name):
    reg = zoo.get(name).regular()
    rng = random.Random(f"matrix/{name}")
    for n in range(4):
        for m in range(n + 1):
            _check_cap_matrix(CapPairing(reg, n, reg, m), rng)


@pytest.mark.parametrize("coinduced_left", [True, False])
@pytest.mark.parametrize("name", ["dual_numbers", "truncated_cubic", "upper_triangular", "f2_c2"])
def test_cap_matrix_with_a_tensor_target(name, coinduced_left):
    # coinduced (x) regular has chain classes in degree 0 only, regular
    # (x) coinduced cochain classes in degree 0 only; both realize the
    # target as a tensor product
    reg = zoo.get(name).regular()
    co = coinduced(reg).module
    N, M = (co, reg) if coinduced_left else (reg, co)
    tens = tensor_over_algebra(N, M)
    rng = random.Random(f"matrix/{name}/{coinduced_left}")
    for n in range(4):
        for m in range(n + 1):
            _check_cap_matrix(CapPairing(N, n, M, m, tens), rng)


@pytest.mark.parametrize("name,n,m", [
    ("truncated_cubic", 4, 2),
    ("two_by_two_matrices", 3, 1),
    ("f2_c2", 6, 6),
    ("upper_triangular", 3, 0),
    ("dual_numbers", 0, 0),
    ("product_qq", 5, 2),
])
def test_cap_guard_is_asked_about_the_largest_space_first(monkeypatch, name, n, m):
    # every class space fetches the differential touching its degree + 1
    # first, so the first size the guard sees is the largest the pairing
    # builds, and a refusal comes before any assembly
    reg = zoo.get(name).regular()
    asked = []
    guard = config.guard

    def recording(ncoords, what=""):
        asked.append(ncoords)
        guard(ncoords, what)

    monkeypatch.setattr(config, "guard", recording)
    CapPairing(reg, n, reg, m)
    assert len(asked) > 1 and asked[0] == max(asked)


def test_cap_pairing_fetches_its_largest_class_space_first(monkeypatch):
    # the cochain module Hom(A, A) of truncated_cubic has 9 coordinates, so
    # H^3 asks for delta^3 on 9 * 3**4 = 729, more than b_4 on the regular
    # chains (3 * 3**4 = 243): under a cap of 500 nothing is assembled
    from hochcap import complexes

    reg = zoo.get("truncated_cubic").regular()
    E = coinduced(reg).module
    asked, faces = [], []
    guard = config.guard

    def recording(ncoords, what=""):
        asked.append(ncoords)
        guard(ncoords, what)

    monkeypatch.setattr(config, "guard", recording)
    for name in ("_faces", "_coface_loop"):
        monkeypatch.setattr(complexes, name, lambda *args, inner=getattr(complexes, name):
                            faces.append(args) or inner(*args))
    config.set_max_coordinates(500)
    try:
        with pytest.raises(MemoryGuardError, match="729 coordinates"):
            CapPairing(reg, 3, E, 3)
    finally:
        config.set_max_coordinates(None)
    assert faces == [] and asked == [729]
    # without the cap every space is built, the largest asked for first
    asked.clear()
    CapPairing(reg, 3, E, 3)
    assert len(asked) > 1 and asked[0] == max(asked) == 729
