"""Release gate: every promise the package makes, checked end to end.

One test per criterion, so a verbose run prints one pass/fail line for
each.  Expected dimension tables are frozen from the independent dense
oracle in tests/_oracle.py; everything else is an exact identity, no
tolerances anywhere.  Criteria 1 and 5 carry runtime budgets.
"""

import random
import time

import pytest

from hochcap import axioms, zoo
from hochcap.algebras import AlgebraPresentation
from hochcap.cap import (
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
    chain_dim,
    coboundary_matrix,
    cochain_dim,
    cohomology_dims,
    homology,
    homology_dims,
)
from hochcap.fields import GF


def report(num, detail):
    print(f"criterion {num}: PASS ({detail})")


def rand_vec(rng, fld, dim, entries=4):
    out = {}
    for _ in range(entries):
        c = fld.coerce(rng.randint(-3, 3))
        if c != fld.zero:
            out[rng.randrange(dim)] = c
    return out


def test_criterion_1_differentials_square_to_zero():
    t0 = time.monotonic()
    squares = 0
    for name in zoo.ZOO:
        reg = zoo.get(name).regular()
        for n in range(2, 6):
            assert (boundary_matrix(reg, n - 1) @ boundary_matrix(reg, n)).is_zero(), (
                name, n,
            )
            squares += 1
        for m in range(0, 5):
            assert (
                coboundary_matrix(reg, m + 1) @ coboundary_matrix(reg, m)
            ).is_zero(), (name, m)
            squares += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"{squares} composable squares vanish, {elapsed:.1f}s")


def test_criterion_2_dimension_tables_match_oracle():
    # frozen oracle outputs; HH_0 of the triangular algebra is 2 (the
    # commutator quotient of a path algebra counts vertices), see the
    # cohomology row for where (1,0,0,0) belongs
    dual = zoo.get("dual_numbers").regular()
    assert homology_dims(dual, 4) == [2, 1, 1, 1, 1]
    assert cohomology_dims(dual, 4) == [2, 1, 1, 1, 1]

    f2x = AlgebraPresentation(
        GF(2), ["e", "x"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0],
        label="f2_dual",
    ).validate()
    assert homology_dims(f2x.regular(), 4) == [2, 2, 2, 2, 2]

    assert homology_dims(zoo.get("product_qq").regular(), 4) == [2, 0, 0, 0, 0]
    assert homology_dims(zoo.get("two_by_two_matrices").regular(), 3) == [1, 0, 0, 0]
    tri = zoo.get("upper_triangular").regular()
    assert homology_dims(tri, 3) == [2, 0, 0, 0]
    assert cohomology_dims(tri, 3) == [1, 0, 0, 0]
    report(2, "all frozen tables reproduced exactly")


def test_criterion_3_diagonal_compatibility():
    for name in zoo.ZOO:
        failures = check_diagonal_identities(zoo.get(name), 4)
        assert failures == [], (name, failures[:3])
    report(3, "both comultiplication identities, i+j <= 4, 7 algebras")


def test_criterion_4_descent_identity_random_pairs():
    pairs_per_algebra = 100
    degree_pairs = [(n, m) for n in range(1, 5) for m in range(n)]
    for name in zoo.ZOO:
        A = zoo.get(name)
        reg = A.regular()
        fld = A.field
        rng = random.Random(f"descent:{name}")
        done = 0
        while done < pairs_per_algebra:
            n, m = degree_pairs[done % len(degree_pairs)]
            xi = rand_vec(rng, fld, chain_dim(reg, n))
            T = rand_vec(rng, fld, cochain_dim(reg, m))
            assert descent_defect(reg, n, xi, reg, m, T) == {}, (name, n, m)
            done += 1
    report(4, "b(xi cap T) identity on 100 random pairs x 7 algebras, n <= 4")


def test_criterion_5_identity_suite_zero_failures():
    t0 = time.monotonic()
    rows = axioms.run_suite(n_max=3)
    elapsed = time.monotonic() - t0
    failed = axioms.failures(rows)
    assert failed == [], [repr(r) for r in failed[:5]]
    skipped = axioms.skips(rows)
    # the only permitted skips: instances whose exactness hypothesis
    # genuinely fails (tensoring the square-zero torsion sequence)
    assert len(skipped) == 2
    assert all("not exact" in r.detail for r in skipped)
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    report(
        5,
        f"{len(rows)} checks, 0 failures, {len(skipped)} documented skips, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_dimension_shift_maps():
    for name in zoo.ZOO:
        rows = axioms.check_dimension_shift(zoo.get(name), 3)
        bad = [r for r in rows if r.status != "pass"]
        assert bad == [], (name, [repr(r) for r in bad])
    report(6, "coinduced connecting onto, induced connecting injective, 7 algebras")


def test_criterion_7_lift_equivalence():
    rng = random.Random(407)
    # chain level: the closed-form lift route equals the direct formula
    for name in zoo.ZOO:
        A = zoo.get(name)
        reg = A.regular()
        fld = A.field
        for n in (1, 2, 3):
            for m in range(n + 1):
                T = rand_vec(rng, fld, cochain_dim(reg, m))
                lift = explicit_lift(A, T, m, n - m)
                xi = rand_vec(rng, fld, chain_dim(reg, n))
                assert cap_via_lift(reg, n, xi, lift) == cap_chain_regular(
                    reg, n, xi, m, T
                ), (name, n, m)

    # solved lifts: 20 seeds, always the same class as the direct product
    A = zoo.get("dual_numbers")
    reg = A.regular()
    fld = A.field
    for n, m, xi, T in [
        (1, 1, {1: fld.one}, {3: fld.one}),
        (3, 1, homology(reg, 3).lift((fld.one,)), {3: fld.one}),
    ]:
        target = homology(reg, n - m)
        direct = target.class_of(cap_chain_regular(reg, n, xi, m, T))
        for seed in range(20):
            lift = solve_lift(A, T, m, n - m, seed=seed)
            verify_lift(A, T, m, lift)
            assert target.class_of(cap_via_lift(reg, n, xi, lift)) == direct, seed

    # lifting a coboundary: positive layers vanish, products are boundaries
    for name in ("dual_numbers", "truncated_cubic"):
        A = zoo.get(name)
        reg = A.regular()
        fld = A.field
        for m in (1, 2):
            S = rand_vec(rng, fld, cochain_dim(reg, m - 1))
            T = coboundary_matrix(reg, m - 1).matvec(S)
            lift = coboundary_lift(A, S, m, 2)
            verify_lift(A, T, m, lift)
            for layer in lift.values[1:]:
                assert all(not c for c in layer.cols)
            hs = homology(reg, m)
            h0 = homology(reg, 0)
            for k in range(hs.dim):
                out = cap_via_lift(reg, m, hs.representative(k), lift)
                assert not any(h0.class_of(out)), (name, m, k)
    report(7, "lift route == direct formula; 20 seeds class-stable; coboundary lifts bound")


def test_criterion_8_concrete_cap_values():
    # hand example over the dual numbers: (e; x) cap E = x, a nonzero
    # class in degree zero (E is the cocycle sending x to x)
    A = zoo.get("dual_numbers")
    reg = A.regular()
    fld = A.field
    h0 = homology(reg, 0)
    got = h0.class_of(cap_chain_regular(reg, 1, {1: fld.one}, 1, {3: fld.one}))
    assert got == h0.class_of({1: fld.one})
    assert got != (fld.zero,) * h0.dim

    # capping with the class of the unit cocycle is the identity
    checked = 0
    for name in zoo.ZOO:
        B = zoo.get(name)
        regb = B.regular()
        one = unit_cocycle(B)
        for n in range(5):
            hs = homology(regb, n)
            unit = [regb.field.zero] * hs.dim
            for k in range(hs.dim):
                coords = list(unit)
                coords[k] = regb.field.one
                got = hs.class_of(
                    cap_chain_regular(regb, n, hs.lift(coords), 0, one)
                )
                assert got == tuple(coords), (name, n, k)
                checked += 1
    report(8, f"(e;x) cap E = [x] != 0; gamma cap [1] = gamma for {checked} classes")
