"""Machine checks for the structural identities of the pairing.

The pairing H_n (x) H^m -> H_{n-m} is pinned down by four properties:
it is bilinear over the center, it is compatible with the connecting
maps of both coefficient arguments (with signs (-1)^m and (-1)^(m+1)),
and in degree zero it reduces to the map [x] (x) y -> [x (x) y] under
the canonical identifications of H_0 with coinvariants and H^0 with
invariants.  Each check below verifies one of these on concrete class
bases and returns a list of result rows; `run_suite` assembles the
standard instances for one or more named algebras.

A connecting-map check is only meaningful when tensoring keeps the
short exact sequence exact.  When it does not, the check reports a
skip carrying the exactness diagnostic instead of silently passing.
"""

import random

from . import zoo
from .bimodules import (
    Bimodule,
    BimoduleMorphism,
    coinduced,
    induced,
    make_ses,
    split_ses,
    tensor_over_algebra,
)
from .cap import CapPairing
from .complexes import central_action, degree_zero_cocycle
from .errors import NotExact
from .les import (
    connecting_cohomology,
    connecting_homology,
    tensor_ses_with,
    tensor_with_ses,
)
from .linalg import SparseMat, axpy, coerce_vector, rank

# Exponent offsets added to the predicted signs (-1)^m and (-1)^(m+1).
# Zero is the correct value; the test suite perturbs these to prove that
# a wrong sign convention cannot slip through the checks unnoticed.
HOMOLOGY_SIGN_OFFSET = 0
COHOMOLOGY_SIGN_OFFSET = 0


class CheckResult:
    """One verified (or skipped) statement instance."""

    __slots__ = ("check", "instance", "degrees", "status", "detail")

    def __init__(self, check, instance, degrees, status, detail=""):
        self.check = check
        self.instance = instance
        self.degrees = degrees
        self.status = status
        self.detail = detail

    def __repr__(self):
        deg = ",".join(str(k) for k in self.degrees)
        tail = f": {self.detail}" if self.detail else ""
        return f"[{self.status}] {self.check} {self.instance} ({deg}){tail}"


def failures(results):
    return [r for r in results if r.status == "fail"]


def skips(results):
    return [r for r in results if r.status == "skip"]


def summarize(results):
    n = {"pass": 0, "fail": 0, "skip": 0}
    for r in results:
        n[r.status] += 1
    return f"{n['pass']} passed, {n['fail']} failed, {n['skip']} skipped"


def _row(check, instance, degrees, cases, noun):
    """One result row from a stream of cases, each None when it holds and
    a witness when it does not: a fail on the first witness (the rest of
    the stream is never computed), else a pass counting the cases."""
    count = 0
    for witness in cases:
        count += 1
        if witness is not None:
            return CheckResult(check, instance, degrees, "fail", f"witness {witness}")
    return CheckResult(check, instance, degrees, "pass", f"{count} {noun}")


def _unit_coords(dim, k, fld):
    return tuple(fld.one if i == k else fld.zero for i in range(dim))


def _dense(fld, vec, dim):
    out = [fld.zero] * dim
    for i, v in vec.items():
        out[i] = v
    return out


def _scaled(fld, coords, sign_exp):
    if sign_exp % 2 == 0:
        return coerce_vector(fld, coords)
    return {i: fld.neg(v) for i, v in coerce_vector(fld, coords).items()}


def check_center_linearity(A, n_max=3):
    """z.(gamma cap eps) = (z.gamma) cap eps = gamma cap (z.eps) for central z."""
    N = A.regular()
    rows = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            cases = _center_cases(A, CapPairing(N, n, N, m))
            rows.append(_row("center-linearity", A.label, (n, m), cases, "products"))
    return rows


def _center_cases(A, pairing):
    fld = A.field
    hs, cs, tgt = pairing.chains, pairing.cochains, pairing.target
    for z in A.center():
        zh = central_action(hs, z)
        zc = central_action(cs, z)
        zt = central_action(tgt, z)
        for a in range(hs.dim):
            ga = _unit_coords(hs.dim, a, fld)
            zga = _dense(fld, zh.matvec({a: fld.one}), hs.dim)
            for b in range(cs.dim):
                eb = _unit_coords(cs.dim, b, fld)
                zeb = _dense(fld, zc.matvec({b: fld.one}), cs.dim)
                base = pairing.of_classes(ga, eb)
                want = zt.matvec(coerce_vector(fld, base))
                left = coerce_vector(fld, pairing.of_classes(zga, eb))
                right = coerce_vector(fld, pairing.of_classes(ga, zeb))
                ok = left == want and right == want
                yield None if ok else (z, a, b, left, right, want)


def check_homology_connecting(ses, M, n_max=3, instance=None):
    """delta(gamma cap eps) = (-1)^m (delta gamma) cap eps.

    `ses` is a short exact sequence in the homology coefficient, `M` the
    cohomology coefficient; the connecting map on the left hand side
    belongs to the tensored sequence.  Skips when tensoring by M breaks
    exactness, since then that connecting map does not exist.
    """
    instance = instance or f"{ses.label or 'ses'} by {M.label or 'M'}"
    return _check_connecting("homology", ses, M, n_max, instance)


def check_cohomology_connecting(N, ses, n_max=3, instance=None):
    """delta(gamma cap eps) = (-1)^(m+1) gamma cap (partial eps).

    `ses` is a short exact sequence in the cohomology coefficient; the
    left hand side uses the connecting map of the sequence obtained by
    tensoring with N on the left.  Skips when that sequence is not exact.
    """
    instance = instance or f"{N.label or 'N'} by {ses.label or 'ses'}"
    return _check_connecting("cohomology", N, ses, n_max, instance)


def _check_connecting(kind, N, M, n_max, instance):
    """Both connecting checks: the short exact sequence is N for kind
    "homology" and M for kind "cohomology"; the other argument is the
    bimodule it is tensored with."""
    check = f"connecting-{kind}"
    homology = kind == "homology"
    ses = N if homology else M
    try:
        tses, (t1, _, t3) = tensor_ses_with(N, M) if homology else tensor_with_ses(N, M)
    except NotExact as e:
        return [CheckResult(check, instance, (), "skip", f"tensored sequence not exact: {e}")]
    rows = []
    for n in range(1, n_max + 1):
        conn = {}  # connecting maps of `ses` by degree, shared by the m of one n
        for m in range(n):
            if homology:  # (delta gamma) cap eps, delta: H_n -> H_{n-1}
                pair3 = CapPairing(ses.right, n, M, m, tens=t3)
                pair1 = CapPairing(ses.left, n - 1, M, m, tens=t1)
                k, sign = n, m + HOMOLOGY_SIGN_OFFSET
            else:  # gamma cap (partial eps), partial: H^m -> H^{m+1}
                pair3 = CapPairing(N, n, ses.right, m, tens=t3)
                pair1 = CapPairing(N, n, ses.left, m + 1, tens=t1)
                k, sign = m, m + 1 + COHOMOLOGY_SIGN_OFFSET
            if k not in conn:
                conn[k] = (connecting_homology if homology else connecting_cohomology)(ses, k)
            delta_t = connecting_homology(tses, n - m)
            cases = _connecting_cases(homology, pair3, pair1, conn[k], delta_t, sign)
            rows.append(_row(check, instance, (n, m), cases, "products"))
    return rows


def _connecting_cases(homology, pair3, pair1, conn, delta_t, sign_exp):
    """delta_t(ga cap eb) against sign * (conn ga) cap eb, or against
    sign * ga cap (conn eb) for the cohomology check."""
    fld = conn.field
    images = [_dense(fld, conn.col(k), conn.nrows) for k in range(conn.ncols)]
    hs, cs = pair3.chains, pair3.cochains
    for a in range(hs.dim):
        ga = _unit_coords(hs.dim, a, fld)
        for b in range(cs.dim):
            eb = _unit_coords(cs.dim, b, fld)
            lhs = delta_t.matvec(coerce_vector(fld, pair3.of_classes(ga, eb)))
            if homology:
                rhs = pair1.of_classes(images[a], eb)
            else:
                rhs = pair1.of_classes(ga, images[b])
            rhs = _scaled(fld, rhs, sign_exp)
            yield None if lhs == rhs else (a, b, lhs, rhs)


def check_degree_zero(N, M, shifts=3, seed=11, instance=None):
    """In degree zero the pairing is [x] (x) y -> [x (x) y].

    H_0(A, N) is N modulo commutators and H^0(A, M) is the invariants
    of M; the checked square says the product of the classes of x and y
    equals the class of x (x) y, for any commutator shift of x.  The
    shift independence uses that y is invariant, so it is asserted too.
    """
    instance = instance or f"{N.label or 'N'} (x) {M.label or 'M'}"
    tens = tensor_over_algebra(N, M)
    pairing = CapPairing(N, 0, M, 0, tens)
    cases = _degree_zero_cases(N, M, tens, pairing, shifts, random.Random(seed))
    return [_row("degree-zero", instance, (0, 0), cases, "squares")]


def _degree_zero_cases(N, M, tens, pairing, shifts, rng):
    A = N.algebra
    fld = N.field
    hs, cs = pairing.chains, pairing.cochains
    for a in range(hs.dim):
        ga = _unit_coords(hs.dim, a, fld)
        x = hs.lift(ga)
        for b in range(cs.dim):
            eb = _unit_coords(cs.dim, b, fld)
            y = degree_zero_cocycle(M, cs.lift(eb))
            cap = coerce_vector(fld, pairing.of_classes(ga, eb))
            for _ in range(shifts + 1):
                bottom = coerce_vector(
                    fld, pairing.target.class_of(tens.project_pure(x, y))
                )
                yield None if bottom == cap else (a, b, bottom, cap)
                # replace x by x + a.w - w.a for random a and w
                s = rng.randrange(A.dim)
                w = {rng.randrange(N.dim): fld.coerce(rng.randint(-2, 2))}
                x = dict(x)
                axpy(x, fld.one, N.act_left({s: fld.one}, w), fld)
                axpy(x, fld.neg(fld.one), N.act_right(w, {s: fld.one}), fld)


def check_dimension_shift(A, deg_max=3):
    """The two maps used to walk statements down to degree zero.

    For E = Hom_k(A, M) the connecting map H^m(A, E/M) -> H^(m+1)(A, M)
    is onto because E has no higher cohomology; dually, for P = A (x) V
    the snake map H_j(A, V) -> H_(j-1)(A, ker) is injective.
    """
    rows = []
    M = A.regular()
    co = coinduced(M)
    for m in range(deg_max + 1):
        conn = connecting_cohomology(co.ses, m)
        ok = rank(conn) == conn.nrows
        rows.append(
            CheckResult(
                "dimension-shift",
                f"{A.label} coinduced",
                (m,),
                "pass" if ok else "fail",
                f"rank {rank(conn)} of {conn.nrows}x{conn.ncols}",
            )
        )
    ind = induced(M)
    for j in range(1, deg_max + 2):
        delta = connecting_homology(ind.ses, j)
        ok = rank(delta) == delta.ncols
        rows.append(
            CheckResult(
                "dimension-shift",
                f"{A.label} induced",
                (j,),
                "pass" if ok else "fail",
                f"rank {rank(delta)} of {delta.nrows}x{delta.ncols}",
            )
        )
    return rows


def _square_zero_torsion(A):
    """0 -> s.A -> A -> A/s.A -> 0 for the two dimensional algebra with
    s^2 = 0, plus the quotient module.  Tensoring this sequence with the
    quotient is the standard example that kills exactness."""
    fld = A.field
    ident = SparseMat.identity(1, fld)
    zero = SparseMat.zero(1, 1, fld)
    S = Bimodule(A, 1, (ident, zero), (ident, zero), label="s.A").validate()
    Q = Bimodule(A, 1, (ident, zero), (ident, zero), label="A/s.A").validate()
    f = BimoduleMorphism(S, A.regular(), SparseMat.from_columns(2, fld, [{1: fld.one}]))
    g = BimoduleMorphism(A.regular(), Q, SparseMat.from_columns(1, fld, [{0: fld.one}, {}]))
    return make_ses(f.validate(), g.validate(), label="square zero torsion"), Q


def _has_square_zero_shape(A):
    return A.dim == 2 and not A.multiply({1: A.field.one}, {1: A.field.one})


CHECK_NAMES = (
    "center-linearity",
    "connecting-homology",
    "connecting-cohomology",
    "degree-zero",
    "dimension-shift",
)


def algebra_suite(A, n_max=3, seed=11, checks=None, progress=None, name=None):
    """All checks on the standard instances of one algebra.

    The instances: center linearity on the regular bimodule; connecting
    compatibility for the split and induced sequences (homology side)
    and the split and coinduced sequences (cohomology side), tensored
    with the regular bimodule; the degree zero square; the dimension
    shift maps.  Algebras of the form k[s]/(s^2) contribute one extra
    torsion instance per connecting check whose tensored sequence is
    not exact, exercising the documented skip path.

    `checks` restricts to a subset of CHECK_NAMES; `seed` feeds the
    random commutator shifts of the degree zero check.
    """
    checks = set(CHECK_NAMES if checks is None else checks)
    unknown = checks - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    name = name or A.label or "algebra"
    out = []

    def report(rows):
        out.extend(rows)
        if progress:
            progress(rows)

    N = A.regular()
    if "center-linearity" in checks:
        report(check_center_linearity(A, n_max))
    if "connecting-homology" in checks:
        report(
            check_homology_connecting(
                split_ses(N, N, label="split"), N, n_max, instance=f"{name} split"
            )
        )
        report(
            check_homology_connecting(
                induced(N).ses, N, n_max, instance=f"{name} induced"
            )
        )
    if "connecting-cohomology" in checks:
        report(
            check_cohomology_connecting(
                N, split_ses(N, N, label="split"), n_max, instance=f"{name} split"
            )
        )
        report(
            check_cohomology_connecting(
                N, coinduced(N).ses, n_max, instance=f"{name} coinduced"
            )
        )
    if "degree-zero" in checks:
        report(check_degree_zero(N, N, seed=seed, instance=f"{name} regular"))
    if "dimension-shift" in checks:
        report(check_dimension_shift(A, n_max))
    if _has_square_zero_shape(A):
        ses, Q = _square_zero_torsion(A)
        if "connecting-homology" in checks:
            report(
                check_homology_connecting(
                    ses, Q, n_max, instance=f"{name} torsion by quotient"
                )
            )
            report(
                check_homology_connecting(
                    ses, N, n_max, instance=f"{name} torsion by regular"
                )
            )
        if "connecting-cohomology" in checks:
            report(
                check_cohomology_connecting(
                    Q, ses, n_max, instance=f"{name} quotient by torsion"
                )
            )
        if "degree-zero" in checks:
            report(
                check_degree_zero(
                    Q, N, seed=seed, instance=f"{name} quotient (x) regular"
                )
            )
    return out


def run_suite(names=None, n_max=3, progress=None, seed=11, checks=None):
    """`algebra_suite` over the named zoo algebras (default: all of them)."""
    names = list(zoo.ZOO) if names is None else names
    out = []
    for name in names:
        out.extend(
            algebra_suite(
                zoo.get(name), n_max, seed=seed, checks=checks,
                progress=progress, name=name,
            )
        )
    return out
