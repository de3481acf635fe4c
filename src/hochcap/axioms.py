"""Machine checks for the structural identities of the pairing.

The pairing H_n (x) H^m -> H_{n-m} is pinned down by four properties:
it is bilinear over the center, it is compatible with the connecting
maps of both coefficient arguments (with signs (-1)^m and (-1)^(m+1)),
and in degree zero it reduces to the map [x] (x) y -> [x (x) y] under
the canonical identifications of H_0 with coinvariants and H^0 with
invariants.  Each check below verifies one of these on concrete class
bases and returns a list of result rows; `run_suite` assembles the
standard instances for one or more named algebras.

Each statement is an identity of matrices on class coordinates, C_b
being the cap matrix of cochain class b (`CapPairing.matrix`); a case
is one column a of it, so counts and witnesses name the pair (a, b).

A connecting-map check is only meaningful when tensoring keeps the
short exact sequence exact.  When it does not, the check reports a
skip carrying the exactness diagnostic instead of silently passing.
"""

import functools
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
from .errors import DegreeError, NotExact
from .les import (
    connecting_cohomology,
    connecting_homology,
    tensor_ses_with,
    tensor_with_ses,
)
from .linalg import SparseMat, axpy, rank

# Exponent offsets added to the predicted signs (-1)^m and (-1)^(m+1).
# Zero is the correct value; the test suite perturbs these to prove that
# a wrong sign convention cannot slip through the checks unnoticed.
HOMOLOGY_SIGN_OFFSET = 0
COHOMOLOGY_SIGN_OFFSET = 0

# Random commutator shifts of x tried in each degree zero square.
SHIFTS = 3


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


def tally(results):
    """How many rows pass, fail and skip, keyed by status."""
    n = {"pass": 0, "fail": 0, "skip": 0}
    for r in results:
        n[r.status] += 1
    return n


def summarize(counts):
    """The one line summary of a `tally`."""
    return "{pass} passed, {fail} failed, {skip} skipped".format_map(counts)


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


def check_center_linearity(A, n_max=3):
    """z.(gamma cap eps) = (z.gamma) cap eps = gamma cap (z.eps) for central z."""
    N = A.regular()
    rows = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            cases = _center_cases(A, CapPairing(N, n, N, m))
            rows.append(_row("center-linearity", A.label, (n, m), cases, "products"))
    return rows


def _caps(pairing):
    """C_b, the cap matrix of each basis cochain class b."""
    return [pairing.matrix({b: pairing.module.field.one}) for b in range(pairing.cochains.dim)]


def _center_cases(A, pairing):
    """z C_b = C_b z = the cap matrix of z.e_b, column a by column a."""
    hs, cs, tgt = pairing.chains, pairing.cochains, pairing.target
    caps = _caps(pairing)
    for z in A.center():
        zh = central_action(hs, z)
        zc = central_action(cs, z)
        zt = central_action(tgt, z)
        squares = [(zt @ C, C @ zh, pairing.matrix(zc.col(b))) for b, C in enumerate(caps)]
        for a in range(hs.dim):
            for b, (want, left, right) in enumerate(squares):
                want, left, right = want.cols[a], left.cols[a], right.cols[a]
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
    conn = {}  # connecting maps of `ses` by degree
    conn_t = {}  # connecting maps of the tensored sequence by degree
    for n in range(1, n_max + 1):
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
            if n - m not in conn_t:
                conn_t[n - m] = connecting_homology(tses, n - m)
            cases = _connecting_cases(homology, pair3, pair1, conn[k], conn_t[n - m], sign)
            rows.append(_row(check, instance, (n, m), cases, "products"))
    return rows


def _connecting_cases(homology, pair3, pair1, conn, delta_t, sign_exp):
    """delta_t C3_b against sign * C1_b conn, or against sign * the cap
    matrix of conn e_b for the cohomology check, column a by column a."""
    fld = conn.field
    sign = fld.one if sign_exp % 2 == 0 else fld.neg(fld.one)
    squares = []
    for b, C3 in enumerate(_caps(pair3)):
        rhs = pair1.matrix({b: fld.one}) @ conn if homology else pair1.matrix(conn.col(b))
        squares.append((delta_t @ C3, rhs.scale(sign)))
    for a in range(pair3.chains.dim):
        for b, (lhs, rhs) in enumerate(squares):
            lhs, rhs = lhs.cols[a], rhs.cols[a]
            yield None if lhs == rhs else (a, b, lhs, rhs)


def check_degree_zero(N, M, seed=11, instance=None):
    """In degree zero the pairing is [x] (x) y -> [x (x) y].

    H_0(A, N) is N modulo commutators and H^0(A, M) is the invariants
    of M; the checked square says the product of the classes of x and y
    equals the class of x (x) y, for any commutator shift of x.  The
    shift independence uses that y is invariant, so it is asserted too.
    """
    instance = instance or f"{N.label or 'N'} (x) {M.label or 'M'}"
    tens = tensor_over_algebra(N, M)
    pairing = CapPairing(N, 0, M, 0, tens)
    cases = _degree_zero_cases(N, M, tens, pairing, random.Random(seed))
    return [_row("degree-zero", instance, (0, 0), cases, "squares")]


def _degree_zero_cases(N, M, tens, pairing, rng):
    A = N.algebra
    fld = N.field
    hs, cs = pairing.chains, pairing.cochains
    caps = _caps(pairing)
    for a in range(hs.dim):
        x = hs.representative(a)
        for b, C in enumerate(caps):
            y = degree_zero_cocycle(M, cs.representative(b))
            cap = C.cols[a]
            for _ in range(SHIFTS + 1):
                bottom = pairing.target.classes([tens.project_pure(x, y)]).cols[0]
                yield None if bottom == cap else (a, b, bottom, cap)
                # replace x by x + a.w - w.a for random a and w
                s = rng.randrange(A.dim)
                w = {rng.randrange(N.dim): fld.coerce(rng.randint(-2, 2))}
                x = dict(x)
                axpy(x, fld.one, N.act_left({s: fld.one}, w), fld)
                axpy(x, fld.neg(fld.one), N.act_right(w, {s: fld.one}), fld)


def check_dimension_shift(A, deg_max=3, co=None, ind=None):
    """The two maps used to walk statements down to degree zero.

    For E = Hom_k(A, M) the connecting map H^m(A, E/M) -> H^(m+1)(A, M)
    is onto because E has no higher cohomology; dually, for P = A (x) V
    the snake map H_j(A, V) -> H_(j-1)(A, ker) is injective.  M = V = A;
    `co` and `ind`, its coinduced and induced data, are built if not given.
    """
    rows = []
    M = A.regular()
    co = co or coinduced(M)
    for m in range(deg_max + 1):
        conn = connecting_cohomology(co.ses, m)
        rows.append(_shift_row(A, "coinduced", m, conn, conn.nrows))
    ind = ind or induced(M)
    for j in range(1, deg_max + 2):
        delta = connecting_homology(ind.ses, j)
        rows.append(_shift_row(A, "induced", j, delta, delta.ncols))
    return rows


def _shift_row(A, name, degree, conn, full):
    """A pass when conn has rank `full`, its number of rows or of columns."""
    r = rank(conn)
    return CheckResult("dimension-shift", f"{A.label} {name}", (degree,),
                       "pass" if r == full else "fail", f"rank {r} of {conn.nrows}x{conn.ncols}")


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
    return make_ses(f, g, label="square zero torsion"), Q


def _has_square_zero_shape(A):
    return A.dim == 2 and not A.multiply({1: A.field.one}, {1: A.field.one})


CHECK_NAMES = (
    "center-linearity",
    "connecting-homology",
    "connecting-cohomology",
    "degree-zero",
    "dimension-shift",
)


def algebra_suite(A, n_max=3, seed=11, checks=None, name=None):
    """All checks on the standard instances of one algebra.

    The instances: center linearity on the regular bimodule; connecting
    compatibility for the split and induced sequences (homology side)
    and the split and coinduced sequences (cohomology side), tensored
    with the regular bimodule; the degree zero square; the dimension
    shift maps.  Algebras of the form k[s]/(s^2) contribute one extra
    torsion instance per connecting check whose tensored sequence is
    not exact, exercising the documented skip path.

    `checks` restricts to a subset of CHECK_NAMES; `seed` feeds the
    random commutator shifts of the degree zero check.  The instances
    are one ordered table of (check name, thunk), and only the thunks
    of the chosen checks run, so the split sequence and the coinduced
    and induced data are built at most once, and not at all when no
    chosen check needs them.
    """
    checks = set(CHECK_NAMES if checks is None else checks)
    unknown = checks - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if n_max < 0:
        raise DegreeError("the largest degree must be nonnegative")
    name = name or A.label or "algebra"
    N = A.regular()
    co = functools.cache(lambda: coinduced(N))
    ind = functools.cache(lambda: induced(N))
    split = functools.cache(lambda: split_ses(N, N, label="split"))
    table = [
        ("center-linearity", lambda: check_center_linearity(A, n_max)),
        ("connecting-homology", lambda: check_homology_connecting(
            split(), N, n_max, instance=f"{name} split")),
        ("connecting-homology", lambda: check_homology_connecting(
            ind().ses, N, n_max, instance=f"{name} induced")),
        ("connecting-cohomology", lambda: check_cohomology_connecting(
            N, split(), n_max, instance=f"{name} split")),
        ("connecting-cohomology", lambda: check_cohomology_connecting(
            N, co().ses, n_max, instance=f"{name} coinduced")),
        ("degree-zero", lambda: check_degree_zero(N, N, seed=seed, instance=f"{name} regular")),
        ("dimension-shift", lambda: check_dimension_shift(A, n_max, co(), ind())),
    ]
    if _has_square_zero_shape(A):
        ses, Q = _square_zero_torsion(A)
        table += [
            ("connecting-homology", lambda: check_homology_connecting(
                ses, Q, n_max, instance=f"{name} torsion by quotient")),
            ("connecting-homology", lambda: check_homology_connecting(
                ses, N, n_max, instance=f"{name} torsion by regular")),
            ("connecting-cohomology", lambda: check_cohomology_connecting(
                Q, ses, n_max, instance=f"{name} quotient by torsion")),
            ("degree-zero", lambda: check_degree_zero(
                Q, N, seed=seed, instance=f"{name} quotient (x) regular")),
        ]
    return [row for check, instance in table if check in checks for row in instance()]


def run_suite(names=None, n_max=3, seed=11, checks=None):
    """`algebra_suite` over the named zoo algebras (default: all of them)."""
    names = list(zoo.ZOO) if names is None else names
    return [row for name in names
            for row in algebra_suite(zoo.get(name), n_max, seed=seed, checks=checks, name=name)]
