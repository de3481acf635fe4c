"""The cap product H_n(A, N) x H^m(A, M) -> H_{n-m}(A, N (x)_A M).

On the standard complex the product of a chain and a cochain is

    (x; a_1, ..., a_n) cap T = (x (x) T(a_1..a_m); a_{m+1}, ..., a_n),

evaluating the cocycle on the leading face of the chain and pushing the
module element into N (x)_A M.  When M is the regular bimodule the target
collapses through N (x)_A A = N and the formula reads
(x . T(a_1..a_m); a_{m+1}, ..., a_n).

Everything here is chain level and exact.  Three independent routes to
the same product are provided and tested against one another:

  * the direct formula above,
  * the comonoid structure on the two sided bar resolution (a family of
    maps splitting a free generator into a front and a back face, with
    the unit inserted between them), and
  * chain map lifts of the cocycle, either written down in closed form
    or solved degree by degree from the lifting equations.

Descent to classes is governed by

    b(xi cap T) = (-1)^m (b xi) cap T + (-1)^{m+1} xi cap (dT)

which `descent_defect` evaluates verbatim.
"""

import random

from .bimodules import tensor_over_algebra
from .complexes import (
    boundary_matrix,
    coboundary_matrix,
    cohomology,
    homology,
    tuple_digits,
    tuple_rank,
    tuples,
)
from . import config
from .errors import DegreeError, LiftFailed
from .linalg import Solver, SparseMat, acc, axpy


# -- bar resolution differentials ---------------------------------------

def bar_differential(A, n):
    """d_n : A^{(x)(n+2)} -> A^{(x)(n+1)}, alternating sum of contractions."""
    if n < 1:
        raise DegreeError("bar differential starts in degree 1")
    fld = A.field
    d = A.dim
    config.guard(d ** (n + 2), "a bar resolution term")
    key = ("bar_d", n)
    cached = A._cache.get(key)
    if cached is not None:
        return cached
    cols = []
    for c in tuples(d, n + 2):
        col = {}
        for k in range(n + 1):
            sign = fld.one if k % 2 == 0 else fld.neg(fld.one)
            for l, v in A.mult[c[k]][c[k + 1]].items():
                tup = c[:k] + (l,) + c[k + 2 :]
                acc(col, tuple_rank(d, tup), fld.mul(sign, v), fld)
        cols.append(col)
    mat = SparseMat(d ** (n + 1), d ** (n + 2), fld, cols)
    A._cache[key] = mat
    return mat


def augmentation_matrix(A):
    """d_0 : A (x) A -> A, plain multiplication."""
    cached = A._cache.get("bar_aug")
    if cached is not None:
        return cached
    fld = A.field
    d = A.dim
    cols = [dict(A.mult[i][j]) for i in range(d) for j in range(d)]
    mat = SparseMat(d, d * d, fld, cols)
    A._cache["bar_aug"] = mat
    return mat


def diagonal_matrix(A, i, j):
    """The (i, j) component of the comultiplication on the bar resolution.

    Sends a_0 (x) ... (x) a_{i+j+1} to the same word with the unit
    inserted after slot i; the result lives in the realization of
    Bar_i (x)_A Bar_j on A^{(x)(i+j+3)} obtained by contracting the two
    middle factors.
    """
    if i < 0 or j < 0:
        raise DegreeError("diagonal components need nonnegative degrees")
    fld = A.field
    d = A.dim
    n = i + j
    config.guard(d ** (n + 3), "a split bar term")
    key = ("diagonal", i, j)
    cached = A._cache.get(key)
    if cached is not None:
        return cached
    cols = []
    for c in tuples(d, n + 2):
        col = {}
        for s, v in A.unit.items():
            tup = c[: i + 1] + (s,) + c[i + 1 :]
            acc(col, tuple_rank(d, tup), v, fld)
        cols.append(col)
    mat = SparseMat(d ** (n + 3), d ** (n + 2), fld, cols)
    A._cache[key] = mat
    return mat


# The diagonal identities are checked symbolically on vectors keyed by
# basis tuples; this avoids materializing the rather large matrices of
# the partial differentials on A^{(x)(i+j+4)}.

def _tv_mult_slot(A, vec, k):
    """Contract slots k, k+1 of every tuple in a tuple-keyed vector."""
    fld = A.field
    out = {}
    for c, coeff in vec.items():
        for l, v in A.mult[c[k]][c[k + 1]].items():
            tup = c[:k] + (l,) + c[k + 2 :]
            acc(out, tup, fld.mul(coeff, v), fld)
    return out


def _tv_insert_unit(A, vec, pos):
    fld = A.field
    out = {}
    for c, coeff in vec.items():
        for s, v in A.unit.items():
            acc(out, c[: pos + 1] + (s,) + c[pos + 1 :], fld.mul(coeff, v), fld)
    return out


def _tv_faces(A, vec, first, count):
    """sum_k (-1)^k (contract slots first+k, first+k+1) for k < count.

    With first = 0 and count = n + 2 this is the bar differential d_n;
    on the realization of Bar_i (x)_A Bar_j, d (x) 1 is the first i+1
    faces and 1 (x) d the next j+1, with signs counted from the seam.
    """
    fld = A.field
    out = {}
    for k in range(count):
        sign = fld.one if k % 2 == 0 else fld.neg(fld.one)
        axpy(out, sign, _tv_mult_slot(A, vec, first + k), fld)
    return out


def check_diagonal_identities(A, max_total, insert=None):
    """Verify the two compatibility equations of the comultiplication.

    For every i + j <= max_total, on each free generator of the bar
    resolution:

        D_{i,j} d_{i+j+1} = (d (x) 1) D_{i+1,j} + (-1)^i (1 (x) d) D_{i,j+1}

    and in total degree zero, multiplying the three factors of the image
    of D_{0,0} recovers the augmentation.  Returns the list of failing
    instances, ("split", i, j, generator) ordered by total degree, then
    generator, then i, followed by ("augment", 0, 0, generator); empty
    means every identity holds.  `insert` may override the
    comultiplication (vector in, position argument as in
    `_tv_insert_unit`) so a wrong candidate can be shown to fail.
    """
    if insert is None:
        insert = _tv_insert_unit
    fld = A.field
    d = A.dim
    failures = []
    for total in range(max_total + 1):
        for c in tuples(d, total + 3):
            gen = {c: fld.one}
            boundary = _tv_faces(A, gen, 0, total + 2)
            # D_{i,j+1} of this split is D_{i+1,j} of the one before
            below = insert(A, gen, 0)
            for i in range(total + 1):
                j = total - i
                above = insert(A, gen, i + 1)
                lhs = insert(A, boundary, i)
                rhs = _tv_faces(A, above, 0, i + 2)
                sign = fld.one if i % 2 == 0 else fld.neg(fld.one)
                axpy(rhs, sign, _tv_faces(A, below, i + 1, j + 2), fld)
                if lhs != rhs:
                    failures.append(("split", i, j, c))
                below = above
    for c in tuples(d, 2):
        gen = {c: fld.one}
        lhs = _tv_mult_slot(A, _tv_mult_slot(A, insert(A, gen, 0), 0), 0)
        rhs = _tv_mult_slot(A, gen, 0)
        if lhs != rhs:
            failures.append(("augment", 0, 0, c))
    return failures


# -- the chain level product ---------------------------------------------

def _cochain_value(T, r, d, w):
    """T(e_w) as a sparse vector of a module of dimension r over an
    algebra of dimension d."""
    base = tuple_rank(d, w) * r
    out = {}
    for j in range(r):
        v = T.get(base + j)
        if v:
            out[j] = v
    return out


def cap_chain(N, n, xi, M, m, T, tens=None):
    """xi cap T in C_{n-m}(A, N (x)_A M); `tens` realizes the target.

    Without `tens`, M must be the regular bimodule and the target is
    collapsed through N (x)_A A = N: x (x) a becomes x.a.
    """
    if not 0 <= m <= n:
        raise DegreeError(f"cap needs 0 <= m <= n, got n={n}, m={m}")
    fld = N.field
    d = N.algebra.dim
    out = {}
    k = n - m
    for idx, coeff in xi.items():
        x, wrank = divmod(idx, d ** n)
        w = tuple_digits(d, n, wrank)
        tvec = _cochain_value(T, M.dim, d, w[:m])
        if not tvec:
            continue
        if tens is None:
            pvec = N.act_right({x: fld.one}, tvec)
        else:
            pvec = tens.project_pure({x: fld.one}, tvec)
        tail = tuple_rank(d, w[m:])
        for q, v in pvec.items():
            acc(out, q * d ** k + tail, fld.mul(coeff, v), fld)
    return out


def cap_chain_regular(N, n, xi, m, T):
    """xi cap T with M = A, collapsed through N (x)_A A = N."""
    return cap_chain(N, n, xi, N.algebra.regular(), m, T)


def descent_defect(N, n, xi, M, m, T, tens=None):
    """b(xi cap T) - (-1)^m (b xi) cap T - (-1)^{m+1} xi cap (dT).

    Zero for every chain and cochain (cycles or not); this is the
    identity that makes the product descend to classes.  Needs m < n so
    that all three terms live in positive chain degree.
    """
    if not 0 <= m < n:
        raise DegreeError("the descent identity needs 0 <= m < n")
    fld = N.field
    if tens is None and not N.algebra.is_regular(M):
        tens = tensor_over_algebra(N, M)

    target = N if tens is None else tens.module
    out = boundary_matrix(target, n - m).matvec(cap_chain(N, n, xi, M, m, T, tens))
    bxi = boundary_matrix(N, n).matvec(xi)
    dT = coboundary_matrix(M, m).matvec(T)
    sign_b = fld.one if m % 2 == 0 else fld.neg(fld.one)
    axpy(out, fld.neg(sign_b), cap_chain(N, n - 1, bxi, M, m, T, tens), fld)
    axpy(out, sign_b, cap_chain(N, n, xi, M, m + 1, dT, tens), fld)
    return out


# -- cap product on classes ----------------------------------------------

class CapPairing:
    """The product on canonical class coordinates, one degree pair at a time.

    When M is the regular bimodule the target is collapsed to N itself;
    otherwise a tensor product realization is built (or supplied).
    """

    __slots__ = ("module", "coefficients", "chains", "cochains", "target", "tens")

    def __init__(self, N, n, M, m, tens=None):
        if not 0 <= m <= n:
            raise DegreeError(f"cap needs 0 <= m <= n, got n={n}, m={m}")
        self.module = N
        self.coefficients = M
        self.chains = homology(N, n)
        self.cochains = cohomology(M, m)
        if tens is None and N.algebra.is_regular(M):
            self.tens = None
            target_module = N
        else:
            self.tens = tens if tens is not None else tensor_over_algebra(N, M)
            target_module = self.tens.module
        self.target = homology(target_module, n - m)

    def chain_cap(self, xi, T):
        n, m = self.chains.degree, self.cochains.degree
        return cap_chain(self.module, n, xi, self.coefficients, m, T, self.tens)

    def of_classes(self, hcoords, ccoords):
        """Coordinates of [xi] cap [T] in the target homology."""
        xi = self.chains.lift(hcoords)
        T = self.cochains.lift(ccoords)
        return self.target.class_of(self.chain_cap(xi, T))


def unit_cocycle(A):
    """The unit of A as a degree zero cocycle with regular coefficients."""
    return dict(A.unit)


# -- chain map lifts -------------------------------------------------------

class ChainMapLift:
    """A degree -m map of the bar resolution into itself lifting a cochain.

    Determined by its values on the free generators 1 (x) w (x) 1; the
    value in degree i on a generator indexed by a tuple w of length m+i
    is a vector in A^{(x)(i+2)} (integer tuple-rank coordinates).
    Everything else follows by two sided linearity.

    The lifting property used throughout is

        d_i t_i = (-1)^m t_{i-1} d_{m+i},

    i.e. for odd m the squares anticommute.  This is the identity the
    closed form lift actually satisfies: it comes from applying
    (t (x) 1) to the compatibility equation of the comultiplication,
    whose second term carries the sign (-1)^m.  Any two lifts in this
    sense produce the same class when capped against a cycle.
    """

    __slots__ = ("algebra", "m", "values")

    def __init__(self, algebra, m, values):
        self.algebra = algebra
        self.m = m
        self.values = values

    @property
    def depth(self):
        return len(self.values) - 1

    def value(self, i, w):
        return self.values[i][w]

    def __repr__(self):
        return f"<ChainMapLift m={self.m} depth={self.depth} over {self.algebra!r}>"


def _first_slot_left_mult(A, s, vec, width):
    """e_s . (first tensor factor) on a vector over A^{(x)width}."""
    fld = A.field
    d = A.dim
    block = d ** (width - 1)
    out = {}
    for u, coeff in vec.items():
        c0, rest = divmod(u, block)
        for l, v in A.mult[s][c0].items():
            acc(out, l * block + rest, fld.mul(coeff, v), fld)
    return out


def _last_slot_right_mult(A, vec, s, width):
    fld = A.field
    d = A.dim
    out = {}
    for u, coeff in vec.items():
        head, c = divmod(u, d)
        for l, v in A.mult[c][s].items():
            acc(out, head * d + l, fld.mul(coeff, v), fld)
    return out


def _lift_rhs(A, prev_values, w, width):
    """prev applied to the bar boundary of the generator 1 (x) w (x) 1.

    The two outer faces land on generators decorated with an algebra
    element on one side, which is where two sided linearity enters:
    the decoration becomes an outer multiplication of the stored value.
    """
    fld = A.field
    q = len(w)
    out = {}
    # face 0: 1 . w_0 sends the generator to w_0-decorated w[1:]
    axpy(out, fld.one, _first_slot_left_mult(A, w[0], prev_values[w[1:]], width), fld)
    for k in range(1, q):
        sign = fld.one if k % 2 == 0 else fld.neg(fld.one)
        for l, v in A.mult[w[k - 1]][w[k]].items():
            axpy(out, fld.mul(sign, v), prev_values[w[:k - 1] + (l,) + w[k + 1 :]], fld)
    sign = fld.one if q % 2 == 0 else fld.neg(fld.one)
    axpy(out, sign, _last_slot_right_mult(A, prev_values[w[:-1]], w[-1], width), fld)
    return out


def explicit_lift(A, T, m, up_to):
    """The closed form lift of an m-cochain T with regular coefficients.

    In degree i the generator w (length m + i) goes to
    T(w_1..w_m) (x) w_{m+1} (x) ... (x) w_{m+i} (x) 1.
    No solving involved; works whether or not T is a cocycle, though the
    chain map property of the result is equivalent to T being one.
    """
    if m < 0 or up_to < 0:
        raise DegreeError("lift degrees must be nonnegative")
    fld = A.field
    d = A.dim
    values = []
    for i in range(up_to + 1):
        layer = {}
        for w in tuples(d, m + i):
            tvec = _cochain_value(T, d, d, w[:m])
            vec = {}
            mid = tuple_rank(d, w[m:])
            for j, tv in tvec.items():
                for s, sv in A.unit.items():
                    idx = (j * d ** i + mid) * d + s
                    acc(vec, idx, fld.mul(tv, sv), fld)
            layer[w] = vec
        values.append(layer)
    return ChainMapLift(A, m, values)


def _aug_solver(A):
    s = A._cache.get("aug_solver")
    if s is None:
        s = A._cache["aug_solver"] = Solver(augmentation_matrix(A))
    return s


def _bar_solver(A, i):
    key = ("bar_solver", i)
    s = A._cache.get(key)
    if s is None:
        s = A._cache[key] = Solver(bar_differential(A, i))
    return s


def _random_sparse(rng, dim, fld, entries=2):
    out = {}
    for _ in range(entries):
        c = fld.coerce(rng.randint(-2, 2))
        if c != fld.zero:
            out[rng.randrange(dim)] = c
    return out


def solve_lift(A, T, m, up_to, seed=None):
    """Lift T degree by degree through the lifting equations.

    Base step: solve d_0(v) = T(w) for each generator.  Induction:
    solve d_i(v) = (-1)^m (previous layer applied to the boundary of
    the generator).  Solutions are the deterministic ones of `Solver`;
    a seed perturbs every layer by a homotopy, producing a genuinely
    different but still valid lift (lifts of the same cocycle are
    unique only up to homotopy, and seeded runs exercise that).

    Raises LiftFailed when some equation has no solution, which happens
    exactly when T fails to be a cocycle deep enough for the requested
    depth.
    """
    if m < 0 or up_to < 0:
        raise DegreeError("lift degrees must be nonnegative")
    fld = A.field
    d = A.dim
    sign_m = fld.one if m % 2 == 0 else fld.neg(fld.one)
    values = []
    layer0 = {}
    for w in tuples(d, m):
        sol = _aug_solver(A).solve(_cochain_value(T, d, d, w))
        if sol is None:  # cannot happen: d_0 is onto
            raise LiftFailed(f"augmentation not solvable at {w}")
        layer0[w] = sol
    values.append(layer0)
    for i in range(1, up_to + 1):
        layer = {}
        solver = _bar_solver(A, i)
        for w in tuples(d, m + i):
            rhs = {}
            axpy(rhs, sign_m, _lift_rhs(A, values[i - 1], w, i + 1), fld)
            sol = solver.solve(rhs)
            if sol is None:
                raise LiftFailed(
                    f"no chain map extends the given cochain to degree {i}; "
                    f"it is not a cocycle"
                )
            layer[w] = sol
        values.append(layer)

    if seed is not None:
        rng = random.Random(seed)
        hvalues = []
        for i in range(up_to + 1):
            hlayer = {
                w: _random_sparse(rng, d ** (i + 3), fld)
                for w in tuples(d, m + i)
            }
            hvalues.append(hlayer)
        perturbed = []
        for i in range(up_to + 1):
            dmat = bar_differential(A, i + 1)
            layer = {}
            for w in tuples(d, m + i):
                vec = dict(values[i][w])
                axpy(vec, fld.one, dmat.matvec(hvalues[i][w]), fld)
                if i > 0:
                    # the sign keeps the twisted lifting property intact
                    axpy(vec, sign_m, _lift_rhs(A, hvalues[i - 1], w, i + 2), fld)
                layer[w] = vec
            perturbed.append(layer)
        values = perturbed
    return ChainMapLift(A, m, values)


def coboundary_lift(A, S, m, up_to):
    """A lift of dS whose layers vanish in every positive degree.

    S is an (m-1)-cochain.  Solve d_0 . shat = (value of S) on the
    generators one degree down, then take the degree zero layer to be
    shat composed with the boundary; all higher layers can be zero.
    """
    if m < 1:
        raise DegreeError("a coboundary lift needs m >= 1")
    fld = A.field
    d = A.dim
    shat = {}
    for w in tuples(d, m - 1):
        sol = _aug_solver(A).solve(_cochain_value(S, d, d, w))
        if sol is None:  # d_0 is onto
            raise LiftFailed(f"augmentation not solvable at {w}")
        shat[w] = sol
    layer0 = {w: _lift_rhs(A, shat, w, 2) for w in tuples(d, m)}
    values = [layer0]
    for i in range(1, up_to + 1):
        values.append({w: {} for w in tuples(d, m + i)})
    return ChainMapLift(A, m, values)


def verify_lift(A, T, m, lift):
    """Check the base identity and the twisted lifting property.

    Raises LiftFailed at the first broken generator; returns the number
    of generators checked.
    """
    fld = A.field
    d = A.dim
    sign_m = fld.one if m % 2 == 0 else fld.neg(fld.one)
    checked = 0
    aug = augmentation_matrix(A)
    for w in tuples(d, m):
        if aug.matvec(lift.value(0, w)) != _cochain_value(T, d, d, w):
            raise LiftFailed(f"degree 0 value at {w} does not project to T")
        checked += 1
    for i in range(1, lift.depth + 1):
        dmat = bar_differential(A, i)
        for w in tuples(d, m + i):
            lhs = dmat.matvec(lift.value(i, w))
            rhs = {}
            axpy(rhs, sign_m, _lift_rhs(A, lift.values[i - 1], w, i + 1), fld)
            if lhs != rhs:
                raise LiftFailed(f"lifting property fails in degree {i} at {w}")
            checked += 1
    return checked


def cap_via_lift(N, n, xi, lift):
    """xi cap T computed as (id tensor t_{n-m}) followed by reduction.

    N must carry the regular actions (this route to the product exists
    for coefficients in the algebra itself).  The reduction sends a
    decorated generator x (x) (c_0, ..., c_{k+1}) of the bar form to
    (c_{k+1} . x . c_0; c_1, ..., c_k).
    """
    m = lift.m
    i = n - m
    if i < 0:
        raise DegreeError("cap needs m <= n")
    if i > lift.depth:
        raise DegreeError(f"lift only computed to depth {lift.depth}, need {i}")
    A = N.algebra
    fld = N.field
    d = A.dim
    block = d ** (i + 1)
    out = {}
    for idx, coeff in xi.items():
        x, wrank = divmod(idx, d ** n)
        w = tuple_digits(d, n, wrank)
        for u, v in lift.value(i, w).items():
            c0, rest = divmod(u, block)
            mid, clast = divmod(rest, d)
            y = A.multiply(A.multiply({clast: fld.one}, {x: fld.one}), {c0: fld.one})
            for z, zv in y.items():
                acc(out, z * d ** i + mid, fld.mul(coeff, fld.mul(v, zv)), fld)
    return out
