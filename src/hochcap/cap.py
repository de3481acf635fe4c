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

The bar resolution has one coordinate system: A^{(x)k} keyed by tuple
rank, as in `complexes`.  The bar differential b' is the Hochschild
boundary b with a zero left action, so it is built as b_n is, by the
transposed coface loop there.  The operators of the comultiplication
act on a block of consecutive slots.  Its compatibility check composes
them once per degree into two block maps, d_n(h (x) 1) and d_n(1 (x) h)
for every tuple h, and reads both right-hand terms of each generator
off them (see `check_diagonal_identities`).
A lift layer is a matrix indexed by generator rank, and the right-hand
side of its lifting equation is (-1)^m delta_P(t_{i-1}) for all
generators at once (see `ChainMapLift`).  On classes, the product with
one cochain class is a matrix, `CapPairing.matrix`: E_T applied to the
representative of every chain class, read off by `complexes.on_classes`.

Descent to classes is governed by

    b(xi cap T) = (-1)^m (b xi) cap T + (-1)^{m+1} xi cap (dT)

which `descent_defect` evaluates verbatim.
"""

import random

from .bimodules import tensor_over_algebra
from .complexes import (
    _faces,
    boundary_matrix,
    class_space,
    coboundary_matrix,
    on_classes,
    tuple_digits,
    tuple_rank,
    tuples,
)
from . import config
from .errors import DegreeError, LiftFailed, WrongModule
from .linalg import Solver, SparseMat, acc, axpy, on_slots


# -- bar resolution differentials ---------------------------------------

def bar_differential(A, n):
    """d_n : A^{(x)(n+2)} -> A^{(x)(n+1)}, alternating sum of contractions.

    This is b', the Hochschild boundary without its last face: b_{n+1}
    on A (x) A^{(x)(n+1)} with A acting by right multiplication and a
    zero left action.
    """
    if n < 1:
        raise DegreeError("bar differential starts in degree 1")
    d = A.dim
    config.guard(d ** (n + 2), "a bar resolution term")
    return config.cached(A, ("bar_d", n), lambda: _faces(
        [SparseMat.zero(d, d, A.field)] * d, [A.right_matrix(a) for a in range(d)],
        A.mult, A.field, d, n + 1))


def augmentation_matrix(A):
    """d_0 : A (x) A -> A, plain multiplication."""
    d = A.dim
    return config.cached(A, "bar_aug", lambda: SparseMat(
        d, d * d, A.field, [dict(A.mult[i][j]) for i in range(d) for j in range(d)]))


def _with_inserted(bar_n, element, low):
    """Column h is d_n applied to the tuple h with e = `element` inserted,
    `low` being the dimension of the slots of h after e, as in `on_slots`:
    d_n(h (x) e) for low = 1, d_n(e (x) h) for low = d**(n+1)."""
    ins = SparseMat(bar_n.ncols // bar_n.nrows, 1, bar_n.field, [element])
    return [bar_n.matvec(on_slots(ins, {h: bar_n.field.one}, low))
            for h in range(bar_n.nrows)]


def check_diagonal_identities(A, max_total, unit=None):
    """Verify the two compatibility equations of the comultiplication.

    For every i + j <= max_total, on each free generator of the bar
    resolution:

        D_{i,j} d_{i+j+1} = (d (x) 1) D_{i+1,j} + (-1)^i (1 (x) d) D_{i,j+1}

    and in total degree zero, multiplying the three factors of the image
    of D_{0,0} recovers the augmentation.  D_{i,j}, the (i, j) component
    of the comultiplication, inserts the unit after slot i of
    a_0 (x) ... (x) a_{i+j+1}, landing in the realization of
    Bar_i (x)_A Bar_j on A^{(x)(i+j+3)}.  Returns the list of failing
    instances, ("split", i, j, generator) ordered by total degree, then
    generator, then i, followed by ("augment", 0, 0, generator); empty
    means every identity holds.  `unit` (a sparse element of A, the unit
    by default) is what the comultiplication inserts, so a wrong
    candidate can be shown to fail.  The bar differentials d_1 ..
    d_{max_total+1} are fetched before any check, so the memory cap
    refuses a bound that is too large before work starts.

    The right-hand side comes from two block maps per n, built once:
    after[n][h] = d_n(h (x) e) and before[n][h] = d_n(e (x) h), h a
    tuple of length n + 1 and e the inserted element.  D_{i+1,j} puts e
    below the top i + 2 slots of a generator g = top * d**(j+1) + bottom,
    and d_{i+1} acts on exactly those slots and e, so
    (d (x) 1) D_{i+1,j}(g) is after[i+1][top] (x) bottom; likewise
    (1 (x) d) D_{i,j+1}(g) is head (x) before[j+1][tail] for
    g = head * d**(j+2) + tail.  Both sides are built for one generator
    at a time as dicts without zeros, as `on_slots` returns them, so the
    comparison is the one of applying the four operators separately, and
    the failures come in the same order.  Memory: after[n] and before[n]
    have d**(n+1) columns and at most as many entries as d_n each (column
    h sums the columns h (x) s, or s (x) h, of d_n over the terms s of e),
    and besides them one generator's two sides are held at a time.
    """
    if max_total < 0:
        raise DegreeError("diagonal identities need a nonnegative total degree")
    fld = A.field
    d = A.dim
    zero, mul = fld.zero, fld.mul
    e = A.unit if unit is None else unit
    terms = [(s, v) for s, v in e.items() if mul(fld.one, v)]  # zero in the field: 2 over F_2
    bar = [None] + [bar_differential(A, n) for n in range(1, max_total + 2)]
    after = [None] + [_with_inserted(b, e, 1) for b in bar[1:]]
    before = [None] + [_with_inserted(b, e, b.nrows) for b in bar[1:]]
    failures = []
    for total in range(max_total + 1):
        # per split: d**(j+1) and d**(j+2), the dimensions below the top
        # i + 2 and i + 1 slots of a generator, the two block maps and the
        # sign of the second term
        splits = [(i, d ** (total - i + 1), d ** (total - i + 2), after[i + 1],
                   before[total - i + 1], fld.add if i % 2 == 0 else fld.sub)
                  for i in range(total + 1)]
        for g, (c, boundary) in enumerate(zip(tuples(d, total + 3), bar[total + 1].cols)):
            scaled = [(b, s, mul(x, v)) for b, x in boundary.items() for s, v in terms]
            for i, low, high, top_map, bottom_map, add_signed in splits:
                top, bottom = divmod(g, low)
                rhs = {r * low + bottom: v for r, v in top_map[top].items()}
                tail = g % high
                head = g - tail
                for r, v in bottom_map[tail].items():
                    k = head + r
                    x = add_signed(rhs.get(k, zero), v)
                    if x:
                        rhs[k] = x
                    else:  # v is nonzero, so k was there
                        del rhs[k]
                # D_{i,j} d(g): e inserted below the top i + 1 slots of each face
                lhs = {b // low * high + b % low + s * low: v for b, s, v in scaled}
                if lhs != rhs:
                    failures.append(("split", i, total - i, c))
    ins = SparseMat(d, 1, fld, [e])
    aug = augmentation_matrix(A)
    for g, c in enumerate(tuples(d, 2)):
        lhs = on_slots(aug, on_slots(aug, on_slots(ins, {g: fld.one}, d), d), 1)
        if lhs != aug.cols[g]:
            failures.append(("augment", 0, 0, c))
    return failures


# -- the chain level product ---------------------------------------------

def _evaluation(N, M, m, T, tens):
    """E_T: the m-cochain T of M as one matrix, whose column
    (x, rank(w)) is x (x) T(w) in the target of the product.

    Without `tens`, M must be the regular bimodule and the target is
    collapsed through N (x)_A A = N: x (x) a becomes x.a.
    """
    fld = N.field
    r, heads = M.dim, N.algebra.dim ** m
    E = SparseMat.zero(N.dim if tens is None else tens.module.dim, N.dim * heads, fld)
    for idx, v in T.items():
        w, j = divmod(idx, r)
        for x in range(N.dim):
            pure = N.right[j].cols[x] if tens is None else tens.projection.cols[x * r + j]
            axpy(E.cols[x * heads + w], v, pure, fld)
    return E


def cap_chain(N, n, xi, M, m, T, tens=None):
    """xi cap T in C_{n-m}(A, N (x)_A M), `tens` realizing the target:
    E_T acts on the module slot and the leading m tensor slots of xi."""
    if not 0 <= m <= n:
        raise DegreeError(f"cap needs 0 <= m <= n, got n={n}, m={m}")
    return on_slots(_evaluation(N, M, m, T, tens), xi, N.algebra.dim ** (n - m))


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
    otherwise a tensor product realization is built (or supplied).  The
    three class spaces are fetched in decreasing order of their largest
    space, dim * d**(degree + 1) for each (see `complexes._class_space`), so
    the memory cap refuses the pairing before any assembly.
    """

    __slots__ = ("module", "coefficients", "chains", "cochains", "target", "tens")

    def __init__(self, N, n, M, m, tens=None):
        if not 0 <= m <= n:
            raise DegreeError(f"cap needs 0 <= m <= n, got n={n}, m={m}")
        self.module = N
        self.coefficients = M
        if tens is None and N.algebra.is_regular(M):
            self.tens = None
            target_module = N
        else:
            self.tens = tens if tens is not None else tensor_over_algebra(N, M)
            target_module = self.tens.module
        wanted = ((N, n, "homology"), (M, m, "cohomology"), (target_module, n - m, "homology"))
        d = N.algebra.dim
        spaces = {w: class_space(*w) for w in sorted(
            wanted, key=lambda w: w[0].dim * d ** (w[1] + 1), reverse=True)}
        self.chains, self.cochains, self.target = (spaces[w] for w in wanted)

    def matrix(self, ccoords):
        """The matrix of [xi] -> [xi] cap [T] on class coordinates, [T]
        given by its coordinates (a dict or a sequence)."""
        n, m = self.chains.degree, self.cochains.degree
        E = _evaluation(self.module, self.coefficients, m, self.cochains.lift(ccoords), self.tens)
        return on_classes(self.chains, self.target, E, self.module.algebra.dim ** (n - m))

    def of_classes(self, hcoords, ccoords):
        """Coordinates of [xi] cap [T] in the target homology."""
        xi = self.chains.lift(hcoords)
        T = self.cochains.lift(ccoords)
        n, m = self.chains.degree, self.cochains.degree
        return self.target.class_of(
            cap_chain(self.module, n, xi, self.coefficients, m, T, self.tens))


def unit_cocycle(A):
    """The unit of A as a degree zero cocycle with regular coefficients."""
    return dict(A.unit)


# -- chain map lifts -------------------------------------------------------

class ChainMapLift:
    """A degree -m map of the bar resolution into itself lifting a cochain.

    Determined by its values on the free generators 1 (x) w (x) 1, w a
    tuple of length m+i in degree i.  Layer i, `values[i]`, is a
    `SparseMat` with d^(i+2) rows and d^(m+i) columns: column rank(w)
    holds the value on w in A^{(x)(i+2)}, both sides keyed by tuple rank.
    Everything else follows by two sided linearity.

    The lifting property used throughout is

        d_i t_i = (-1)^m t_{i-1} d_{m+i},

    i.e. for odd m the squares anticommute.  This is the identity the
    closed form lift actually satisfies: it comes from applying
    (t (x) 1) to the compatibility equation of the comultiplication,
    whose second term carries the sign (-1)^m.  Any two lifts in this
    sense produce the same class when capped against a cycle.  Read as
    an (m+i-1)-cochain with values in P = A^{(x)(i+1)}, A acting on the
    two outer slots, t_{i-1} d_{m+i} is its Hochschild coboundary
    delta_P t_{i-1} (see `_coboundary`).
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
        return self.values[i].cols[tuple_rank(self.algebra.dim, w)]

    def __repr__(self):
        return f"<ChainMapLift m={self.m} depth={self.depth} over {self.algebra!r}>"


def _interior_faces(A, n):
    """The interior faces of the bar boundary of the generators of length
    n: b_n on k (x) A^{(x)n} with zero actions, so the outer faces vanish."""
    zero = [SparseMat.zero(1, 1, A.field)] * A.dim
    return config.cached(A, ("interior", n), lambda: _faces(zero, zero, A.mult, A.field, 1, n))


def _coboundary(A, t, n, sign, out=None):
    """Add sign * delta_P t to `out` (a fresh layer by default) and return
    it; t is a layer on the generators of length n-1, out one on those of
    length n, read as cochains with values in P.

    Column rank(w) of delta_P t is t applied to the bar boundary of
    1 (x) w (x) 1.  The interior faces are t composed with
    `_interior_faces`.  The two outer faces land on generators decorated
    with an algebra element on one side, which is where two sided
    linearity enters: the first letter multiplies the first slot of the
    value from the left, the last letter its last slot from the right,
    with sign (-1)^n.  Both come out of one pass over the entries of t.
    """
    fld = A.field
    d = A.dim
    gens, low = t.ncols, t.nrows // d
    if out is None:
        out = SparseMat.zero(t.nrows, gens * d, fld)
    cols, mult, mul = out.cols, A.mult, fld.mul
    for col, faces in zip(cols, _interior_faces(A, n).cols):
        for k, c in faces.items():
            axpy(col, mul(sign, c), t.cols[k], fld)
    sign_n = sign if n % 2 == 0 else fld.neg(sign)
    for u, col in enumerate(t.cols):
        for idx, v in col.items():
            first, rest = divmod(idx, low)
            head, last = divmod(idx, d)
            v, v_n = mul(sign, v), mul(sign_n, v)
            for a in range(d):
                for l, c in mult[a][first].items():
                    acc(cols[a * gens + u], l * low + rest, mul(v, c), fld)
                for l, c in mult[last][a].items():
                    acc(cols[u * d + a], head * d + l, mul(v_n, c), fld)
    return out


def _guard_lift(A, m, up_to):
    """Refuse a lift whose top layer, d^(up_to+2) values on d^(m+up_to)
    generators, is too large, before any layer is built."""
    if m < 0 or up_to < 0:
        raise DegreeError("lift degrees must be nonnegative")
    d = A.dim
    config.guard(max(d ** (m + up_to), d ** (up_to + 2)), "the top layer of a lift")


def _cochain_layer(A, T, m):
    """An m-cochain with regular coefficients as a d x d^m matrix."""
    d = A.dim
    cols = [dict() for _ in range(d ** m)]
    for idx, v in T.items():
        if v:
            g, j = divmod(idx, d)
            cols[g][j] = v
    return SparseMat(d, d ** m, A.field, cols)


def explicit_lift(A, T, m, up_to):
    """The closed form lift of an m-cochain T with regular coefficients.

    In degree i the generator w (length m + i) goes to
    T(w_1..w_m) (x) w_{m+1} (x) ... (x) w_{m+i} (x) 1.
    No solving involved; works whether or not T is a cocycle, though the
    chain map property of the result is equivalent to T being one.
    """
    _guard_lift(A, m, up_to)
    fld = A.field
    d = A.dim
    tcols = _cochain_layer(A, T, m).cols
    values = []
    for i in range(up_to + 1):
        block = d ** i
        cols = []
        for g in range(d ** (m + i)):
            head, mid = divmod(g, block)  # the ranks of w[:m] and w[m:]
            cols.append({(j * block + mid) * d + s: fld.mul(tv, sv)
                         for j, tv in tcols[head].items() for s, sv in A.unit.items()})
        values.append(SparseMat(d ** (i + 2), d ** (m + i), fld, cols))
    return ChainMapLift(A, m, values)


def _solver(A, i):
    """The cached `Solver` of d_i, d_0 being the augmentation."""
    return config.cached(A, ("solver", i), lambda: Solver(
        bar_differential(A, i) if i else augmentation_matrix(A)))


def _random_sparse(rng, dim, table):
    """Two draws of a coefficient from `table`, the field's -2..2, each
    nonzero one at a random index below `dim`.

    Each draw is `rng.randrange(5)` and each index `rng.randrange(dim)`,
    taken straight from `rng.getrandbits` by the rejection rule CPython's
    `randrange` uses (bit_length(n) bits, redrawn while >= n), so the
    draws and the generator's state after them are the same; the
    coefficient draw is the one `rng.randint(-2, 2)` makes.
    """
    bits, k = rng.getrandbits, dim.bit_length()
    out = {}
    for _ in range(2):
        c = bits(3)
        while c >= 5:
            c = bits(3)
        if c := table[c]:
            i = bits(k)
            while i >= dim:
                i = bits(k)
            out[i] = c
    return out


def solve_lift(A, T, m, up_to, seed=None):
    """Lift T degree by degree through the lifting equations.

    Base step: solve d_0 t_0 = T.  Induction: solve
    d_i t_i = (-1)^m delta_P t_{i-1}, every generator of the layer at
    once.  Solutions are the deterministic ones of `Solver`; a seed
    perturbs every layer by a homotopy H, t_i + d_{i+1} H_i +
    (-1)^m delta_P H_{i-1}, producing a genuinely different but still
    valid lift (lifts of the same cocycle are unique only up to
    homotopy, and seeded runs exercise that).  Both terms are added
    into the solved layer in place: H_i has at most two entries per
    generator, each adding one cached column of d_{i+1}, and
    `_coboundary` adds the second term.  The top layer is guarded and
    the bar differentials are fetched before any solve, so the memory
    cap refuses a depth that is too large before work starts.

    Raises LiftFailed when some equation has no solution, which happens
    exactly when T fails to be a cocycle deep enough for the requested
    depth.
    """
    _guard_lift(A, m, up_to)
    fld = A.field
    d = A.dim
    sign_m = fld.one if m % 2 == 0 else fld.neg(fld.one)
    top = up_to + 1 if seed is not None else up_to
    bar = [None] + [bar_differential(A, i) for i in range(1, top + 1)]
    values = [_solver(A, 0).solve_matrix(_cochain_layer(A, T, m))]
    for i in range(1, up_to + 1):
        layer = _solver(A, i).solve_matrix(_coboundary(A, values[i - 1], m + i, sign_m))
        if layer is None:
            raise LiftFailed(f"no chain map extends the given cochain to degree {i}; "
                             "it is not a cocycle")
        values.append(layer)

    if seed is not None:
        rng = random.Random(seed)
        table = [fld.coerce(c) for c in range(-2, 3)]
        previous = None
        for i, layer in enumerate(values):
            faces = bar[i + 1].cols
            h = SparseMat(d ** (i + 3), d ** (m + i), fld,
                          [_random_sparse(rng, d ** (i + 3), table) for _ in range(d ** (m + i))])
            for col, hcol in zip(layer.cols, h.cols):
                for idx, c in hcol.items():
                    axpy(col, c, faces[idx], fld)
            if previous is not None:
                # the sign keeps the twisted lifting property intact
                _coboundary(A, previous, m + i, sign_m, layer)
            previous = h
    return ChainMapLift(A, m, values)


def coboundary_lift(A, S, m, up_to):
    """A lift of dS whose layers vanish in every positive degree.

    S is an (m-1)-cochain.  Solve d_0 shat = S on the generators one
    degree down, then take the degree zero layer to be shat composed
    with the boundary, delta_P shat; all higher layers can be zero.
    """
    if m < 1:
        raise DegreeError("a coboundary lift needs m >= 1")
    _guard_lift(A, m, up_to)
    fld = A.field
    d = A.dim
    shat = _solver(A, 0).solve_matrix(_cochain_layer(A, S, m - 1))
    values = [_coboundary(A, shat, m, fld.one)]
    values += [SparseMat.zero(d ** (i + 2), d ** (m + i), fld) for i in range(1, up_to + 1)]
    return ChainMapLift(A, m, values)


def verify_lift(A, T, m, lift):
    """Check the base identity and the twisted lifting property, one
    matrix identity per layer.

    Raises LiftFailed at the first broken generator; returns the number
    of generators checked.
    """
    fld = A.field
    d = A.dim
    sign_m = fld.one if m % 2 == 0 else fld.neg(fld.one)
    for i, layer in enumerate(lift.values):
        if i == 0:
            lhs, rhs = augmentation_matrix(A) @ layer, _cochain_layer(A, T, m)
        else:
            lhs = bar_differential(A, i) @ layer
            rhs = _coboundary(A, lift.values[i - 1], m + i, sign_m)
        for g, (got, want) in enumerate(zip(lhs.cols, rhs.cols, strict=True)):
            if got != want:
                w = tuple_digits(d, m + i, g)
                raise LiftFailed(f"lifting property fails in degree {i} at {w}" if i
                                 else f"degree 0 value at {w} does not project to T")
    return sum(layer.ncols for layer in lift.values)


def cap_via_lift(N, n, xi, lift):
    """xi cap T computed as (id tensor t_{n-m}) followed by reduction.

    N must be the regular bimodule of the lift's algebra (this route to
    the product exists for coefficients in the algebra itself); anything
    else raises WrongModule.  The reduction sends a decorated generator
    x (x) (c_0, ..., c_{k+1}) of the bar form to
    (c_{k+1} . x . c_0; c_1, ..., c_k).
    """
    m = lift.m
    i = n - m
    if i < 0:
        raise DegreeError("cap needs m <= n")
    if i > lift.depth:
        raise DegreeError(f"lift only computed to depth {lift.depth}, need {i}")
    A = N.algebra
    if lift.algebra is not A:
        raise WrongModule("the lift and the module are over different algebras")
    if not A.is_regular(N):
        raise WrongModule(f"cap_via_lift needs the regular bimodule, got {N!r}")
    fld = N.field
    d = A.dim
    block = d ** (i + 1)
    layer = lift.values[i].cols
    out = {}
    for idx, coeff in xi.items():
        x, g = divmod(idx, d ** n)
        for u, v in layer[g].items():
            c0, rest = divmod(u, block)
            mid, clast = divmod(rest, d)
            y = A.multiply(A.multiply({clast: fld.one}, {x: fld.one}), {c0: fld.one})
            for z, zv in y.items():
                acc(out, z * d ** i + mid, fld.mul(coeff, fld.mul(v, zv)), fld)
    return out
