"""Independent brute-force reference for the test suite.

Everything in this file is deliberately naive: dense matrices as lists of
lists, textbook row reduction, differentials assembled entry by entry from
the defining formulas.  It shares no code with the installed package, so an
agreement between the two is meaningful evidence rather than a tautology.

Scalars are `Fraction` over the rationals, or plain ints reduced mod p.

The exceptions, at the end, are built with the package's sparse linear
algebra and only the tests use them: the two-elimination class space, the
two sided bar form, a second presentation of the same homology, the
tensor product of two algebras, whose Hochschild groups the Kunneth
formula predicts from the factors', the diagonal check one generator
and one split at a time, four slot operators each, the face loop one
`acc` call per term, the homotopy draws of seeded lifts through
`randrange`, and the rank arithmetic that certifies a long exact
sequence exact at every node.
"""

from fractions import Fraction
from itertools import product

from hochcap import cap, config
from hochcap.algebras import AlgebraPresentation
from hochcap.complexes import differential, tuple_rank, tuples
from hochcap.errors import DegreeError
from hochcap.les import connecting, pushforward
from hochcap.linalg import SparseMat, acc, axpy, kernel_basis, on_slots, rank, subquotient


# --- tiny dense linear algebra -------------------------------------------

def _inv_mod(a, p):
    return pow(a % p, p - 2, p)


def dense_rank(rows, p=None):
    """Rank of a dense matrix given as a list of row lists.

    Entries are Fractions (p is None) or ints taken mod p.  The input is
    copied; plain Gaussian elimination, nothing clever.
    """
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    if p is not None:
        mat = [[x % p for x in r] for r in mat]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = _inv_mod(mat[row][col], p) if p is not None else Fraction(1) / mat[row][col]
        if p is not None:
            mat[row] = [(x * inv) % p for x in mat[row]]
        else:
            mat[row] = [x * inv for x in mat[row]]
        for i in range(nrows):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                if p is not None:
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[row])]
                else:
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def dense_solve(rows, b, p=None):
    """The solution of rows * x = b whose free variables are zero, as a
    sparse dict {column: value}, or None when there is none.

    The rref of the augmented matrix [rows | b]: there is no solution when
    its last column is a pivot, and otherwise x takes the last column's
    entry of each pivot row at that row's pivot column.
    """
    ncols = len(rows[0]) if rows else 0
    pivots, red = dense_rref([list(r) + [y] for r, y in zip(rows, b)], ncols + 1, p)
    if ncols in pivots:
        return None
    return {col: red[i][-1] for i, col in enumerate(pivots) if red[i][-1] != 0}


def dense_rref(rows, ncols, p=None):
    """(pivots, rows): the reduced row echelon form of a dense matrix of
    width ncols, zero rows dropped, by Gauss-Jordan elimination over
    Fractions (p is None) or mod p."""
    if p is None:
        mat = [[Fraction(x) for x in r] for r in rows]
    else:
        mat = [[x % p for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = _inv_mod(mat[row][col], p) if p is not None else 1 / mat[row][col]
        mat[row] = [x * inv % p if p is not None else x * inv for x in mat[row]]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != row and f != 0:
                mat[i] = [(x - f * y) % p if p is not None else x - f * y
                          for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
    return pivots, mat[:len(pivots)]


def dense_null_space_rref(rows, ncols, p=None):
    """(pivots, rows): the rref of the null space of a dense matrix of
    width ncols.  The textbook basis, e_f - sum_i R[i][f] e_{p_i} for each
    non-pivot column f of the rref R, is row reduced a second time."""
    pivots, red = dense_rref(rows, ncols, p)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for i, q in enumerate(pivots):
                v[q] = -red[i][f]
            basis.append(v)
    return dense_rref(basis, ncols, p)


# --- raw algebra data (kept local on purpose) ----------------------------
#
# An algebra is a dict with keys:
#   d: dimension, p: None for Q or a prime,
#   c: structure constants, c[i][j][l] = coefficient of e_l in e_i * e_j,
#   unit: coefficients of 1 in the basis.
# Bimodule data for the regular bimodule is derived from c below.

def _c_zero(d):
    return [[[0] * d for _ in range(d)] for _ in range(d)]


def alg_rationals():
    c = _c_zero(1)
    c[0][0][0] = 1
    return {"d": 1, "p": None, "c": c, "unit": [1]}


def alg_dual_numbers():
    # basis e, x with x^2 = 0
    c = _c_zero(2)
    c[0][0][0] = 1
    c[0][1][1] = 1
    c[1][0][1] = 1
    return {"d": 2, "p": None, "c": c, "unit": [1, 0]}


def alg_truncated_cubic():
    # basis 1, x, x^2 with x^3 = 0
    c = _c_zero(3)
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                c[i][j][i + j] = 1
    return {"d": 3, "p": None, "c": c, "unit": [1, 0, 0]}


def alg_product_qq():
    # Q x Q, orthogonal idempotents
    c = _c_zero(2)
    c[0][0][0] = 1
    c[1][1][1] = 1
    return {"d": 2, "p": None, "c": c, "unit": [1, 1]}


def alg_two_by_two():
    # matrix units E11, E12, E21, E22 in that order
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    c = _c_zero(4)
    for (a, b), i in idx.items():
        for (u, v), j in idx.items():
            if b == u:
                c[i][j][idx[(a, v)]] = 1
    return {"d": 4, "p": None, "c": c, "unit": [1, 0, 0, 1]}


def alg_upper_triangular():
    # e1 = E11, e2 = E22, a = E12
    c = _c_zero(3)
    c[0][0][0] = 1
    c[1][1][1] = 1
    c[0][2][2] = 1   # e1 * a = a
    c[2][1][2] = 1   # a * e2 = a
    return {"d": 3, "p": None, "c": c, "unit": [1, 1, 0]}


def alg_f2_c2():
    # group algebra of C2 over F2, basis 1, g
    c = _c_zero(2)
    c[0][0][0] = 1
    c[0][1][1] = 1
    c[1][0][1] = 1
    c[1][1][0] = 1
    return {"d": 2, "p": 2, "c": c, "unit": [1, 0]}


def alg_f2_dual():
    # F2[x]/(x^2) directly, for comparison with the group algebra above
    c = _c_zero(2)
    c[0][0][0] = 1
    c[0][1][1] = 1
    c[1][0][1] = 1
    return {"d": 2, "p": 2, "c": c, "unit": [1, 0]}


def group_algebra(p, n):
    # F_p[C_n], basis g^0 .. g^{n-1} with g^i g^j = g^{(i+j) mod n}
    c = _c_zero(n)
    for i in range(n):
        for j in range(n):
            c[i][j][(i + j) % n] = 1
    return {"d": n, "p": p, "c": c, "unit": [1] + [0] * (n - 1)}


ALGEBRAS = {
    "rationals": alg_rationals,
    "dual_numbers": alg_dual_numbers,
    "truncated_cubic": alg_truncated_cubic,
    "product_qq": alg_product_qq,
    "two_by_two_matrices": alg_two_by_two,
    "upper_triangular": alg_upper_triangular,
    "f2_c2": alg_f2_c2,
}


# --- regular bimodule actions --------------------------------------------

def regular_actions(alg):
    """Left and right multiplication matrices of each basis element.

    left[i] is the matrix of y -> e_i * y, right[i] of y -> y * e_i,
    both acting on column vectors in the algebra's own basis.
    """
    d, c = alg["d"], alg["c"]
    left = [[[c[i][j][l] for j in range(d)] for l in range(d)] for i in range(d)]
    right = [[[c[j][i][l] for j in range(d)] for l in range(d)] for i in range(d)]
    return left, right


# --- the standard complex, assembled entry by entry ----------------------

def chain_boundary_dense(alg, left, right, r, n):
    """Dense matrix of b_n : N (x) A^{tensor n} -> N (x) A^{tensor n-1}.

    Coordinates are (module index major, then the tuple in lex order).
    left/right are the module's action matrices, r its dimension.
    """
    d = alg["d"]
    c = alg["c"]
    src = r * d ** n
    tgt = r * d ** (n - 1)
    mat = [[0] * src for _ in range(tgt)]

    def tgt_idx(x, tup):
        k = x
        for t in tup:
            k = k * d + t
        return k

    col = 0
    for x in range(r):
        for w in product(range(d), repeat=n):
            # (x . a1 ; a2 ... an)
            a1 = w[0]
            for l in range(r):
                v = right[a1][l][x]
                if v:
                    mat[tgt_idx(l, w[1:])][col] += v
            # interior contractions
            for i in range(1, n):
                sign = -1 if i % 2 else 1
                for l in range(d):
                    v = c[w[i - 1]][w[i]][l]
                    if v:
                        tup = w[: i - 1] + (l,) + w[i + 1:]
                        mat[tgt_idx(x, tup)][col] += sign * v
            # (an . x ; a1 ... a_{n-1})
            an = w[-1]
            sign = -1 if n % 2 else 1
            for l in range(r):
                v = left[an][l][x]
                if v:
                    mat[tgt_idx(l, w[:-1])][col] += sign * v
            col += 1
    return mat


def cochain_differential_dense(alg, left, right, r, m):
    """Dense matrix of the degree-m differential on maps A^{tensor m} -> M.

    Source coordinate (tuple w major, then module index j); same layout on
    the target one degree up.
    """
    d = alg["d"]
    c = alg["c"]
    src = r * d ** m
    tgt = r * d ** (m + 1)
    mat = [[0] * src for _ in range(tgt)]

    tuples_m = list(product(range(d), repeat=m))
    rank_m = {w: k for k, w in enumerate(tuples_m)}

    def src_idx(w, j):
        return rank_m[w] * r + j

    row_tuples = list(product(range(d), repeat=m + 1))
    for vk, v in enumerate(row_tuples):
        for j in range(r):
            # first factor acts on the value
            w = v[1:]
            for l in range(r):
                coeff = left[v[0]][l][j]
                if coeff:
                    mat[vk * r + l][src_idx(w, j)] += coeff
            # contractions
            for i in range(1, m + 1):
                sign = -1 if i % 2 else 1
                for l in range(d):
                    coeff = c[v[i - 1]][v[i]][l]
                    if coeff:
                        w = v[: i - 1] + (l,) + v[i + 1:]
                        mat[vk * r + j][src_idx(w, j)] += sign * coeff
            # last factor acts on the value
            w = v[:-1]
            sign = -1 if (m + 1) % 2 else 1
            for l in range(r):
                coeff = right[v[m]][l][j]
                if coeff:
                    mat[vk * r + l][src_idx(w, j)] += sign * coeff
    return mat


def homology_dims(alg, up_to):
    """dim H_n(A, A) for n = 0 .. up_to, by dense rank counting."""
    left, right = regular_actions(alg)
    r, p = alg["d"], alg["p"]
    dims = []
    ranks = {}
    for n in range(1, up_to + 2):
        ranks[n] = dense_rank(chain_boundary_dense(alg, left, right, r, n), p)
    for n in range(up_to + 1):
        space = r * alg["d"] ** n
        cycles = space - (ranks[n] if n >= 1 else 0)
        dims.append(cycles - ranks[n + 1])
    return dims


def cohomology_dims(alg, up_to):
    """dim H^m(A, A) for m = 0 .. up_to."""
    left, right = regular_actions(alg)
    r, p = alg["d"], alg["p"]
    dims = []
    ranks = {}
    for m in range(up_to + 1):
        ranks[m] = dense_rank(cochain_differential_dense(alg, left, right, r, m), p)
    for m in range(up_to + 1):
        space = r * alg["d"] ** m
        cocycles = space - ranks[m]
        dims.append(cocycles - (ranks[m - 1] if m >= 1 else 0))
    return dims


# -- the two-elimination class space -------------------------------------
#
# Z / B as class spaces built it before `Echelon.null_space`: a kernel
# basis of the outgoing differential (one elimination), eliminated again
# by `subquotient` to put the cycles in canonical form.


def two_elimination_class_space(module, degree, kind):
    fld = module.field
    step = -1 if kind == "homology" else 1
    if degree + step < 0:
        Z = SparseMat.identity(module.dim, fld)
    else:
        Z = kernel_basis(differential(module, degree, kind))
    if degree - step < 0:
        B = SparseMat.zero(module.dim, 0, fld)
    else:
        B = differential(module, degree - step, kind)
    return subquotient(Z, B)


# -- two sided bar form --------------------------------------------------
#
# The same homology can be computed from N (x)_{A^e} A^{(x)(n+2)}: quotient
# N (x) A^{(x)(n+2)} by the relations moving the outer tensor factors across
# the module slot, with the simplicial differential that multiplies adjacent
# factors (all n+1 interior contractions, no wrap-around term).  Converting
# back and forth is a strong independent check on the standard complex.

class BarForm:
    __slots__ = ("module", "degree", "space", "proj", "sect", "ambient_dim")

    def __init__(self, module, degree, space, proj, sect, ambient_dim):
        self.module = module
        self.degree = degree
        self.space = space
        self.proj = proj
        self.sect = sect
        self.ambient_dim = ambient_dim

    @property
    def dim(self):
        return self.space.dim


def bar_form(N, n):
    """The degree n piece of N (x)_{A^e} A^{(x)(n+2)} as a quotient space."""
    A = N.algebra
    fld = N.field
    d, r = A.dim, N.dim
    amb = r * d ** (n + 2)
    config.guard(amb, "a bar form space")

    def pos(x, c):
        return x * d ** (n + 2) + tuple_rank(d, c)

    relations = []
    for x in range(r):
        for c in tuples(d, n + 2):
            for s in range(d):
                # (x.s; c)  -  (x; s c_0, c_1, ...)
                rel = {}
                for y, v in N.right[s].col(x).items():
                    acc(rel, pos(y, c), v, fld)
                for l, v in A.mult[s][c[0]].items():
                    acc(rel, pos(x, (l,) + c[1:]), fld.neg(v), fld)
                if rel:
                    relations.append(rel)
                # (s.x; c)  -  (x; c_0, ..., c_{n+1} s)
                rel = {}
                for y, v in N.left[s].col(x).items():
                    acc(rel, pos(y, c), v, fld)
                for l, v in A.mult[c[-1]][s].items():
                    acc(rel, pos(x, c[:-1] + (l,)), fld.neg(v), fld)
                if rel:
                    relations.append(rel)

    space = subquotient(
        SparseMat.identity(amb, fld),
        SparseMat.from_columns(amb, fld, relations),
    )
    proj, sect = space.projection_section()
    return BarForm(N, n, space, proj, sect, amb)


def bar_form_boundary(N, bf_n, bf_prev):
    """Induced differential bf_n.space -> bf_prev.space."""
    A = N.algebra
    fld = N.field
    d, r = A.dim, N.dim
    n = bf_n.degree
    if bf_prev.degree != n - 1:
        raise DegreeError("bar form boundary needs consecutive degrees")

    def pos(x, c):
        return x * d ** (n + 1) + tuple_rank(d, c)

    cols = []
    for x in range(r):
        for c in tuples(d, n + 2):
            col = {}
            for i in range(n + 1):
                sign = fld.one if i % 2 == 0 else fld.neg(fld.one)
                for l, v in A.mult[c[i]][c[i + 1]].items():
                    tup = c[:i] + (l,) + c[i + 2 :]
                    acc(col, pos(x, tup), fld.mul(sign, v), fld)
            cols.append(col)
    ambient = SparseMat(r * d ** (n + 1), bf_n.ambient_dim, fld, cols)
    return bf_prev.proj @ ambient @ bf_n.sect


def bar_to_standard(N, bf):
    """Conversion bf.space -> C_n(A, N): (x; c) -> (c_last . x . c_0; c_1..c_n)."""
    A = N.algebra
    fld = N.field
    d, r = A.dim, N.dim
    n = bf.degree
    cols = []
    for x in range(r):
        for c in tuples(d, n + 2):
            col = {}
            mid = N.act_right(N.left[c[-1]].col(x), {c[0]: fld.one})
            for y, v in mid.items():
                acc(col, y * d ** n + tuple_rank(d, c[1:-1]), v, fld)
            cols.append(col)
    conv = SparseMat(r * d ** n, bf.ambient_dim, fld, cols)
    return conv @ bf.sect


def standard_to_bar(N, bf):
    """Conversion C_n(A, N) -> bf.space: (x; a) -> [x; 1, a_1..a_n, 1]."""
    A = N.algebra
    fld = N.field
    d, r = A.dim, N.dim
    n = bf.degree

    def pos(x, c):
        return x * d ** (n + 2) + tuple_rank(d, c)

    cols = []
    for x in range(r):
        for w in tuples(d, n):
            col = {}
            for s, vs in A.unit.items():
                for t, vt in A.unit.items():
                    acc(col, pos(x, (s,) + w + (t,)), fld.mul(vs, vt), fld)
            cols.append(col)
    amb = SparseMat(bf.ambient_dim, r * d ** n, fld, cols)
    return bf.proj @ amb


# -- tensor products of algebras -------------------------------------------

def tensor(A, B):
    """A (x) B over their common field, validated.

    The basis element a_i (x) b_j has index i * dim B + j, the product is
    (a (x) b)(a' (x) b') = aa' (x) bb' and the unit is 1 (x) 1.
    """
    fld, d = A.field, B.dim
    structure = [(i * d + j, k * d + l, p * d + q, fld.mul(u, v))
                 for i in range(A.dim) for k in range(A.dim) for p, u in A.mult[i][k].items()
                 for j in range(d) for l in range(d) for q, v in B.mult[j][l].items()]
    unit = {i * d + j: fld.mul(u, v) for i, u in A.unit.items() for j, v in B.unit.items()}
    basis = [f"{a}*{b}" for a in A.basis for b in B.basis]
    return AlgebraPresentation(fld, basis, structure, unit,
                               label=f"{A.label} (x) {B.label}").validate()


# -- the diagonal check, generator by generator ----------------------------
#
# `cap.check_diagonal_identities` as it was first written: for each
# generator and split, D_{i,j+1}, D_{i+1,j}, D_{i,j} d and the two
# differentials each applied by their own `on_slots` call, and the two
# sides compared as dicts.  The package's check must return this list
# exactly, in this order.  The differentials are read through the `cap`
# module, so a test that replaces `cap.bar_differential` changes both.

def diagonal_failures(A, max_total, unit=None):
    if max_total < 0:
        raise DegreeError("diagonal identities need a nonnegative total degree")
    fld = A.field
    d = A.dim
    ins = SparseMat(d, 1, fld, [A.unit if unit is None else unit])
    bar = [None] + [cap.bar_differential(A, n) for n in range(1, max_total + 2)]
    failures = []
    for total in range(max_total + 1):
        for g, c in enumerate(tuples(d, total + 3)):
            gen = {g: fld.one}
            boundary = bar[total + 1].cols[g]
            # D_{i,j+1} of this split is D_{i+1,j} of the one before
            below = on_slots(ins, gen, d ** (total + 2))
            for i in range(total + 1):
                j = total - i
                low = d ** (j + 1)
                above = on_slots(ins, gen, low)
                lhs = on_slots(ins, boundary, low)
                rhs = on_slots(bar[i + 1], above, low)
                sign = fld.one if i % 2 == 0 else fld.neg(fld.one)
                axpy(rhs, sign, on_slots(bar[j + 1], below, 1), fld)
                if lhs != rhs:
                    failures.append(("split", i, j, c))
                below = above
    aug = cap.augmentation_matrix(A)
    for g, c in enumerate(tuples(d, 2)):
        lhs = on_slots(aug, on_slots(aug, on_slots(ins, {g: fld.one}, d), d), 1)
        if lhs != aug.cols[g]:
            failures.append(("augment", 0, 0, c))
    return failures


# -- the face loop, one term at a time --------------------------------------
#
# `complexes._faces` as it was written before it merged the interior faces
# of a tuple into one dict: every term of every column, the outer faces
# included, added by its own `acc` call in the face formula's order.  The
# package's loop must return the same matrix, entry for entry.

def faces(left, right, mult, fld, r, n):
    d = len(mult)
    block, rest = d ** n, d ** (n - 1)
    signs = (fld.one, fld.neg(fld.one))
    sign_n = signs[n % 2]
    tables = [[[[(l, fld.mul(sign, v)) for l, v in entry.items()] for entry in row]
               for row in mult] for sign in signs]
    interior = [(tables[i % 2], d ** (n - i - 1)) for i in range(1, n)]
    cols = [None] * (r * block)
    for k, w in enumerate(tuples(d, n)):
        terms = []
        for i, (table, low) in enumerate(interior, 1):
            base = k // (low * d * d) * low * d + k % low
            terms += [(base + l * low, v) for l, v in table[w[i - 1]][w[i]]]
        first = right[w[0]].cols
        last = left[w[-1]].cols
        tail, head = k % rest, k // d
        for x in range(r):
            col = {}
            for y, v in first[x].items():
                acc(col, y * rest + tail, v, fld)
            base = x * rest
            for t, v in terms:
                acc(col, base + t, v, fld)
            for y, v in last[x].items():
                acc(col, y * rest + head, fld.mul(sign_n, v), fld)
            cols[x * block + k] = col
    return SparseMat(r * rest, r * block, fld, cols)


# -- the homotopy draws of a seeded lift, through randrange -----------------
#
# `cap._random_sparse` as it was written before it called `getrandbits`
# itself: the package's form must return the same draws and leave the
# generator in the same state.

def random_sparse(rng, dim, table, entries=2):
    out = {}
    for _ in range(entries):
        c = table[rng.randrange(5)]
        if c:
            out[rng.randrange(dim)] = c
    return out


# -- exactness of a long exact sequence, by rank counting -------------------


def _exact_at(failures, degree, node, incoming, outgoing):
    """Record a failure unless ker(outgoing) = im(incoming)."""
    if not (outgoing @ incoming).is_zero():
        failures.append((degree, node, "composite nonzero"))
    elif outgoing.ncols - rank(outgoing) != rank(incoming):
        failures.append((degree, node, "kernel strictly larger than image"))


def verify_les(ses, up_to, kind):
    """Exactness failures of the long exact sequence of `kind`.

    Checks the nodes H(left), H(middle), H(right) of every degree <=
    up_to.  The homology sequence ends in H_0(right) -> 0, so exactness
    there means g_* is onto; the cohomology sequence starts with
    0 -> H^0(left), so exactness there means f^* is injective.  Returns
    (degree, node, reason) triples, by degree and then in the order
    left, middle, right; [] means exact.
    """
    failures = []
    fld = ses.left.field
    fstar = {n: pushforward(ses.f, n, kind) for n in range(up_to + 1)}
    gstar = {n: pushforward(ses.g, n, kind) for n in range(up_to + 1)}
    step, lowest = (-1, 1) if kind == "homology" else (1, 0)
    conn = {n: connecting(ses, n, kind) for n in range(lowest, lowest + up_to + 1)}
    # the zero maps that end the sequence: H_0(right) -> 0, 0 -> H^0(left)
    if kind == "homology":
        conn[0] = SparseMat.zero(0, gstar[0].nrows, fld)
    else:
        conn[-1] = SparseMat.zero(fstar[0].ncols, 0, fld)
    for n in range(up_to + 1):
        _exact_at(failures, n, "left", conn[n - step], fstar[n])
        _exact_at(failures, n, "middle", fstar[n], gstar[n])
        _exact_at(failures, n, "right", gstar[n], conn[n])
    return failures
