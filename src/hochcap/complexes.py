"""Hochschild chains and cochains for a bimodule over a finite dimensional algebra.

Chains in degree n live in N (x) A^{(x)n}; the coordinate of the basis
element (x; a_1, ..., a_n) is x*d**n + sum(a_i * d**(n-i)), i.e. module
index major, tuple in lexicographic order.  Cochains in degree m are
maps A^{(x)m} -> M stored tuple major: the coordinate of the elementary
cochain sending the basis tuple w to basis vector j is rank(w)*r + j.
`by_tuple` and `from_tuples` convert either layout to and from
{tuple rank: {module index: value}}, so code that acts on the module
slot is written once for both kinds.

Boundary of (x; a_1..a_n):

    (x.a_1; a_2..a_n)
    + sum_{i=1}^{n-1} (-1)^i (x; a_1.. a_i a_{i+1} ..a_n)
    + (-1)^n (a_n.x; a_1..a_{n-1})

and the dual formula for the cochain differential.  Homology and
cohomology are presented as subquotients with canonical coordinates, so
equal classes get equal coordinate tuples no matter how they were found.
"""

from itertools import product

from . import config
from .bimodules import commutator_subspace, invariants_subspace, kron
from .errors import DegreeError, NotCentral, NotInvariant
from .linalg import SparseMat, acc, coerce_vector, kernel_basis, subquotient


def tuples(d, n):
    """All basis tuples of length n, lexicographic."""
    return product(range(d), repeat=n)


def tuple_rank(d, w):
    k = 0
    for t in w:
        k = k * d + t
    return k


def tuple_digits(d, n, k):
    """Inverse of tuple_rank: the length n tuple with rank k."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        k, out[i] = divmod(k, d)
    return tuple(out)


def chain_pos(d, n, x, w):
    return x * d ** n + tuple_rank(d, w)


def chain_dim(N, n):
    return N.dim * N.algebra.dim ** n


def cochain_dim(M, m):
    return M.algebra.dim ** m * M.dim


def by_tuple(M, n, kind, vec):
    """A degree n chain (kind "homology") or cochain ("cohomology") of M
    grouped as {tuple rank: {module index: value}}."""
    out = {}
    if kind == "homology":
        block = M.algebra.dim ** n
        for idx, v in vec.items():
            x, w = divmod(idx, block)
            out.setdefault(w, {})[x] = v
    else:
        r = M.dim
        for idx, v in vec.items():
            w, x = divmod(idx, r)
            out.setdefault(w, {})[x] = v
    return out


def from_tuples(M, n, kind, grouped):
    """Inverse of `by_tuple`: the degree n (co)chain of M with these entries."""
    if kind == "homology":
        block = M.algebra.dim ** n
        return {x * block + w: v for w, vec in grouped.items() for x, v in vec.items()}
    r = M.dim
    return {w * r + x: v for w, vec in grouped.items() for x, v in vec.items()}


def boundary_matrix(N, n):
    """Matrix of b_n : C_n(A, N) -> C_{n-1}(A, N).  Requires n >= 1."""
    if n < 1:
        raise DegreeError("boundary starts in degree 1")
    A = N.algebra
    fld = N.field
    d, r = A.dim, N.dim
    src = r * d ** n
    tgt = r * d ** (n - 1)
    config.guard(max(src, tgt), "a chain space")
    key = ("boundary", n)
    cached = N._cache.get(key)
    if cached is not None:
        return cached

    sign_n = fld.one if n % 2 == 0 else fld.neg(fld.one)
    cols = []
    for x in range(r):
        for w in tuples(d, n):
            col = {}
            for y, v in N.right[w[0]].col(x).items():
                acc(col, chain_pos(d, n - 1, y, w[1:]), v, fld)
            for i in range(1, n):
                sign = fld.one if i % 2 == 0 else fld.neg(fld.one)
                for l, v in A.mult[w[i - 1]][w[i]].items():
                    tup = w[: i - 1] + (l,) + w[i + 1 :]
                    acc(col, chain_pos(d, n - 1, x, tup), fld.mul(sign, v), fld)
            for y, v in N.left[w[-1]].col(x).items():
                acc(col, chain_pos(d, n - 1, y, w[:-1]), fld.mul(sign_n, v), fld)
            cols.append(col)

    mat = SparseMat(tgt, src, fld, cols)
    N._cache[key] = mat
    return mat


def coboundary_matrix(M, m):
    """Matrix of delta_m : C^m(A, M) -> C^{m+1}(A, M).  Requires m >= 0."""
    if m < 0:
        raise DegreeError("cochains start in degree 0")
    A = M.algebra
    fld = M.field
    d, r = A.dim, M.dim
    src = d ** m * r
    tgt = d ** (m + 1) * r
    config.guard(max(src, tgt), "a cochain space")
    key = ("coboundary", m)
    cached = M._cache.get(key)
    if cached is not None:
        return cached

    sign_last = fld.one if (m + 1) % 2 == 0 else fld.neg(fld.one)
    cols = [dict() for _ in range(src)]
    for u in tuples(d, m + 1):
        u_base = tuple_rank(d, u) * r
        # a_1 . T(a_2 .. a_{m+1})
        w_base = tuple_rank(d, u[1:]) * r
        for j in range(r):
            for y, v in M.left[u[0]].col(j).items():
                acc(cols[w_base + j], u_base + y, v, fld)
        # interior contractions hit T diagonally in the module index
        for i in range(1, m + 1):
            sign = fld.one if i % 2 == 0 else fld.neg(fld.one)
            for l, v in A.mult[u[i - 1]][u[i]].items():
                w = u[: i - 1] + (l,) + u[i + 1 :]
                w_base = tuple_rank(d, w) * r
                sv = fld.mul(sign, v)
                for j in range(r):
                    acc(cols[w_base + j], u_base + j, sv, fld)
        # (-1)^{m+1} T(a_1 .. a_m) . a_{m+1}
        w_base = tuple_rank(d, u[:m]) * r
        for j in range(r):
            for y, v in M.right[u[m]].col(j).items():
                acc(cols[w_base + j], u_base + y, fld.mul(sign_last, v), fld)

    mat = SparseMat(tgt, src, fld, cols)
    M._cache[key] = mat
    return mat


def differential(M, n, kind):
    """b_n (kind "homology") or delta_n (kind "cohomology")."""
    if kind == "homology":
        return boundary_matrix(M, n)
    return coboundary_matrix(M, n)


def _class_subquotient(module, degree, kind):
    """Z / B in the given degree of the chain or cochain complex."""
    fld = module.field
    step = -1 if kind == "homology" else 1  # the degree of the differential
    if degree + step < 0:
        Z = SparseMat.identity(module.dim, fld)
    else:
        Z = kernel_basis(differential(module, degree, kind))
    if degree - step < 0:
        B = SparseMat.zero(module.dim, 0, fld)
    else:
        B = differential(module, degree - step, kind)
    return subquotient(Z, B)


class ClassSpace:
    """H_n(A, N) (kind "homology") or H^n(A, N) (kind "cohomology") with
    canonical class coordinates."""

    __slots__ = ("module", "degree", "kind", "space")

    def __init__(self, module, degree, kind, space):
        self.module = module
        self.degree = degree
        self.kind = kind
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    def class_of(self, vec):
        """Canonical coordinates of the class of a (co)cycle (dense tuple)."""
        return self.space.coset_reduce(vec)

    def representative(self, k):
        return self.space.representative(k)

    def lift(self, coords):
        return self.space.lift(coords)

    def __repr__(self):
        script = "_" if self.kind == "homology" else "^"
        return f"<H{script}{self.degree}({self.module!r}) dim={self.dim}>"


def _class_space(module, degree, kind):
    # the module caches the subquotient, which does not point back at the
    # module; a cached ClassSpace would, and the cycle would keep every
    # cached matrix alive until the cyclic garbage collector ran
    if degree < 0:
        raise DegreeError(f"{kind} degree must be nonnegative")
    key = (kind, degree)
    space = module._cache.get(key)
    if space is None:
        space = module._cache[key] = _class_subquotient(module, degree, kind)
    return ClassSpace(module, degree, kind, space)


def homology(N, n):
    return _class_space(N, n, "homology")


def cohomology(M, m):
    return _class_space(M, m, "cohomology")


def class_space(module, degree, kind):
    # through the two public names, so a wrapper placed on them (as the
    # tracer in perfbench/spans.py does) sees every class space built
    return homology(module, degree) if kind == "homology" else cohomology(module, degree)


def class_dims(module, up_to, kind):
    return [class_space(module, n, kind).dim for n in range(up_to + 1)]


def homology_dims(N, up_to):
    return class_dims(N, up_to, "homology")


def cohomology_dims(M, up_to):
    return class_dims(M, up_to, "cohomology")


# -- degree zero identifications ---------------------------------------

def coinvariants(N):
    """N / [N, A] with canonical coset coordinates.

    Degree 0 homology is exactly this quotient; the presentation here is
    built from the commutator subspace instead of a boundary matrix, so
    comparing the two is a real consistency check.
    """
    Z = SparseMat.identity(N.dim, N.field)
    return subquotient(Z, commutator_subspace(N))


def degree_zero_cocycle(M, vec):
    """The vector as a degree 0 cochain, after checking invariance.

    A degree 0 cochain is a single module element; it is a cocycle iff
    a.m = m.a for every a, i.e. iff m is an invariant.  Raises
    NotInvariant otherwise.
    """
    fld = M.field
    v = coerce_vector(fld, vec, M.dim)
    for s in range(M.algebra.dim):
        lhs = M.act_left({s: fld.one}, v)
        rhs = M.act_right(v, {s: fld.one})
        if lhs != rhs:
            raise NotInvariant(
                f"basis element {s} does not commute with the given vector"
            )
    return v


def invariants_dim(M):
    return invariants_subspace(M).ncols


# -- action of the center ----------------------------------------------

def central_action(cs, z):
    """Matrix of the action of central z on the canonical coordinates of a
    class space.  z acts through the module slot of each (co)chain."""
    M = cs.module
    chains = cs.kind == "homology"
    if not M.algebra.is_central(z):
        what = "chain" if chains else "cochain"
        raise NotCentral(f"{what} action is only defined for central elements")
    mat = M.left_action(z)
    if cs.degree:
        ident = SparseMat.identity(M.algebra.dim ** cs.degree, M.field)
        mat = kron(mat, ident) if chains else kron(ident, mat)
    cols = [dict(enumerate(cs.class_of(mat.matvec(cs.representative(k)))))
            for k in range(cs.dim)]
    return SparseMat.from_columns(cs.dim, M.field, cols)


# -- two sided bar form --------------------------------------------------
#
# The same homology can be computed from N (x)_{A^e} A^{(x)(n+2)}: quotient
# N (x) A^{(x)(n+2)} by the relations moving the outer tensor factors across
# the module slot, with the simplicial differential that multiplies adjacent
# factors (all n+1 interior contractions, no wrap-around term).  Converting
# back and forth is a strong independent check on the small complex above.

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
                acc(col, chain_pos(d, n, y, c[1:-1]), v, fld)
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
