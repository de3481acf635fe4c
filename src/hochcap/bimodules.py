"""Bimodules over a fixed algebra and the constructions the theory needs.

A bimodule of dimension r is given by commuting left and right action
matrices for each algebra basis element.  On top of that this module
builds: commutator and invariant subspaces, tensor products over the
algebra (as canonical subquotients of the tensor product over the ground
field), coinduced modules Hom_k(A, M) with their embedding of M, induced
modules A (x) V with their multiplication map onto V, direct sums, and
short exact sequences of bimodules.
"""

import weakref

from . import config
from .errors import NotExact, ValidationError
from .linalg import (
    Echelon,
    SparseMat,
    Solver,
    acc,
    axpy,
    coerce_vector,
    kernel_basis,
    rank,
    subquotient,
)


class _Cache(dict):
    """The `_cache` of a bimodule, which the registry of twins holds weakly."""

    __slots__ = ("__weakref__",)


class Bimodule:
    """Left and right action matrices, one per algebra basis element.
    All that is cached on a bimodule depends on its actions alone, so a new
    one adopts the `_cache` of its live twins from a weak registry on the
    algebra, which lives as long as any of them does.  `key`, the content
    the registry is keyed by, names the module in the caches of others."""

    __slots__ = ("algebra", "dim", "left", "right", "label", "key", "_cache", "__weakref__")

    def __init__(self, algebra, dim, left, right, label=None):
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left)
        self.right = tuple(right)
        self.label = label
        self.key = (dim, tuple(tuple(sorted(c.items()))
                               for m in self.left + self.right for c in m.cols))
        twins = config.cached(algebra, "bimodules", weakref.WeakValueDictionary)
        self._cache = twins.setdefault(self.key, _Cache())

    @property
    def field(self):
        return self.algebra.field

    @property
    def mult(self):
        """The product table of the algebra, which labels the tensor slots
        of the module's (co)chains (see `complexes.Normalized`)."""
        return self.algebra.mult

    def validate(self):
        """Both actions are unital algebra actions and commute."""
        A = self.algebra
        fld = self.field
        d = A.dim
        if len(self.left) != d or len(self.right) != d:
            raise ValidationError("need one action matrix per algebra basis element")
        for m in (*self.left, *self.right):
            if m.nrows != self.dim or m.ncols != self.dim:
                raise ValidationError("action matrix has the wrong shape")
        for i in range(d):
            for j in range(d):
                lhs = self.left[i] @ self.left[j]
                rhs = self._combine(self.left, A.mult[i][j])
                if lhs != rhs:
                    raise ValidationError(f"left action fails at e_{i} e_{j}")
                lhs = self.right[j] @ self.right[i]
                rhs = self._combine(self.right, A.mult[i][j])
                if lhs != rhs:
                    raise ValidationError(f"right action fails at e_{i} e_{j}")
                if self.left[i] @ self.right[j] != self.right[j] @ self.left[i]:
                    raise ValidationError(f"actions do not commute at ({i},{j})")
        ident = SparseMat.identity(self.dim, fld)
        if self._combine(self.left, A.unit) != ident:
            raise ValidationError("unit does not act as identity on the left")
        if self._combine(self.right, A.unit) != ident:
            raise ValidationError("unit does not act as identity on the right")
        return self

    def _combine(self, mats, coeffs):
        fld = self.field
        out = SparseMat(self.dim, self.dim, fld)
        for i, c in coeffs.items():
            for j in range(self.dim):
                axpy(out.cols[j], c, mats[i].cols[j], fld)
        return out

    def left_action(self, a):
        """Matrix of x -> a.x for an algebra element a (dict or list)."""
        a = coerce_vector(self.field, a, self.algebra.dim)
        return self._combine(self.left, a)

    def right_action(self, a):
        a = coerce_vector(self.field, a, self.algebra.dim)
        return self._combine(self.right, a)

    def act_left(self, a, x):
        return self.left_action(a).matvec(coerce_vector(self.field, x, self.dim))

    def act_right(self, x, a):
        return self.right_action(a).matvec(coerce_vector(self.field, x, self.dim))

    def __repr__(self):
        name = self.label or "bimodule"
        return f"<{name}: dim {self.dim} over {self.algebra!r}>"


class BimoduleMorphism:
    __slots__ = ("source", "target", "matrix", "_cache")

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        self._cache = {}

    def validate(self):
        if self.source.algebra is not self.target.algebra:
            raise ValidationError("morphism between bimodules over different algebras")
        m = self.matrix
        if m.nrows != self.target.dim or m.ncols != self.source.dim:
            raise ValidationError("morphism matrix has the wrong shape")
        for i in range(self.source.algebra.dim):
            if m @ self.source.left[i] != self.target.left[i] @ m:
                raise ValidationError(f"morphism fails left action of e_{i}")
            if m @ self.source.right[i] != self.target.right[i] @ m:
                raise ValidationError(f"morphism fails right action of e_{i}")
        return self

    def solver(self):
        """The `Solver` of the matrix, factored on first use and kept."""
        return config.cached(self, "solver", lambda: Solver(self.matrix))


# -- subspaces ---------------------------------------------------------


def commutator_subspace(N):
    """Canonical basis of [N, A] = span{a.x - x.a} as matrix columns."""
    fld = N.field
    cols = []
    for i in range(N.algebra.dim):
        diff = N.left[i] - N.right[i]
        for j in range(N.dim):
            col = diff.cols[j]
            if col:
                cols.append(dict(col))
    span = SparseMat.from_columns(N.dim, fld, cols)
    rows = Echelon(fld, list(span.cols), N.dim).rows
    return SparseMat.from_columns(N.dim, fld, [dict(r) for r in rows])


def invariants_subspace(M):
    """Canonical basis of M^A = {x : a.x = x.a for all a} as matrix columns."""
    d = M.algebra.dim
    stacked = SparseMat(d * M.dim, M.dim, M.field)
    for i in range(d):
        diff = M.left[i] - M.right[i]
        for j in range(M.dim):
            for l, v in diff.cols[j].items():
                stacked.cols[j][i * M.dim + l] = v
    return kernel_basis(stacked)


# -- Kronecker helpers --------------------------------------------------


def kron(a, b):
    """Kronecker product; index (i, j) of the product is i * b.nrows + j."""
    fld = a.field
    out = SparseMat(a.nrows * b.nrows, a.ncols * b.ncols, fld)
    for ja in range(a.ncols):
        for ia, va in a.cols[ja].items():
            for jb in range(b.ncols):
                col = out.cols[ja * b.ncols + jb]
                for ib, vb in b.cols[jb].items():
                    col[ia * b.nrows + ib] = fld.mul(va, vb)
    return out


# -- short exact sequences ----------------------------------------------


class ShortExactSeq:
    """0 -> left --f--> middle --g--> right -> 0 of bimodules."""

    __slots__ = ("left", "middle", "right", "f", "g", "label")

    def __init__(self, left, middle, right, f, g, label=None):
        self.left = left
        self.middle = middle
        self.right = right
        self.f = f
        self.g = g
        self.label = label

    def __repr__(self):
        return f"<ShortExactSeq {self.label or ''} dims {self.left.dim},{self.middle.dim},{self.right.dim}>"


def make_ses(f, g, label=None):
    """Assemble and check a short exact sequence from two morphisms.

    Raises NotExact with a diagnostic if f is not injective, g is not
    surjective, or im f != ker g.  Morphism compatibility with the actions
    is always checked.
    """
    f.validate()
    g.validate()
    if f.target is not g.source:
        raise ValidationError("morphisms do not share the middle bimodule")
    rf = rank(f.matrix)
    rg = rank(g.matrix)
    if rf != f.source.dim:
        raise NotExact(f"first map is not injective (rank {rf} < {f.source.dim})")
    if rg != g.target.dim:
        raise NotExact(f"second map is not surjective (rank {rg} < {g.target.dim})")
    if not g.matrix.kills(f.matrix):
        raise NotExact("composite g o f is nonzero")
    if rf + rg != f.target.dim:
        raise NotExact(
            f"im f strictly inside ker g: rank f ({rf}) + rank g ({rg}) != dim middle ({f.target.dim})"
        )
    return ShortExactSeq(f.source, f.target, g.target, f, g, label=label)


def direct_sum(N1, N2):
    """Block sum N1 (+) N2 with the four structure morphisms.

    Returns (sum, include_1, include_2, project_1, project_2).
    """
    fld = N1.field
    r1, r2 = N1.dim, N2.dim
    d = N1.algebra.dim

    def block(m1, m2):
        out = SparseMat(r1 + r2, r1 + r2, fld)
        for j in range(r1):
            out.cols[j] = dict(m1.cols[j])
        for j in range(r2):
            out.cols[r1 + j] = {r1 + i: v for i, v in m2.cols[j].items()}
        return out

    left = tuple(block(N1.left[i], N2.left[i]) for i in range(d))
    right = tuple(block(N1.right[i], N2.right[i]) for i in range(d))
    s = Bimodule(N1.algebra, r1 + r2, left, right, label="direct sum")

    inc1 = SparseMat(r1 + r2, r1, fld)
    for j in range(r1):
        inc1.cols[j][j] = fld.one
    inc2 = SparseMat(r1 + r2, r2, fld)
    for j in range(r2):
        inc2.cols[j][r1 + j] = fld.one
    pr1 = inc1.transpose()
    pr2 = inc2.transpose()
    return (
        s,
        BimoduleMorphism(N1, s, inc1),
        BimoduleMorphism(N2, s, inc2),
        BimoduleMorphism(s, N1, pr1),
        BimoduleMorphism(s, N2, pr2),
    )


def split_ses(N1, N3, label=None):
    """0 -> N1 -> N1 (+) N3 -> N3 -> 0."""
    s, inc1, _, _, pr3 = direct_sum(N1, N3)
    return make_ses(inc1, pr3, label=label or "split sum")


# -- tensor product over the algebra -------------------------------------


class TensorProduct:
    """N (x)_A M presented as a canonical quotient of N (x)_k M.

    `module` is the resulting bimodule (left action through N, right
    action through M), `projection` the quotient map from the ambient
    r_N * r_M dimensional space (index (i, j) -> i * r_M + j) and
    `section` its canonical splitting by coset representatives.
    """

    __slots__ = ("right_factor", "module", "projection", "section")

    def __init__(self, right_factor, module, projection, section):
        self.right_factor = right_factor
        self.module = module
        self.projection = projection
        self.section = section

    def project_pure(self, x, y):
        """Class of x (x) y for sparse vectors x over N, y over M."""
        fld = self.module.field
        rM = self.right_factor.dim
        amb = {}
        for i, vx in x.items():
            for j, vy in y.items():
                amb[i * rM + j] = fld.mul(vx, vy)
        return self.projection.matvec(amb)


def tensor_over_algebra(N, M):
    """N (x)_A M as a bimodule, with canonical projection and section.

    The middle action is cancelled: the quotient is by the span of
    (x.a) (x) y - x (x) (a.y) over all basis choices.  The projection,
    the section and the two actions depend on the contents of N and M
    alone, so they are built and validated once per pair, on N's shared
    cache under M's content key; each call wraps them in a new bimodule
    labelled for its factors.
    """
    if N.algebra is not M.algebra:
        raise ValidationError("tensor factors live over different algebras")
    proj, sect, left, right = config.cached(N, ("tensor", M.key), lambda: _tensor_facts(N, M))
    module = Bimodule(N.algebra, proj.nrows, left, right,
                      label=f"({N.label or 'N'} (x)_A {M.label or 'M'})")
    return TensorProduct(M, module, proj, sect)


def _tensor_facts(N, M):
    """(proj, sect, left, right) of N (x)_A M, the actions validated."""
    A = N.algebra
    fld = N.field
    rN, rM = N.dim, M.dim
    amb = rN * rM

    rels = []
    for a in range(A.dim):
        rn = N.right[a]
        lm = M.left[a]
        for i in range(rN):
            for j in range(rM):
                col = {}
                for l, v in rn.cols[i].items():
                    col[l * rM + j] = v
                for l, v in lm.cols[j].items():
                    acc(col, i * rM + l, fld.neg(v), fld)
                if col:
                    rels.append(col)
    space = subquotient(
        SparseMat.identity(amb, fld), SparseMat.from_columns(amb, fld, rels)
    )
    proj, sect = space.projection_section()

    left = tuple(proj @ kron(N.left[s], SparseMat.identity(rM, fld)) @ sect for s in range(A.dim))
    right = tuple(proj @ kron(SparseMat.identity(rN, fld), M.right[s]) @ sect for s in range(A.dim))
    Bimodule(A, space.dim, left, right).validate()
    return proj, sect, left, right


# -- coinduced and induced modules ----------------------------------------


class CoinducedData:
    """E = Hom_k(A, M) and the quotient by the embedding of M.

    Fields: module (E), quotient (C), ses (0 -> M -> E -> C -> 0), whose
    `f` is the embedding and `g` the projection.
    """

    __slots__ = ("module", "quotient", "ses")

    def __init__(self, module, quotient, ses):
        self.module = module
        self.quotient = quotient
        self.ses = ses


def coinduced(M):
    """Hom_k(A, M) with (a.f.b)(x) = a.f(b.x); index (i, j) = i * r + j
    for f(e_i) coefficient j.  The embedding sends m to x -> m.x."""
    A = M.algebra
    fld = M.field
    d, r = A.dim, M.dim
    ident_d = SparseMat.identity(d, fld)
    ident_r = SparseMat.identity(r, fld)
    left = tuple(kron(ident_d, M.left[s]) for s in range(d))
    right = tuple(kron(A.left_matrix(s).transpose(), ident_r) for s in range(d))
    lbl = f"Hom(A, {M.label or 'M'})"
    E = Bimodule(A, d * r, left, right, label=lbl)
    E.validate()

    emb = SparseMat(d * r, r, fld)
    for j in range(r):
        for i in range(d):
            for l, v in M.right[i].cols[j].items():
                emb.cols[j][i * r + l] = v
    embed = BimoduleMorphism(M, E, emb)

    space = subquotient(SparseMat.identity(d * r, fld), emb)
    proj, sect = space.projection_section()
    C = Bimodule(
        A,
        space.dim,
        tuple(proj @ E.left[s] @ sect for s in range(d)),
        tuple(proj @ E.right[s] @ sect for s in range(d)),
        label=f"coker({lbl})",
    )
    C.validate()
    project = BimoduleMorphism(E, C, proj)
    ses = make_ses(embed, project, label=f"coinduced {M.label or 'M'}")
    return CoinducedData(E, C, ses)


class InducedData:
    """P = A (x) V and the kernel of the multiplication map onto V.

    Fields: module (P), kernel (K), ses (0 -> K -> P -> V -> 0), whose
    `f` is the inclusion and `g` the multiplication map.
    """

    __slots__ = ("module", "kernel", "ses")

    def __init__(self, module, kernel, ses):
        self.module = module
        self.kernel = kernel
        self.ses = ses


def induced(V):
    """A (x) V with a.(b (x) v).c = ab (x) v.c; index (i, j) = i * r + j.

    The multiplication map sends b (x) v to b.v."""
    A = V.algebra
    fld = V.field
    d, r = A.dim, V.dim
    ident_r = SparseMat.identity(r, fld)
    left = tuple(kron(A.left_matrix(s), ident_r) for s in range(d))
    right = tuple(kron(SparseMat.identity(d, fld), V.right[s]) for s in range(d))
    lbl = f"A (x) {V.label or 'V'}"
    P = Bimodule(A, d * r, left, right, label=lbl)
    P.validate()

    pi = SparseMat(r, d * r, fld)
    for i in range(d):
        for j in range(r):
            for l, v in V.left[i].cols[j].items():
                pi.cols[i * r + j][l] = v
    onto = BimoduleMorphism(P, V, pi)

    kb = kernel_basis(pi)
    solver = Solver(kb)
    k_left = []
    k_right = []
    for s in range(d):
        lm = solver.solve_matrix(P.left[s] @ kb)
        rm = solver.solve_matrix(P.right[s] @ kb)
        if lm is None or rm is None:
            raise ValidationError("kernel of the multiplication map is not action-closed")
        k_left.append(lm)
        k_right.append(rm)
    K = Bimodule(A, kb.ncols, tuple(k_left), tuple(k_right), label=f"ker({lbl} -> V)")
    K.validate()
    include = BimoduleMorphism(K, P, kb)
    ses = make_ses(include, onto, label=f"induced {V.label or 'V'}")
    return InducedData(P, K, ses)
