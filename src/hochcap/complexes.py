"""Hochschild chains and cochains for a bimodule over a finite dimensional algebra.

Chains in degree n live in N (x) A^{(x)n}; the coordinate of the basis
element (x; a_1, ..., a_n) is x*d**n + sum(a_i * d**(n-i)), i.e. module
index major, tuple in lexicographic order.  Cochains in degree m are
maps A^{(x)m} -> M stored tuple major: the coordinate of the elementary
cochain sending the basis tuple w to basis vector j is rank(w)*r + j.
In both layouts a linear map on the module slot is one `linalg.on_slots`
call, whose `low` (`module_slot`) is d**n for chains and 1 for cochains,
so code that acts on the module slot is written once for both kinds.

Boundary of (x; a_1..a_n):

    (x.a_1; a_2..a_n)
    + sum_{i=1}^{n-1} (-1)^i (x; a_1.. a_i a_{i+1} ..a_n)
    + (-1)^n (a_n.x; a_1..a_{n-1})

For finite dimensional M the cochains C^m(A, M) are the dual of the
chains C_m(A, M*), M* = Hom_k(M, k), whose left action is the transposed
right action of M and whose right action is the transposed left one:
delta_m is the transpose of b_{m+1} on M*, with the dual chain (j; w)
read as the cochain rank(w)*r + j.  One face loop (`_faces`) assembles
both, and the bar differential of `cap` too.  Homology and
cohomology are presented as subquotients with canonical coordinates, so
equal classes get equal coordinate tuples no matter how they were found.
The cycles are the null space of the outgoing differential, whose
canonical rref `Echelon.null_space` reads off one elimination of the
differential's rows (see `linalg`); the boundaries are the columns of
the incoming one.

A dimension is read in one place, `_normalized_dim`, on the normalized
complex, with r (d-1)^n coordinates in degree n (see `Normalized`): it
is a rank count and needs no class coordinates.  The ranks are kept on
the module, so dimension queries (`class_dims`, `homology_dims`,
`cohomology_dims`) and class spaces share them.  Class spaces, and
everything built on them (cap products, connecting maps, the identity
checks), stay on the standard complex, because their coordinates are
promised canonical there and no simple chain map carries normalized
chain classes back.  But a class space asks for its dimension first.  A
zero space has B = Z, so it eliminates nothing and never assembles the
incoming differential; the outgoing one is assembled only to test a
vector (`linalg.ZeroSubquotient`), and the module keeps nothing but None
for it.  A nonzero space must have as many classes as that dimension, a
cheap certificate linking the two complexes.  Both complexes come out of
the same face loop, which reads the letters of the tensor slots off the
first argument of the differential: a bimodule and a `Normalized` each
expose the letters' actions on the module slot (`left`, `right`) and
their product table (`mult`).

Every map between class spaces (pushforwards, the central action,
connecting maps, the cap product with a class) is a `SparseMat` on
canonical coordinates, read off by one `ClassSpace.classes`.
"""

from functools import partial
from itertools import product

from . import config
from .bimodules import commutator_subspace
from .errors import DegreeError, InclusionViolation, NotCentral, NotInvariant
# kernel_basis is not called here; perfbench/test_perfbench.py checks that
# the tracer rewraps this binding
from .linalg import (  # noqa: F401
    Echelon, SparseMat, SubquotientSpace, ZeroSubquotient, acc, axpy, coerce_vector,
    kernel_basis, on_slots, rank, subquotient)


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


def chain_dim(N, n):
    return N.dim * N.algebra.dim ** n


def cochain_dim(M, m):
    return M.algebra.dim ** m * M.dim


def module_slot(M, n, kind):
    """The `low` of `linalg.on_slots` that puts a matrix on the module slot
    of a degree n chain of M (kind "homology", stored module index major)
    or cochain ("cohomology", stored tuple major)."""
    return M.algebra.dim ** n if kind == "homology" else 1


# -- the normalized complex ----------------------------------------------
#
# With Abar = A/k.1, the normalized chains N (x) Abar^{(x)n} are the
# quotient of C_n by the tuples with a 1 in some slot, and the normalized
# cochains Hom(Abar^{(x)m}, M) are the subcomplex of cochains that vanish
# when any argument is 1.  Both inclusions/projections are
# quasi-isomorphisms (Loday, Cyclic Homology, 1.1), and the spaces have
# r (d-1)^n coordinates instead of r d^n.  In either complex a tensor slot
# holds a basis element e_i, i != k, of A, and an interior product is read
# through pi: A -> Abar, so the same face loop builds both.


def _normalized_mult(A):
    """(letters, mult): the basis indices that span Abar and the product
    table of pi(e_a e_b), keyed by letter position.

    k is the first basis index where the unit has a nonzero coefficient
    u_k.  pi sends e_i to ebar_i for i != k and e_k, which is
    (1 - sum_{i != k} u_i e_i) / u_k, to -sum_{i != k} (u_i / u_k) ebar_i,
    so no change of basis is needed.  Cached on the algebra: the table
    holds only scalars.
    """
    def build():
        fld = A.field
        k = min(A.unit)
        letters = [i for i in range(A.dim) if i != k]
        pos = {i: a for a, i in enumerate(letters)}
        scale = fld.neg(fld.inv(A.unit[k]))
        pi_k = {pos[i]: fld.mul(scale, v) for i, v in A.unit.items() if i != k}
        mult = []
        for i in letters:
            row = []
            for j in letters:
                prod = {}
                for l, v in A.mult[i][j].items():
                    if l == k:
                        axpy(prod, v, pi_k, fld)
                    else:
                        acc(prod, pos[l], v, fld)
                row.append(prod)
            mult.append(row)
        return letters, mult
    return config.cached(A, "normalized", build)


class Normalized:
    """The normalized complex of a bimodule, passed in the module's place
    as the first argument of `boundary_matrix` and `coboundary_matrix`.

    `left`/`right` are the module's actions of the letters of Abar and
    `mult` their product table through pi, where a bimodule has those of
    every basis element and the algebra's table.  The matrices are cached in
    the object's own `_cache`: build one per query and drop it, so
    nothing cached on the module depends on it.  Only their ranks are
    kept on the module (`_normalized_dim`); class spaces take a bimodule.
    """

    __slots__ = ("field", "dim", "left", "right", "mult", "_cache")

    def __init__(self, module):
        letters, self.mult = _normalized_mult(module.algebra)
        self.field = module.field
        self.dim = module.dim
        self.left = [module.left[i] for i in letters]
        self.right = [module.right[i] for i in letters]
        self._cache = {}


def _faces(left, right, mult, fld, r, n):
    """The matrix of b_n on N (x) L^{(x)n}, N of dimension r, L the
    letters of `mult`, left[a] and right[a] the actions of letter a on N.

    The interior faces of a tuple are found once, from its rank, and
    merged into one dict, which each module index shifts by x d^(n-1) in
    one comprehension.  The two outer faces are then added from lists
    per letter and module index, built once per call with the last
    face's sign folded in.  A zero coefficient stores nothing, and no
    column holds a zero.
    """
    d = len(mult)
    block, rest = d ** n, d ** (n - 1)
    add, mul = fld.add, fld.mul
    signs = (fld.one, fld.neg(fld.one))

    def scaled(entries, sign, place=1):
        return [(l * place, c) for l, v in entries if (c := mul(sign, v))]

    # interior face i: the letter products times (-1)^i, and the place
    # value of the contracted letter in the target tuple
    tables = [[[scaled(entry.items(), sign) for entry in row] for row in mult] for sign in signs]
    interior = [(tables[i % 2], d ** (n - i - 1)) for i in range(1, n)]
    # outer faces: firsts[a][x] and lasts[a][x] hold (y d^(n-1), coefficient)
    # for each term y of letter a acting on module index x
    firsts = [[scaled(col.items(), signs[0], rest) for col in a.cols] for a in right]
    lasts = [[scaled(col.items(), signs[n % 2], rest) for col in a.cols] for a in left]
    cols = [None] * (r * block)
    for k, w in enumerate(tuples(d, n)):
        terms = {}
        for i, (table, low) in enumerate(interior, 1):
            base = k // (low * d * d) * low * d + k % low
            for l, v in table[w[i - 1]][w[i]]:
                t = base + l * low
                s = terms.get(t)
                if s is None:
                    terms[t] = v
                elif s := add(s, v):
                    terms[t] = s
                else:
                    del terms[t]
        terms = terms.items()
        first, last = firsts[w[0]], lasts[w[-1]]
        tail, head = k % rest, k // d  # the ranks of w[1:] and w[:-1]
        for x in range(r):
            base = x * rest
            col = {base + t: v for t, v in terms}
            for y, v in first[x]:
                t = y + tail
                s = col.get(t)
                if s is None:
                    col[t] = v
                elif s := add(s, v):
                    col[t] = s
                else:
                    del col[t]
            for y, v in last[x]:
                t = y + head
                s = col.get(t)
                if s is None:
                    col[t] = v
                elif s := add(s, v):
                    col[t] = s
                else:
                    del col[t]
            cols[x * block + k] = col
    return SparseMat(r * rest, r * block, fld, cols)


def boundary_matrix(N, n):
    """Matrix of b_n : C_n(A, N) -> C_{n-1}(A, N).  Requires n >= 1."""
    if n < 1:
        raise DegreeError("boundary starts in degree 1")
    _guard(N, n, "homology")
    return config.cached(N, ("boundary", n),
                         lambda: _faces(N.left, N.right, N.mult, N.field, N.dim, n))


def coboundary_matrix(M, m):
    """Matrix of delta_m : C^m(A, M) -> C^{m+1}(A, M).  Requires m >= 0."""
    if m < 0:
        raise DegreeError("cochains start in degree 0")
    _guard(M, m, "cohomology")
    return config.cached(M, ("coboundary", m), lambda: _dual_faces(M, m))


def _guard(M, n, kind):
    """Refuse b_n or delta_n, by the larger of its two spaces, before it
    is built or looked up."""
    d = len(M.mult)
    if kind == "homology":
        config.guard(M.dim * max(d ** n, d ** (n - 1)), "a chain space")
    else:
        config.guard(max(d ** n, d ** (n + 1)) * M.dim, "a cochain space")


def _dual_faces(M, m):
    """delta_m as b_{m+1} on M*, whose chain (j; w) is the cochain
    rank(w)*r + j; the actions of M* are cached on the module with its
    differentials."""
    fld = M.field
    d, r = len(M.mult), M.dim
    actions = config.cached(M, "dual", lambda: ([a.transpose() for a in M.right],
                                                [a.transpose() for a in M.left]))
    dual = _faces(*actions, M.mult, fld, r, m + 1).cols
    block, rest = d ** (m + 1), d ** m
    cols = [dict() for _ in range(rest * r)]
    target = [cols[w * r + j] for j in range(r) for w in range(rest)]
    for row in range(block * r):
        u, y = divmod(row, r)
        for idx, v in dual[y * block + u].items():
            target[idx][row] = v
    return SparseMat(block * r, rest * r, fld, cols)


def differential(M, n, kind):
    """b_n (kind "homology") or delta_n (kind "cohomology"), and the zero
    map past either end of the complex: b_0 : C_0 -> 0 and
    delta_{-1} : 0 -> C^0."""
    if kind == "homology":
        return boundary_matrix(M, n) if n else SparseMat.zero(0, M.dim, M.field)
    return coboundary_matrix(M, n) if n >= 0 else SparseMat.zero(M.dim, 0, M.field)


def _touching(degree, kind):
    """The degrees of the differentials leaving and entering the degree
    that exist, the one touching degree + 1 first: its guard covers the
    larger space, so a refusal precedes work."""
    step = -1 if kind == "homology" else 1  # the degree of the differential
    return [k for k in sorted({degree, degree - step}, reverse=True) if k >= 0 and k + step >= 0]


def _normalized_dim(module, degree, kind, cx=None):
    """dim H in the degree from the normalized complex `cx` of the module
    (a fresh one by default): r (d-1)^n less the ranks of the two
    normalized differentials touching it.  Each rank is kept on the module
    as ("normalized rank", kind, k), so it is computed once per module
    content, for dimension queries and class spaces alike."""
    if cx is None:
        cx = Normalized(module)
    ranks = [config.cached(module, ("normalized rank", kind, k),
                           lambda k=k: rank(differential(cx, k, kind)))
             for k in _touching(degree, kind)]
    return cx.dim * len(cx.mult) ** degree - sum(ranks)


def _class_subquotient(module, degree, kind):
    """Z / B in the given degree of the chain or cochain complex, or None
    when it is zero.

    A bimodule asks the normalized complex for the dimension first.  When
    it is 0, B = Z and nothing is eliminated or assembled here; the class
    space stands for it with a `ZeroSubquotient` (see `_class_space`).
    Otherwise Z is the null space of the differential leaving the degree,
    eliminated once by `Echelon.null_space`, and B is the image of the
    one entering it, each the zero map past the end of the complex; the
    number of classes must equal the normalized dimension, or
    InclusionViolation.
    """
    dim = _normalized_dim(module, degree, kind)
    if dim == 0:
        return None
    step = -1 if kind == "homology" else 1  # the degree of the differential
    B = differential(module, degree - step, kind)
    space = SubquotientSpace(Echelon.null_space(differential(module, degree, kind)), B)
    if space.dim != dim:
        raise InclusionViolation(
            f"{kind} degree {degree}: {space.dim} classes on the standard complex, "
            f"{dim} on the normalized one")
    return space


class ClassSpace:
    """H_n(A, N) (kind "homology") or H^n(A, N) (kind "cohomology") with
    canonical class coordinates, on the standard complex."""

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

    def classes(self, vecs):
        """The matrix whose column k is the canonical coordinates of the
        class of the (co)cycle vecs[k]."""
        return SparseMat(self.dim, len(vecs), self.module.field,
                         [self.space.coordinates(v) for v in vecs])

    def representative(self, k):
        return self.space.representative(k)

    def lift(self, coords):
        return self.space.lift(coords)

    def __repr__(self):
        script = "_" if self.kind == "homology" else "^"
        return f"<H{script}{self.degree}({self.module!r}) dim={self.dim}>"


def _class_space(module, degree, kind):
    """The class space of the module in the degree, its subquotient kept
    on the module under (kind, degree).

    Only module-free facts are cached: a ClassSpace, or a zero space
    bound to the module to assemble its outgoing differential, would
    point back at the module, and the cycle would keep every cached
    matrix alive until the cyclic garbage collector ran.  A zero space is
    kept as None, and each request wraps it in a fresh `ZeroSubquotient`,
    which assembles that differential into the module's cache when a
    vector is first tested; the ClassSpace holding it holds the module
    anyway.
    """
    if degree < 0:
        raise DegreeError(f"{kind} degree must be nonnegative")
    # refuse what the standard route would build, before the cache lookup
    # and before any normalized work: the differential touching degree + 1
    # has the larger space
    _guard(module, _touching(degree, kind)[0], kind)
    space = config.cached(module, (kind, degree),
                          lambda: _class_subquotient(module, degree, kind))
    if space is None:
        space = ZeroSubquotient(module.field, module.dim * len(module.mult) ** degree,
                                partial(differential, module, degree, kind))
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
    """dim H_n(A, N) (kind "homology") or dim H^n(A, N) ("cohomology") for
    n = 0..up_to, by rank counting on the normalized complex.

    Each degree is `_normalized_dim`, whose ranks are kept on the module
    and shared with the class spaces, which ask it for their dimension:
    each differential is eliminated once per module content, whichever
    asks first.  No class coordinates are built, so the smaller complex
    serves (class spaces stay on the standard complex, see `ClassSpace`).
    One `Normalized` serves the whole query, so each of its differentials
    is assembled once.  Every degree with both differentials checks that
    their composite vanishes, in place of the B <= Z check a subquotient
    makes, and raises InclusionViolation if it does not.
    """
    if up_to < 0:
        raise DegreeError(f"the largest {kind} degree must be nonnegative")
    cx = Normalized(module)
    # refuse before any work the largest space either kind builds: Cbar_{up_to+1}
    # (b_{up_to+1} or delta^{up_to}), or Cbar_0 when Abar has no letters
    what = "chain" if kind == "homology" else "cochain"
    config.guard(cx.dim * max(len(cx.mult), 1) ** (up_to + 1),
                 f"degree {up_to + 1} of the normalized {what} complex")
    step = -1 if kind == "homology" else 1  # the degree of the differential
    for n in range(1, up_to + 1):
        if not (differential(cx, n, kind) @ differential(cx, n - step, kind)).is_zero():
            raise InclusionViolation(
                f"{kind} degree {n}: the composite of the normalized "
                f"differentials is not zero")
    return [_normalized_dim(module, n, kind, cx) for n in range(up_to + 1)]


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
    v = coerce_vector(M.field, vec, M.dim)
    for s in range(M.algebra.dim):
        if M.left[s].matvec(v) != M.right[s].matvec(v):
            raise NotInvariant(
                f"basis element {s} does not commute with the given vector"
            )
    return v


# -- action of the center ----------------------------------------------

def on_classes(src, tgt, mat, low):
    """The matrix that `on_slots(mat, ., low)` induces from the class
    coordinates of `src` to those of `tgt`: column k is the class of the
    image of representative k."""
    return tgt.classes([on_slots(mat, src.representative(k), low) for k in range(src.dim)])


def central_action(cs, z):
    """Matrix of the action of central z on the canonical coordinates of a
    class space.  z acts through the module slot of each (co)chain."""
    if not cs.module.algebra.is_central(z):
        what = "chain" if cs.kind == "homology" else "cochain"
        raise NotCentral(f"{what} action is only defined for central elements")
    low = module_slot(cs.module, cs.degree, cs.kind)
    return on_classes(cs, cs, cs.module.left_action(z), low)
