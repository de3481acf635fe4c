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

Coboundary of the cochain (w; j) sending w = (a_1..a_m) to e_j, with
(u) |-> x the cochain sending the tuple u to x and every other to 0:

    sum_a (a, a_1..a_m) |-> a.e_j
    + sum_{i=1}^m (-1)^i sum_{b, c} v (a_1.. b, c ..a_m) |-> e_j,
          where e_b e_c = v e_{a_i} + ...
    + (-1)^(m+1) sum_a (a_1..a_m, a) |-> e_j.a

The coface loop (`_coface_loop`) assembles every differential: delta^m
column by column, and b_n, with the bar differential of `cap`, as its
transpose on the dual actions (`_faces`).  `_coboundaries` applies
delta^m to a few sparse cochains without assembling it, adding each
entry's column; both read the cofaces of a tuple off the same tables
(`_coface_tables`), in the cochain layout of the module.
Homology and cohomology are presented as subquotients with canonical
coordinates, so equal classes get equal coordinate tuples no matter how
they were found.

All normalized work is cohomology, on the normalized complex with
r (d-1)^n coordinates in degree n (see `Normalized`): of M for
cohomology, and of M* (`_dual`) for homology, since deltabar^n on M* is
the transpose of bbar_{n+1} on M, so its cocycles are the homology
functionals of M.  The ranks of the coboundaries are kept on that
module, where dimension queries (`class_dims`) and class spaces share
them.  A dimension query finds them in one walk up the complex, ranking
each coboundary only on the columns off the image of the one before it,
after certifying that it kills that image (`SparseMat.kills`, which
tests the composite column by column and never builds it); a class space
ranks the two touching its degree the same way, and its normalized
classes are the null space of the outgoing one on those columns
(`_normalized_classes`).
Class spaces, and everything built on them (cap products, connecting
maps, the identity checks), stay on the standard complex, because their
coordinates are promised canonical there and no simple chain map carries
normalized chain classes back.  A zero space eliminates nothing there:
B = Z, the outgoing differential is assembled only to test a vector
(`linalg.ZeroSubquotient`), and the module keeps nothing but None for
it.  A nonzero space is built as cohomology too, of M or M*: only
delta^{n-1} of that module is assembled, and the normalized classes,
pulled back along pi and each certified a cocycle exactly, extend its
image to the cocycles; for homology both are read back as annihilators
in the chain layout of M (see `_class_subquotient`).  Both
complexes come out of the same coface loop, which reads the letters of
the tensor slots off the first argument of the differential: a bimodule
and a `Normalized` each expose the letters' actions on the module slot
(`left`, `right`) and their product table (`mult`).

Every map between class spaces (pushforwards, the central action,
connecting maps, the cap product with a class) is a `SparseMat` on
canonical coordinates, read off by one `ClassSpace.classes`.
"""

from functools import partial
from itertools import product

from . import config
from .bimodules import Bimodule, commutator_subspace
from .errors import DegreeError, InclusionViolation, NotCentral, NotInvariant
# kernel_basis is not called here; perfbench/test_perfbench.py checks that
# the tracer rewraps this binding
from .linalg import (  # noqa: F401
    Echelon, SparseMat, SubquotientSpace, ZeroSubquotient, acc, axpy, coerce_vector,
    image_basis, kernel_basis, on_slots, subquotient)


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
# through pi: A -> Abar, so the same coface loop builds both.


def _normalized_mult(A):
    """(letters, pi, mult): the basis indices that span Abar, the matrix of
    pi: A -> Abar, with rows keyed by letter position, and the product
    table of pi(e_a e_b), keyed likewise.

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
        pi = SparseMat(len(letters), A.dim, fld, [
            {pos[i]: fld.one} if i != k else
            {pos[j]: fld.mul(scale, v) for j, v in A.unit.items() if j != k}
            for i in range(A.dim)])
        mult = []
        for i in letters:
            row = []
            for j in letters:
                prod = {}
                for l, v in A.mult[i][j].items():
                    axpy(prod, v, pi.cols[l], fld)
                row.append(prod)
            mult.append(row)
        return letters, pi, mult
    return config.cached(A, "normalized", build)


def _pullback(module, vec, degree):
    """The standard cochain vec o pi^{(x)n} for a sparse vec on the
    normalized ones: the transpose of pi on each tensor slot, one
    `on_slots` per slot from the right.  When the unit is a basis vector,
    pi(e_k) = 0 and an entry has one image; otherwise a letter is reached
    through e_k too.
    """
    pi = _normalized_mult(module.algebra)[1]
    back = pi.transpose()
    for k in range(degree):
        vec = on_slots(back, vec, module.dim * pi.ncols ** k)
    return vec


class Normalized:
    """The normalized complex of a bimodule, passed in the module's place
    as the first argument of `coboundary_matrix`; nothing asks it for b_n,
    as normalized homology is the cohomology of the dual module.

    `left`/`right` are the module's actions of the letters of Abar and
    `mult` their product table through pi, where a bimodule has those of
    every basis element and the algebra's table; `label` names the complex
    in a refusal as a bimodule's names the module.  The matrices are cached in
    the object's own `_cache`: build one per query and drop it, so
    nothing cached on the module depends on it.  Only the ranks of its
    coboundaries are kept, on the module.
    """

    __slots__ = ("field", "dim", "left", "right", "mult", "label", "_cache")

    def __init__(self, module):
        letters, _, self.mult = _normalized_mult(module.algebra)
        self.field = module.field
        self.label = f"the normalized complex of {module.label or 'bimodule'}"
        self.dim = module.dim
        self.left = [module.left[i] for i in letters]
        self.right = [module.right[i] for i in letters]
        self._cache = {}


def _faces(left, right, mult, fld, r, n):
    """The matrix of b_n on N (x) L^{(x)n}, N of dimension r, L the
    letters of `mult`, left[a] and right[a] the actions of letter a on N.

    b_n on N is the transpose of delta^{n-1} on N* = Hom_k(N, k), since
    C^n(A, N*) = Hom_k(C_n(A, N), k) (Cartan and Eilenberg, Homological
    Algebra, ch. IX): N* acts on the left by the transposed right action
    of N, and on the right by the transposed left one.  The coface loop's
    entry at row (u; y), column (w; x) is written to column (y; u), row
    (x; w) here, in the chain layout; like it, no column holds a zero.
    """
    d = len(mult)
    block, rest = d ** n, d ** (n - 1)
    dual = _coface_loop([a.transpose() for a in right], [a.transpose() for a in left],
                        mult, fld, r, n - 1)
    # by_row[rank(u)*r + y] is column (y; u) of b_n
    by_row = [{} for _ in range(block * r)]
    for c, col in enumerate(dual.cols):
        w, x = divmod(c, r)
        row = x * rest + w
        for t, v in col.items():
            by_row[t][row] = v
    return SparseMat(r * rest, r * block, fld, [col for y in range(r) for col in by_row[y::r]])


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
    return config.cached(M, ("coboundary", m),
                         lambda: _coface_loop(M.left, M.right, M.mult, M.field, M.dim, m))


def _guard(M, n, kind):
    """Refuse b_n or delta_n, by the larger of its two spaces, before it
    is built or looked up.  The message names that space by its degree
    and by the module's label ("bimodule" when it has none)."""
    d = len(M.mult)
    what, low, high = ("chain", n - 1, n) if kind == "homology" else ("cochain", n, n + 1)
    degree = high if d ** high >= d ** low else low
    config.guard(M.dim * d ** degree,
                 f"a {what} space in degree {degree} of {getattr(M, 'label', None) or 'bimodule'}")


def _dual(M):
    """M* = Hom_k(M, k) as a bimodule, cached on M: its left action is the
    transposed right action of M and its right action the transposed left
    one.  Its cochains carry M's homology: its normalized classes, and the
    coboundaries and cocycles whose annihilators are M's boundaries and
    cycles; on its chains the cocycles of M are functionals.

    Its cache is its own, not its twins': a self-dual M would otherwise
    hold its own cache.  It keeps normalized ranks and the coboundaries
    of M's nonzero homology class spaces, never its own dual, which would
    be a twin of M and close a cycle of caches."""
    def build():
        dual = Bimodule(M.algebra, M.dim, [a.transpose() for a in M.right],
                        [a.transpose() for a in M.left], label=f"{M.label or 'bimodule'}*")
        dual._cache = {}
        return dual
    return config.cached(M, "dual module", build)


def _coface_tables(left, right, mult, fld, r, m):
    """The cofaces of delta^m on Hom(L^{(x)m}, M), M of dimension r, L the
    letters of `mult`, left[a] and right[a] the actions of letter a on M,
    as row offsets in the cochain layout: (slots, firsts, lasts).

    slots[i-1] = (table, low) is slot i (1..m) of a tuple w, its letter at
    place value low = d^(m-i): table[l] lists, for each product e_a e_b
    with a term v e_l, v != 0, the row offset of the pair (a, b) in that
    slot and (-1)^i v.  firsts[j] and lasts[j] hold the row offsets of
    a.e_j at (a, w) and of e_j.a at (w, a), less those of w, with the
    coefficient and the last coface's sign (-1)^(m+1).  No list holds a
    zero coefficient.
    """
    d = len(mult)
    mul = fld.mul
    grouped = [[] for _ in range(d)]
    for a, row in enumerate(mult):
        for b, entry in enumerate(row):
            for l, v in entry.items():
                grouped[l].append((a * d + b, v))
    signs = (fld.one, fld.neg(fld.one))
    slots = []
    for i in range(1, m + 1):
        low, sign = d ** (m - i), signs[i % 2]
        slots.append(([[(ab * low * r, c) for ab, v in entries if (c := mul(sign, v))]
                       for entries in grouped], low))
    block, last = d ** m, fld.one if m % 2 else fld.neg(fld.one)
    firsts = [[(a * block * r + y, v) for a, act in enumerate(left)
               for y, v in act.cols[j].items() if v] for j in range(r)]
    lasts = [[(a * r + y, c) for a, act in enumerate(right)
              for y, v in act.cols[j].items() if (c := mul(last, v))] for j in range(r)]
    return slots, firsts, lasts


def _coface_loop(left, right, mult, fld, r, m):
    """The matrix of delta^m on Hom(L^{(x)m}, M), the arguments as for
    `_coface_tables`.

    Column (w; j), the cochain sending the tuple w to e_j, at rank(w)*r + j,
    is written directly from its cofaces (see the module docstring).  The
    interior cofaces of w, the tuples that contract to w at some slot, are
    found once per tuple and merged into one dict of row offsets, which
    each module index j shifts by j in one comprehension.  The outer
    cofaces of each module index are then added.  A zero coefficient
    stores nothing, and no column holds a zero.
    """
    d = len(mult)
    block = d ** m
    add = fld.add
    slots, firsts, lasts = _coface_tables(left, right, mult, fld, r, m)
    cols = [None] * (block * r)
    for k, w in enumerate(tuples(d, m)):
        terms = {}
        for letter, (table, low) in zip(w, slots):
            base = (k // (low * d) * d * d * low + k % low) * r
            for t, v in table[letter]:
                t += base
                s = terms.get(t)
                if s is None:
                    terms[t] = v
                elif s := add(s, v):
                    terms[t] = s
                else:
                    del terms[t]
        terms = terms.items()
        head, tail = k * r, k * d * r  # the offsets of (a, w) and (w, a) less a's
        for j in range(r):
            col = {t + j: v for t, v in terms}
            for y, v in firsts[j]:
                t = y + head
                s = col.get(t)
                if s is None:
                    col[t] = v
                elif s := add(s, v):
                    col[t] = s
                else:
                    del col[t]
            for y, v in lasts[j]:
                t = y + tail
                s = col.get(t)
                if s is None:
                    col[t] = v
                elif s := add(s, v):
                    col[t] = s
                else:
                    del col[t]
            cols[head + j] = col
    return SparseMat(block * d * r, block * r, fld, cols)


def _coboundaries(M, m, cochains):
    """delta^m of each sparse cochain of M, a bimodule or a `Normalized`,
    as a sparse dict, without assembling delta^m: each entry at (w; j) adds
    its multiple of column (w; j), read off `_coface_tables` as
    `_coface_loop` reads it.
    The work is the size of those columns, never the size of either
    cochain space."""
    fld, r, d = M.field, M.dim, len(M.mult)
    mul = fld.mul
    slots, firsts, lasts = _coface_tables(M.left, M.right, M.mult, fld, r, m)
    images = []
    for psi in cochains:
        out = {}
        for c, f in psi.items():
            k, j = divmod(c, r)
            for table, low in slots:
                base = (k // (low * d) * d * d * low + k % low) * r + j
                for t, v in table[k // low % d]:
                    acc(out, base + t, mul(f, v), fld)
            for y, v in firsts[j]:
                acc(out, y + k * r, mul(f, v), fld)
            for y, v in lasts[j]:
                acc(out, y + k * d * r, mul(f, v), fld)
        images.append(out)
    return images


def differential(M, n, kind):
    """b_n (kind "homology") or delta_n (kind "cohomology"), and the zero
    map past either end of the complex: b_0 : C_0 -> 0 and
    delta_{-1} : 0 -> C^0."""
    if kind == "homology":
        return boundary_matrix(M, n) if n else SparseMat.zero(0, M.dim, M.field)
    return coboundary_matrix(M, n) if n >= 0 else SparseMat.zero(M.dim, 0, M.field)


def _normalized_dim(module, degree):
    """dim H^n of the normalized cochain complex of the module: r (d-1)^n
    less the kept ranks of the coboundaries touching degree n, or None
    while one of them is not kept."""
    ranks = [module._cache.get(("normalized rank", "cohomology", k))
             for k in range(max(degree - 1, 0), degree + 1)]
    if None in ranks:
        return None
    return module.dim * (len(module.mult) - 1) ** degree - sum(ranks)


def _class_subquotient(module, degree, kind):
    """Z / B in the given degree of the chain or cochain complex, or None
    when it is zero.

    Both kinds are the cohomology of the owner, M, or M* for homology.
    The h normalized classes come first (`_normalized_classes`).  When h
    is 0, B = Z and nothing is assembled here; the class space stands for
    it with a `ZeroSubquotient` (see `_class_space`).  Otherwise only
    delta^{n-1} of the owner is assembled: B^n is its image, and Z^n the
    span of B^n and the h classes pulled back along pi
    (`Echelon.extend`); delta^n is never built.  For homology the cochain
    (w; j) of M* is the functional on the chain (j; w) of M, and with
    C^n(A, M*) = Hom_k(C_n(A, M), k) (Cartan and Eilenberg, Homological
    Algebra, ch. IX) Z_n = Ann B^n(M*) and B_n = Ann Z^n(M*): each vector
    is relabelled to the chain layout, columns reversed, and both
    echelons are read back (`Echelon.annihilator`).
    Two certificates raise InclusionViolation: each pulled-back cocycle
    psi of the owner must have delta^n psi = 0, checked exactly over the
    cofaces of its support, off the tables that assemble delta^n
    (`_coboundaries`), and the cocycles must add h pivots to B^n.
    """
    owner = module if kind == "cohomology" else _dual(module)
    classes = _normalized_classes(owner, degree, kind)
    if not classes:
        return None
    cocycles = [_pullback(owner, v, degree) for v in classes]
    what = "functional" if kind == "homology" else "cocycle"
    for j, image in enumerate(_coboundaries(owner, degree, cocycles)):
        if image:
            raise InclusionViolation(
                f"{kind} degree {degree}: the pulled-back normalized {what} {j} "
                f"is not a cocycle")
    into = differential(owner, degree - 1, "cohomology")
    vecs = into.cols
    if kind == "homology":
        # (w; j) at rank(w)*r + j goes to j*d^n + rank(w), then c -> N-1-c
        r, block = module.dim, len(module.mult) ** degree
        last = r * block - 1
        vecs, cocycles = ([{last - t % r * block - t // r: v for t, v in psi.items()}
                           for psi in group] for group in (vecs, cocycles))
    boundaries = Echelon(module.field, list(vecs), into.nrows)
    cycles = boundaries.extend(cocycles)
    if kind == "homology":
        cycles, boundaries = boundaries.annihilator(), cycles.annihilator()
    found, dim = len(cycles.pivots) - len(boundaries.pivots), _normalized_dim(owner, degree)
    if found != dim:
        raise InclusionViolation(
            f"{kind} degree {degree}: {found} classes on the standard complex, "
            f"{dim} on the normalized one")
    return SubquotientSpace(cycles, boundaries)


def _normalized_classes(module, degree, kind):
    """A basis of H^n of the normalized cochain complex of the module, as
    sparse cocycles on Cbar^n, or [] when it is zero.  The ranks of the
    coboundaries into and out of degree n are kept on the way.

    A space whose kept ranks say zero eliminates nothing.  Otherwise
    `image_basis(into)` gives the coboundaries B a basis with distinct
    leads L, and every cochain is b + u, uniquely, with b in B and u off
    L.  Once out is certified to kill that basis (by `_rank_walk`, one
    step long, unless its rank is kept: it was certified then), Z = B +
    ker(out off L): the null space of out on its columns off L is a space
    of classes, and out has the same rank there as on all its columns.
    That rank is taken first, and the null space (`Echelon.null_space`)
    only when the rank leaves a kernel.
    """
    if _normalized_dim(module, degree) == 0:
        return []
    cx = Normalized(module)
    into, out = (differential(cx, k, "cohomology") for k in (degree - 1, degree))
    found, leads, image = _image(into, None)
    if degree:
        module._cache.setdefault(("normalized rank", "cohomology", degree - 1), found)
    if ("normalized rank", "cohomology", degree) not in module._cache:
        _rank_walk(module, kind, [(degree, out)], image, leads)
    if _normalized_dim(module, degree) == 0:
        return []
    off = [j for j in range(out.ncols) if j not in leads]
    null = Echelon.null_space(SparseMat(out.nrows, len(off), cx.field, [out.cols[j] for j in off]))
    return [{off[c]: v for c, v in row.items()} for row in null.rows]


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
    # refuse before the cache lookup and before any normalized work by
    # the size of b_{n+1} or delta^n, which no class space builds any
    # more (the pulled-back classes stand in for it): a lowered cap keeps
    # refusing what it refused, until a size model of what each command
    # builds replaces this guard ("Refuse before work" in ROADMAP.md)
    _guard(module, degree + 1 if kind == "homology" else degree, kind)
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
    n = 0..up_to, by rank counting on the normalized cochain complex of
    M, or of M* for homology.

    The ranks come from one walk up the coboundaries, deltabar^0 to
    deltabar^{up_to}.  Each coboundary d after the first must kill a
    basis of the image of the one before it, with leads L.  Then d has the
    same rank on its columns off L as on all of them, since the unit
    vectors off L and the basis form a triangular basis of the space, so
    only those columns are eliminated.  The certificate is `d.kills` on
    the basis, or on the columns it came from when they have fewer
    nonzeros (over F_p rref rows can be denser): each column of the
    composite is summed without being built and tested once.  By
    induction each basis spans the full image, so it raises
    InclusionViolation exactly when two consecutive differentials do not
    compose to zero, in every degree 1..up_to, in place of the B <= Z
    check a subquotient makes.

    The ranks are kept on the module, where class spaces read them too
    (`_normalized_classes`), so each coboundary is eliminated once per
    module content, whichever asks first.  The walk eliminates no rank it
    finds there, and certifies the next pair on all its columns.  One
    `Normalized` serves the whole query, so each of its coboundaries is
    assembled once.
    """
    if up_to < 0:
        raise DegreeError(f"the largest {kind} degree must be nonnegative")
    # refuse before any work the largest space the walk builds: Cbar^{up_to+1},
    # or Cbar^0 when Abar has no letters
    what = "chain" if kind == "homology" else "cochain"
    config.guard(module.dim * max(len(module.mult) - 1, 1) ** (up_to + 1),
                 f"degree {up_to + 1} of the normalized {what} complex of "
                 f"{module.label or 'bimodule'}")
    owner = module if kind == "cohomology" else _dual(module)
    cx = Normalized(owner)
    _rank_walk(owner, kind, ((k, differential(cx, k, "cohomology")) for k in range(up_to + 1)))
    return [_normalized_dim(owner, n) for n in range(up_to + 1)]


def _rank_walk(module, kind, steps, image=None, leads=None):
    """Keep the rank of each coboundary d of `steps`, pairs (k, d) in
    increasing degree, on the module as ("normalized rank", "cohomology",
    k), after certifying by `d.kills(image)` that d is zero on `image`,
    the image of the d before it, and a failure names `kind`, the
    user's.  `image` and `leads`, the leads of its basis, start as those
    of the coboundary before the first, when given."""
    for k, d in steps:
        if image is not None and not d.kills(image):
            raise InclusionViolation(
                f"{kind} degree {k}: the composite of the normalized "
                f"differentials is not zero")
        key = ("normalized rank", "cohomology", k)
        if key in module._cache:
            image, leads = d, None
        else:
            image = None  # drop the previous basis before the next elimination
            module._cache[key], leads, image = _image(d, leads)


def _image(d, leads):
    """(rank, leads, image) of d on its columns off `leads` (all of them
    when None): the rank, the leads of an image basis, and a matrix whose
    columns span the image, the basis or those columns, whichever has
    fewer nonzeros."""
    cols = d.cols if leads is None else [c for j, c in enumerate(d.cols) if j not in leads]
    basis = image_basis(SparseMat(d.nrows, len(cols), d.field, cols))
    vecs = list(basis.values())
    if sum(map(len, vecs)) >= sum(map(len, cols)):
        vecs = cols
    return len(basis), set(basis), SparseMat(d.nrows, len(vecs), d.field, vecs)


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
