"""Exact sparse linear algebra over Q and F_p.

Everything downstream (differentials, homology, connecting maps) reduces
to the handful of operations here: canonical row reduction, kernels,
deterministic solves, and subquotients with canonical coset coordinates.
All arithmetic is exact; no floats anywhere.

Matrices are stored column-major as dicts {row: value} because that is
the direction in which differentials are assembled (image of each basis
vector).  Vectors are sparse dicts {index: value}; the empty dict is the
zero vector.

`on_slots` applies 1 (x) M (x) 1 to a vector over a tensor power keyed
by tuple rank, which is how every slot operator of the bar resolution
(contractions, outer multiplications, unit insertions) acts.

Every elimination but a rank produces one `Echelon`: the canonical rref
rows from `kernels.build_rref` with an index from pivot column to row.
Reducing a vector against it walks only the pivot columns in the
vector's support, so the work is the support plus the fill of the rows
used, never the rank.  A null space is `Echelon.null_space`: the rows
eliminated with the columns reversed, read back as the rref of the
kernel by `Echelon.annihilator` (its docstring says why); `kernel_basis`
is that rref with the column order reversed.
`Solver` keeps the augmentation part of one elimination as two
matrices, a section and the conditions for a solution to exist, one row
per condition, so a solve, of one right-hand side or of a whole matrix
of them, is a check that the conditions vanish on it and one product.
`SparseMat.kills` makes every such zero check, a d o d certificate too,
without building the product.

`rank` counts the vectors of `image_basis`, a basis of the column space
keyed by distinct leads, from `kernels.echelon`, a forward elimination
with no canonical form.  The normalized work keeps the basis itself (see
`complexes.class_dims`).

A class space eliminates one subspace, the coboundaries, and `extend`s
it by a few vectors to the cocycles, with no second elimination of a
large matrix; for homology the two are read back as annihilators, the
cycles and the boundaries (see `complexes._class_subquotient`).
`extend` emits canonical rows, keys increasing and values in the
field's canonical form, as `build_rref` does, and a row that does not
change is shared, not copied.  `SubquotientSpace`
takes the two echelons as they are; `subquotient` eliminates the columns
of two matrices and checks that the second space lies in the first.

A subquotient known beforehand to be zero (`ZeroSubquotient`) needs
neither echelon: B = Z, so a vector has coordinates exactly when the
matrix whose null space is Z sends it to zero, one `matvec`.  It is its
dimension and that membership test, nothing more.
"""

from .errors import InclusionViolation, NotACycle
from .kernels import build_rref, echelon


class SparseMat:
    """Immutable-by-convention sparse matrix over a field.

    `cols[j]` maps row index -> nonzero value.  Do not mutate a matrix
    after handing it to anything else; build a new one instead.
    """

    __slots__ = ("nrows", "ncols", "field", "cols")

    def __init__(self, nrows, ncols, field, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.cols = cols if cols is not None else [dict() for _ in range(ncols)]

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nrows, ncols, field):
        return cls(nrows, ncols, field)

    @classmethod
    def identity(cls, n, field):
        m = cls(n, n, field)
        one = field.one
        for j in range(n):
            m.cols[j][j] = one
        return m

    @classmethod
    def from_dense(cls, field, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(nrows, ncols, field)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = field.coerce(v)
                if v != field.zero:
                    m.cols[j][i] = v
        return m

    @classmethod
    def from_columns(cls, nrows, field, columns):
        m = cls(nrows, len(columns), field)
        for j, col in enumerate(columns):
            m.cols[j] = {i: v for i, v in col.items() if v != field.zero}
        return m

    # -- access ------------------------------------------------------

    def entry(self, i, j):
        return self.cols[j].get(i, self.field.zero)

    def col(self, j):
        return self.cols[j]

    def rows_view(self):
        rows = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def to_dense(self):
        z = self.field.zero
        out = [[z] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                out[i][j] = v
        return out

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def is_zero(self):
        return all(not c for c in self.cols)

    # -- algebra -----------------------------------------------------

    def transpose(self):
        t = SparseMat(self.ncols, self.nrows, self.field)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                t.cols[i][j] = v
        return t

    def matvec(self, vec):
        """Matrix times sparse vector (dict) -> sparse dict."""
        out = {}
        for j, v in vec.items():
            axpy(out, v, self.cols[j], self.field)
        return out

    def __matmul__(self, other):
        self._check_product(other)
        out = SparseMat(self.nrows, other.ncols, self.field)
        for j, col in enumerate(other.cols):
            for k, v in col.items():
                axpy(out.cols[j], v, self.cols[k], self.field)
        return out

    def kills(self, other):
        """True when `self @ other` is zero, without building the product.

        Each column of the product is summed in plain `int`/`Fraction`
        arithmetic, with no field call and no deletion, and tested once at
        its end: over F_p an entry is zero when p divides its sum, so any
        integer representatives give the exact answer.
        """
        self._check_product(other)
        cols, p = self.cols, self.field.characteristic
        for col in other.cols:
            out = {}
            get = out.get
            for k, f in col.items():
                for i, v in cols[k].items():
                    out[i] = get(i, 0) + f * v
            if any(v % p for v in out.values()) if p else any(out.values()):
                return False
        return True

    def _check_product(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )

    def __add__(self, other):
        fld = self.field
        out = SparseMat(self.nrows, self.ncols, fld)
        for j in range(self.ncols):
            out.cols[j] = dict(self.cols[j])
            axpy(out.cols[j], fld.one, other.cols[j], fld)
        return out

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, s):
        fld = self.field
        out = SparseMat(self.nrows, self.ncols, fld)
        if s == fld.zero:
            return out
        for j in range(self.ncols):
            out.cols[j] = {i: fld.mul(s, v) for i, v in self.cols[j].items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.field == other.field
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"<SparseMat {self.nrows}x{self.ncols} over {self.field!r}, nnz={self.nnz()}>"


def acc(u, idx, v, field):
    """u[idx] += v in place on a sparse dict, dropping zeros."""
    if not v:
        return
    s = field.add(u.get(idx, field.zero), v)
    if s:
        u[idx] = s
    else:
        u.pop(idx, None)


def axpy(u, f, row, field):
    """u := u + f*row in place on sparse dicts.

    The loop body is `acc` written out inline rather than called per
    entry: this is the innermost loop of every matrix product.
    """
    if not f:
        return
    zero, add, mul = field.zero, field.add, field.mul
    for c, v in row.items():
        s = add(u.get(c, zero), mul(f, v))
        if s:
            u[c] = s
        else:
            u.pop(c, None)


def on_slots(mat, vec, low):
    """1 (x) mat (x) 1 applied to a sparse vector over a tensor power.

    Keys are tuple ranks.  mat acts on a block of consecutive slots,
    `low` is the dimension of the slots right of that block, and the
    slots left of it are whatever the quotient leaves.
    """
    fld = mat.field
    out = {}
    for u, coeff in vec.items():
        hi, lo = divmod(u, low)
        x, y = divmod(hi, mat.ncols)
        for t, v in mat.cols[y].items():
            acc(out, (x * mat.nrows + t) * low + lo, fld.mul(coeff, v), fld)
    return out


def coerce_vector(field, v, n=None):
    """Accepts a dict or a sequence; returns a clean sparse dict."""
    out = {}
    items = v.items() if isinstance(v, dict) else enumerate(v)
    for i, x in items:
        x = field.coerce(x)
        if x != field.zero:
            out[i] = x
    if n is not None:
        for i in out:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for dimension {n}")
    return out


# -- row reduction and friends ----------------------------------------


class Echelon:
    """The reduced row echelon form of a list of sparse rows.

    `rows[i]` is the fully reduced row with leading 1 at `pivots[i]`
    (increasing), `index` maps each pivot column to its row, and `ncols`
    is the dimension of the space the rows live in.
    """

    __slots__ = ("field", "ncols", "pivots", "rows", "index")

    def __init__(self, field, rows, ncols):
        self.field = field
        self.ncols = ncols
        self.pivots, self.rows = build_rref(field, rows, ncols)
        self.index = dict(zip(self.pivots, self.rows))

    @classmethod
    def null_space(cls, m):
        """The echelon of the null space of m, from one elimination: the
        rows of m with the columns relabelled c -> n-1-c, eliminated and
        read back (`annihilator`)."""
        n = m.ncols
        flipped = [dict() for _ in range(m.nrows)]
        for j, col in enumerate(m.cols):
            for i, v in col.items():
                flipped[i][n - 1 - j] = v
        return cls(m.field, flipped, n).annihilator()

    def annihilator(self):
        """The echelon, in the labels c -> ncols-1-c, of the vectors that
        every row sends to zero.

        Read back in those labels, each row of this rref R ends in a 1 at
        a column q_i, and every other entry lies left of q_i.  For each
        column f that is no q_i, e_f - sum_i R[i, f] e_{q_i} is killed by
        every row, leads with 1 at f, has its other entries only at
        q_i > f, and is zero at every other such f: together these vectors
        are a reduced row echelon basis of the annihilator, and since the
        rref is unique, they are the rows that eliminating any other basis
        of it would give.
        """
        fld, n = self.field, self.ncols
        # row i ends at q_i = n-1-pivots[i]; walking the rows backwards
        # lists each annihilator row's entries in increasing column order
        bound = {n - 1 - p for p in self.pivots}
        index = {f: {f: fld.one} for f in range(n) if f not in bound}
        for p, row in zip(reversed(self.pivots), reversed(self.rows)):
            q = n - 1 - p
            for c, v in row.items():
                if c != p:
                    index[n - 1 - c][q] = fld.neg(v)
        return Echelon._of(fld, n, index)

    @classmethod
    def _of(cls, field, ncols, index):
        """The echelon whose rows are the values of `index`, a dict from
        pivot column to row in increasing pivot order, trusted as given."""
        ech = cls.__new__(cls)
        ech.field, ech.ncols = field, ncols
        ech.pivots, ech.rows, ech.index = list(index), list(index.values()), index
        return ech

    def extend(self, vectors):
        """The echelon of the row space plus the vectors (sparse dicts).

        The vectors, reduced against the rows, are eliminated among
        themselves; each new pivot is then cleared from the rows that
        have it.  A row that has none is shared, not copied.
        """
        fld = self.field
        new = Echelon(fld, [self.reduce(dict(v)) for v in vectors], self.ncols)
        index = {}
        for p in sorted(self.pivots + new.pivots):
            row = new.index.get(p)
            if row is None:
                row = self.index[p]
                hits = [(q, row[q]) for q in new.pivots if q in row]
                if hits:
                    row = dict(row)
                    for q, f in hits:
                        axpy(row, fld.neg(f), new.index[q], fld)
                    row = _canonical(fld, row)
            index[p] = row
        return Echelon._of(fld, self.ncols, index)

    def reduce(self, v, record=None):
        """Subtract from the clean sparse v, in place, its part in the row
        space.

        Returns v.  Only the pivot columns in v's support are visited: a
        fully reduced row is zero at every other pivot, so the coefficient
        at pivot p is v's own entry there, nonzero, and one pass is exact.
        The cost is the support of v plus the fill of the rows used,
        whatever the rank.  If `record` is a dict, each coefficient is
        stored there under its pivot column.
        """
        fld, index = self.field, self.index
        for p in [c for c in v if c in index]:
            f = v[p]
            if record is not None:
                record[p] = f
            axpy(v, fld.neg(f), index[p], fld)
        return v


def _canonical(field, row):
    """A row as the kernel emits it: keys increasing, values in the
    field's canonical form (over Q an `int` wherever integral)."""
    return {c: field.coerce(v) for c, v in sorted(row.items())}


def image_basis(m):
    """A basis of the column space of m, as {lead: vector}, with distinct
    leads, in the kernel's working form (`kernels.echelon`): the columns
    are stored, the rows would be built."""
    return echelon(m.field, m.cols)


def rank(m):
    return len(image_basis(m))


def kernel_basis(m):
    """Canonical basis of the null space, one column per free column.

    The basis vector for free column f has a 1 at f and -R[i, f] at the
    i-th pivot column, where R is the rref of m, listed in that order:
    f, then the pivots increasing.  Columns are ordered by increasing
    free column.  It is the rref of the null space of m with its columns
    reversed (`Echelon.null_space`, which eliminates the rows of m as
    they stand), read back: the rows from the last, and each row's
    entries after its leading 1 from the last.
    """
    n = m.ncols
    null = Echelon.null_space(SparseMat(m.nrows, n, m.field, m.cols[::-1]))
    cols = []
    for row in reversed(null.rows):
        (f, one), *rest = row.items()
        cols.append({n - 1 - f: one, **{n - 1 - c: v for c, v in reversed(rest)}})
    return SparseMat(n, len(cols), m.field, cols)


class Solver:
    """Factors a matrix once for repeated exact solves against it.

    Row-reduces [m | I], n = m.ncols, and keeps only the augmentation
    part, as two matrices with one column per row of m.  The rows with a
    pivot below n give `section` (ncols x nrows), which sends b to the
    solution whose free variables are zero.  The other rows are supported
    on the augmentation alone; they are the rref of the left null space
    of m, one row per condition, and give `conditions`, which is zero on
    b exactly when b is in the column space of m.  A solve, of one
    right-hand side or of a whole matrix of them, checks that
    `conditions` is zero on it and is then one product by `section`.
    """

    def __init__(self, m):
        self.m = m
        self.field = fld = m.field
        aug = m.ncols
        rows = m.rows_view()
        for i in range(m.nrows):
            rows[i][aug + i] = fld.one
        ech = Echelon(fld, rows, aug + m.nrows)
        # column i of either matrix holds the entries at aug + i of each
        # row, under its pivot in section and under its position past the
        # pivots of m in conditions
        rank = sum(p < aug for p in ech.pivots)
        sect, cond = [dict() for _ in range(m.nrows)], [dict() for _ in range(m.nrows)]
        for k, (p, row) in enumerate(zip(ech.pivots, ech.rows)):
            cols, at = (sect, p) if k < rank else (cond, k - rank)
            for c, v in row.items():
                if c >= aug:
                    cols[c - aug][at] = v
        self.section = SparseMat(aug, m.nrows, fld, sect)
        self.conditions = SparseMat(len(ech.pivots) - rank, m.nrows, fld, cond)

    def solve(self, b):
        """One solution of m x = b (a dict or a sequence), or None."""
        bvec = coerce_vector(self.field, b, self.m.nrows)
        if self.conditions.matvec(bvec):
            return None
        return self.section.matvec(bvec)

    def solve_matrix(self, rhs):
        """Solve m X = rhs for every column at once; None if any column fails."""
        if not self.conditions.kills(rhs):
            return None
        return self.section @ rhs


# -- subquotients ------------------------------------------------------


class SubquotientSpace:
    """span(cycles) / span(boundaries) with canonical coordinates.

    Holds the `Echelon`s of the two subspaces, `cycles` and `boundaries`,
    and trusts that the second lies in the first: `subquotient` checks
    that for two matrices, and a class space derives one echelon from
    the other (see `complexes._class_subquotient`), so the inclusion
    holds by construction there.  Since the rref of a subspace is unique,
    the rows do not depend on how either echelon was found.  The boundary
    pivot set is contained in the cycle pivot set; the difference (the
    "free" pivots, in increasing order) indexes the canonical
    coordinates.  The canonical representative of generator k is the
    cycle rref row at the k-th free pivot: it already has zeros at every
    boundary pivot, so its coset coordinates are the k-th unit vector.

    Every reduction (the inclusion check, coset coordinates, lifts) goes
    through `Echelon.reduce`, which visits only the pivot columns in a
    vector's support, so it costs the support plus the fill of the rows
    it uses, not the rank of Z or B.
    """

    __slots__ = (
        "ambient_dim",
        "field",
        "cycles",
        "boundaries",
        "free_pivots",
        "_free_index",
        "dim",
    )

    def __init__(self, cycles, boundaries):
        self.ambient_dim = cycles.ncols
        self.field = cycles.field
        self.cycles = cycles
        self.boundaries = boundaries
        self.free_pivots = [p for p in cycles.pivots if p not in boundaries.index]
        self._free_index = {p: k for k, p in enumerate(self.free_pivots)}
        self.dim = len(self.free_pivots)

    def coset_reduce(self, v):
        """Canonical coordinates of [v], length self.dim.

        Raises NotACycle when v is not in the cycle space.
        """
        coords = self.coordinates(v)
        return tuple(coords.get(k, self.field.zero) for k in range(self.dim))

    def coordinates(self, v):
        """Canonical coordinates of [v] as a sparse dict, keys increasing.

        Raises NotACycle when v is not in the cycle space.
        """
        return dict(sorted(self._coords(coerce_vector(self.field, v, self.ambient_dim))))

    def _coords(self, u):
        """The nonzero (k, coordinate) pairs of [u]; consumes the clean dict u."""
        self.boundaries.reduce(u)
        rec = {}
        self.cycles.reduce(u, record=rec)
        if u:
            raise NotACycle("vector is not in the cycle space")
        free = self._free_index
        return [(free[p], f) for p, f in rec.items() if p in free]

    def representative(self, k):
        """Canonical ambient representative of generator k (sparse dict).

        The pivot is read first, so a k out of range raises IndexError,
        also on a `ZeroSubquotient`, which has no cycle echelon."""
        p = self.free_pivots[k]
        return dict(self.cycles.index[p])

    def lift(self, coords):
        """Ambient representative of the class with the given coordinates
        (a dict or a sequence)."""
        fld = self.field
        out = {}
        for k, c in coerce_vector(fld, coords, self.dim).items():
            axpy(out, c, self.cycles.index[self.free_pivots[k]], fld)
        return out

    def projection_section(self):
        """(proj, sect): the quotient map from the ambient space onto the
        canonical coordinates, and its splitting by the representatives."""
        fld = self.field
        proj = SparseMat.from_columns(
            self.dim, fld, [self.coordinates({t: fld.one}) for t in range(self.ambient_dim)]
        )
        sect = SparseMat.from_columns(
            self.ambient_dim, fld, [self.representative(k) for k in range(self.dim)]
        )
        return proj, sect

    def __repr__(self):
        return (
            f"<SubquotientSpace dim={self.dim} ambient={self.ambient_dim} "
            f"over {self.field!r}>"
        )


class ZeroSubquotient(SubquotientSpace):
    """A subquotient known to be zero, B = Z, without either eliminated.

    `leaving()` is a matrix whose null space is Z, built on first use.  A
    vector it sends to zero has no coordinates, one `matvec`; any other
    raises NotACycle.
    """

    __slots__ = ("_leaving",)

    def __init__(self, field, ambient_dim, leaving):
        self.field = field
        self.ambient_dim = ambient_dim
        self.free_pivots, self._free_index, self.dim = [], {}, 0
        self._leaving = leaving

    def _coords(self, u):
        if u and self._leaving().matvec(u):
            raise NotACycle("vector is not in the cycle space")
        return []


def subquotient(Z, B):
    """Quotient of column spaces span(Z)/span(B); raises if not nested."""
    if Z.nrows != B.nrows:
        raise ValueError("cycle and boundary matrices live in different spaces")
    fld = Z.field
    cycles = Echelon(fld, list(Z.cols), Z.nrows)
    boundaries = Echelon(fld, list(B.cols), B.nrows)
    for p, row in zip(boundaries.pivots, boundaries.rows):
        if p not in cycles.index:
            raise InclusionViolation(f"boundary pivot {p} outside the cycle space")
        if cycles.reduce(dict(row)):
            raise InclusionViolation("boundary vector outside the cycle space")
    return SubquotientSpace(cycles, boundaries)
