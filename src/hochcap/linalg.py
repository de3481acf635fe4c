"""Exact sparse linear algebra over Q and F_p.

Everything downstream (differentials, homology, connecting maps) reduces
to the handful of operations here: canonical row reduction, kernels,
deterministic solves, and subquotients with canonical coset coordinates.
All arithmetic is exact; no floats anywhere.

Matrices are stored column-major as dicts {row: value} because that is
the direction in which differentials are assembled (image of each basis
vector).  Vectors are sparse dicts {index: value}; the empty dict is the
zero vector.
"""

from .errors import InclusionViolation, NotACycle
from .kernels import build_rref


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

    def triplets(self):
        out = []
        for j in range(self.ncols):
            for i in sorted(self.cols[j]):
                out.append((i, j, self.cols[j][i]))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

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
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        out = SparseMat(self.nrows, other.ncols, self.field)
        for j, col in enumerate(other.cols):
            for k, v in col.items():
                axpy(out.cols[j], v, self.cols[k], self.field)
        return out

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


def reduce_against(pivots, rows, v, field, record=None):
    """Reduce sparse vector v against reduced rows with the given pivots.

    Mutates and returns v.  If `record` is a dict, the coefficient used at
    each pivot is stored there (these are the coordinates of the reduced
    part of v in the row basis).
    """
    for k, p in enumerate(pivots):
        f = v.get(p)
        if f is None or f == field.zero:
            continue
        if record is not None:
            record[p] = f
        axpy(v, field.neg(f), rows[k], field)
    return v


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


def rref(m):
    """Reduced row echelon form.  Returns (SparseMat, pivot columns).

    The result has the same shape as the input with zero rows at the
    bottom; it is the canonical representative of the row space.
    """
    pivots, rows, _ = build_rref(m.field, m.rows_view(), m.ncols)
    out = SparseMat(m.nrows, m.ncols, m.field)
    for i, row in enumerate(rows):
        for c, v in row.items():
            out.cols[c][i] = v
    return out, pivots


def rank(m):
    pivots, _, _ = build_rref(m.field, m.rows_view(), m.ncols)
    return len(pivots)


def kernel_basis(m):
    """Canonical basis of the null space, one column per free column.

    The basis vector for free column f has a 1 at f and -R[i, f] at the
    i-th pivot column, where R is the rref of m.  Columns are ordered by
    increasing free column, which makes the result deterministic.
    """
    fld = m.field
    pivots, rows, _ = build_rref(fld, m.rows_view(), m.ncols)
    piv_set = set(pivots)
    cols = []
    for f in range(m.ncols):
        if f in piv_set:
            continue
        col = {f: fld.one}
        for i, p in enumerate(pivots):
            v = rows[i].get(f)
            if v is not None and v != fld.zero:
                col[p] = fld.neg(v)
        cols.append(col)
    return SparseMat.from_columns(m.ncols, fld, cols)


def solve(m, b):
    """One particular solution of m x = b, or None if inconsistent.

    Deterministic: free variables are set to zero, so x is the solution
    read off the rref of the augmented matrix.  b may be a dict or a
    sequence; the result is a sparse dict.
    """
    fld = m.field
    bvec = coerce_vector(fld, b, m.nrows)
    aug = m.ncols
    rows = m.rows_view()
    for i, v in bvec.items():
        rows[i][aug] = v
    pivots, out_rows, defects = build_rref(
        fld, rows, aug + 1, pivot_limit=aug, stop_on_defect=True
    )
    if defects:
        return None
    x = {}
    for i, p in enumerate(pivots):
        v = out_rows[i].get(aug)
        if v is not None and v != fld.zero:
            x[p] = v
    return x


class Solver:
    """Factors a matrix once for repeated exact solves against it.

    Row-reduces [m | I]; a solve is then two sparse dot passes.  Free
    variables are zero, matching `solve`.
    """

    def __init__(self, m):
        self.m = m
        self.field = m.field
        aug = m.ncols
        rows = m.rows_view()
        for i in range(m.nrows):
            rows[i][aug + i] = m.field.one
        pivots, out_rows, defects = build_rref(
            m.field, rows, aug + m.nrows, pivot_limit=aug
        )
        self.pivots = pivots
        self.exprs = [
            {c - aug: v for c, v in row.items() if c >= aug} for row in out_rows
        ]
        # defect rows are supported on the augmentation only: combinations
        # of the original rows that vanish, i.e. the consistency conditions
        self.defect_exprs = [
            {c - aug: v for c, v in row.items() if c >= aug} for row in defects
        ]

    def _dot(self, expr, bvec):
        fld = self.field
        acc = fld.zero
        for i, v in expr.items():
            w = bvec.get(i)
            if w is not None:
                acc = fld.add(acc, fld.mul(v, w))
        return acc

    def solve(self, b):
        fld = self.field
        bvec = b if isinstance(b, dict) else coerce_vector(fld, b, self.m.nrows)
        for expr in self.defect_exprs:
            if self._dot(expr, bvec) != fld.zero:
                return None
        x = {}
        for k, p in enumerate(self.pivots):
            v = self._dot(self.exprs[k], bvec)
            if v != fld.zero:
                x[p] = v
        return x

    def solve_matrix(self, rhs):
        """Solve m X = rhs column by column; None if any column fails."""
        cols = []
        for j in range(rhs.ncols):
            x = self.solve(rhs.cols[j])
            if x is None:
                return None
            cols.append(x)
        return SparseMat.from_columns(self.m.ncols, self.field, cols)


# -- subquotients ------------------------------------------------------


class SubquotientSpace:
    """span(Z) / span(B) with canonical coordinates.

    Built from the rrefs of the two column spaces.  The boundary pivot
    set is contained in the cycle pivot set; the difference (the "free"
    pivots, in increasing order) indexes the canonical coordinates.  The
    canonical representative of generator k is the cycle rref row at the
    k-th free pivot: it already has zeros at every boundary pivot, so its
    coset coordinates are the k-th unit vector.
    """

    __slots__ = (
        "ambient_dim",
        "field",
        "cycle_basis",
        "boundary_basis",
        "cycle_pivots",
        "cycle_rows",
        "boundary_pivots",
        "boundary_rows",
        "free_pivots",
        "_free_index",
        "dim",
    )

    def __init__(self, Z, B):
        if Z.nrows != B.nrows:
            raise ValueError("cycle and boundary matrices live in different spaces")
        fld = Z.field
        self.ambient_dim = Z.nrows
        self.field = fld
        self.cycle_basis = Z
        self.boundary_basis = B

        zp, zrows, _ = build_rref(fld, list(Z.cols), Z.nrows)
        bp, brows, _ = build_rref(fld, list(B.cols), B.nrows)
        self.cycle_pivots = zp
        self.cycle_rows = zrows
        self.boundary_pivots = bp
        self.boundary_rows = brows

        zp_set = set(zp)
        for k, row in enumerate(brows):
            if bp[k] not in zp_set:
                raise InclusionViolation(
                    f"boundary pivot {bp[k]} outside the cycle space"
                )
            rem = reduce_against(zp, zrows, dict(row), fld)
            if rem:
                raise InclusionViolation("boundary vector outside the cycle space")

        bp_set = set(bp)
        self.free_pivots = [p for p in zp if p not in bp_set]
        self._free_index = {p: k for k, p in enumerate(self.free_pivots)}
        self.dim = len(self.free_pivots)

    def coset_reduce(self, v):
        """Canonical coordinates of [v], length self.dim.

        Raises NotACycle when v is not in the cycle space.
        """
        fld = self.field
        u = coerce_vector(fld, v, self.ambient_dim)
        reduce_against(self.boundary_pivots, self.boundary_rows, u, fld)
        rec = {}
        reduce_against(self.cycle_pivots, self.cycle_rows, u, fld, record=rec)
        if u:
            raise NotACycle("vector is not in the cycle space")
        coords = [fld.zero] * self.dim
        for p, f in rec.items():
            k = self._free_index.get(p)
            if k is not None:
                coords[k] = f
        return tuple(coords)

    def is_boundary(self, v):
        coords = self.coset_reduce(v)
        return all(c == self.field.zero for c in coords)

    def representative(self, k):
        """Canonical ambient representative of generator k (sparse dict)."""
        p = self.free_pivots[k]
        i = self.cycle_pivots.index(p)
        return dict(self.cycle_rows[i])

    def lift(self, coords):
        """Ambient representative of the class with the given coordinates."""
        fld = self.field
        out = {}
        for k, c in enumerate(coords):
            c = fld.coerce(c)
            if c:
                axpy(out, c, self.representative(k), fld)
        return out

    def projection_section(self):
        """(proj, sect): the quotient map from the ambient space onto the
        canonical coordinates, and its splitting by the representatives."""
        fld = self.field
        proj = SparseMat.from_columns(self.dim, fld, [
            dict(enumerate(self.coset_reduce({t: fld.one})))
            for t in range(self.ambient_dim)
        ])
        sect = SparseMat.from_columns(
            self.ambient_dim, fld, [self.representative(k) for k in range(self.dim)]
        )
        return proj, sect

    def __repr__(self):
        return (
            f"<SubquotientSpace dim={self.dim} ambient={self.ambient_dim} "
            f"over {self.field!r}>"
        )


def subquotient(Z, B):
    """Quotient of column spaces span(Z)/span(B); raises if not nested."""
    return SubquotientSpace(Z, B)
