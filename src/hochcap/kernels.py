"""The row-reduction kernel.

These two elimination routines dominate the package's runtime; every
rank, kernel, solve and subquotient goes through `build_rref`.  The
output is canonical: the reduced row echelon form of a row space is
unique, pivots are always the leftmost possible, and rows come out
sorted by pivot column.

Rows are sparse dicts {column: value}.  Over Q the values entering may
be `int`s or `Fraction`s; internally each row is scaled to a primitive
integer vector (content 1), so an elimination step is integer arithmetic
plus one gcd pass instead of a gcd per entry.  The values leaving are
integer first, like `fields.Rationals`: an `int` wherever the leading
entry divides it, a `Fraction` with denominator > 1 otherwise.  Over F_p
the values are ints in [0, p).

`pivot_limit` caps the columns allowed to carry a pivot.  Rows whose
reduction is supported entirely on columns >= pivot_limit are returned in
`defects` (used by the solver: a defect means an inconsistent augmented
system).  Defect rows over Q are reported up to a nonzero scalar, which is
all their consumers need.
"""

from fractions import Fraction
from math import gcd, lcm


def build_rref(field, rows, ncols, pivot_limit=None, stop_on_defect=False):
    """Reduced row echelon form of `rows`: (pivots, rows, defects).

    out_rows[i] is the fully reduced row with leading 1 at pivots[i].
    """
    if pivot_limit is None:
        pivot_limit = ncols
    if field.kind == "Q":
        return _rref_rational(rows, pivot_limit, stop_on_defect)
    return _rref_mod_p(rows, field.p, pivot_limit, stop_on_defect)


def _content(vals):
    g = 0
    for v in vals:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _axpy_int(u, a, f, row):
    """u := a*u - f*row on integer dicts, dropping zeros."""
    if a != 1:
        for c in u:
            u[c] *= a
    for c, v in row.items():
        w = u.get(c, 0) - f * v
        if w:
            u[c] = w
        else:
            u.pop(c, None)


def _primitive(u):
    g = _content(u.values())
    if g > 1:
        for c in u:
            u[c] //= g


def _rref_rational(rows, pivot_limit, stop_on_defect):
    """Incremental rref over Q.

    rows: iterable of {col: int | Fraction}; output values are ints, or
    Fractions with denominator > 1.
    """
    pivot_of = {}          # pivot col -> index into basis
    basis = []             # primitive integer dicts
    col_rows = {}          # col -> set of basis indices whose row touches col
    defects = []

    def attach(idx, row):
        for c in row:
            col_rows.setdefault(c, set()).add(idx)

    for row in rows:
        u = {c: v for c, v in row.items() if v}
        if not u:
            continue
        dens = [v.denominator for v in u.values() if type(v) is not int]
        if dens:
            den = lcm(*dens)
            u = {c: v.numerator * (den // v.denominator) for c, v in u.items()}
        _primitive(u)

        # one pass over the pivot columns present in u, ascending; a fully
        # reduced basis row never reintroduces another pivot column
        for c in sorted(u):
            idx = pivot_of.get(c)
            if idx is None:
                continue
            f = u.get(c)
            if not f:
                continue
            b = basis[idx]
            _axpy_int(u, b[c], f, b)
            _primitive(u)
        if not u:
            continue
        lead = min(u)
        if lead >= pivot_limit:
            defects.append(dict(u))
            if stop_on_defect:
                break
            continue

        # clear the new pivot column from the existing basis
        new_idx = len(basis)
        for idx in sorted(col_rows.get(lead, ())):
            b = basis[idx]
            f = b.get(lead)
            if not f:
                continue
            for c in b:
                col_rows[c].discard(idx)
            _axpy_int(b, u[lead], f, u)
            _primitive(b)
            attach(idx, b)
        basis.append(u)
        pivot_of[lead] = new_idx
        attach(new_idx, u)

    pivots = sorted(pivot_of)
    out = []
    for p in pivots:
        b = basis[pivot_of[p]]
        lead = b[p]
        if lead == 1:
            out.append(dict(sorted(b.items())))
        else:
            out.append({c: v // lead if v % lead == 0 else Fraction(v, lead)
                        for c, v in sorted(b.items())})
    return pivots, out, defects


def _rref_mod_p(rows, p, pivot_limit, stop_on_defect):
    """Incremental rref over F_p.  Same contract as the rational version."""
    pivot_of = {}
    basis = []
    col_rows = {}
    defects = []

    def attach(idx, row):
        for c in row:
            col_rows.setdefault(c, set()).add(idx)

    for row in rows:
        u = {}
        for c, v in row.items():
            v %= p
            if v:
                u[c] = v
        if not u:
            continue

        for c in sorted(u):
            idx = pivot_of.get(c)
            if idx is None:
                continue
            f = u.get(c)
            if not f:
                continue
            b = basis[idx]       # normalized: b[c] == 1
            for c2, v2 in b.items():
                w = (u.get(c2, 0) - f * v2) % p
                if w:
                    u[c2] = w
                else:
                    u.pop(c2, None)
        if not u:
            continue
        lead = min(u)
        if lead >= pivot_limit:
            defects.append(dict(u))
            if stop_on_defect:
                break
            continue

        inv = pow(u[lead], -1, p)
        if inv != 1:
            u = {c: (v * inv) % p for c, v in u.items()}
        new_idx = len(basis)
        for idx in sorted(col_rows.get(lead, ())):
            b = basis[idx]
            f = b.get(lead)
            if not f:
                continue
            for c in b:
                col_rows[c].discard(idx)
            for c2, v2 in u.items():
                w = (b.get(c2, 0) - f * v2) % p
                if w:
                    b[c2] = w
                else:
                    b.pop(c2, None)
            attach(idx, b)
        basis.append(u)
        pivot_of[lead] = new_idx
        attach(new_idx, u)

    pivots = sorted(pivot_of)
    out = []
    for q in pivots:
        b = basis[pivot_of[q]]
        out.append({c: v for c, v in sorted(b.items())})
    return pivots, out, defects
