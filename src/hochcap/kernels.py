"""The row-reduction kernel.

This elimination loop dominates the package's runtime; every kernel,
solve and subquotient goes through `build_rref`.  The output is
canonical and depends on the row space alone: the reduced row echelon
form of a row space is unique, pivots are always the leftmost possible,
and rows come out sorted by pivot column.

A rank needs no canonical form.  `echelon` is the same loop without the
back-substitution: it reduces each row at its leading column only and
clears nothing above a pivot.  `linalg.image_basis`, and so `rank`, uses
it for every matrix.

Because the output does not depend on the order of the input rows, the
rows are fed in the order that keeps fill low: leading column
descending, then shortest first (after Faugere and Lachartre, PASCO
2010).  A row whose leading column is not yet a pivot then becomes one
without touching the basis, since every basis row starts to the right
of it.

Rows are sparse dicts {column: value}.  The loop is the same over Q and
F_p: clean the row, reduce it once against the pivot columns it touches,
and clear its new pivot from the basis.  Each field supplies the three
row operations it needs:

- `clean(row)`: the working form of an incoming row.  Over Q the values
  may be `int`s or `Fraction`s, and the row is scaled to a primitive
  integer vector (content 1), so an elimination step is integer
  arithmetic plus one gcd pass instead of a gcd per entry.  Over F_p the
  values are reduced into [0, p).
- `eliminate(u, b, c)`: clear column c of u, in place, with the basis
  row b whose pivot is c.  Over Q this is u := b[c]*u - u[c]*b made
  primitive again.  Over F_p each new pivot row is scaled to a leading 1
  the first time it is used, so every later step is u -= u[c]*b.
- `emit(b, lead)`: the canonical output row, with a leading 1.  Over Q
  the values are integer first, like `fields.Rationals`: an `int`
  wherever the leading entry divides it, a `Fraction` with denominator
  > 1 otherwise.  Over F_p they are ints in [0, p).
"""

from fractions import Fraction
from math import gcd, lcm


def build_rref(field, rows, ncols):
    """Reduced row echelon form of `rows`: (pivots, rows).

    out_rows[i] is the fully reduced row with leading 1 at pivots[i].
    `ncols`, the width of the rows, is not read by the loop; the
    benchmark's tracer (perfbench/spans.py) records it.
    """
    ops = _Rationals if field.kind == "Q" else _ModP(field.p)
    clean, eliminate = ops.clean, ops.eliminate
    pivot_of = {}          # pivot col -> index into basis
    basis = []             # rows in the field's working form
    col_rows = {}          # col -> set of basis indices whose row touches col

    def attach(idx, row):
        for c in row:
            col_rows.setdefault(c, set()).add(idx)

    # fill-aware order: leading column descending, then shortest first,
    # by two stable sorts, so no key tuple is built per row (tuples cost
    # the cap grids of the products benchmark 0.2-0.3 MB of peak RSS)
    for row in sorted(sorted(rows, key=len), key=_lead, reverse=True):
        u = clean(row)
        # one pass over the pivot columns present in u, ascending; a fully
        # reduced basis row never reintroduces another pivot column
        for c in sorted(u):
            idx = pivot_of.get(c)
            if idx is not None and c in u:
                eliminate(u, basis[idx], c)
        if not u:
            continue
        lead = min(u)
        # clear the new pivot column from the existing basis
        for idx in list(col_rows.get(lead, ())):
            b = basis[idx]
            for c in b:
                col_rows[c].discard(idx)
            eliminate(b, u, lead)
            attach(idx, b)
        pivot_of[lead] = len(basis)
        attach(len(basis), u)
        basis.append(u)

    pivots = sorted(pivot_of)
    return pivots, [ops.emit(basis[pivot_of[p]], p) for p in pivots]


def echelon(field, rows):
    """A row echelon form of `rows`: {pivot column: row}, in working form.

    Each row, in the same fill-aware order as `build_rref`, is reduced at
    its leading column only, until that column is not yet a pivot, and
    then joins the basis under it.  Nothing is cleared above a pivot and
    nothing is emitted, so the rows are not canonical; the number of
    pivots, the rank, is all a caller may rely on.
    """
    ops = _Rationals if field.kind == "Q" else _ModP(field.p)
    clean, eliminate = ops.clean, ops.eliminate
    basis = {}
    for row in sorted(sorted(rows, key=len), key=_lead, reverse=True):
        u = clean(row)
        while u:
            lead = min(u)
            b = basis.get(lead)
            if b is None:
                basis[lead] = u
                break
            eliminate(u, b, lead)
    return basis


def _lead(row):
    return min(row, default=-1)


class _Rationals:
    """Row operations over Q, on primitive integer rows."""

    @staticmethod
    def clean(row):
        u = {c: v for c, v in row.items() if v}
        dens = [v.denominator for v in u.values() if type(v) is not int]
        if dens:
            den = lcm(*dens)
            u = {c: v.numerator * (den // v.denominator) for c, v in u.items()}
        _primitive(u)
        return u

    @staticmethod
    def eliminate(u, b, c):
        """u := primitive part of b[c]*u - u[c]*b."""
        a, f = b[c], u[c]
        if a != 1:
            for k in u:
                u[k] *= a
        for k, v in b.items():
            w = u.get(k, 0) - f * v
            if w:
                u[k] = w
            else:
                u.pop(k, None)
        _primitive(u)

    @staticmethod
    def emit(b, lead):
        a = b[lead]
        if a == 1:
            return dict(sorted(b.items()))
        return {c: v // a if v % a == 0 else Fraction(v, a)
                for c, v in sorted(b.items())}


def _primitive(u):
    """Divide the integer dict u, in place, by the gcd of its values."""
    g = 0
    for v in u.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in u:
            u[c] //= g


class _ModP:
    """Row operations over F_p, on rows with values in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def clean(self, row):
        p = self.p
        u = {}
        for c, v in row.items():
            v %= p
            if v:
                u[c] = v
        return u

    def eliminate(self, u, b, c):
        """u := u - u[c]*b, once b is scaled to b[c] == 1."""
        p = self.p
        if b[c] != 1:
            self._unit(b, c)
        f = u[c]
        for k, v in b.items():
            w = (u.get(k, 0) - f * v) % p
            if w:
                u[k] = w
            else:
                u.pop(k, None)

    def emit(self, b, lead):
        if b[lead] != 1:
            self._unit(b, lead)
        return dict(sorted(b.items()))

    def _unit(self, b, lead):
        """Scale b in place to b[lead] == 1."""
        p = self.p
        inv = pow(b[lead], -1, p)
        for k in b:
            b[k] = b[k] * inv % p
