"""Finite-dimensional associative unital algebras given by structure constants.

An algebra is described by a field, an ordered basis e_0 .. e_{d-1},
structure constants c[i][j][l] (the coefficient of e_l in e_i * e_j) and
the coordinates of the unit.  Structure constants are stored sparsely:
`mult[i][j]` is the dict {l: c} of the product e_i * e_j.
"""

import weakref

from . import config
from .bimodules import Bimodule, invariants_subspace
from .errors import ValidationError
from .linalg import SparseMat, acc, axpy, coerce_vector


class AlgebraPresentation:
    __slots__ = ("field", "dim", "basis", "unit", "mult", "label", "_cache")

    def __init__(self, field, basis, structure, unit, label=None):
        """structure: iterable of (i, j, l, coeff); omitted entries are zero."""
        self.field = field
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        d = self.dim
        if d == 0:
            raise ValidationError("algebra must have positive dimension")
        # validate() does d^3 products: refuse a huge basis before any work
        config.guard(d ** 3, f"the structure constants of a {d}-dimensional algebra")
        self.label = label
        mult = [[{} for _ in range(d)] for _ in range(d)]
        for i, j, l, v in structure:
            if not (0 <= i < d and 0 <= j < d and 0 <= l < d):
                raise ValidationError(f"structure index ({i},{j},{l}) out of range")
            acc(mult[i][j], l, field.coerce(v), field)
        self.mult = mult
        self.unit = coerce_vector(field, unit, d)
        self._cache = {}

    # -- multiplication ------------------------------------------------

    def multiply(self, a, b):
        """Product of two elements given as sparse coefficient dicts."""
        fld = self.field
        a = a if isinstance(a, dict) else coerce_vector(fld, a, self.dim)
        b = b if isinstance(b, dict) else coerce_vector(fld, b, self.dim)
        out = {}
        for i, va in a.items():
            for j, vb in b.items():
                axpy(out, fld.mul(va, vb), self.mult[i][j], fld)
        return out

    def left_matrix(self, i):
        """Matrix of y -> e_i * y on the algebra itself."""
        d, mult = self.dim, self.mult
        return config.cached(self, ("L", i), lambda: SparseMat(
            d, d, self.field, [dict(mult[i][j]) for j in range(d)]))

    def right_matrix(self, i):
        """Matrix of y -> y * e_i."""
        d, mult = self.dim, self.mult
        return config.cached(self, ("R", i), lambda: SparseMat(
            d, d, self.field, [dict(mult[j][i]) for j in range(d)]))

    # -- validation ------------------------------------------------------

    def validate(self):
        """Checks the two-sided unit, then associativity; raises ValidationError.

        The unit check costs d times the unit's support, the associativity
        check d^3 products, so a wrong unit is reported first and fast.
        """
        fld = self.field
        d = self.dim
        for i in range(d):
            e = {i: fld.one}
            if self.multiply(self.unit, e) != e:
                raise ValidationError(f"unit fails on the left of e_{i}")
            if self.multiply(e, self.unit) != e:
                raise ValidationError(f"unit fails on the right of e_{i}")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = self.multiply(self.mult[i][j], {k: fld.one})
                    right = self.multiply({i: fld.one}, self.mult[j][k])
                    if left != right:
                        raise ValidationError(
                            f"associativity fails at (e_{i} e_{j}) e_{k}"
                        )
        return self

    # -- center ------------------------------------------------------------

    def center(self):
        """Canonical basis of Z(A) = H^0(A, A), the invariants of the
        regular bimodule, as a list of sparse dicts."""
        basis = config.cached(self, "center", lambda: invariants_subspace(self.regular()).cols)
        return [dict(c) for c in basis]

    def is_central(self, z):
        z = coerce_vector(self.field, z, self.dim)
        for i in range(self.dim):
            e = {i: self.field.one}
            if self.multiply(z, e) != self.multiply(e, z):
                return False
        return True

    def regular(self):
        """The algebra as a bimodule over itself.

        The same object comes back for as long as some caller holds it.
        The cache keeps only a weak reference: the bimodule points back
        at the algebra, and a strong one would make a reference cycle,
        so the two and all their caches would wait for the cyclic
        garbage collector instead of being freed when dropped.
        """
        ref = self._cache.get("regular")
        bm = ref() if ref is not None else None
        if bm is None:
            left = tuple(self.left_matrix(i) for i in range(self.dim))
            right = tuple(self.right_matrix(i) for i in range(self.dim))
            bm = Bimodule(self, self.dim, left, right, label="regular")
            bm.validate()
            self._cache["regular"] = weakref.ref(bm)
        return bm

    def is_regular(self, M):
        """Whether M is the regular bimodule, without building it."""
        ref = self._cache.get("regular")
        return ref is not None and ref() is M

    def __repr__(self):
        name = self.label or "algebra"
        return f"<{name}: dim {self.dim} over {self.field!r}>"
