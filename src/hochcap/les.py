"""Long exact sequences in both coefficient variables.

A short exact sequence 0 -> left -f-> middle -g-> right -> 0 of
bimodules induces a long exact sequence in homology, whose connecting
map goes down one degree, and one in cohomology, whose connecting map
goes up one degree.  Every operation here is written once and takes
`kind` ("homology" or "cohomology"), the same word `ClassSpace` carries:
a bimodule map acts on the module slot of a (co)chain by one call to
`linalg.on_slots`, and `complexes.module_slot` hides that chains are
stored module index major and cochains tuple major.

The connecting map is computed exactly on canonical class coordinates:
lift a representative through g, apply the (co)differential of the
middle term, pull back through f.  A pullback is two slot operators, the
`conditions` and the `section` of the morphism's `Solver`, factored
once per morphism.  An optional seed shifts the lift by something in
the image of f, which must not change the answer, and tests use that to
confirm choice independence.

The names ending in `_homology` and `_cohomology` are one-line
delegates, kept because callers and the benchmark's tracer
(perfbench/spans.py) look them up.
"""

import random

from .bimodules import BimoduleMorphism, kron, make_ses, tensor_over_algebra
from .complexes import chain_dim, class_space, differential, module_slot, on_classes
from .errors import Unsolvable
from .linalg import SparseMat, axpy, on_slots


def _degrees(kind):
    """(the degree of the connecting map, the lowest degree it starts in)."""
    return (-1, 1) if kind == "homology" else (1, 0)


def map_coefficients(mor, vec, n, kind):
    """Apply a bimodule map to the module slot of a degree n (co)chain."""
    return on_slots(mor.matrix, vec, module_slot(mor.source, n, kind))


def _preimage(mor, vec, n, kind):
    """The degree n (co)chain that `map_coefficients` sends to vec, with
    the free variables of every module slot zero."""
    solver = mor.solver()
    low = module_slot(mor.target, n, kind)
    if on_slots(solver.conditions, vec, low):
        raise Unsolvable("not in the image of the map on the module slot")
    return on_slots(solver.section, vec, low)


def pushforward(mor, n, kind):
    """Matrix of H_n(mor) or H^n(mor) on canonical class coordinates."""
    src = class_space(mor.source, n, kind)
    tgt = class_space(mor.target, n, kind)
    return on_classes(src, tgt, mor.matrix, module_slot(mor.source, n, kind))


def connecting(ses, n, kind, seed=None):
    """Snake map H_n(right) -> H_{n-1}(left) for kind "homology",
    H^n(right) -> H^{n+1}(left) for kind "cohomology", on class coordinates.

    Lift a representative through g, apply the differential (the result
    lies in the image of f), pull back.  A seed adds an element of im(f)
    to the lift first; the resulting class may not depend on it.
    """
    step, lowest = _degrees(kind)
    if n < lowest:
        raise ValueError(f"the {kind} connecting map starts in degree {lowest}")
    src = class_space(ses.right, n, kind)
    tgt = class_space(ses.left, n + step, kind)
    fld = ses.left.field
    rng = random.Random(seed) if seed is not None else None
    images = []
    for k in range(src.dim):
        lift = _preimage(ses.g, src.representative(k), n, kind)
        if rng is not None:
            # chain_dim == cochain_dim, so the draws do not depend on kind
            noise = {
                rng.randrange(chain_dim(ses.left, n)): fld.coerce(rng.randint(-3, 3))
                for _ in range(3)
            }
            axpy(lift, fld.one, map_coefficients(ses.f, noise, n, kind), fld)
        image = differential(ses.middle, n, kind).matvec(lift)
        images.append(_preimage(ses.f, image, n + step, kind))
    return tgt.classes(images)


def pushforward_homology(mor, n):
    return pushforward(mor, n, "homology")


def pushforward_cohomology(mor, m):
    return pushforward(mor, m, "cohomology")


def connecting_homology(ses, n, seed=None):
    return connecting(ses, n, "homology", seed)


def connecting_cohomology(ses, m, seed=None):
    return connecting(ses, m, "cohomology", seed)


def tensor_ses_with(ses, M):
    """Tensor a short exact sequence by M on the right.

    Returns (new_ses, (t_left, t_mid, t_right)).  Raises NotExact when
    tensoring destroys exactness (M need not be flat); callers that
    merely want to know whether the hypothesis holds should catch it.
    """
    return _tensor_ses(ses, M, "right", f"({ses.label or 'ses'}) (x) {M.label or 'M'}")


def tensor_with_ses(N, ses):
    """Tensor by N on the left: 0 -> N (x) M1 -> N (x) M2 -> N (x) M3 -> 0."""
    return _tensor_ses(ses, N, "left", f"{N.label or 'N'} (x) ({ses.label or 'ses'})")


def _tensor_ses(ses, other, side, label):
    """`ses` tensored with `other` on `side`.  Each term X becomes
    X (x)_A other or other (x)_A X, and each map f of the sequence is
    f (x) id or id (x) f on the ambient tensor product over k, carried to
    canonical coordinates by the section and the projection."""
    def pair(x, y):
        return (x, y) if side == "right" else (y, x)

    ident = SparseMat.identity(other.dim, other.field)
    terms = [tensor_over_algebra(*pair(X, other)) for X in (ses.left, ses.middle, ses.right)]
    F, G = (
        BimoduleMorphism(src.module, tgt.module,
                         tgt.projection @ kron(*pair(mor.matrix, ident)) @ src.section)
        for src, tgt, mor in zip(terms, terms[1:], (ses.f, ses.g))
    )
    return make_ses(F, G, label=label), tuple(terms)

