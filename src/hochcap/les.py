"""Long exact sequences in both coefficient variables.

A short exact sequence 0 -> left -f-> middle -g-> right -> 0 of
bimodules induces a long exact sequence in homology, whose connecting
map goes down one degree, and one in cohomology, whose connecting map
goes up one degree.  Every operation here is written once and takes
`kind` ("homology" or "cohomology"), the same word `ClassSpace` carries:
a bimodule map acts on the module slot of a (co)chain one basis tuple at
a time, and `complexes.by_tuple` hides that chains are stored module
index major and cochains tuple major.

The connecting map is computed exactly on canonical class coordinates:
lift a representative through g one tuple at a time, apply the
(co)differential of the middle term, pull back through f.  `Solver`
makes the per-tuple solves cheap and deterministic; an optional seed
shifts the lift by something in the image of f, which must not change
the answer, and tests use that to confirm choice independence.

The names ending in `_homology` and `_cohomology` are one-line
delegates, kept because callers and the benchmark's tracer
(perfbench/spans.py) look them up.
"""

import random

from .bimodules import (
    induced_tensor_morphism,
    induced_tensor_morphism_left,
    make_ses,
    tensor_over_algebra,
)
from .complexes import by_tuple, chain_dim, class_space, differential, from_tuples
from .errors import Unsolvable
from .linalg import Solver, SparseMat, axpy, coerce_vector, rank


def _degrees(kind):
    """(the degree of the connecting map, the lowest degree it starts in)."""
    return (-1, 1) if kind == "homology" else (1, 0)


def map_coefficients(mor, vec, n, kind):
    """Apply a bimodule map to the module slot of a degree n (co)chain."""
    grouped = by_tuple(mor.source, n, kind, vec)
    images = {w: mor.matrix.matvec(col) for w, col in grouped.items()}
    return from_tuples(mor.target, n, kind, images)


def _preimage(mor, vec, n, kind):
    """Some degree n (co)chain that `map_coefficients` sends to vec."""
    solver = Solver(mor.matrix)
    out = {}
    for w, col in by_tuple(mor.target, n, kind, vec).items():
        sol = solver.solve(col)
        if sol is None:
            raise Unsolvable("not in the image of the map on the module slot")
        out[w] = sol
    return from_tuples(mor.source, n, kind, out)


def pushforward(mor, n, kind):
    """Matrix of H_n(mor) or H^n(mor) on canonical class coordinates."""
    src = class_space(mor.source, n, kind)
    tgt = class_space(mor.target, n, kind)
    fld = mor.source.field
    cols = [
        coerce_vector(fld, tgt.class_of(map_coefficients(mor, src.representative(k), n, kind)))
        for k in range(src.dim)
    ]
    return SparseMat.from_columns(tgt.dim, fld, cols)


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
    cols = []
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
        cols.append(coerce_vector(fld, tgt.class_of(_preimage(ses.f, image, n + step, kind))))
    return SparseMat.from_columns(tgt.dim, fld, cols)


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
    t1 = tensor_over_algebra(ses.left, M)
    t2 = tensor_over_algebra(ses.middle, M)
    t3 = tensor_over_algebra(ses.right, M)
    F = induced_tensor_morphism(ses.f, M, t1, t2)
    G = induced_tensor_morphism(ses.g, M, t2, t3)
    label = f"({ses.label or 'ses'}) (x) {M.label or 'M'}"
    return make_ses(F, G, label=label), (t1, t2, t3)


def tensor_with_ses(N, ses):
    """Tensor by N on the left: 0 -> N (x) M1 -> N (x) M2 -> N (x) M3 -> 0."""
    t1 = tensor_over_algebra(N, ses.left)
    t2 = tensor_over_algebra(N, ses.middle)
    t3 = tensor_over_algebra(N, ses.right)
    F = induced_tensor_morphism_left(N, ses.f, t1, t2)
    G = induced_tensor_morphism_left(N, ses.g, t2, t3)
    label = f"{N.label or 'N'} (x) ({ses.label or 'ses'})"
    return make_ses(F, G, label=label), (t1, t2, t3)


def _exact_at(failures, degree, node, incoming, outgoing):
    """Record a failure unless ker(outgoing) = im(incoming)."""
    if not (outgoing @ incoming).is_zero():
        failures.append((degree, node, "composite nonzero"))
    elif outgoing.ncols - rank(outgoing) != rank(incoming):
        failures.append((degree, node, "kernel strictly larger than image"))


def verify_les(ses, up_to, kind):
    """Exactness failures of the long exact sequence of `kind`.

    Checks the nodes H(left), H(middle), H(right) of every degree <=
    up_to.  The homology sequence ends in H_0(right) -> 0, so exactness
    there means g_* is onto; the cohomology sequence starts with
    0 -> H^0(left), so exactness there means f^* is injective.  Returns
    (degree, node, reason) triples, by degree and then in the order
    left, middle, right; [] means exact.
    """
    failures = []
    fld = ses.left.field
    fstar = {n: pushforward(ses.f, n, kind) for n in range(up_to + 1)}
    gstar = {n: pushforward(ses.g, n, kind) for n in range(up_to + 1)}
    step, lowest = _degrees(kind)
    conn = {n: connecting(ses, n, kind) for n in range(lowest, lowest + up_to + 1)}
    # the zero maps that end the sequence: H_0(right) -> 0, 0 -> H^0(left)
    if kind == "homology":
        conn[0] = SparseMat.zero(0, gstar[0].nrows, fld)
    else:
        conn[-1] = SparseMat.zero(fstar[0].ncols, 0, fld)
    for n in range(up_to + 1):
        _exact_at(failures, n, "left", conn[n - step], fstar[n])
        _exact_at(failures, n, "middle", fstar[n], gstar[n])
        _exact_at(failures, n, "right", gstar[n], conn[n])
    return failures
