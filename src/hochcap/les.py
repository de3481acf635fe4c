"""Long exact sequences in both coefficient variables.

A short exact sequence of bimodules induces a long exact sequence in
homology (via the snake map going down one degree) and in cohomology
(via the snake map going up one degree).  Both connecting maps are
computed exactly on canonical class coordinates: lift a representative
through the surjection coordinatewise, apply the (co)differential, pull
back through the injection.  `Solver` makes the per-tuple solves cheap
and deterministic; an optional seed shifts the lift by something in the
image of the injection, which must not change the answer, and tests use
that to confirm choice independence.
"""

import random

from .bimodules import (
    induced_tensor_morphism,
    induced_tensor_morphism_left,
    make_ses,
    tensor_over_algebra,
)
from .complexes import (
    boundary_matrix,
    chain_dim,
    coboundary_matrix,
    cochain_dim,
    cohomology,
    homology,
)
from .errors import Unsolvable
from .linalg import Solver, SparseMat, acc, axpy, coerce_vector, rank


def map_chain(mor, chain, n):
    """Apply a bimodule map to the module slot of a degree n chain."""
    d = mor.source.algebra.dim
    block = d ** n
    fld = mor.source.field
    out = {}
    for idx, v in chain.items():
        x, w = divmod(idx, block)
        for y, c in mor.matrix.col(x).items():
            acc(out, y * block + w, fld.mul(c, v), fld)
    return out


def map_cochain(mor, coch, m):
    """Postcompose a degree m cochain with a bimodule map."""
    fld = mor.source.field
    r = mor.source.dim
    rt = mor.target.dim
    out = {}
    for idx, v in coch.items():
        w, j = divmod(idx, r)
        for y, c in mor.matrix.col(j).items():
            acc(out, w * rt + y, fld.mul(c, v), fld)
    return out


def _chain_preimage(mor, chain, n):
    """Some chain mapping to `chain` under (mor on the module slot)."""
    d = mor.source.algebra.dim
    block = d ** n
    solver = Solver(mor.matrix)
    grouped = {}
    for idx, v in chain.items():
        x, w = divmod(idx, block)
        grouped.setdefault(w, {})[x] = v
    out = {}
    for w, vec in grouped.items():
        sol = solver.solve(vec)
        if sol is None:
            raise Unsolvable("chain does not lie in the image")
        for y, c in sol.items():
            out[y * block + w] = c
    return out


def _cochain_preimage(mor, coch, m):
    rt = mor.target.dim
    rs = mor.source.dim
    solver = Solver(mor.matrix)
    grouped = {}
    for idx, v in coch.items():
        w, j = divmod(idx, rt)
        grouped.setdefault(w, {})[j] = v
    out = {}
    for w, vec in grouped.items():
        sol = solver.solve(vec)
        if sol is None:
            raise Unsolvable("cochain does not take values in the image")
        for y, c in sol.items():
            out[w * rs + y] = c
    return out


def pushforward_homology(mor, n):
    """Matrix of H_n(mor) on canonical class coordinates."""
    hs_src = homology(mor.source, n)
    hs_tgt = homology(mor.target, n)
    fld = mor.source.field
    cols = [
        coerce_vector(fld, hs_tgt.class_of(map_chain(mor, hs_src.representative(k), n)))
        for k in range(hs_src.dim)
    ]
    return SparseMat.from_columns(hs_tgt.dim, fld, cols)


def pushforward_cohomology(mor, m):
    cs_src = cohomology(mor.source, m)
    cs_tgt = cohomology(mor.target, m)
    fld = mor.source.field
    cols = [
        coerce_vector(fld, cs_tgt.class_of(map_cochain(mor, cs_src.representative(k), m)))
        for k in range(cs_src.dim)
    ]
    return SparseMat.from_columns(cs_tgt.dim, fld, cols)


def connecting_homology(ses, n, seed=None):
    """Snake map H_n(A, right) -> H_{n-1}(A, left) on class coordinates.

    Lift a cycle through g on the module slot, take its boundary (which
    lands in the image of f), pull back.  A seed adds an element of
    im(f) to the lift first; the resulting class may not depend on it.
    """
    if n < 1:
        raise ValueError("the connecting map starts in degree 1")
    hs3 = homology(ses.right, n)
    hs1 = homology(ses.left, n - 1)
    fld = ses.left.field
    rng = random.Random(seed) if seed is not None else None
    cols = []
    for k in range(hs3.dim):
        xi = hs3.representative(k)
        y = _chain_preimage(ses.g, xi, n)
        if rng is not None:
            noise = {
                rng.randrange(chain_dim(ses.left, n)): fld.coerce(rng.randint(-3, 3))
                for _ in range(3)
            }
            axpy(y, fld.one, map_chain(ses.f, noise, n), fld)
        beta = boundary_matrix(ses.middle, n).matvec(y)
        zeta = _chain_preimage(ses.f, beta, n - 1)
        cols.append(coerce_vector(fld, hs1.class_of(zeta)))
    return SparseMat.from_columns(hs1.dim, fld, cols)


def connecting_cohomology(ses, m, seed=None):
    """Snake map H^m(A, right) -> H^{m+1}(A, left) on class coordinates."""
    if m < 0:
        raise ValueError("cochains start in degree 0")
    cs3 = cohomology(ses.right, m)
    cs1 = cohomology(ses.left, m + 1)
    fld = ses.left.field
    rng = random.Random(seed) if seed is not None else None
    cols = []
    for k in range(cs3.dim):
        T3 = cs3.representative(k)
        T2 = _cochain_preimage(ses.g, T3, m)
        if rng is not None:
            noise = {
                rng.randrange(cochain_dim(ses.left, m)): fld.coerce(rng.randint(-3, 3))
                for _ in range(3)
            }
            axpy(T2, fld.one, map_cochain(ses.f, noise, m), fld)
        U = coboundary_matrix(ses.middle, m).matvec(T2)
        T1 = _cochain_preimage(ses.f, U, m + 1)
        cols.append(coerce_vector(fld, cs1.class_of(T1)))
    return SparseMat.from_columns(cs1.dim, fld, cols)


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


def verify_les_homology(ses, up_to):
    """Exactness failures of the homology long exact sequence.

    Checks every node in degrees <= up_to: the sequence ends in
    H_0(right) -> 0, so exactness there means g_* is onto.  Returns a
    list of (degree, node, reason) triples; [] means exact.
    """
    failures = []
    fstar = {n: pushforward_homology(ses.f, n) for n in range(up_to + 1)}
    gstar = {n: pushforward_homology(ses.g, n) for n in range(up_to + 1)}
    delta = {n: connecting_homology(ses, n) for n in range(1, up_to + 2)}
    fld = ses.left.field
    for n in range(up_to + 1):
        _exact_at(failures, n, "middle", fstar[n], gstar[n])
        out = delta[n] if n >= 1 else SparseMat.zero(0, gstar[0].nrows, fld)
        _exact_at(failures, n, "right", gstar[n], out)
        _exact_at(failures, n, "left", delta[n + 1], fstar[n])
    return failures


def verify_les_cohomology(ses, up_to):
    """Exactness failures of the cohomology long exact sequence.

    Checks every node in degrees <= up_to; the sequence starts with
    0 -> H^0(left), so exactness there means f^* is injective.
    """
    failures = []
    fstar = {m: pushforward_cohomology(ses.f, m) for m in range(up_to + 1)}
    gstar = {m: pushforward_cohomology(ses.g, m) for m in range(up_to + 1)}
    conn = {m: connecting_cohomology(ses, m) for m in range(up_to + 1)}
    fld = ses.left.field
    for m in range(up_to + 1):
        inc = conn[m - 1] if m >= 1 else SparseMat.zero(fstar[0].ncols, 0, fld)
        _exact_at(failures, m, "left", inc, fstar[m])
        _exact_at(failures, m, "middle", fstar[m], gstar[m])
        _exact_at(failures, m, "right", gstar[m], conn[m])
    return failures
