"""The benchmark's workloads: job lists, frozen answers and the correctness gate.

A job is a named call into the public API that builds its own algebra
objects, so no `_cache` entry survives from one job to the next, as in
the command line tool where every command is a new process.  A job
fails when it raises or when its answer differs from the frozen one.

Every hochcap module is looked up when a job runs, never at import, so
a tracer installed in between sees every call.
"""

import hashlib
import importlib
import json
import random
from collections import namedtuple


class GateFailure(Exception):
    """A job returned an answer that differs from the frozen one."""


# `run()` does the job and raises when it fails
Job = namedtuple("Job", "name run")


def _hc(name):
    return importlib.import_module(f"hochcap.{name}")


# -- dims ---------------------------------------------------------------------
#
# A few large eliminations: the rank-quadratic loops of the inclusion check
# and of kernel_basis live here.  f2_c2 keeps the F_p kernel in view.

DIMS_PLAN = (
    ("two_by_two_matrices", 5),
    ("truncated_cubic", 6),
    ("upper_triangular", 6),
    ("f2_c2", 10),
    ("dual_numbers", 10),
)

# (dim in degree 0, dim in every positive degree) of the regular bimodule
DIMS_TABLE = {
    ("two_by_two_matrices", "homology"): (1, 0),
    ("two_by_two_matrices", "cohomology"): (1, 0),
    ("truncated_cubic", "homology"): (3, 2),
    ("truncated_cubic", "cohomology"): (3, 2),
    ("upper_triangular", "homology"): (2, 0),
    ("upper_triangular", "cohomology"): (1, 0),
    ("f2_c2", "homology"): (2, 2),
    ("f2_c2", "cohomology"): (2, 2),
    ("dual_numbers", "homology"): (2, 1),
    ("dual_numbers", "cohomology"): (2, 1),
}

DIMS_LARGEST = "homology:two_by_two_matrices:5"


def dims_jobs(seed, plan=DIMS_PLAN, table=DIMS_TABLE):
    """Seed-independent: dimension queries have no random input."""
    del seed
    jobs = []
    for name, degree in plan:
        for kind in ("homology", "cohomology"):
            first, rest = table[name, kind]
            jobs.append(Job(f"{kind}:{name}:{degree}",
                            _dims_run(name, kind, degree, [first] + [rest] * degree)))
    return jobs


def _dims_run(name, kind, degree, expected):
    def run():
        reg = _hc("zoo").get(name).regular()
        got = getattr(_hc("complexes"), f"{kind}_dims")(reg, degree)
        if got != expected:
            raise GateFailure(f"{kind} dims {got}, expected {expected}")
    return run


# -- verify -------------------------------------------------------------------
#
# The identity suite at the CLI default degree: many small eliminations and
# assemblies over tensor, coinduced and induced modules, plus the long exact
# sequence orchestration.  Per-call overhead shows here.

VERIFY_DEGREE = 3
# algebra -> (passing results, skipped results); the two skips on the dual
# numbers are the documented torsion sequences that are not exact
VERIFY_TABLE = {
    "rationals": (43, 0),
    "dual_numbers": (50, 2),
    "truncated_cubic": (43, 0),
    "product_qq": (43, 0),
    "two_by_two_matrices": (43, 0),
    "upper_triangular": (43, 0),
    "f2_c2": (43, 0),
}
VERIFY_LARGEST = "verify:two_by_two_matrices"


def verify_jobs(seed, table=VERIFY_TABLE):
    return [Job(f"verify:{name}", _verify_run(name, seed, expected))
            for name, expected in table.items()]


def _verify_run(name, seed, expected):
    def run():
        A = _hc("zoo").get(name)
        rows = _hc("axioms").algebra_suite(A, n_max=VERIFY_DEGREE, seed=seed, name=name)
        status = {"pass": 0, "fail": 0, "skip": 0}
        for r in rows:
            status[r.status] += 1
            if r.status == "skip" and "not exact" not in r.detail:
                raise GateFailure(f"unexpected skip: {r!r}")
        got = (status["pass"], status["skip"])
        if status["fail"] or got != expected:
            raise GateFailure(f"suite gave {status}, expected (pass, skip) {expected}")
    return run


# -- products -----------------------------------------------------------------
#
# Subquotients built once and queried many times: coset reductions, lifts and
# Solver solves, dominated by the cap formulas and Fraction arithmetic.  The
# linear algebra build is a small share here, so a rank-only dimension path
# should not move this workload.

CAP_PLAN = (
    ("truncated_cubic", 5),
    ("dual_numbers", 7),
    ("f2_c2", 7),
    ("upper_triangular", 4),
)
CAP_PAIRS = 2  # seeded random class pairs per (n, m)

# sha256 of the basis-class grids of each algebra, as `hochcap cap` prints
# them; canonical coordinates are promised stable, so the digest is frozen
CAP_DIGESTS = {
    "truncated_cubic": "564f75d7ac3b1c7a99ab6b5099fa41913f68005dec65e50df1c8b11a838dc242",
    "dual_numbers": "a425d3c689d4a0ac1b91d80a43c59c66f31c23f12849621c8b250eb49546514b",
    "f2_c2": "3f75180b7a59cd7d9fe521503fedc3a6b16143dafb4a6ce0b68637a601105831",
    "upper_triangular": "cb36245cb1f1536907c167daea97f19c51911917acdb4c9e2c64d9dc58831a8d",
}

DIAGONAL_PLAN = (("upper_triangular", 4), ("truncated_cubic", 4))
PRODUCTS_LARGEST = "diagonal:upper_triangular:4"


def products_jobs(seed, plan=CAP_PLAN, digests=CAP_DIGESTS,
                  diagonal=DIAGONAL_PLAN, pairs=CAP_PAIRS):
    jobs = [Job(f"cap:{name}:{top}", _cap_run(name, top, pairs, seed, digests[name]))
            for name, top in plan]
    jobs += [Job(f"diagonal:{name}:{total}", _diagonal_run(name, total))
             for name, total in diagonal]
    return jobs


def cap_grids(name, top, pairs, seed):
    """Basis-class grids, and the sampled pairs where the two routes disagree.

    For each 0 <= m <= n <= top with both class spaces nonzero: every
    basis pair through `CapPairing.of_classes`, then `pairs` random class
    pairs through both `of_classes` and the solved chain map lift.
    """
    cap = _hc("cap")
    A = _hc("zoo").get(name)
    reg = A.regular()
    fld = A.field
    rng = random.Random(f"{seed}/{name}")
    grids, mismatches = {}, []
    for n in range(top + 1):
        for m in range(n + 1):
            pairing = cap.CapPairing(reg, n, reg, m)
            hd, cd = pairing.chains.dim, pairing.cochains.dim
            if not hd or not cd:
                continue
            grids[f"{n},{m}"] = [
                [[fld.format(c) for c in pairing.of_classes(_unit(hd, a, fld),
                                                            _unit(cd, b, fld))]
                 for b in range(cd)]
                for a in range(hd)
            ]
            for _ in range(pairs):
                h, c = _random_coords(rng, hd, fld), _random_coords(rng, cd, fld)
                direct = pairing.of_classes(h, c)
                lift = cap.solve_lift(A, pairing.cochains.lift(c), m, n - m,
                                      seed=rng.randrange(1 << 30))
                via = pairing.target.class_of(
                    cap.cap_via_lift(reg, n, pairing.chains.lift(h), lift))
                if via != direct:
                    mismatches.append((n, m, h, c))
    return grids, mismatches


def grid_digest(grids):
    text = json.dumps(grids, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _unit(dim, k, fld):
    return [fld.one if i == k else fld.zero for i in range(dim)]


def _random_coords(rng, dim, fld):
    coords = [fld.coerce(rng.randint(-3, 3)) for _ in range(dim)]
    if all(c == fld.zero for c in coords):
        coords[rng.randrange(dim)] = fld.one
    return coords


def _cap_run(name, top, pairs, seed, digest):
    def run():
        grids, mismatches = cap_grids(name, top, pairs, seed)
        if mismatches:
            raise GateFailure(f"lift route differs from of_classes at {mismatches[:3]}")
        got = grid_digest(grids)
        if got != digest:
            raise GateFailure(f"grid digest {got}, expected {digest}")
    return run


def _diagonal_run(name, total):
    def run():
        bad = _hc("cap").check_diagonal_identities(_hc("zoo").get(name), total)
        if bad:
            raise GateFailure(f"{len(bad)} diagonal identities fail, first {bad[0]}")
    return run


WORKLOADS = {
    "dims": (dims_jobs, DIMS_LARGEST),
    "verify": (verify_jobs, VERIFY_LARGEST),
    "products": (products_jobs, PRODUCTS_LARGEST),
}
