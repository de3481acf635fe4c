"""Named spans around the public functions of each hochcap layer.

The tracer wraps functions from outside the package.  A module-level
function is replaced at every binding that refers to it, in every loaded
`hochcap` module, because `from .linalg import kernel_basis` copies the
name into the importing module and a wrapper placed only on the defining
module would miss those callers.  Methods are replaced on the class
object itself, so every instance and every caller sees the wrapper.

A span's self time is its duration minus the time covered by the spans
it encloses.  Counters are computed from arguments and return values
after the clock stops, and that bookkeeping is charged to no layer.
"""

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" patches a method in place.
FUNCTIONS = (
    ("kernels.build_rref", "hochcap.kernels", "build_rref"),
    ("linalg.kernel_basis", "hochcap.linalg", "kernel_basis"),
    ("linalg.rank", "hochcap.linalg", "rank"),
    ("linalg.subquotient", "hochcap.linalg", "SubquotientSpace.__init__"),
    ("linalg.coset_reduce", "hochcap.linalg", "SubquotientSpace.coset_reduce"),
    ("linalg.sq_lift", "hochcap.linalg", "SubquotientSpace.lift"),
    ("linalg.solver_factor", "hochcap.linalg", "Solver.__init__"),
    ("linalg.solver_solve", "hochcap.linalg", "Solver.solve"),
    ("linalg.matvec", "hochcap.linalg", "SparseMat.matvec"),
    ("linalg.matmul", "hochcap.linalg", "SparseMat.__matmul__"),
    ("complexes.boundary_matrix", "hochcap.complexes", "boundary_matrix"),
    ("complexes.coboundary_matrix", "hochcap.complexes", "coboundary_matrix"),
    ("complexes.homology", "hochcap.complexes", "homology"),
    ("complexes.cohomology", "hochcap.complexes", "cohomology"),
    ("bimodules.tensor_over_algebra", "hochcap.bimodules", "tensor_over_algebra"),
    ("bimodules.coinduced", "hochcap.bimodules", "coinduced"),
    ("bimodules.induced", "hochcap.bimodules", "induced"),
    ("les.connecting_homology", "hochcap.les", "connecting_homology"),
    ("les.connecting_cohomology", "hochcap.les", "connecting_cohomology"),
    ("les.pushforward_homology", "hochcap.les", "pushforward_homology"),
    ("les.pushforward_cohomology", "hochcap.les", "pushforward_cohomology"),
    ("cap.of_classes", "hochcap.cap", "CapPairing.of_classes"),
    ("cap.cap_chain", "hochcap.cap", "cap_chain"),
    ("cap.cap_chain_regular", "hochcap.cap", "cap_chain_regular"),
    ("cap.solve_lift", "hochcap.cap", "solve_lift"),
    ("cap.cap_via_lift", "hochcap.cap", "cap_via_lift"),
    ("cap.bar_differential", "hochcap.cap", "bar_differential"),
    ("cap.check_diagonal_identities", "hochcap.cap", "check_diagonal_identities"),
    ("axioms.checks", "hochcap.axioms", "check_center_linearity"),
    ("axioms.checks", "hochcap.axioms", "check_homology_connecting"),
    ("axioms.checks", "hochcap.axioms", "check_cohomology_connecting"),
    ("axioms.checks", "hochcap.axioms", "check_degree_zero"),
    ("axioms.checks", "hochcap.axioms", "check_dimension_shift"),
    ("serialize.load", "hochcap.serialize", "load"),
    ("algebras.validate", "hochcap.algebras", "AlgebraPresentation.validate"),
    ("algebras.regular", "hochcap.algebras", "AlgebraPresentation.regular"),
)
SPANS = tuple(dict.fromkeys(name for name, _, _ in FUNCTIONS))

# counters summed over calls, besides `calls` and `self_s`
SUMS = {
    "kernels.build_rref": ("rows_in", "cols_in", "rank", "nnz_out"),
    "complexes.boundary_matrix": ("nnz_out",),
    "complexes.coboundary_matrix": ("nnz_out",),
}
# spans that look their result up in the `_cache` of their first argument,
# under (key, second argument)
CACHED = {
    "complexes.boundary_matrix": "boundary",
    "complexes.coboundary_matrix": "coboundary",
    "complexes.homology": "homology",
    "complexes.cohomology": "cohomology",
}


def metric_names():
    """(name, unit) of every per-layer metric the tracer reports, in order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        out += [(f"{span}.{c}", "count") for c in SUMS.get(span, ())]
        if span == "kernels.build_rref":
            out.append((f"{span}.max_bits", "bits"))
        if span in CACHED:
            out.append((f"{span}.cache_hit_ratio", "ratio"))
    return out


def _cache_probe(key):
    def before(args):
        return (key, args[1]) in args[0]._cache
    return before


def _count_cached(c, args, out, hit):
    c["lookups"] += 1
    if hit:
        c["hits"] += 1
    elif hasattr(out, "nnz"):  # matrices; cached (co)homology spaces have none
        c["nnz_out"] += out.nnz()


def _count_rref(c, args, out, _):
    field, rows, ncols = args[0], args[1], args[2]
    pivots, out_rows = out[0], out[1]
    c["rows_in"] += len(rows)
    c["cols_in"] += ncols
    c["rank"] += len(pivots)
    c["nnz_out"] += sum(len(r) for r in out_rows)
    if field.kind == "Q":  # ints and Fractions both carry numerator/denominator
        c["max_bits"] = max(
            [c["max_bits"]] + [max(v.numerator.bit_length(), v.denominator.bit_length())
                               for r in out_rows for v in r.values()])


HOOKS = {"kernels.build_rref": (None, _count_rref)}
HOOKS.update({span: (_cache_probe(key), _count_cached) for span, key in CACHED.items()})


class Tracer:
    """Accumulates calls, self time and counters per span name.

    `install()` patches every target that exists and returns the names
    it could not find; `uninstall()` puts the originals back.  A counter
    hook that fails is recorded in `hook_errors` and never reaches the
    program under test.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(int))
        self.covered_s = 0.0
        self.hook_errors = {}
        self._stack = []
        self._undo = []

    def _hook(self, name, fn, *args):
        try:
            return fn(*args)
        except Exception as e:  # counting must not change what the program does
            self.hook_errors[name] = f"{type(e).__name__}: {e}"
            return None

    def wrap(self, name, fn):
        stat = self.stats[name]
        before, after = HOOKS.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            t0 = clock()
            hit = tracer._hook(name, before, args) if before is not None else None
            stack.append(0.0)
            done = False
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t2 = clock()
                stat["calls"] += 1
                stat["self_s"] += t2 - t1 - stack.pop()
                if done and after is not None:
                    tracer._hook(name, after, stat, args, out, hit)
                spent = clock() - t0
                if stack:
                    stack[-1] += spent
                else:
                    tracer.covered_s += spent

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def install(self):
        missing, targets = [], []
        for name, modname, attr in FUNCTIONS:
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{modname}.{attr}")
                continue
            targets.append((name, owner, path, leaf, orig))
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hochcap" or k.startswith("hochcap."))]
        for name, owner, path, leaf, orig in targets:
            wrapped = self.wrap(name, orig)
            if path:
                setattr(owner, leaf, wrapped)
                self._undo.append((owner, leaf, orig))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        return missing

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def metrics(self, passes):
        """Per-layer metrics per traced pass, named as in metric_names()."""
        out = {}
        for span in SPANS:
            st = self.stats[span]
            out[f"{span}.calls"] = st["calls"] / passes
            out[f"{span}.self_s"] = st["self_s"] / passes
            for c in SUMS.get(span, ()):
                out[f"{span}.{c}"] = st[c] / passes
            if span == "kernels.build_rref":
                out[f"{span}.max_bits"] = st["max_bits"]
            if span in CACHED:
                out[f"{span}.cache_hit_ratio"] = (
                    st["hits"] / st["lookups"] if st["lookups"] else 0.0)
        return out
