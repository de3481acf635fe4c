"""Command line front end.

    hochcap validate FILE
    hochcap homology ALGEBRA [--module NAME] [--max-degree N]
    hochcap cohomology ALGEBRA [--module NAME] [--max-degree N]
    hochcap cap ALGEBRA N M
    hochcap verify ALGEBRA [--checks LIST] [--max-degree N] [--seed S]
    hochcap zoo list
    hochcap zoo show NAME

ALGEBRA is a path to a JSON description (see serialize) or the name of
a built-in zoo algebra; an existing file wins over a zoo name.  Every
command takes --format text|json; JSON output is deterministic for a
fixed input and seed.  Exit codes: 0 success, 1 verification failures,
2 bad input or usage, 3 memory guard tripped.
"""

import argparse
import json
import os
import sys

from . import axioms, config, serialize, zoo
from .bimodules import coinduced, induced
from .cap import CapPairing
from .complexes import class_dims
from .errors import HochcapError, MemoryGuardError, ParseError

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_BAD_INPUT = 2
EXIT_MEMORY = 3


def _load_algebra(spec):
    if os.path.exists(spec):
        return serialize.load(spec)
    if spec in zoo.ZOO:
        return zoo.get(spec), {}
    raise ParseError(f"{spec!r} is neither a file nor a zoo algebra (see `zoo list`)")


def _resolve_module(A, modules, name):
    if name in (None, "regular"):
        return A.regular()
    if name == "coinduced":
        return coinduced(A.regular()).module
    if name == "induced":
        return induced(A.regular()).module
    if name in modules:
        return modules[name]
    have = ["regular", "coinduced", "induced", *sorted(modules)]
    raise ParseError(f"unknown module {name!r}; available: {', '.join(have)}")


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args):
    A, modules = serialize.load(args.file)
    payload = {
        "ok": True,
        "label": A.label,
        "field": A.field.to_json(),
        "dimension": A.dim,
        "bimodules": sorted(modules),
    }
    lines = [
        f"ok: {A.label or args.file} is a valid presentation",
        f"  field      {A.field!r}",
        f"  dimension  {A.dim}",
        f"  basis      {' '.join(A.basis)}",
    ]
    if modules:
        lines.append(f"  bimodules  {' '.join(sorted(modules))}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_dims(args):
    A, modules = _load_algebra(args.algebra)
    N = _resolve_module(A, modules, args.module)
    kind = args.command
    dims = class_dims(N, args.max_degree, kind)
    payload = {
        "algebra": A.label,
        "module": N.label or args.module or "regular",
        kind: dims,
    }
    script = "_" if kind == "homology" else "^"
    lines = [f"{kind} of {A.label or args.algebra} with coefficients in {payload['module']}"]
    lines += [f"  H{script}{n}  dim {k}" for n, k in enumerate(dims)]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_cap(args):
    A, _ = _load_algebra(args.algebra)
    N = A.regular()
    pairing = CapPairing(N, args.n, N, args.m)
    fld = A.field
    # products[a][b] is column a of the cap matrix of cochain class b
    caps = [pairing.matrix({b: fld.one}) for b in range(pairing.cochains.dim)]
    products = [[[fld.format(C.cols[a].get(i, fld.zero)) for i in range(pairing.target.dim)]
                 for C in caps] for a in range(pairing.chains.dim)]
    payload = {
        "algebra": A.label,
        "n": args.n,
        "m": args.m,
        "chain_classes": pairing.chains.dim,
        "cochain_classes": pairing.cochains.dim,
        "target_classes": pairing.target.dim,
        "products": products,
    }
    lines = [
        f"pairing H_{args.n} x H^{args.m} -> H_{args.n - args.m} "
        f"for {A.label or args.algebra} "
        f"({pairing.chains.dim} x {pairing.cochains.dim} classes, "
        f"target dim {pairing.target.dim})"
    ]
    for a, row in enumerate(products):
        for b, coords in enumerate(row):
            lines.append(f"  h[{a}] cap c[{b}] = ({', '.join(coords)})")
    if not products or not products[0]:
        lines.append("  (no classes in one of the degrees)")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args):
    A, _ = _load_algebra(args.algebra)
    checks = None
    if args.checks and args.checks != "all":
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    try:
        rows = axioms.algebra_suite(
            A, n_max=args.max_degree, seed=args.seed, checks=checks,
            name=A.label or args.algebra,
        )
    except ValueError as e:
        raise ParseError(str(e))
    counts = axioms.tally(rows)
    payload = {
        "algebra": A.label,
        "max_degree": args.max_degree,
        "seed": args.seed,
        "results": [
            {
                "check": r.check,
                "instance": r.instance,
                "degrees": list(r.degrees),
                "status": r.status,
                "detail": r.detail,
            }
            for r in rows
        ],
        "summary": counts,
    }
    lines = [repr(r) for r in rows]
    lines.append(axioms.summarize(counts))
    _emit(args, payload, lines)
    return EXIT_OK if counts["fail"] == 0 else EXIT_FAILURES


def cmd_zoo(args):
    if args.zoo_command == "list":
        payload = {
            "algebras": [
                {"name": name, "description": description}
                for name, description in zoo.ZOO.items()
            ]
        }
        lines = [f"  {name:22s} {description}" for name, description in zoo.ZOO.items()]
        _emit(args, payload, lines)
        return EXIT_OK
    # zoo show
    if args.name not in zoo.ZOO:
        raise ParseError(f"unknown zoo algebra {args.name!r}")
    A = zoo.get(args.name)
    nonzero = sum(len(A.mult[i][j]) for i in range(A.dim) for j in range(A.dim))
    lines = [
        f"{args.name}: {zoo.ZOO[args.name]}",
        f"  field      {A.field!r}",
        f"  dimension  {A.dim}",
        f"  basis      {' '.join(A.basis)}",
        f"  center     dim {len(A.center())}",
        f"  structure  {nonzero} nonzero products",
    ]
    _emit(args, serialize.algebra_to_dict(A), lines)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hochcap",
        description="Exact homology, cohomology and cap products for "
        "finite dimensional algebras.",
    )
    parser.add_argument(
        "--memory-cap",
        type=int,
        default=None,
        metavar="N",
        help="abort any computation that needs more than N coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="parse and validate a JSON algebra file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_validate)

    for kind in ("homology", "cohomology"):
        p = sub.add_parser(kind, help=f"print {kind} dimensions")
        p.add_argument("algebra", help="zoo name or JSON file")
        p.add_argument("--module", default="regular", metavar="NAME",
                       help="regular, coinduced, induced or a bimodule from the file")
        p.add_argument("--max-degree", type=int, default=4, metavar="N")
        add_format(p)
        p.set_defaults(func=cmd_dims)

    p = sub.add_parser("cap", help="pairing of basis classes with regular coefficients")
    p.add_argument("algebra", help="zoo name or JSON file")
    p.add_argument("n", type=int, help="homology degree")
    p.add_argument("m", type=int, help="cohomology degree")
    add_format(p)
    p.set_defaults(func=cmd_cap)

    p = sub.add_parser("verify", help="run the structural identity checks")
    p.add_argument("algebra", help="zoo name or JSON file")
    p.add_argument("--checks", default="all", metavar="LIST",
                   help="comma separated subset of: " + ", ".join(axioms.CHECK_NAMES))
    p.add_argument("--max-degree", type=int, default=3, metavar="N")
    p.add_argument("--seed", type=int, default=11, metavar="S")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zoo", help="built-in example algebras")
    zsub = p.add_subparsers(dest="zoo_command", required=True)
    pl = zsub.add_parser("list", help="names and descriptions")
    add_format(pl)
    pl.set_defaults(func=cmd_zoo)
    ps = zsub.add_parser("show", help="details of one algebra")
    ps.add_argument("name")
    add_format(ps)
    ps.set_defaults(func=cmd_zoo)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    previous_cap = config.max_coordinates()
    if args.memory_cap is not None:
        try:
            config.set_max_coordinates(args.memory_cap)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except MemoryGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MEMORY
    except HochcapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        config.set_max_coordinates(previous_cap)


if __name__ == "__main__":
    sys.exit(main())
