"""A small zoo of built-in algebras used throughout the tests and the CLI.

The selection spans the qualitatively different cases: semisimple and
separable (Q, Q x Q, 2x2 matrices), commutative non-semisimple truncated
polynomial rings, a noncommutative hereditary algebra (upper triangular
matrices), and a modular group algebra where the characteristic divides
the group order.

Each algebra is defined once, by its JSON description shipped in
`data/<name>.json`; `get` parses and validates a fresh copy per call.
"""

from . import serialize

# name -> description, in listing order
ZOO = {
    "rationals": "the rationals Q",
    "dual_numbers": "Q[x]/(x^2)",
    "truncated_cubic": "Q[x]/(x^3)",
    "product_qq": "Q x Q",
    "two_by_two_matrices": "2x2 matrices over Q",
    "upper_triangular": "upper triangular 2x2 matrices over Q",
    "f2_c2": "group algebra of C_2 over F_2",
}


def get(name):
    """A fresh, validated copy of the zoo algebra `name`."""
    return serialize.load(data_path(name))[0]


def data_path(name):
    """Shipped JSON description of a zoo algebra (a Traversable)."""
    from importlib.resources import files

    if name not in ZOO:
        raise KeyError(f"unknown zoo algebra {name!r}; see `zoo list`")
    return files(__package__) / "data" / f"{name}.json"
