"""Reading and writing algebra descriptions as JSON.

The file format:

    {
      "label": "dual numbers",
      "field": {"kind": "Q"} or {"kind": "Fp", "p": 2},
      "basis": ["e", "x"],
      "unit": ["1", "0"],
      "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], ...],
      "bimodules": {
        "name": {"dimension": 1,
                 "left":  [[["1"]], [["0"]]],
                 "right": [[["1"]], [["0"]]]}
      }
    }

A structure row (i, j, l, c) declares c as the coefficient of e_l in
e_i e_j; omitted entries are zero.  Coefficients are strings so that
rationals survive exactly ("2/3", "-1", "0.5" all work); plain JSON
integers are accepted too.  A bimodule block gives one left and one
right action matrix (dense, row major) per algebra basis element.
Everything written by `dumps` parses back to the same presentation and
the output bytes are stable across runs.
"""

import json
import sys

from .algebras import AlgebraPresentation
from .bimodules import Bimodule
from .errors import ParseError
from .fields import field_from_json
from .linalg import SparseMat


def algebra_to_dict(A, bimodules=None):
    fld = A.field
    structure = []
    for i in range(A.dim):
        for j in range(A.dim):
            for l in sorted(A.mult[i][j]):
                structure.append([i, j, l, fld.format(A.mult[i][j][l])])
    out = {
        "field": fld.to_json(),
        "basis": list(A.basis),
        "unit": [fld.format(A.unit.get(i, fld.zero)) for i in range(A.dim)],
        "structure": structure,
    }
    if A.label:
        out["label"] = A.label
    if bimodules:
        out["bimodules"] = {
            name: bimodule_to_dict(N) for name, N in sorted(bimodules.items())
        }
    return out


def bimodule_to_dict(N):
    fld = N.field

    def dense(mat):
        return [[fld.format(v) for v in row] for row in mat.to_dense()]

    return {
        "dimension": N.dim,
        "left": [dense(m) for m in N.left],
        "right": [dense(m) for m in N.right],
    }


def _expect(obj, key, kind, where):
    if key not in obj:
        raise ParseError(f"{where}: missing {key!r}")
    v = obj[key]
    if not isinstance(v, kind) or isinstance(v, bool):
        raise ParseError(f"{where}: {key!r} must be {kind.__name__}")
    return v


def algebra_from_dict(obj):
    """Builds and validates (algebra, named bimodules) from parsed JSON."""
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    fld = field_from_json(_expect(obj, "field", dict, "algebra"))
    basis = _expect(obj, "basis", list, "algebra")
    if not basis or not all(isinstance(b, str) for b in basis):
        raise ParseError("algebra: 'basis' must be a nonempty list of labels")
    d = len(basis)
    unit = _expect(obj, "unit", list, "algebra")
    if len(unit) != d:
        raise ParseError(f"algebra: 'unit' must have {d} entries")
    structure = _expect(obj, "structure", list, "algebra")
    rows = []
    for pos, row in enumerate(structure):
        if not (isinstance(row, list) and len(row) == 4):
            raise ParseError(f"structure[{pos}]: need [i, j, l, coefficient]")
        i, j, l, c = row
        if not all(type(k) is int for k in (i, j, l)):  # a JSON boolean is no index
            raise ParseError(f"structure[{pos}]: indices must be integers")
        rows.append((i, j, l, c))
    A = AlgebraPresentation(
        fld, basis, rows, unit, label=obj.get("label")
    ).validate()

    blocks = obj.get("bimodules", {})
    if not isinstance(blocks, dict):
        raise ParseError("algebra: 'bimodules' must be an object")
    modules = {}
    for name, block in blocks.items():
        modules[name] = _bimodule_from_dict(A, name, block)
    return A, modules


def _bimodule_from_dict(A, name, block):
    where = f"bimodules[{name!r}]"
    if not isinstance(block, dict):
        raise ParseError(f"{where}: must be an object")
    r = _expect(block, "dimension", int, where)
    if r < 1:
        raise ParseError(f"{where}: dimension must be positive")

    def actions(key):
        mats = _expect(block, key, list, where)
        if len(mats) != A.dim:
            raise ParseError(f"{where}: {key!r} needs one matrix per basis element")
        for s, rows in enumerate(mats):
            if not (isinstance(rows, list) and len(rows) == r
                    and all(isinstance(row, list) and len(row) == r for row in rows)):
                raise ParseError(f"{where}: {key}[{s}] must be a {r}x{r} matrix")
        return tuple(SparseMat.from_dense(A.field, rows) for rows in mats)

    return Bimodule(A, r, actions("left"), actions("right"), label=name).validate()


def loads(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError as e:  # the other ValueError: an integer past the int-string limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: an integer literal has more than {limit} digits") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply") from e
    return algebra_from_dict(obj)


def dumps(A, bimodules=None):
    return json.dumps(algebra_to_dict(A, bimodules), indent=2, sort_keys=True) + "\n"


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return loads(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e
