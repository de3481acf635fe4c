"""The JSON algebra format: round trips, fixtures, rejection diagnostics."""

import copy
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hochcap import serialize, zoo
from hochcap.bimodules import Bimodule
from hochcap.errors import ParseError, ValidationError
from hochcap.fields import QQ
from hochcap.linalg import SparseMat


@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_round_trip_every_zoo_algebra(name):
    A = zoo.get(name)
    B, modules = serialize.loads(serialize.dumps(A))
    assert modules == {}
    assert B.field == A.field
    assert B.basis == A.basis
    assert B.unit == A.unit
    assert B.mult == A.mult
    assert B.label == A.label


@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_shipped_fixtures_match_builders(name):
    text = zoo.data_path(name).read_text()
    B, _ = serialize.loads(text)
    A = zoo.get(name)
    assert (B.field, B.basis, B.unit, B.mult) == (A.field, A.basis, A.unit, A.mult)
    # the shipped bytes are exactly what dumps produces today
    assert text == serialize.dumps(A)


def test_output_bytes_are_stable():
    A = zoo.get("truncated_cubic")
    assert serialize.dumps(A) == serialize.dumps(A)


def test_fractional_coefficients_survive():
    A, _ = serialize.loads(
        json.dumps(
            {
                "field": {"kind": "Q"},
                "basis": ["u"],
                "unit": ["3/2"],
                "structure": [[0, 0, 0, "2/3"]],
            }
        )
    )
    B, _ = serialize.loads(serialize.dumps(A))
    assert B.mult == A.mult and B.unit == A.unit


def test_bimodule_block_round_trip():
    A = zoo.get("dual_numbers")
    fld = A.field
    ident = SparseMat.identity(1, fld)
    zero = SparseMat.zero(1, 1, fld)
    S = Bimodule(A, 1, (ident, zero), (ident, zero), label="torsion").validate()
    text = serialize.dumps(A, bimodules={"torsion": S})
    B, modules = serialize.loads(text)
    assert set(modules) == {"torsion"}
    T = modules["torsion"]
    assert T.dim == 1
    assert T.left == S.left and T.right == S.right


def test_invalid_json_reports_position():
    with pytest.raises(ParseError, match="line 1"):
        serialize.loads("{oops")


def test_nonprime_characteristic_rejected():
    with pytest.raises(ParseError, match="prime"):
        serialize.loads(
            json.dumps(
                {
                    "field": {"kind": "Fp", "p": 4},
                    "basis": ["e"],
                    "unit": ["1"],
                    "structure": [[0, 0, 0, "1"]],
                }
            )
        )


def _point_algebra(p):
    return json.dumps(
        {
            "field": {"kind": "Fp", "p": p},
            "basis": ["e"],
            "unit": ["1"],
            "structure": [[0, 0, 0, "1"]],
        }
    )


def test_large_prime_loads_quickly():
    p = 2305843009213693951  # 2**61 - 1
    start = time.perf_counter()
    A, _ = serialize.loads(_point_algebra(p))
    assert time.perf_counter() - start < 0.01
    assert A.field.p == p


@pytest.mark.parametrize(
    "p",
    [
        561,  # Carmichael number
        # strong pseudoprime to every prime base up to 37; only base 41 exposes it
        318665857834031151167461,
        # the first strong pseudoprime to all 13 bases: above the exact range
        3317044064679887385961981,
        1 << 89,
    ],
)
def test_composite_and_out_of_range_p_rejected(p):
    with pytest.raises(ParseError, match="p must be"):
        serialize.loads(_point_algebra(p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, (1 << 31) + 11, (1 << 61) - 1])
def test_primes_accepted(p):
    A, _ = serialize.loads(_point_algebra(p))
    assert A.field.p == p


def test_nonassociative_structure_rejected():
    # x*x = y, y*x = x, x*y = 0 so (x x) x = x but x (x x) = 0
    doc = {
        "field": {"kind": "Q"},
        "basis": ["e", "x", "y"],
        "unit": ["1", "0", "0"],
        "structure": [
            [0, 0, 0, "1"],
            [0, 1, 1, "1"],
            [0, 2, 2, "1"],
            [1, 0, 1, "1"],
            [2, 0, 2, "1"],
            [1, 1, 2, "1"],
            [2, 1, 1, "1"],
        ],
    }
    with pytest.raises(ValidationError, match="associativity"):
        serialize.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d.pop("unit"), "missing 'unit'"),
        (lambda d: d.update(unit=["1"]), "2 entries"),
        (lambda d: d["structure"].append([0, 0, "x", "1"]), "indices"),
        (lambda d: d["structure"].append([0, 0]), "need"),
        (lambda d: d.update(basis=[]), "nonempty"),
        (lambda d: d.update(field={"kind": "R"}), "unknown field kind"),
        (lambda d: d["structure"].append([0, 0, 9, "1"]), "out of range"),
        (lambda d: d["structure"].append([0, 0, 0, "1/0"]), "bad rational"),
    ],
)
def test_schema_violations_name_the_field(mangle, message):
    doc = json.loads(zoo.data_path("dual_numbers").read_text())
    mangle(doc)
    with pytest.raises((ParseError, ValidationError), match=message):
        serialize.loads(json.dumps(doc))


def test_bimodule_block_violations():
    base = json.loads(zoo.data_path("dual_numbers").read_text())
    base["bimodules"] = {"bad": {"dimension": 1, "left": [[["1"]]], "right": [[["1"]], [["0"]]]}}
    with pytest.raises(ParseError, match="one matrix per basis element"):
        serialize.loads(json.dumps(base))
    # right shape but the nilpotent acts as the identity: not an action
    base["bimodules"] = {
        "bad": {
            "dimension": 1,
            "left": [[["1"]], [["1"]]],
            "right": [[["1"]], [["0"]]],
        }
    }
    with pytest.raises(ValidationError):
        serialize.loads(json.dumps(base))


def test_load_prefixes_path_on_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("[]")
    with pytest.raises(ParseError, match="broken.json"):
        serialize.load(str(p))


def test_unit_must_be_a_unit():
    doc = {
        "field": {"kind": "Q"},
        "basis": ["a"],
        "unit": ["2"],
        "structure": [[0, 0, 0, "1"]],
    }
    with pytest.raises(ValidationError, match="unit"):
        serialize.loads(json.dumps(doc))


def _dual_numbers_doc(**fields):
    doc = json.loads(zoo.data_path("dual_numbers").read_text())
    doc.update(fields)
    return json.dumps(doc)


def test_bimodules_must_be_an_object():
    with pytest.raises(ParseError, match="'bimodules' must be an object"):
        serialize.loads(_dual_numbers_doc(bimodules=[]))


def test_integer_past_the_string_limit_is_a_parse_error():
    text = _dual_numbers_doc().replace('"unit": ["1", "0"]', '"unit": [1' + "0" * 5000 + ', "0"]')
    assert "0" * 5000 in text
    with pytest.raises(ParseError, match="more than 4300 digits"):
        serialize.loads(text)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        serialize.loads("[" * 100000 + "]" * 100000)


@pytest.mark.parametrize("literal", ["1e10000000", "1E-10000000", "7.5e+4301", "1e1_0000"])
def test_huge_exponent_refused_before_expansion(literal):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds 4300"):
        QQ.coerce(literal)
    with pytest.raises(ParseError, match="exceeds 4300"):
        serialize.loads(_dual_numbers_doc(unit=[literal, "0"]))
    assert time.perf_counter() - start < 0.01


def test_exponents_within_the_bound_still_parse():
    assert QQ.coerce("1e3") == 1000
    assert QQ.coerce("25e-2") == QQ.coerce("1/4")
    assert QQ.coerce("1e4300") == 10 ** 4300
    assert QQ.coerce("1e-04300") == Fraction(1, 10 ** 4300)


@pytest.mark.parametrize("p", [[2], {"p": 2}, 2.0, "2", None, True])
def test_non_integer_p_is_a_parse_error(p):
    with pytest.raises(ParseError, match="p must be"):
        serialize.loads(_point_algebra(p))


# -- fuzzing: every input loads or is refused with ParseError/ValidationError

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.integers()
    | st.floats()
    | st.sampled_from(["0", "1", "-1", "1/2", "2/0", "1e3", "x", ""])
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)


def _with_torsion():
    A = zoo.get("dual_numbers")
    ident = SparseMat.identity(1, A.field)
    zero = SparseMat.zero(1, 1, A.field)
    S = Bimodule(A, 1, (ident, zero), (ident, zero), label="torsion").validate()
    return json.loads(serialize.dumps(A, bimodules={"torsion": S}))


SHIPPED_DOCS = [json.loads(zoo.data_path(n).read_text()) for n in sorted(zoo.ZOO)]
SHIPPED_DOCS.append(_with_torsion())


def _paths(obj, prefix=()):
    """Every position in a parsed JSON document, as a key path."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


_TOP_LEVEL = {
    "label": JSON_VALUES,
    "field": st.fixed_dictionaries(
        {"kind": st.sampled_from(["Q", "Fp", "R"])}, optional={"p": JSON_VALUES}
    ) | JSON_VALUES,
    "basis": JSON_VALUES,
    "unit": JSON_VALUES,
    "structure": JSON_VALUES,
    "bimodules": JSON_VALUES,
}


@st.composite
def mutated_docs(draw):
    """A shipped document with one to three fields set, replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))[1:]
        action = draw(st.sampled_from(["set", "replace", "delete"]))
        if action == "set" or not paths:
            key = draw(st.sampled_from(sorted(_TOP_LEVEL)))
            doc[key] = draw(_TOP_LEVEL[key])
            continue
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            del parent[path[-1]]
    return json.dumps(doc)


@settings(max_examples=400)
@given(st.one_of(JSON_VALUES.map(json.dumps), mutated_docs(), st.text(max_size=30)))
@example(_dual_numbers_doc(bimodules=[]))
@example(_dual_numbers_doc().replace('"unit": ["1", "0"]', '"unit": [1' + "0" * 5000 + ', "0"]'))
@example(_dual_numbers_doc(unit=["1e10000000", "0"]))
def test_loads_accepts_or_refuses_quickly(text):
    start = time.perf_counter()
    try:
        serialize.loads(text)
    except (ParseError, ValidationError):
        pass
    assert time.perf_counter() - start < 1.0
