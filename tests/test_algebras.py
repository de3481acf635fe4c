import json
import time
from fractions import Fraction

import pytest

from hochcap import serialize, zoo
from hochcap.algebras import AlgebraPresentation
from hochcap.errors import MemoryGuardError, ValidationError
from hochcap.fields import GF, QQ


def test_zoo_validates():
    for name in zoo.ZOO:
        a = zoo.get(name)
        a.validate()
        assert a.label == name


def test_validation_catches_nonassociative():
    # x*y = e but y*x = 0, all other non-unit products zero:
    # (x y) x = x  while  x (y x) = 0
    structure = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1)]
    structure.append((1, 2, 0, 1))  # x y = e
    bad = AlgebraPresentation(QQ, ["e", "x", "y"], structure, [1, 0, 0])
    with pytest.raises(ValidationError, match="associativity"):
        bad.validate()


def test_validation_catches_bad_unit():
    # x * e and e * x are zero, so e is not a unit
    bad = AlgebraPresentation(QQ, ["e", "x"], [(0, 0, 0, 1)], [1, 0])
    with pytest.raises(ValidationError, match="unit"):
        bad.validate()


def test_validation_reports_the_unit_first():
    # the nonassociative algebra above with x as its claimed unit fails
    # both checks; the cheap one, the unit, is reported
    structure = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
                 (1, 2, 0, 1)]
    bad = AlgebraPresentation(QQ, ["e", "x", "y"], structure, [0, 1, 0])
    with pytest.raises(ValidationError, match="unit fails"):
        bad.validate()


def test_huge_algebra_refused_before_work():
    # validate() would do d^3 = 10^12 products; the guard refuses first
    d = 10 ** 4
    basis, unit = [f"e{i}" for i in range(d)], ["1"] + ["0"] * (d - 1)
    start = time.perf_counter()
    with pytest.raises(MemoryGuardError, match="10000-dimensional algebra"):
        AlgebraPresentation(QQ, basis, [], unit)
    assert time.perf_counter() - start < 0.01
    text = json.dumps({"field": {"kind": "Q"}, "basis": basis, "unit": unit, "structure": []})
    with pytest.raises(MemoryGuardError, match="refusing to allocate 1000000000000 "):
        serialize.loads(text)


def test_multiply():
    a = zoo.get("dual_numbers")
    x = {1: Fraction(1)}
    assert a.multiply(x, x) == {}
    assert a.multiply(a.unit, x) == x
    m2 = zoo.get("two_by_two_matrices")
    e12 = {1: Fraction(1)}
    e21 = {2: Fraction(1)}
    assert m2.multiply(e12, e21) == {0: Fraction(1)}  # E12 E21 = E11
    assert m2.multiply(e21, e12) == {3: Fraction(1)}  # E21 E12 = E22
    assert m2.multiply(e12, e12) == {}


def test_center_dims():
    # centers: Q -> 1, D -> 2 (commutative), Q[x]/x^3 -> 3, QxQ -> 2,
    # M2 -> 1 (scalars), T2 -> 1, F2[C2] -> 2 (commutative)
    expected = {
        "rationals": 1,
        "dual_numbers": 2,
        "truncated_cubic": 3,
        "product_qq": 2,
        "two_by_two_matrices": 1,
        "upper_triangular": 1,
        "f2_c2": 2,
    }
    for name, dim in expected.items():
        a = zoo.get(name)
        zc = a.center()
        assert len(zc) == dim, name
        for z in zc:
            assert a.is_central(z)


def test_center_of_m2_is_scalars():
    m2 = zoo.get("two_by_two_matrices")
    (z,) = m2.center()
    # the canonical generator is a scalar multiple of the identity
    assert z == {0: QQ.one, 3: QQ.one}


def test_left_right_matrices():
    t2 = zoo.get("upper_triangular")
    # left multiplication by a (= E12) sends e2 to a and kills e1, a
    la = t2.left_matrix(2)
    assert la.cols[1] == {2: QQ.one}
    assert la.cols[0] == {} and la.cols[2] == {}
    # right multiplication by a sends e1 to a
    ra = t2.right_matrix(2)
    assert ra.cols[0] == {2: QQ.one}


def test_f2_arithmetic():
    a = zoo.get("f2_c2")
    g = {1: 1}
    assert a.multiply(g, g) == {0: 1}
    s = a.multiply({0: 1, 1: 1}, {0: 1, 1: 1})
    assert s == {}  # (1+g)^2 = 1 + 2g + 1 = 0 in characteristic 2
