"""Kunneth checks on tensor products of zoo algebras, with no oracle.

Over a field, HH_*(A (x) B) = HH_*(A) (x) HH_*(B) and, for finite
dimensional algebras, HH^*(A (x) B) = HH^*(A) (x) HH^*(B) (Loday, Cyclic
Homology, 4.2), so the dimensions of the tensor algebra are the
convolution of the factors'.  The isomorphism carries the action of
z_A (x) z_B on the module slot to the tensor product of the two actions,
so its rank on H_n is the sum over i + j = n of the products of the
factors' ranks: the first check of a product that calls nothing but the
code under test.  The tensor algebras are built in `_oracle.tensor`.
"""

import pytest

from hochcap import zoo
from hochcap.complexes import central_action, class_dims, class_space
from hochcap.linalg import rank

import _oracle

KINDS = ("homology", "cohomology")


def _convolution(xs, ys, top):
    return [sum(xs[i] * ys[n - i] for i in range(n + 1)) for n in range(top + 1)]


@pytest.mark.parametrize("left,right,top,want", [
    ("dual_numbers", "dual_numbers", 6, {"homology": [4, 4, 5, 6, 7, 8, 9]}),
    ("f2_c2", "f2_c2", 5, {"homology": [4, 8, 12, 16, 20, 24]}),
    ("dual_numbers", "upper_triangular", 4,
     {"homology": [4, 2, 2, 2, 2], "cohomology": [2, 1, 1, 1, 1]}),
    ("truncated_cubic", "dual_numbers", 4, {"homology": [6, 7, 9, 11, 13]}),
])
def test_dimensions_are_the_convolution_of_the_factors(left, right, top, want):
    A, B = zoo.get(left), zoo.get(right)
    T = _oracle.tensor(A, B).regular()
    for kind in KINDS:
        got = class_dims(T, top, kind)
        assert got == _convolution(class_dims(A.regular(), top, kind),
                                   class_dims(B.regular(), top, kind), top)
        # the commutative algebras have equal homology and cohomology
        assert got == want.get(kind, want["homology"])
        # the standard complex, where class coordinates live, agrees
        assert [class_space(T, n, kind).dim for n in range(4)] == got[:4]


def _ranks(N, z, top):
    return [rank(central_action(class_space(N, n, "homology"), z)) for n in range(top + 1)]


@pytest.mark.parametrize("left,right", [
    ("dual_numbers", "dual_numbers"),
    ("truncated_cubic", "dual_numbers"),
    ("dual_numbers", "upper_triangular"),
])
def test_central_action_rank_is_the_kunneth_sum(left, right):
    A, B = zoo.get(left), zoo.get(right)
    T = _oracle.tensor(A, B).regular()
    fld, d = A.field, B.dim
    top = 3
    for za in A.center():
        ra = _ranks(A.regular(), za, top)
        for zb in B.center():
            z = {i * d + j: fld.mul(u, v) for i, u in za.items() for j, v in zb.items()}
            assert _ranks(T, z, top) == _convolution(ra, _ranks(B.regular(), zb, top), top)
