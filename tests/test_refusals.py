"""Every refusal of the public API that the other tests never trigger:
the exception type and a fragment of its message, one row per raise."""

import json
from fractions import Fraction

import pytest

from hochcap import serialize, zoo
from hochcap.algebras import AlgebraPresentation
from hochcap.bimodules import (
    Bimodule, BimoduleMorphism, direct_sum, make_ses, tensor_over_algebra)
from hochcap.cap import bar_differential, cap_via_lift, coboundary_lift, solve_lift
from hochcap.complexes import boundary_matrix, coboundary_matrix, homology
from hochcap.errors import DegreeError, NotExact, ParseError, ValidationError
from hochcap.fields import GF, QQ
from hochcap.linalg import SparseMat, subquotient


def _mat(*rows):
    return SparseMat.from_dense(QQ, [list(row) for row in rows])


def _point(A, left, right):
    """A one dimensional bimodule over A = Q x Q, e_1 and e_2 acting by the
    given scalars."""
    return Bimodule(A, 1, [_mat([c]) for c in left], [_mat([c]) for c in right])


def _plane(left, right):
    """Q^2 over Q x Q, e_1 acting by the given idempotents and e_2 by
    their complements."""
    one = _mat([1, 0], [0, 1])
    return Bimodule(zoo.get("product_qq"), 2, (left, one - left), (right, one - right))


def _morphism(left, right, rows):
    """A morphism between two points over one copy of Q x Q."""
    A = zoo.get("product_qq")
    return BimoduleMorphism(_point(A, *left), _point(A, *right), _mat(*rows))


def _middle_mismatch():
    # inc_1 into one copy of N (+) N, pr_2 out of another
    N = zoo.get("dual_numbers").regular()
    make_ses(direct_sum(N, N)[1], direct_sum(N, N)[4])


def _not_surjective():
    N = zoo.get("dual_numbers").regular()
    S, inc1, *_ = direct_sum(N, N)
    make_ses(inc1, BimoduleMorphism(S, N, SparseMat.zero(N.dim, S.dim, N.field)))


def _kernel_larger_than_image():
    # inc_1 and pr_3 on (N (+) N) (+) N: g o f = 0, but ker pr_3 is twice im inc_1
    N = zoo.get("dual_numbers").regular()
    S, inc1, *_ = direct_sum(N, N)
    T, incS, _, _, pr3 = direct_sum(S, N)
    make_ses(BimoduleMorphism(N, T, incS.matrix @ inc1.matrix), pr3)


def _load_bimodule(block):
    obj = json.loads(zoo.data_path("dual_numbers").read_text())
    serialize.algebra_from_dict({**obj, "bimodules": {"X": block}})


def _cocycle_lift(m, depth):
    """A seedless lift on the dual numbers: of the unit (m = 0) or of the
    coboundary of a 0-cochain (m = 1)."""
    A = zoo.get("dual_numbers")
    if m == 0:
        return A, solve_lift(A, A.unit, 0, depth)
    return A, solve_lift(A, coboundary_matrix(A.regular(), 0).matvec({1: 1}), 1, depth)


def _cap_past_the_degree():
    A, lift = _cocycle_lift(1, 1)
    cap_via_lift(A.regular(), 0, {}, lift)


def _cap_past_the_depth():
    A, lift = _cocycle_lift(0, 1)
    cap_via_lift(A.regular(), 3, {}, lift)


def _left_without_right_unit():
    # e_i e_j = e_j: e_1 is a unit on the left only
    rows = [(i, j, j, 1) for i in range(2) for j in range(2)]
    AlgebraPresentation(QQ, ["a", "b"], rows, [1, 0]).validate()


REFUSALS = {
    # Bimodule.validate
    "bimodule: one action per basis element": (
        lambda: Bimodule(zoo.get("product_qq"), 1, [_mat([1])], [_mat([1])]).validate(),
        ValidationError, "one action matrix per algebra basis element"),
    "bimodule: action shape": (
        lambda: Bimodule(zoo.get("product_qq"), 1, [_mat([1, 0], [0, 1])] * 2,
                         [_mat([1])] * 2).validate(),
        ValidationError, "action matrix has the wrong shape"),
    "bimodule: right action": (
        lambda: Bimodule(zoo.get("dual_numbers"), 1, [_mat([1]), _mat([0])],
                         [_mat([1]), _mat([1])]).validate(),
        ValidationError, "right action fails at e_1 e_1"),
    "bimodule: actions commute": (
        lambda: _plane(_mat([1, 0], [0, 0]), _mat([1, 1], [0, 0])).validate(),
        ValidationError, "actions do not commute at (0,0)"),
    "bimodule: left unit": (
        lambda: _point(zoo.get("product_qq"), (0, 0), (1, 0)).validate(),
        ValidationError, "unit does not act as identity on the left"),
    "bimodule: right unit": (
        lambda: _point(zoo.get("product_qq"), (1, 0), (0, 0)).validate(),
        ValidationError, "unit does not act as identity on the right"),
    # BimoduleMorphism.validate
    "morphism: other algebra": (
        lambda: BimoduleMorphism(zoo.get("dual_numbers").regular(),
                                 zoo.get("dual_numbers").regular(),
                                 _mat([1, 0], [0, 1])).validate(),
        ValidationError, "different algebras"),
    "morphism: shape": (
        lambda: _morphism(((1, 0), (1, 0)), ((1, 0), (1, 0)), [[1, 0]]).validate(),
        ValidationError, "morphism matrix has the wrong shape"),
    "morphism: right action": (
        lambda: _morphism(((1, 0), (1, 0)), ((1, 0), (0, 1)), [[1]]).validate(),
        ValidationError, "morphism fails right action of e_0"),
    # make_ses
    "ses: middle": (_middle_mismatch, ValidationError, "do not share the middle bimodule"),
    "ses: surjective": (_not_surjective, NotExact, "second map is not surjective (rank 0 < 2)"),
    "ses: im f inside ker g": (
        _kernel_larger_than_image, NotExact,
        "im f strictly inside ker g: rank f (2) + rank g (2) != dim middle (6)"),
    # tensor_over_algebra
    "tensor: two algebras": (
        lambda: tensor_over_algebra(zoo.get("dual_numbers").regular(),
                                    zoo.get("dual_numbers").regular()),
        ValidationError, "tensor factors live over different algebras"),
    # serialize
    "json: block": (lambda: _load_bimodule(3), ParseError, "bimodules['X']: must be an object"),
    "json: dimension": (
        lambda: _load_bimodule({"dimension": 0, "left": [], "right": []}),
        ParseError, "bimodules['X']: dimension must be positive"),
    "json: square action": (
        lambda: _load_bimodule({"dimension": 1, "left": [[[1, 0]], [[0]]], "right": []}),
        ParseError, "bimodules['X']: left[0] must be a 1x1 matrix"),
    # the prime fields
    "F_p: literal": (lambda: GF(3).coerce("1/2"), ParseError, "bad integer literal '1/2'"),
    "F_p: denominator": (lambda: GF(3).coerce(Fraction(1, 3)), ParseError,
                         "denominator of 1/3 vanishes mod 3"),
    "F_p: float": (lambda: GF(3).coerce(0.5), ParseError, "cannot coerce 0.5 into F_3"),
    "F_p: inverse": (lambda: GF(3).inv(0), ZeroDivisionError, "inverse of 0"),
    # degrees of the bar resolution and the lifts
    "bar: degree 0": (lambda: bar_differential(zoo.get("dual_numbers"), 0), DegreeError,
                      "bar differential starts in degree 1"),
    "lift: negative": (lambda: solve_lift(zoo.get("dual_numbers"), {0: 1}, 0, -1), DegreeError,
                       "lift degrees must be nonnegative"),
    "lift: coboundary of degree 0": (
        lambda: coboundary_lift(zoo.get("dual_numbers"), {0: 1}, 0, 1),
        DegreeError, "a coboundary lift needs m >= 1"),
    "cap via lift: m > n": (_cap_past_the_degree, DegreeError, "cap needs m <= n"),
    "cap via lift: depth": (_cap_past_the_depth, DegreeError,
                            "lift only computed to depth 1, need 3"),
    # complexes, algebras, the zoo and subquotients
    "boundary: degree 0": (lambda: boundary_matrix(zoo.get("dual_numbers").regular(), 0),
                           DegreeError, "boundary starts in degree 1"),
    "coboundary: degree -1": (lambda: coboundary_matrix(zoo.get("dual_numbers").regular(), -1),
                              DegreeError, "cochains start in degree 0"),
    "class space: negative degree": (lambda: homology(zoo.get("dual_numbers").regular(), -1),
                                     DegreeError, "homology degree must be nonnegative"),
    "algebra: empty basis": (lambda: AlgebraPresentation(QQ, [], [], []), ValidationError,
                             "algebra must have positive dimension"),
    "algebra: right unit": (_left_without_right_unit, ValidationError,
                            "unit fails on the right of e_1"),
    "zoo: unknown name": (lambda: zoo.data_path("quaternions"), KeyError,
                          "unknown zoo algebra 'quaternions'"),
    "subquotient: shapes": (lambda: subquotient(_mat([1, 0], [0, 1]), _mat([1])), ValueError,
                            "cycle and boundary matrices live in different spaces"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
