"""The defining-property checks themselves, including their failure modes."""

import functools
import itertools

import pytest

from hochcap import axioms, zoo
from hochcap.axioms import (
    CheckResult,
    check_center_linearity,
    check_cohomology_connecting,
    check_degree_zero,
    check_dimension_shift,
    check_homology_connecting,
    failures,
    run_suite,
    skips,
    summarize,
    tally,
)
from hochcap.bimodules import coinduced, induced, split_ses


def test_center_linearity_all_degree_pairs():
    A = zoo.get("truncated_cubic")
    rows = check_center_linearity(A, n_max=3)
    assert len(rows) == 10
    assert all(r.status == "pass" for r in rows)
    assert {r.degrees for r in rows} == {(n, m) for n in range(4) for m in range(n + 1)}


@pytest.mark.parametrize("name", ["dual_numbers", "f2_c2"])
def test_connecting_checks_pass_on_standard_instances(name):
    A = zoo.get(name)
    N = A.regular()
    rows = check_homology_connecting(induced(N).ses, N, n_max=2)
    rows += check_homology_connecting(split_ses(N, N), N, n_max=2)
    rows += check_cohomology_connecting(N, coinduced(N).ses, n_max=2)
    assert failures(rows) == []
    assert skips(rows) == []


def test_degree_zero_square_commutes():
    A = zoo.get("upper_triangular")
    rows = check_degree_zero(A.regular(), A.regular())
    assert [r.status for r in rows] == ["pass"]


def test_dimension_shift_ranks():
    A = zoo.get("dual_numbers")
    rows = check_dimension_shift(A, deg_max=3)
    assert failures(rows) == []
    # the surjectivity half in degrees 0..3, the injectivity half in 1..4
    assert len(rows) == 8


def test_forged_homology_sign_is_caught(monkeypatch):
    monkeypatch.setattr(axioms, "HOMOLOGY_SIGN_OFFSET", 1)
    A = zoo.get("dual_numbers")
    N = A.regular()
    rows = check_homology_connecting(induced(N).ses, N, n_max=3)
    assert failures(rows) != []


def test_forged_cohomology_sign_is_caught(monkeypatch):
    monkeypatch.setattr(axioms, "COHOMOLOGY_SIGN_OFFSET", 1)
    A = zoo.get("dual_numbers")
    N = A.regular()
    rows = check_cohomology_connecting(N, coinduced(N).ses, n_max=3)
    assert failures(rows) != []


def test_nonflat_instance_skips_with_diagnostic():
    rows = run_suite(["dual_numbers"], n_max=1)
    sk = skips(rows)
    assert len(sk) == 2
    assert all("not exact" in r.detail for r in sk)
    assert failures(rows) == []


def test_suite_on_noncommutative_algebras():
    rows = run_suite(["upper_triangular", "two_by_two_matrices"], n_max=2)
    assert failures(rows) == []
    assert skips(rows) == []


def test_summarize_and_repr():
    rows = run_suite(["rationals"], n_max=1)
    text = summarize(tally(rows))
    assert "0 failed" in text and "passed" in text
    r = CheckResult("center-linearity", "rationals", (1, 0), "pass", "4 products")
    assert "center-linearity" in repr(r) and "[pass]" in repr(r)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(axioms, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(axioms, name, counted)
    return calls


@pytest.mark.parametrize("checks, built", [(None, 1), (["center-linearity"], 0)])
def test_suite_builds_coinduced_and_induced_at_most_once(monkeypatch, checks, built):
    co = _count_calls(monkeypatch, "coinduced")
    ind = _count_calls(monkeypatch, "induced")
    rows = axioms.algebra_suite(zoo.get("dual_numbers"), n_max=1, checks=checks)
    assert not failures(rows)
    assert (len(co), len(ind)) == (built, built)


def _fields(rows):
    return [(r.check, r.instance, r.degrees, r.status, r.detail) for r in rows]


@functools.cache
def _full_dual_numbers_suite():
    return _fields(axioms.algebra_suite(zoo.get("dual_numbers"), n_max=1))


@pytest.mark.parametrize("checks", [
    subset for k in range(1, len(axioms.CHECK_NAMES) + 1)
    for subset in itertools.combinations(axioms.CHECK_NAMES, k)
], ids="+".join)
def test_check_subset_is_the_full_suite_filtered(checks):
    # dual_numbers has the torsion instances, two of which skip at degree 1
    full = _full_dual_numbers_suite()
    assert any(status == "skip" for _, _, _, status, _ in full)
    rows = axioms.algebra_suite(zoo.get("dual_numbers"), n_max=1, checks=checks)
    assert _fields(rows) == [row for row in full if row[0] in checks]
