import random

import pytest

from coxhull.formulas import C2CaseParams, a2_sides_forms, c2_case2_counts
from coxhull.poly import MultiPoly, check_nonneg_coeffs
from coxhull.propcheck import (MismatchReport, VARS_SUB, a2_box_violations,
                               a2_decomposed_lhs, a2_factored_rhs,
                               a2_sides_poly, c2_box_violations,
                               c2_case2_sides_ints,
                               c2_difference_poly, case2_corrected_difference,
                               case2_expected_difference, verify_a2_identities,
                               verify_c2_corrected_expansion,
                               verify_c2_expansion)


def test_identities_hold():
    assert verify_a2_identities() == (True, True)


def test_identity_polynomials_are_equal_exactly():
    lhs, rhs = a2_sides_poly()
    zero = MultiPoly(lhs.variables)
    assert a2_decomposed_lhs() - lhs == zero
    assert a2_factored_rhs() - rhs == zero


def test_identity_spot_values():
    assert a2_sides_forms(2, 1, 1, 1)[0] == 18
    assert a2_sides_forms(1, 0, 2, 0)[1] == 4


def test_expansion_shape():
    diff = verify_c2_expansion()
    assert len(diff.terms) == 16
    assert diff.terms[1, 1, 1, 1] == 16
    assert diff.terms[0, 0, 0, 0] == 22
    assert check_nonneg_coeffs(diff)
    assert all(c > 0 for c in diff.terms.values())


def test_expansion_spot_value():
    assert case2_expected_difference(0, 0, 1, 0) == 46
    lhs, rhs = c2_case2_sides_ints(2, 2, 5, 4)
    assert lhs - rhs == 46


def test_expansion_agrees_with_integer_route():
    verify_c2_expansion()
    rng = random.Random(42)
    for _ in range(200):
        k, n, p, q = (rng.randint(0, 10) for _ in range(4))
        a, b = 4 * n + 2, k + 2
        x, y = 4 * n + 4 * q + 5, k + p + 3
        lhs, rhs = c2_case2_sides_ints(a, b, x, y)
        assert case2_expected_difference(k, n, p, q) == lhs - rhs


def test_corrected_expansion_exceeds_paper_by_size_uv():
    k, n, p, q = (MultiPoly.var(VARS_SUB, v) for v in VARS_SUB)
    corrected = case2_corrected_difference(k, n, p, q)
    paper = case2_expected_difference(k, n, p, q)
    assert corrected - paper == 4 * k * n + 4 * k + 8 * n + 4


def test_corrected_expansion_shape():
    diff = verify_c2_corrected_expansion()
    assert len(diff.terms) == 16
    assert all(c > 0 for c in diff.terms.values())


def test_corrected_expansion_agrees_with_counts():
    verify_c2_corrected_expansion()
    rng = random.Random(43)
    for _ in range(200):
        # p >= 1 keeps y >= b+2, the domain of c2_case2_counts.
        k, n, p, q = (rng.randint(0, 10), rng.randint(0, 10),
                      rng.randint(1, 10), rng.randint(0, 10))
        params = C2CaseParams(4 * n + 2, k + 2, 4 * n + 4 * q + 5, k + p + 3)
        size_uv, size_vw, size_uvw = c2_case2_counts(params)
        assert (case2_corrected_difference(k, n, p, q)
                == size_uv * size_vw - size_uvw)


def test_mismatch_reporting_lists_terms():
    k, n, p, q = (MultiPoly.var(VARS_SUB, v) for v in VARS_SUB)
    tampered = case2_expected_difference(k, n, p, q) + k * q
    with pytest.raises(MismatchReport) as exc:
        if c2_difference_poly() != tampered:
            raise MismatchReport("tampered", tampered, c2_difference_poly())
    assert exc.value.differences == [("k*q", 29, 28)]


def test_mismatch_reporting_names_the_constant_term():
    k, n, p, q = (MultiPoly.var(VARS_SUB, v) for v in VARS_SUB)
    pinned = case2_expected_difference(k, n, p, q)
    report = MismatchReport("shifted", pinned, pinned + 1)
    assert report.differences == [("1", 22, 23)]
    assert str(report).endswith("\n  1: expected 22, got 23")


def test_a2_box_clean():
    assert a2_box_violations(12) == []


def test_c2_box_clean():
    assert c2_box_violations(25) == []
