import random

import pytest

import coxhull.propcheck
from coxhull.formulas import (C2CaseParams, a2_sides_forms, c2_case2_counts,
                              c2_case2_forms)
from coxhull.poly import MultiPoly, check_nonneg_coeffs
from coxhull.propcheck import (MismatchReport, VARS_A2, VARS_SUB,
                               a2_box_violations, a2_decomposed_lhs,
                               a2_factored_rhs,
                               a2_sides_poly, c2_box_violations,
                               c2_paper_forms, case2_corrected_difference,
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
    size_uv, size_vw, size_uvw = c2_paper_forms(2, 2, 5, 4)
    assert size_uv * size_vw - size_uvw == 46


def test_expansion_agrees_with_integer_route():
    verify_c2_expansion()
    rng = random.Random(42)
    for _ in range(200):
        k, n, p, q = (rng.randint(0, 10) for _ in range(4))
        a, b = 4 * n + 2, k + 2
        x, y = 4 * n + 4 * q + 5, k + p + 3
        size_uv, size_vw, size_uvw = c2_paper_forms(a, b, x, y)
        assert case2_expected_difference(k, n, p, q) == size_uv * size_vw - size_uvw


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


def test_paper_forms_differ_from_corrected_only_in_the_middle():
    x, y, a, b = (MultiPoly.var(VARS_A2, v) for v in VARS_A2)
    paper = c2_paper_forms(a, b, x, y)
    corrected = c2_case2_forms(a, b, x, y)
    assert paper[0] == corrected[0] and paper[2] == corrected[2]
    assert corrected[1] - paper[1] == MultiPoly.constant(VARS_A2, 1)


def test_mismatch_reporting_lists_terms(monkeypatch):
    monkeypatch.setattr(coxhull.propcheck, "case2_corrected_difference",
                        lambda k, n, p, q: case2_corrected_difference(k, n, p, q) + k * q)
    with pytest.raises(MismatchReport) as exc:
        verify_c2_corrected_expansion()
    assert exc.value.label == "corrected case-2 difference"
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


def test_c2_box_reports_violations(monkeypatch):
    # The triple side one chamber larger than the product of the pair
    # sides: every admissible tuple violates the inequality.
    def broken(a, b, x, y):
        size_uv, size_vw, _ = c2_paper_forms(a, b, x, y)
        return size_uv, size_vw, size_uv * size_vw + 1

    monkeypatch.setattr(coxhull.propcheck, "c2_paper_forms", broken)
    bad = c2_box_violations(9)
    assert bad[0] == (2, 2, 5, 3, 40, 41)
    assert [t[:4] for t in bad] == [
        (a, b, x, y) for a in (2, 6) for x in range(a + 3, 10, 4)
        for b in range(2, 10) for y in range(b + 1, 10)]
    assert all(rhs == lhs + 1 for *_, lhs, rhs in bad)


def test_a2_box_reports_violations(monkeypatch):
    def broken(x, y, a, b):
        lhs, _ = a2_sides_forms(x, y, a, b)
        return lhs, lhs + 1

    monkeypatch.setattr(coxhull.propcheck, "a2_sides_forms", broken)
    bad = a2_box_violations(3)
    assert bad[0] == (0, 1, 1, 1, 6, 7)
    assert len(bad) == 35
    assert all(rhs == lhs + 1 for *_, lhs, rhs in bad)
