import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxhull.poly import MultiPoly, UnknownVariable, check_nonneg_coeffs

VARS = ("k", "n", "p", "q")


def polys(variables=VARS, max_terms=6):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * len(variables))
    return st.builds(
        lambda terms: MultiPoly(variables, terms),
        st.dictionaries(exponents, st.integers(min_value=-9, max_value=9),
                        max_size=max_terms),
    )


def _vars():
    return [MultiPoly.var(VARS, v) for v in VARS]


@given(polys(), polys())
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys(), polys())
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys(), polys(), polys())
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys())
def test_zero_coefficients_never_stored(p):
    assert all(c != 0 for c in p.terms.values())
    assert (p - p).is_zero()


@given(polys(), st.tuples(*[st.integers(min_value=-5, max_value=5)] * len(VARS)))
def test_eval_is_ring_homomorphism(p, point):
    assignment = dict(zip(VARS, point))
    direct = p.eval(assignment)
    total = 0
    for expo, coeff in p.terms.items():
        term = coeff
        for v, e in zip(point, expo):
            term *= v ** e
        total += term
    assert direct == total


def test_graded_lex_printing():
    k, n, p, q = _vars()
    assert str(1 + k + n * n + k * n * p) == "k*n*p + n^2 + k + 1"
    assert str(MultiPoly(VARS)) == "0"
    assert str(-k + 2) == "-k + 2"


def test_variable_mismatch_rejected():
    with pytest.raises(UnknownVariable):
        MultiPoly.var(VARS, "k") + MultiPoly.var(("x", "y"), "x")


def test_check_nonneg_coeffs():
    k, n, p, q = _vars()
    assert check_nonneg_coeffs(MultiPoly(VARS))
    assert check_nonneg_coeffs(k * p + 2)
    assert not check_nonneg_coeffs(k * p - 1)
