import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxhull.poly import (MultiPoly, ParseError, UnknownVariable,
                          check_nonneg_coeffs, poly_parse)

VARS = ("k", "n", "p", "q")


def polys(variables=VARS, max_terms=6):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * len(variables))
    return st.builds(
        lambda terms: MultiPoly(variables, terms),
        st.dictionaries(exponents, st.integers(min_value=-9, max_value=9),
                        max_size=max_terms),
    )


def test_parse_product():
    p = poly_parse("(k+1)*(p+1)", VARS)
    assert p == poly_parse("k*p + k + p + 1", VARS)
    assert p.coefficient(k=1, p=1) == 1
    assert p.coefficient() == 1


def test_substitute_square():
    a_vars = ("a", "n")
    p = poly_parse("a^2", a_vars)
    q = p.substitute("a", poly_parse("4*n+2", a_vars))
    assert q == poly_parse("16*n^2 + 16*n + 4", a_vars)


def test_caret_and_doublestar_powers():
    assert poly_parse("k^2", VARS) == poly_parse("k**2", VARS)


def test_parse_errors():
    with pytest.raises(ParseError):
        poly_parse("k +", VARS)
    with pytest.raises(ParseError):
        poly_parse("k/2", VARS)
    with pytest.raises(ParseError):
        poly_parse("2.5*k", VARS)
    with pytest.raises(UnknownVariable):
        poly_parse("z + 1", VARS)


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


@given(polys(), st.integers(min_value=-4, max_value=4),
       st.tuples(*[st.integers(min_value=-4, max_value=4)] * len(VARS)))
def test_substitution_then_eval_agrees(p, shift, point):
    # substitute k -> n + shift, then evaluate; must equal direct evaluation
    repl = poly_parse(f"n + {shift}" if shift >= 0 else f"n - {-shift}", VARS)
    q = p.substitute("k", repl)
    assignment = dict(zip(VARS, point))
    k_value = assignment["n"] + shift
    direct = p.eval({**assignment, "k": k_value})
    assert q.eval(assignment) == direct


def test_graded_lex_printing():
    p = poly_parse("1 + k + n^2 + k*n*p", VARS)
    assert str(p) == "k*n*p + n^2 + k + 1"
    assert str(MultiPoly(VARS)) == "0"
    assert str(poly_parse("-k + 2", VARS)) == "-k + 2"


def test_restrict():
    p = poly_parse("k*p + 3", VARS)
    q = p.restrict(("k", "p"))
    assert q.variables == ("k", "p")
    assert q.coefficient(k=1, p=1) == 1
    with pytest.raises(UnknownVariable):
        poly_parse("k*n", VARS).restrict(("k", "p"))


def test_variable_mismatch_rejected():
    with pytest.raises(UnknownVariable):
        poly_parse("k", VARS) + poly_parse("x", ("x", "y"))


def test_check_nonneg_coeffs():
    assert check_nonneg_coeffs(MultiPoly(VARS))
    assert check_nonneg_coeffs(poly_parse("k*p + 2", VARS))
    assert not check_nonneg_coeffs(poly_parse("k*p - 1", VARS))
