import math
import random

from hypothesis import given
from hypothesis import strategies as st

from coxhull.ring import RingScalar

scalars = st.builds(
    RingScalar,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-12, max_value=12).filter(lambda d: d != 0),
)


def test_canonical_form():
    assert RingScalar(2, 4, 6).key() == (1, 2, 3)
    assert RingScalar(1, 0, -2).key() == (-1, 0, 2)
    assert RingScalar(0, 0, 5).key() == (0, 0, 1)


def test_equality_is_canonical():
    assert RingScalar(2, 2, 4) == RingScalar(1, 1, 2)
    assert RingScalar(1, 1, 2) != RingScalar(1, 1, 3)
    assert RingScalar(7) == 7
    assert hash(RingScalar(3, 6, 9)) == hash(RingScalar(1, 2, 3))
    # Equal to an int, so hashed as one: mixed int and scalar keys agree.
    assert hash(RingScalar(3)) == hash(3)
    assert 3 in {RingScalar(3)} and RingScalar(-4, 0, 2) in {-2}


@given(scalars, scalars)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(scalars, scalars, scalars)
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(scalars, scalars, scalars)
def test_mul_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(scalars)
def test_sub_and_neg(x):
    assert (x - x).is_zero()
    assert x + (-x) == RingScalar(0)


@given(scalars)
def test_division_roundtrip(x):
    if not x.is_zero():
        assert (x / x) == RingScalar(1)
        assert x * x.inverse() == RingScalar(1)


@given(scalars)
def test_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-7:
        assert x.sign() == (1 if f > 0 else -1)


@given(scalars)
def test_floor_brackets_value(x):
    k = x.floor()
    assert RingScalar(k) <= x
    assert x < RingScalar(k + 1)


def test_float_sanity_oracle():
    # 1000 random exact operations agree with float arithmetic to 1e-9.
    rng = random.Random(12345)
    sqrt3 = math.sqrt(3.0)
    for _ in range(1000):
        p1, q1 = rng.randint(-99, 99), rng.randint(-99, 99)
        p2, q2 = rng.randint(-99, 99), rng.randint(-99, 99)
        d1, d2 = rng.randint(1, 9), rng.randint(1, 9)
        a, b = RingScalar(p1, q1, d1), RingScalar(p2, q2, d2)
        fa, fb = (p1 + q1 * sqrt3) / d1, (p2 + q2 * sqrt3) / d2
        op = rng.choice("+-*")
        if op == "+":
            exact, approx = a + b, fa + fb
        elif op == "-":
            exact, approx = a - b, fa - fb
        else:
            exact, approx = a * b, fa * fb
        assert abs(float(exact) - approx) < 1e-9 * max(1.0, abs(approx))


def test_zero_denominator_rejected():
    import pytest
    with pytest.raises(ZeroDivisionError):
        RingScalar(1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        RingScalar(0).inverse()
