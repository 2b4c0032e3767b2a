"""Exact arithmetic in the real quadratic field Q(sqrt 3).

Every scalar is kept in the canonical form (p + q*sqrt3) / d with integer
p, q and positive integer d satisfying gcd(p, q, d) = 1.  Equality is then
plain syntactic equality of the triple, and sign tests reduce to comparing
p^2 against 3*q^2, so all geometric predicates built on top of this class
are exact.  Floats appear only in __float__, which exists for rendering and
sanity checks, never for decisions.
"""

from __future__ import annotations

import math
from typing import Union

_IntLike = Union[int, "RingScalar"]


def _floor_q_sqrt3(q: int) -> int:
    """Exact floor of q*sqrt(3).  Uses isqrt; 3*q*q is never a perfect square."""
    if q == 0:
        return 0
    if q > 0:
        return math.isqrt(3 * q * q)
    return -math.isqrt(3 * q * q) - 1


class RingScalar:
    """A number (p + q*sqrt3)/d in canonical reduced form."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int = 0, d: int = 1) -> None:
        if d == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if d < 0:
            p, q, d = -p, -q, -d
        g = math.gcd(math.gcd(p, q), d)
        if g > 1:
            p //= g
            q //= g
            d //= g
        self.p = p
        self.q = q
        self.d = d

    @classmethod
    def of(cls, value: _IntLike) -> RingScalar:
        if isinstance(value, RingScalar):
            return value
        return cls(value)

    @classmethod
    def rational(cls, num: int, den: int) -> RingScalar:
        return cls(num, 0, den)

    def key(self) -> tuple[int, int, int]:
        """Canonical triple; equal scalars have equal keys."""
        return (self.p, self.q, self.d)

    def __repr__(self) -> str:
        if self.q == 0 and self.d == 1:
            return f"RingScalar({self.p})"
        return f"RingScalar({self.p}, {self.q}, {self.d})"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p) if self.d == 1 else f"{self.p}/{self.d}"
        body = f"{self.p}{self.q:+}√3"
        return body if self.d == 1 else f"({body})/{self.d}"

    def __hash__(self) -> int:
        # Equal to an int exactly when integer-valued, so hash as that int.
        if self.q == 0 and self.d == 1:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = RingScalar(other)
        if not isinstance(other, RingScalar):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __add__(self, other: _IntLike) -> RingScalar:
        o = RingScalar.of(other)
        return RingScalar(
            self.p * o.d + o.p * self.d,
            self.q * o.d + o.q * self.d,
            self.d * o.d,
        )

    __radd__ = __add__

    def __neg__(self) -> RingScalar:
        return RingScalar(-self.p, -self.q, self.d)

    def __sub__(self, other: _IntLike) -> RingScalar:
        return self + (-RingScalar.of(other))

    def __rsub__(self, other: _IntLike) -> RingScalar:
        return (-self) + other

    def __mul__(self, other: _IntLike) -> RingScalar:
        o = RingScalar.of(other)
        return RingScalar(
            self.p * o.p + 3 * self.q * o.q,
            self.p * o.q + self.q * o.p,
            self.d * o.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> RingScalar:
        norm = self.p * self.p - 3 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return RingScalar(self.d * self.p, -self.d * self.q, norm)

    def __truediv__(self, other: _IntLike) -> RingScalar:
        return self * RingScalar.of(other).inverse()

    def __rtruediv__(self, other: _IntLike) -> RingScalar:
        return RingScalar.of(other) * self.inverse()

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # Mixed signs: compare |p| against |q|*sqrt(3).  Never a tie.
        if p > 0:
            return 1 if p * p > 3 * q * q else -1
        return -1 if p * p > 3 * q * q else 1

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __lt__(self, other: _IntLike) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: _IntLike) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: _IntLike) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: _IntLike) -> bool:
        return (self - other).sign() >= 0

    def floor(self) -> int:
        """Exact integer floor; d > 0 is an invariant."""
        return (self.p + _floor_q_sqrt3(self.q)) // self.d

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(3.0)) / self.d


ZERO = RingScalar(0)
ONE = RingScalar(1)
HALF = RingScalar(1, 0, 2)
SQRT3 = RingScalar(0, 1)
