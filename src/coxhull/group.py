"""Exact planar affine isometries over Q(sqrt 3).

A group element acts on the plane as p -> A p + t with A orthogonal
(det +-1) and both A and t exact.  Reflections across exact lines are
built here; composition and equality are O(1) and exact, which is what
makes chamber identity and wall-side tests decidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import ONE, ZERO, RingScalar

Vec = tuple[RingScalar, RingScalar]


class MixedContext(ValueError):
    """Raised when elements or chambers from different groups are combined."""


def vec(x, y) -> Vec:
    return (RingScalar.of(x), RingScalar.of(y))


@dataclass(frozen=True)
class Line:
    """The line {p : n1*x + n2*y = c}; (n1, n2) need not be a unit vector."""

    n1: RingScalar
    n2: RingScalar
    c: RingScalar

    def canonical(self) -> "Line":
        """Scale so the first nonzero normal component is exactly 1."""
        if not self.n1.is_zero():
            s = self.n1
        elif not self.n2.is_zero():
            s = self.n2
        else:
            raise ValueError("degenerate line")
        return Line(self.n1 / s, self.n2 / s, self.c / s)

    def key(self):
        return (self.n1.key(), self.n2.key(), self.c.key())

    def direction_key(self):
        return (self.n1.key(), self.n2.key())


class GroupElement:
    """Affine isometry p -> A p + t, tagged by the group it belongs to."""

    __slots__ = ("tag", "a", "b", "c", "d", "tx", "ty", "_key")

    def __init__(self, tag: str, linear, translation: Vec) -> None:
        self.tag = tag
        self.a, self.b, self.c, self.d = linear
        self.tx, self.ty = translation
        self._key = (
            tag,
            self.a.key(), self.b.key(), self.c.key(), self.d.key(),
            self.tx.key(), self.ty.key(),
        )

    @classmethod
    def identity(cls, tag: str) -> "GroupElement":
        return cls(tag, (ONE, ZERO, ZERO, ONE), (ZERO, ZERO))

    def key(self):
        return self._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        return (f"GroupElement({self.tag}, [[{self.a}, {self.b}], "
                f"[{self.c}, {self.d}]], ({self.tx}, {self.ty}))")

    def apply(self, point: Vec) -> Vec:
        x, y = point
        return (self.a * x + self.b * y + self.tx,
                self.c * x + self.d * y + self.ty)

    def apply_line(self, line: Line) -> Line:
        # Orthogonal A maps {n.p = c} to {(A n).q = c + (A n).t}.
        m1 = self.a * line.n1 + self.b * line.n2
        m2 = self.c * line.n1 + self.d * line.n2
        return Line(m1, m2, line.c + m1 * self.tx + m2 * self.ty)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other: (self*other)(p) = self(other(p))."""
        if self.tag != other.tag:
            raise MixedContext(f"cannot compose {self.tag} with {other.tag}")
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        tx = self.a * other.tx + self.b * other.ty + self.tx
        ty = self.c * other.tx + self.d * other.ty + self.ty
        return GroupElement(self.tag, (a, b, c, d), (tx, ty))

    def is_identity(self) -> bool:
        return self == GroupElement.identity(self.tag)


def reflection_across(tag: str, line: Line) -> GroupElement:
    """The isometric reflection fixing the given line."""
    n1, n2, c = line.n1, line.n2, line.c
    nn = n1 * n1 + n2 * n2
    two = RingScalar(2)
    f = two / nn
    linear = (
        ONE - f * n1 * n1, -(f * n1 * n2),
        -(f * n1 * n2), ONE - f * n2 * n2,
    )
    translation = (f * c * n1, f * c * n2)
    return GroupElement(tag, linear, translation)


def element_order(g: GroupElement, cap: int = 64) -> int:
    """Order of g by iterated composition; raises if it exceeds cap."""
    acc = g
    for n in range(1, cap + 1):
        if acc.is_identity():
            return n
        acc = acc.compose(g)
    raise ValueError(f"order exceeds {cap}")
