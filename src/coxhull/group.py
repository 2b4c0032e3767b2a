"""Integer affine maps of a lattice frame.

Points and lines are written in a frame of the type's lattice: the basis
(1, 0), (1/2, sqrt3/2) for the hexagonal types and the standard basis
otherwise.  The frame's metric enters only through its inverse Gram
matrix, which turns a line's normal covector into a direction.  In such a
frame every reflection of a crystallographic group is an integer affine
map p -> A p + t, so composition and equality are integer arithmetic and
exact, which is what makes chamber identity and wall-side tests
decidable.  Points are `Fraction`s.  A line {n1*x + n2*y = c} is the
triple (n1, n2, c); the line map `GroupElement.line_image` keeps the
number type of its input, so integer lines map to integer lines.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple[Fraction, Fraction]

_ORDER_CAP = 64


class MixedContext(ValueError):
    """Raised when elements or chambers from different groups are combined."""


def vec(x, y) -> Vec:
    return (Fraction(x), Fraction(y))


class GroupElement:
    """Integer affine map p -> A p + t, tagged by the group it belongs to."""

    __slots__ = ("tag", "a", "b", "c", "d", "tx", "ty", "_key")

    def __init__(self, tag: str, linear, translation) -> None:
        self.tag = tag
        self.a, self.b, self.c, self.d = linear
        self.tx, self.ty = translation
        self._key = (tag, self.a, self.b, self.c, self.d, self.tx, self.ty)

    @classmethod
    def identity(cls, tag: str) -> "GroupElement":
        return cls(tag, (1, 0, 0, 1), (0, 0))

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

    def apply_scaled(self, p1, p2, m):
        """The image of the point (p1/m, p2/m), scaled by m: integer points
        map to integer points."""
        return (self.a * p1 + self.b * p2 + m * self.tx,
                self.c * p1 + self.d * p2 + m * self.ty)

    def preimage_scaled(self, p1, p2, m):
        """The point that maps to (p1/m, p2/m), scaled by m: A^-1 is
        det A * adj A, as det A = +-1."""
        det = self.a * self.d - self.b * self.c
        x, y = p1 - m * self.tx, p2 - m * self.ty
        return det * (self.d * x - self.b * y), det * (self.a * y - self.c * x)

    def line_image(self, n1, n2, c):
        """Coefficients of the image of the line n1*x + n2*y = c, in the
        number type of the input: integer lines map to integer lines."""
        # {n.p = c} maps to {m.q = c + m.t} with m = n A^-1; det A = +-1,
        # so A^-1 = det A * adj A.
        det = self.a * self.d - self.b * self.c
        m1 = det * (n1 * self.d - n2 * self.c)
        m2 = det * (n2 * self.a - n1 * self.b)
        return m1, m2, c + m1 * self.tx + m2 * self.ty

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


def reflection_across(tag: str, line, gram_inv) -> GroupElement:
    """The reflection fixing the line (n1, n2, c), for the frame whose inverse
    Gram matrix is `gram_inv` = (g11, g12, g22):
    p -> p - 2(n.p - c)/(n.G^-1 n) * G^-1 n.  Raises RuntimeError unless
    every entry of the map is an integer: the frame is not a lattice frame
    of the group."""
    g11, g12, g22 = gram_inv
    n1, n2, c = line
    u1, u2 = g11 * n1 + g12 * n2, g12 * n1 + g22 * n2
    f = Fraction(2) / (n1 * u1 + n2 * u2)
    entries = (1 - f * u1 * n1, -f * u1 * n2, -f * u2 * n1, 1 - f * u2 * n2,
               f * c * u1, f * c * u2)
    if any(e.denominator != 1 for e in entries):
        raise RuntimeError(f"{tag} reflection is not an integer map in its frame")
    ints = [int(e) for e in entries]
    return GroupElement(tag, ints[:4], ints[4:])


def element_order(g: GroupElement) -> int:
    """Order of g by iterated composition; raises past a fixed cap."""
    acc = g
    for n in range(1, _ORDER_CAP + 1):
        if acc.is_identity():
            return n
        acc = acc.compose(g)
    raise ValueError(f"order exceeds {_ORDER_CAP}")
