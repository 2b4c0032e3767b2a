"""Integer affine maps of a lattice frame.

Points and lines are written in a frame of the type's lattice: the basis
(1, 0), (1/2, sqrt3/2) for the hexagonal types and the standard basis
otherwise.  The frame's metric enters only through its inverse Gram
matrix, which turns a line's normal covector into a direction.  In such a
frame every reflection of a crystallographic group is an integer affine
map p -> A p + t, so composition and equality are integer arithmetic and
exact, which is what makes chamber identity and wall-side tests
decidable.  A group element is the tuple (tag, a, b, c, d, tx, ty) of the
map p -> [[a, b], [c, d]] p + (tx, ty), tagged by the group it belongs to;
it is its own key.  Points are `Fraction`s.  A line {n1*x + n2*y = c} is
the triple (n1, n2, c); the line map `line_image` keeps the number type of
its input, so integer lines map to integer lines.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple[Fraction, Fraction]

_ORDER_CAP = 64


class MixedContext(ValueError):
    """Raised when elements or chambers from different groups are combined."""


def vec(x, y) -> Vec:
    return (Fraction(x), Fraction(y))


def identity(tag: str) -> tuple:
    return (tag, 1, 0, 0, 1, 0, 0)


def apply(g, point: Vec) -> Vec:
    _, a, b, c, d, tx, ty = g
    x, y = point
    return (a * x + b * y + tx, c * x + d * y + ty)


def apply_scaled(g, p1, p2, m):
    """The image under g of the point (p1/m, p2/m), scaled by m: integer
    points map to integer points."""
    _, a, b, c, d, tx, ty = g
    return (a * p1 + b * p2 + m * tx, c * p1 + d * p2 + m * ty)


def preimage_scaled(g, p1, p2, m):
    """The point that g maps to (p1/m, p2/m), scaled by m: A^-1 is
    det A * adj A, as det A = +-1."""
    _, a, b, c, d, tx, ty = g
    det = a * d - b * c
    x, y = p1 - m * tx, p2 - m * ty
    return det * (d * x - b * y), det * (a * y - c * x)


def line_image(g, n1, n2, k):
    """Coefficients of the image under g of the line n1*x + n2*y = k, in
    the number type of the input: integer lines map to integer lines."""
    # {n.p = k} maps to {m.q = k + m.t} with m = n A^-1; det A = +-1,
    # so A^-1 = det A * adj A.
    _, a, b, c, d, tx, ty = g
    det = a * d - b * c
    m1 = det * (n1 * d - n2 * c)
    m2 = det * (n2 * a - n1 * b)
    return m1, m2, k + m1 * tx + m2 * ty


def compose(g, h) -> tuple:
    """g after h: (g*h)(p) = g(h(p))."""
    tag, a, b, c, d, tx, ty = g
    htag, ha, hb, hc, hd, htx, hty = h
    if tag != htag:
        raise MixedContext(f"cannot compose {tag} with {htag}")
    return (tag, a * ha + b * hc, a * hb + b * hd, c * ha + d * hc, c * hb + d * hd,
            a * htx + b * hty + tx, c * htx + d * hty + ty)


def reflection_across(tag: str, line, gram_inv) -> tuple:
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
    return (tag, *map(int, entries))


def element_order(g) -> int:
    """Order of g by iterated composition; raises past a fixed cap."""
    e = identity(g[0])
    acc = g
    for n in range(1, _ORDER_CAP + 1):
        if acc == e:
            return n
        acc = compose(acc, g)
    raise ValueError(f"order exceeds {_ORDER_CAP}")
