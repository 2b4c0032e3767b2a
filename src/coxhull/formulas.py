"""Closed-form hull cardinalities in chamber coordinates.

The triangular complex gets a half-step addressing: a chamber ``(x, y)``
sits ``y`` rows above the origin chamber and ``x`` half-steps to the right,
and its orientation alternates with each step; point location turns the
address into a rational point of the lattice frame, as the square-grid and
line-model points already are.  With an upward origin chamber the pair-hull
count for x+y even is

    xy + x - y^2 + y + 1,

a parallelogram of rows with one corner chamber removed; with a downward
origin chamber and x+y odd it is

    xy + x - y^2 + 2y + 1,

a parallelogram with two opposite corners removed.  So the parity of
x+y fixes the origin's orientation, and an ``A2Coord`` takes only (x, y)
and reads it off as ``down``.
The pairing is easy to transpose by eye, so it is pinned by enumeration,
not by pictures: acceptance criterion 5 compares both counts with
enumerated hulls for every x+y <= 14.

The square-grid complex gets the four-parameter family used by the
case-2 analysis: u in the cut corner, v at the a-th chamber of row b of
the hull, w at the x-th chamber of row y.  The closed forms returned by
``c2_case2_counts`` feed the symbolic route; ``c2_case2_chambers`` builds
the actual configuration so tests can compare them against enumeration.
All three closed forms agree with enumeration, including at y = b+1 where
``c2_case2_counts`` still refuses input.  The middle form carries one
chamber more than the paper's simplified ``3(x-a+3) + (y-b-2)(x-a+5)``,
which drops a unit from the row-by-row count it was simplified from; the
paper's form is written only in ``propcheck.c2_paper_forms``, the
expression behind its pinned expansion.

Input outside the domain of a form raises ``CoordinateError``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .coxeter import TypeTag
from .tessellation import Chamber, GroupContext


class CoordinateError(ValueError):
    """Closed-form coordinates outside the domain of their forms."""


def _check_ints(**values) -> None:
    """Raise CoordinateError unless each value is an int and not a bool."""
    for name, val in values.items():
        if not isinstance(val, int) or isinstance(val, bool):
            raise CoordinateError(f"{name} must be an int, got {val!r}")


class A2Coord(namedtuple("A2Coord", "x y")):
    """Target chamber address (x, y) relative to the base chamber its
    parity fixes; x counts half-steps right, y counts rows up."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, x: int, y: int):
        _check_ints(x=x, y=y)
        if x < 0 or y < 0:
            raise CoordinateError(f"coordinates must be non-negative, got {(x, y)}")
        if x + y == 0:
            raise CoordinateError("x+y must be positive")
        return super().__new__(cls, x, y)

    @property
    def down(self) -> bool:
        """Whether the base chamber points down: x+y is odd."""
        return (self.x + self.y) % 2 == 1


def a2_pair_form(x, y, down: bool):
    """The pair count xy + x - y^2 + y + 1 (upward origin) or
    xy + x - y^2 + 2y + 1 (downward origin), unchecked, so that the same
    expression serves integers and the symbolic route's polynomials."""
    return x * y + x - y * y + (2 if down else 1) * y + 1


def a2_sides_forms(x, y, a, b):
    """Both sides of the reduced-triple product inequality, unchecked:
    the downward count at (x, y) times the upward count at (a, b), and the
    downward count at (x+a, y+b)."""
    return (a2_pair_form(x, y, down=True) * a2_pair_form(a, b, down=False),
            a2_pair_form(x + a, y + b, down=True))


def a2_pair_count(coord: A2Coord) -> int:
    """Chambers in the pair hull addressed by the coordinate."""
    x, y = coord.x, coord.y
    if x < y - 1:
        raise CoordinateError(f"need x >= y-1 for the truncated-parallelogram shape, got {(x, y)}")
    return a2_pair_form(x, y, down=coord.down)


def a2_strong_hull_sides(x: int, y: int, a: int, b: int) -> tuple[int, int]:
    """Both sides of the product inequality for the reduced triple
    configuration u = (0,0), v = (x,y), w = (x+a, y+b)."""
    _check_ints(x=x, y=y, a=a, b=b)
    for name, val in (("x", x), ("y", y), ("a", a), ("b", b)):
        if val < 0:
            raise CoordinateError(f"{name} must be non-negative, got {val}")
    if x < y - 1:
        raise CoordinateError(f"need x >= y-1, got x={x}, y={y}")
    if a < b - 1:
        raise CoordinateError(f"need a >= b-1, got a={a}, b={b}")
    if x + y <= 0 or (x + y) % 2 != 1:
        raise CoordinateError(f"x+y must be positive odd, got {x + y}")
    if a + b <= 0 or (a + b) % 2 != 0:
        raise CoordinateError(f"a+b must be positive even, got {a + b}")
    return a2_sides_forms(x, y, a, b)


class C2CaseParams(namedtuple("C2CaseParams", "a b x y")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, a: int, b: int, x: int, y: int):
        _check_ints(a=a, b=b, x=x, y=y)
        if a % 4 != 2:
            raise CoordinateError(f"a must be 2 mod 4, got {a}")
        if x % 4 != 1:
            raise CoordinateError(f"x must be 1 mod 4, got {x}")
        if not (y > b >= 2):
            raise CoordinateError(f"need y > b >= 2, got b={b}, y={y}")
        if x < a + 3:
            raise CoordinateError(f"need x >= a+3, got a={a}, x={x}")
        return super().__new__(cls, a, b, x, y)


def c2_case2_forms(a, b, x, y):
    """The case-2 closed forms (|Conv(u,v)|, |Conv(v,w)|, |Conv(u,v,w)|)
    as expressions in a, b, x, y, unchecked, so that the same expression
    serves integers and the symbolic route's polynomials.

    The middle form is the row-by-row count (x-a+4) + (y-b-2)(x-a+5)
    + (x-a+4) + (x-a+2), with its two rows of x-a+4 collected.
    """
    size_uv = 2 * a + (b - 2) * (a + 2)
    size_vw = 2 * (x - a + 4) + (x - a + 2) + (y - b - 2) * (x - a + 5)
    size_uvw = 3 * (x + 1) + (y - 3) * (x + 3)
    return size_uv, size_vw, size_uvw


def c2_case2_counts(p: C2CaseParams) -> tuple[int, int, int]:
    """The closed-form counts (|Conv(u,v)|, |Conv(v,w)|,
    |Conv(u,v,w)|) for the case-2 configuration.

    Requires y >= b+2, the domain the forms were derived on.  They also
    match enumeration at y = b+1, but that edge is left to the enumeration
    route rather than claimed for the closed forms.
    """
    if p.y < p.b + 2:
        raise CoordinateError(f"closed forms need y >= b+2, got b={p.b}, y={p.y}")
    return c2_case2_forms(p.a, p.b, p.x, p.y)


def dihedral_pair_count(dist: int) -> int:
    """Interval size on the line: a path graph interval has d+1 cells."""
    _check_ints(distance=dist)
    if dist < 0:
        raise CoordinateError("distance must be non-negative")
    return dist + 1


# -- coordinate-to-chamber views ------------------------------------------

def _a2_barycenter(col_halfsteps: Fraction, row: int, up: bool):
    """Frame point (a, b) of the barycenter of the triangle in the given
    row whose barycenter sits at the given horizontal position: rows are
    the strips row < b < row + 1, and the horizontal position is a + b/2."""
    b = row + Fraction(1 if up else 2, 3)
    return (col_halfsteps - b / 2, b)


def a2_chamber_pair(ctx: GroupContext, coord: A2Coord) -> tuple[Chamber, Chamber]:
    """The (origin, target) chambers addressed by an A2 coordinate."""
    if ctx.tag is not TypeTag.A2Tilde:
        raise CoordinateError("A2 coordinates address the triangular complex")
    base_col = Fraction(1) if coord.down else Fraction(1, 2)
    u = ctx.chamber_containing(_a2_barycenter(base_col, 0, up=not coord.down))
    # The orientation alternates with each step and the parity of x+y fixes
    # the base's, so the target is always an upward triangle.
    col = base_col + Fraction(coord.x, 2)
    v = ctx.chamber_containing(_a2_barycenter(col, coord.y, up=True))
    return u, v


def a2_reduced_triple(ctx: GroupContext, x: int, y: int, a: int, b: int):
    """The aligned triple whose hulls realize the two sides returned by
    a2_strong_hull_sides: origin u, v at (x, y) and w at (x+a, y+b) in the
    downward-origin frame.  Then |Conv(u,v)| * |Conv(v,w)| equals the left
    side and |Conv(u,v,w)| the right side, exactly."""
    a2_strong_hull_sides(x, y, a, b)  # validates the constraints
    u, v = a2_chamber_pair(ctx, A2Coord(x, y))
    _, w = a2_chamber_pair(ctx, A2Coord(x + a, y + b))
    return u, v, w


# Square-grid triangle species: a unit square is cut by one diagonal, and
# the in-square barycenter offset identifies the triangle.  The diagonal
# rises when i+j is even and falls when it is odd, so each species lies in
# squares of one parity of i+j.
_C2_SPECIES = {
    "LR": (Fraction(2, 3), Fraction(1, 3), 0),
    "SW": (Fraction(1, 3), Fraction(1, 3), 1),
    "NE": (Fraction(2, 3), Fraction(2, 3), 1),
}


def c2_triangle(ctx: GroupContext, i: int, j: int, species: str) -> Chamber:
    """Triangle of the given species in the unit square [i,i+1] x [j,j+1]:
    LR when i+j is even, SW or NE when it is odd."""
    if ctx.tag is not TypeTag.C2Tilde:
        raise CoordinateError("square-grid triangles live in the c2t complex")
    _check_ints(i=i, j=j)
    if species not in _C2_SPECIES:
        raise CoordinateError(f"species must be one of {', '.join(_C2_SPECIES)}, got {species!r}")
    dx, dy, parity = _C2_SPECIES[species]
    if (i + j) % 2 != parity:
        raise CoordinateError(f"square ({i}, {j}) has no {species} triangle")
    return ctx.chamber_containing((i + dx, j + dy))


def c2_case2_chambers(ctx: GroupContext, p: C2CaseParams) -> tuple[Chamber, Chamber, Chamber]:
    """The case-2 configuration: u in the cut corner of the hull, v at the
    a-th chamber (left to right) of row b, w at the x-th chamber of the top
    row y.  The congruences on a and x fix the orientations of v and w."""
    u = c2_triangle(ctx, 1, 0, "NE")
    v = c2_triangle(ctx, (p.b - 1) + p.a // 2, p.b - 1, "SW")
    w = c2_triangle(ctx, (p.y - 1) + (p.x - 1) // 2, p.y - 1, "LR")
    return u, v, w


def i2_cell(ctx: GroupContext, n: int) -> Chamber:
    """The n-th unit cell of the line model."""
    if ctx.tag is not TypeTag.I2Infinity:
        raise CoordinateError("cells are addressed on the line model only")
    _check_ints(n=n)
    return ctx.chamber_containing((n + Fraction(1, 2), Fraction(1, 2)))
