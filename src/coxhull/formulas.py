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

a parallelogram with two opposite corners removed.  The pairing between
origin orientation and coordinate parity is easy to transpose by eye, so
it is pinned here by the enumeration agreement tests, not by pictures:
an upward origin pairs with even x+y (count xy + x - y^2 + y + 1) and a
downward origin with odd x+y (count xy + x - y^2 + 2y + 1).  The
transposed pairing fails the enumeration test and is rejected.

The square-grid complex gets the four-parameter family used by the
case-2 analysis: u in the cut corner, v at the a-th chamber of row b of
the hull, w at the x-th chamber of row y.  The closed forms returned by
``c2_case2_counts`` feed the symbolic route; ``c2_case2_chambers`` builds
the actual configuration so tests can compare them against enumeration.
All three closed forms agree with enumeration, including at y = b+1 where
``c2_case2_counts`` still refuses input.  The middle form carries one
chamber more than the paper's simplified ``3(x-a+3) + (y-b-2)(x-a+5)``,
which drops a unit from the row-by-row count it was simplified from; the
paper's form survives only in ``coxhull.propcheck``, as the expression
behind its pinned expansion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import TypeTag
from .tessellation import Chamber, GroupContext


class Orientation(enum.Enum):
    Up = "up"
    Down = "down"


class CoordinateError(ValueError):
    """Base for invalid closed-form coordinates."""


class ParityViolation(CoordinateError):
    pass


class ShapeViolation(CoordinateError):
    pass


class ConstraintViolation(CoordinateError):
    pass


@dataclass(frozen=True)
class A2Coord:
    """Target chamber address (x, y) relative to a base chamber of the
    given orientation; x counts half-steps right, y counts rows up."""

    x: int
    y: int
    base_orientation: Orientation

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ShapeViolation(f"coordinates must be non-negative, got {(self.x, self.y)}")
        want_even = self.base_orientation is Orientation.Up
        if (self.x + self.y) % 2 != (0 if want_even else 1):
            raise ParityViolation(
                f"x+y must be {'even' if want_even else 'odd'} for a "
                f"{self.base_orientation.value} base chamber, got {(self.x, self.y)}")
        if self.x + self.y == 0:
            raise ParityViolation("x+y must be positive")


def a2_pair_form(x, y, base: Orientation):
    """The pair count xy + x - y^2 + y + 1 (upward origin) or
    xy + x - y^2 + 2y + 1 (downward origin), unchecked, so that the same
    expression serves integers and the symbolic route's polynomials."""
    return x * y + x - y * y + (1 if base is Orientation.Up else 2) * y + 1


def a2_sides_forms(x, y, a, b):
    """Both sides of the reduced-triple product inequality, unchecked:
    the downward count at (x, y) times the upward count at (a, b), and the
    downward count at (x+a, y+b)."""
    return (a2_pair_form(x, y, Orientation.Down) * a2_pair_form(a, b, Orientation.Up),
            a2_pair_form(x + a, y + b, Orientation.Down))


def a2_pair_count(coord: A2Coord) -> int:
    """Chambers in the pair hull addressed by the coordinate."""
    x, y = coord.x, coord.y
    if x < y - 1:
        raise ShapeViolation(f"need x >= y-1 for the truncated-parallelogram shape, got {(x, y)}")
    return a2_pair_form(x, y, coord.base_orientation)


def orientation_for_parity(x: int, y: int) -> Orientation:
    """The base orientation forced by the coordinate parity."""
    return Orientation.Up if (x + y) % 2 == 0 else Orientation.Down


def a2_strong_hull_sides(x: int, y: int, a: int, b: int) -> tuple[int, int]:
    """Both sides of the product inequality for the reduced triple
    configuration u = (0,0), v = (x,y), w = (x+a, y+b)."""
    for name, val in (("x", x), ("y", y), ("a", a), ("b", b)):
        if val < 0:
            raise ConstraintViolation(f"{name} must be non-negative, got {val}")
    if x < y - 1:
        raise ConstraintViolation(f"need x >= y-1, got x={x}, y={y}")
    if a < b - 1:
        raise ConstraintViolation(f"need a >= b-1, got a={a}, b={b}")
    if x + y <= 0 or (x + y) % 2 != 1:
        raise ConstraintViolation(f"x+y must be positive odd, got {x + y}")
    if a + b <= 0 or (a + b) % 2 != 0:
        raise ConstraintViolation(f"a+b must be positive even, got {a + b}")
    return a2_sides_forms(x, y, a, b)


@dataclass(frozen=True)
class C2CaseParams:
    a: int
    b: int
    x: int
    y: int

    def __post_init__(self):
        if self.a % 4 != 2:
            raise ConstraintViolation(f"a must be 2 mod 4, got {self.a}")
        if self.x % 4 != 1:
            raise ConstraintViolation(f"x must be 1 mod 4, got {self.x}")
        if not (self.y > self.b >= 2):
            raise ConstraintViolation(f"need y > b >= 2, got b={self.b}, y={self.y}")
        if self.x < self.a + 3:
            raise ConstraintViolation(f"need x >= a+3, got a={self.a}, x={self.x}")


def c2_case2_forms(a, b, x, y):
    """The case-2 closed forms (|Conv(u,v)|, |Conv(v,w)|, |Conv(u,v,w)|)
    as expressions in a, b, x, y, unchecked, so that the same expression
    serves integers and the symbolic route's polynomials.

    The middle form is the row-by-row count (x-a+4) + (y-b-2)(x-a+5)
    + (x-a+4) + (x-a+2), summed.
    """
    size_uv = 2 * a + (b - 2) * (a + 2)
    size_vw = 3 * (x - a + 3) + 1 + (y - b - 2) * (x - a + 5)
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
        raise ConstraintViolation(f"closed forms need y >= b+2, got b={p.b}, y={p.y}")
    return c2_case2_forms(p.a, p.b, p.x, p.y)


def dihedral_pair_count(dist: int) -> int:
    """Interval size on the line: a path graph interval has d+1 cells."""
    if dist < 0:
        raise ConstraintViolation("distance must be non-negative")
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
        raise ConstraintViolation("A2 coordinates address the triangular complex")
    if coord.base_orientation is Orientation.Up:
        base_col = Fraction(1, 2)
        u = ctx.base_chamber
        v_up = (coord.x + coord.y) % 2 == 0
    else:
        base_col = Fraction(1)
        u = ctx.chamber_containing(_a2_barycenter(base_col, 0, up=False))
        v_up = (coord.x + coord.y) % 2 == 1
    col = base_col + Fraction(coord.x, 2)
    v = ctx.chamber_containing(_a2_barycenter(col, coord.y, up=v_up))
    return u, v


def a2_reduced_triple(ctx: GroupContext, x: int, y: int, a: int, b: int):
    """The aligned triple whose hulls realize the two sides returned by
    a2_strong_hull_sides: origin u, v at (x, y) and w at (x+a, y+b) in the
    downward-origin frame.  Then |Conv(u,v)| * |Conv(v,w)| equals the left
    side and |Conv(u,v,w)| the right side, exactly."""
    a2_strong_hull_sides(x, y, a, b)  # validates the constraints
    u, v = a2_chamber_pair(ctx, A2Coord(x, y, Orientation.Down))
    _, w = a2_chamber_pair(ctx, A2Coord(x + a, y + b, Orientation.Down))
    return u, v, w


# Square-grid triangle species: a unit square is cut by one diagonal, and
# the in-square barycenter offset identifies the triangle.
_C2_SPECIES = {
    "UL": (Fraction(1, 3), Fraction(2, 3)),
    "LR": (Fraction(2, 3), Fraction(1, 3)),
    "SW": (Fraction(1, 3), Fraction(1, 3)),
    "NE": (Fraction(2, 3), Fraction(2, 3)),
}


def c2_triangle(ctx: GroupContext, i: int, j: int, species: str) -> Chamber:
    """Triangle of the given species in the unit square [i,i+1] x [j,j+1]."""
    if ctx.tag is not TypeTag.C2Tilde:
        raise ConstraintViolation("square-grid triangles live in the c2t complex")
    dx, dy = _C2_SPECIES[species]
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
        raise ConstraintViolation("cells are addressed on the line model only")
    return ctx.chamber_containing((n + Fraction(1, 2), Fraction(1, 2)))
