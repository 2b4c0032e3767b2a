"""Planar Coxeter complexes as exact tessellations.

A group context realizes one supported type as a triangulation of the
plane (or a subdivision of the line for the infinite dihedral group).
Chambers are identified with group elements; every wall belongs to a
family of parallel lines with a fixed spacing, so a wall is a pair
(family index, integer offset) and the side of a chamber with respect
to a wall is an integer comparison against precomputed floor values.

Each type is written in a frame of its lattice: the basis (1, 0),
(1/2, sqrt3/2) for the hexagonal types and the standard basis for the
others.  In that frame every generator is an integer affine map, wall
lines are integer triples (n1, n2, c), and points and barycenters are
rational (`Fraction`).

Wall families are not hard coded.  The table is the least one that holds
the walls of the base chamber and that every generator maps onto itself:
one canonical integer form (n1, n2, r, gap) per direction, sorted by
slope and derived as an exact fixed point.  Such a table holds every
mirror, and every line it holds is one, so it is the wall set of the
complex at every radius.

Chambers are built on ints: the barycenter scaled by a positive integer
is the chamber's order key, and each floor is an integer form evaluated
on it with floor division.  Words, geodesics and point location read no
floor: they fold an integer point into the base chamber by reflections
in base walls.  Rational arithmetic is needed to derive the complex and
to draw it, not to walk it.  A ball is kept as its list of layers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import attrgetter

from .coxeter import INF, CoxeterMatrix, TypeTag, matrix_for
from .group import (MixedContext, Vec, apply, apply_scaled, compose,
                    element_order, identity, line_image, preimage_scaled,
                    reflection_across, vec)


class Wall(namedtuple("Wall", "family offset")):
    """The wall at `offset` spacings from the family's reference line."""

    __slots__ = ()


class Chamber:
    """A chamber of the complex, identified with the element mapping the
    base chamber onto it.  `floors` holds, per wall family, the floor of
    the barycenter's family coordinate; all metric predicates reduce to
    integer arithmetic on these vectors.

    Construction is int arithmetic only.  `order_key` is the barycenter
    scaled by the context's positive integer `scale`, built from the
    element's integer entries; the floors are the context's integer floor
    forms evaluated on it.  Sorting by `order_key` is sorting by the exact
    barycenter, and the `Fraction` barycenter is computed only on demand.

    Chambers are interned: only the context's intern table creates them,
    one object per element of the context.  Identity is therefore
    equality, so chambers keep the default identity `__eq__` and
    `__hash__`; chambers of two separately built contexts are never
    equal."""

    __slots__ = ("ctx", "element", "order_key", "floors", "_neighbors")

    def __init__(self, ctx: "GroupContext", element: tuple) -> None:
        self.ctx = ctx
        self.element = element
        self.order_key = q1, q2 = apply_scaled(element, *ctx.base_key, ctx.scale)
        self.floors = tuple([(n1 * q1 + n2 * q2 - r) // s
                             for n1, n2, r, s in ctx.floor_forms])
        self._neighbors = None

    @property
    def barycenter(self) -> Vec:
        """The exact barycenter in frame coordinates."""
        q1, q2 = self.order_key
        return (Fraction(q1, self.ctx.scale), Fraction(q2, self.ctx.scale))

    def __repr__(self) -> str:
        bx, by = self.barycenter
        return f"Chamber({self.ctx.tag.code}, word={self.ctx.word_of(self)!r}, at=({bx}, {by}))"

    def neighbors(self) -> tuple:
        """The adjacent chambers, one per generator: the i-th lies across
        panel i, the one on the wall `panel_walls()[i]`."""
        if self._neighbors is None:
            self._neighbors = tuple([self.ctx._intern(compose(self.element, s))
                                     for s in self.ctx.gens])
        return self._neighbors

    def panel_walls(self):
        """Wall containing the i-th panel, for each generator index i."""
        return tuple(self.ctx.wall_of_line(line_image(self.element, *w))
                     for w in self.ctx.base_walls)

    def vertices(self):
        return [apply(self.element, v) for v in self.ctx.base_vertices]


# Inverse Gram matrices (g11, g12, g22) of the two frames.
_HEXAGONAL = (Fraction(4, 3), Fraction(-2, 3), Fraction(4, 3))
_SQUARE = (1, 0, 1)


def _base_data(tag: TypeTag):
    """Base chamber vertices, the wall line of each generator's panel and
    the frame's inverse Gram matrix.  A hexagonal frame point (a, b) is the
    Cartesian point (a + b/2, b*sqrt3/2)."""
    if tag is TypeTag.A2Tilde:
        verts = [vec(0, 0), vec(1, 0), vec(0, 1)]
        walls = [
            (0, 1, 0),                        # b = 0
            (1, 0, 0),                        # a = 0: edge from (0,0) at 60 degrees
            (1, 1, 1),                        # a + b = 1: edge from (1,0) at 120 degrees
        ]
    elif tag is TypeTag.C2Tilde:
        verts = [vec(0, 0), vec(1, 0), vec(1, 1)]
        walls = [
            (0, 1, 0),                        # y = 0
            (1, 0, 1),                        # x = 1
            (1, -1, 0),                       # y = x
        ]
    elif tag is TypeTag.G2Tilde:
        verts = [vec(0, 0), vec(1, 0), (Fraction(1, 2), Fraction(1, 2))]
        walls = [
            (0, 1, 0),                        # b = 0
            (1, -1, 0),                       # a = b: edge from (0,0) at 30 degrees
            (1, 1, 1),                        # a + b = 1: edge from (1,0) at 120 degrees
        ]
    elif tag is TypeTag.I2Infinity:
        # One-dimensional model embedded in the plane; cells are unit strips.
        verts = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
        walls = [
            (1, 0, 0),                        # x = 0
            (1, 0, 1),                        # x = 1
        ]
    hexagonal = tag in (TypeTag.A2Tilde, TypeTag.G2Tilde)
    return verts, walls, _HEXAGONAL if hexagonal else _SQUARE


def _primitive(n1: int, n2: int, c: int):
    """The integer line n1*x + n2*y = c with coprime entries and its first
    nonzero normal component positive: one triple per line."""
    if not (n1 or n2):
        raise ValueError("degenerate line")
    g = math.gcd(n1, n2, c)
    if n1 < 0 or (n1 == 0 and n2 < 0):
        g = -g
    return n1 // g, n2 // g, c // g


def _scaled(point):
    """(q1, q2, m): the rational point as the integer point q over the
    least common denominator m of its coordinates."""
    x, y = point
    if any(isinstance(t, bool) or not isinstance(t, (int, Fraction)) for t in point):
        raise TypeError(f"point {point!r}: coordinates must be ints or Fractions")
    m = math.lcm(x.denominator, y.denominator)
    return x.numerator * (m // x.denominator), y.numerator * (m // y.denominator), m


def _derive_families(gens, base_walls):
    """The least wall table that holds the base walls and that every
    generator maps onto itself: one integer form (n1, n2, r, gap) per
    family, sorted by normal slope, whose walls are the lines
    n1*x + n2*y = r + k*gap at the integers k.  The forms are canonical:
    the normal is primitive with its first nonzero entry positive, and
    0 <= r < gap.

    The generators are unimodular, so line maps keep the gcd of a normal:
    base walls with coprime normals give primitive images, with integer
    offsets on one scale per direction.  Per direction the table keeps a
    residue r and the gcd `gap` of the offset differences seen; each
    change queues the images of walls r and r + gap, which fix those of
    the whole family.  The normals form a finite orbit and gaps only
    shrink, so the queue runs dry with the table invariant: it holds every
    mirror.  Each of its walls is one, as reflecting in mirrors at offsets
    a and b translates by 2(b - a) and the offsets seen cover both
    residues mod 2*gap."""
    queue = [_primitive(*w) for w in base_walls]
    if any(math.gcd(n1, n2) != 1 for n1, n2, _ in queue):
        raise RuntimeError("a base wall's normal is not primitive")
    table = {}
    while queue:
        n1, n2, c = queue.pop()
        r, gap = table.get((n1, n2), (c, 0))
        g = math.gcd(gap, c - r)
        if (n1, n2) in table and g == gap:
            continue
        r = r % g if g else r
        table[n1, n2] = r, g
        queue += [_primitive(*line_image(s, n1, n2, k)) for s in gens for k in (r, r + g)]
    if any(gap == 0 for _, gap in table.values()):
        raise RuntimeError("a wall family has a single wall")
    return sorted(((n1, n2, r, gap) for (n1, n2), (r, gap) in table.items()),
                  key=lambda form: (form[0] > 0, Fraction(form[1], form[0] or 1)))


class GroupContext:
    """Generators, base chamber, lattice frame and wall-family table for one
    supported type.  `scale` and `base_key` scale the base barycenter to an
    integer point, and `floor_forms` holds one integer form (n1, n2, R, S),
    S > 0, per family: what `Chamber` is built from.

    Immutable after construction apart from internal memo tables;
    `build_group` memoizes one per type.
    """

    def __init__(self, tag: TypeTag) -> None:
        self.tag = tag
        self.matrix: CoxeterMatrix = matrix_for(tag)
        verts, walls, self.gram_inv = _base_data(tag)
        self.base_vertices = verts
        self.rank = len(walls)
        self.gens = [reflection_across(tag.code, w, self.gram_inv) for w in walls]
        n = len(verts)
        # Barycenters scaled by `scale` are integer points: chamber order keys.
        q1, q2, self.scale = _scaled((sum(v[0] for v in verts) / n,
                                      sum(v[1] for v in verts) / n))
        self.base_key = (q1, q2)
        # Base walls (n1, n2, c) signed to hold the base chamber on their
        # positive side, n1*x + n2*y > c.
        self.base_walls = [w if w[0] * q1 + w[1] * q2 > w[2] * self.scale
                           else tuple(-x for x in w) for w in walls]
        if not self.generator_orders_ok():
            raise RuntimeError(f"{tag.code} generators do not realize the Coxeter matrix")
        # Per family (n1, n2, r, gap): its walls are the lines
        # n1*x + n2*y = r + k*gap, at the integers k of the family coordinate.
        self.families = _derive_families(self.gens, walls)
        # Per family (n1, n2, R, S): a chamber's floor is
        # (n1*q1 + n2*q2 - R) // S on its order key q.
        self.floor_forms = [(n1, n2, self.scale * r, self.scale * gap)
                            for n1, n2, r, gap in self.families]
        if any(gap <= 0 for *_, gap in self.families):
            raise RuntimeError(f"{tag.code} floor form with a non-positive divisor")
        self._family_by_dir = {(n1, n2): f for f, (n1, n2, _, _) in enumerate(self.families)}
        self._chambers: dict = {}
        self.base_chamber = self._intern(identity(tag.code))
        self._layers = [[self.base_chamber]]
        self._check_floor_forms()

    def _check_floor_forms(self) -> None:
        """Raise unless the integer floor forms give the exact floors of the
        base chamber and its neighbours."""
        base = self.base_chamber
        for c in [base, *base.neighbors()]:
            q1, q2, m = _scaled(c.barycenter)
            exact = tuple((n1 * q1 + n2 * q2 - m * r) // (m * gap)
                          for n1, n2, r, gap in self.families)
            if c.floors != exact:
                raise RuntimeError(
                    f"{self.tag.code} integer floors {c.floors} differ from the exact {exact}")

    def __repr__(self) -> str:
        return f"GroupContext({self.tag.code}, rank={self.rank}, families={len(self.families)})"

    # -- chambers ---------------------------------------------------------

    def _intern(self, element: tuple) -> Chamber:
        """The one chamber of a product of generators, built on first
        request: the intern table that makes chamber identity equality."""
        ch = self._chambers.get(element)
        if ch is None:
            ch = self._chambers[element] = Chamber(self, element)
        return ch

    def chamber_of(self, element: tuple) -> Chamber:
        """The chamber of `element`, found on a miss by folding its image of
        the base barycenter: a tuple that is not that chamber's element
        raises ValueError, and one of another type MixedContext."""
        ch = self._chambers.get(element)
        if ch is None:
            if element[0] != self.tag.code:
                raise MixedContext(f"element of {element[0]} used in {self.tag.code}")
            ch = self.chamber_from_word(self._fold(
                *apply_scaled(element, *self.base_key, self.scale), self.scale))
            if ch.element != element:
                raise ValueError(f"{element!r} is not an element of {self.tag.code}")
        return ch

    def chamber_from_word(self, word) -> Chamber:
        """Word is an iterable of generator indices (0-based); a letter that
        is not an int in 0..rank-1, a bool included, raises ValueError."""
        e = identity(self.tag.code)
        for i in word:
            if type(i) is not int or not 0 <= i < self.rank:
                raise ValueError(f"letter {i!r} is not a generator index in 0..{self.rank - 1}")
            e = compose(e, self.gens[i])
        return self._intern(e)

    # -- walls ------------------------------------------------------------

    def wall_of_line(self, line) -> Wall:
        """The wall on the integer line (n1, n2, c); a line that is no wall
        raises ValueError."""
        q1, q2, c = _primitive(*line)
        h = math.gcd(q1, q2)
        f = self._family_by_dir.get((q1 // h, q2 // h))
        if f is None:
            raise ValueError("line direction matches no wall family")
        _, _, r, gap = self.families[f]
        # The line is n.p = c/h: wall k iff that is r + k*gap.
        k, rem = divmod(c - h * r, h * gap)
        if rem:
            raise ValueError("line offset is not on the family's wall lattice")
        return Wall(f, k)

    def separating_walls(self, c1: Chamber, c2: Chamber):
        """All walls with c1 and c2 strictly on opposite sides."""
        self._check(c1, c2)
        return {Wall(f, k) for f, (a, b) in enumerate(zip(c1.floors, c2.floors))
                for k in range(min(a, b) + 1, max(a, b) + 1)}

    def wall_distance(self, c1: Chamber, c2: Chamber) -> int:
        """Number of separating walls; equals the Cayley-graph distance."""
        self._check(c1, c2)
        return sum(abs(a - b) for a, b in zip(c1.floors, c2.floors))

    # -- folds -------------------------------------------------------------

    def _fold(self, p1, p2, m) -> list:
        """Indices i1, i2, ... of the base walls that fold the point
        (p1/m, p2/m) into the base chamber, each the lowest-index one with
        the point on its negative side: the lowest-index left descent, so
        i1 i2 ... is the canonical word of the point's chamber.  A point
        that ends on a base wall lies on a wall: ValueError."""
        letters = []
        while True:
            for i, (n1, n2, c) in enumerate(self.base_walls):
                if n1 * p1 + n2 * p2 < c * m:
                    p1, p2 = apply_scaled(self.gens[i], p1, p2, m)
                    letters.append(i)
                    break
            else:
                break
        if any(n1 * p1 + n2 * p2 == c * m for n1, n2, c in self.base_walls):
            raise ValueError("point lies on a wall")
        return letters

    def chamber_containing(self, point: Vec) -> Chamber:
        """Chamber whose interior holds `point`, given in frame coordinates;
        a point on a wall raises ValueError.  The fold is exact."""
        return self.chamber_from_word(self._fold(*_scaled(point)))

    def geodesic(self, u: Chamber, v: Chamber) -> tuple:
        """Minimal gallery from u to v as the tuple of its chambers, lowest
        generator index first: the fold of u^-1(v) spells it from u."""
        self._check(u, v)
        letters = self._fold(*preimage_scaled(u.element, *v.order_key, self.scale),
                             self.scale)
        return tuple(accumulate(letters, lambda c, i: c.neighbors()[i], initial=u))

    def crossed_walls(self, gallery) -> list:
        """Panel walls crossed along a gallery of this context, in order."""
        self._check(*gallery)
        walls = []
        for a, b in zip(gallery, gallery[1:]):
            if b not in a.neighbors():
                raise ValueError("gallery steps must be adjacent chambers")
            walls.append(a.panel_walls()[a.neighbors().index(b)])
        return walls

    def letters_of(self, c: Chamber) -> list:
        """Canonical geodesic word from the base, 0-based: c's fold."""
        self._check(c)
        return self._fold(*c.order_key, self.scale)

    def word_of(self, c: Chamber) -> str:
        """Canonical geodesic word from the base, 1-based generator digits."""
        return "".join(str(i + 1) for i in self.letters_of(c))

    # -- balls -------------------------------------------------------------

    def ball(self, radius: int) -> list:
        """A new list of the chambers at distance <= radius from the base,
        by distance, then barycenter; radius must be an int >= 0, not a
        bool.  The layers are kept: as every generator flips the parity of
        word length, the next is the last one's neighbours minus the one
        before it."""
        if type(radius) is not int or radius < 0:
            raise ValueError(f"radius must be a non-negative int, got {radius!r}")
        layers = self._layers
        while len(layers) <= radius:
            nxt = {nb for c in layers[-1] for nb in c.neighbors()}
            nxt.difference_update(layers[-2] if len(layers) > 1 else ())
            layers.append(sorted(nxt, key=attrgetter("order_key")))
        return [c for layer in layers[:radius + 1] for c in layer]

    # -- companion coarse complex -----------------------------------------

    @cached_property
    def companion(self) -> "GroupContext":
        """The coarse triangulation sharing this context's hexagonal wall
        families (only available for the finest hexagonal type)."""
        if self.tag is not TypeTag.G2Tilde:
            raise ValueError("coarsening companion exists only for g2t")
        comp = build_group(TypeTag.A2Tilde)
        if not set(self.families) >= set(comp.families):
            raise RuntimeError("companion wall families do not align")
        return comp

    def coarsen(self, chamber: Chamber) -> Chamber:
        """Coarse chamber whose triangle contains this chamber's barycenter."""
        self._check(chamber)
        return self.companion.chamber_containing(chamber.barycenter)

    # -- misc ---------------------------------------------------------------

    def _check(self, *chambers: Chamber) -> None:
        for c in chambers:
            if c.ctx is not self:
                raise MixedContext("chamber belongs to a different group context")

    def generator_orders_ok(self) -> bool:
        """Pairwise generator products have exactly the matrix orders."""
        for i in range(self.rank):
            for j in range(self.rank):
                if i == j:
                    continue
                m = self.matrix.order(i, j)
                if m == INF:
                    continue
                if element_order(compose(self.gens[i], self.gens[j])) != m:
                    return False
        return True


@lru_cache(maxsize=None)
def build_group(tag: TypeTag) -> GroupContext:
    """Build (and memoize) the canonical context for a supported type."""
    return GroupContext(tag)
