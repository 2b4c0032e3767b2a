"""Cayley-graph metric structure: distances, intervals, convex hulls.

Three hull routes are kept:

* ``halfspace_hull`` is the production definition.  A chamber belongs to
  the hull of a point set iff, for every wall with all the points strictly
  on one side, the chamber lies on that same side.  Per wall family this
  is an integer window test on floor vectors, and the hull is collected by
  flood fill from one seed.  A sweep reads the same windows from bit masks
  over one precomputed cover (``_HullTable``) instead of flood filling:
  per family, lists of masks indexed by floor offset, and per v one row
  list of the masks of Conv(v, w) and Conv(u, v, w) over w's offsets, so
  each pair's two sizes take one lookup per family and one AND.

* ``closure_hull`` is an oracle.  It iterates geodesic intervals (the
  sets {c : d(a,c) + d(c,b) = d(a,b)}) to a least fixpoint.  An interval
  grows from one end across the panels that face the other, found by
  reflecting the other end's barycenter in base walls, so this route
  reads no floor and does not share the first route's family table.

* The weak order (``roots.RootSystem``) is the oracle that shares nothing
  with the geometry: it finds a hull as a lower set of inversion sets,
  from the Cartan matrix alone.  It sees a chamber only through the word
  that ``word_of`` folds for it, which reads no floor either.

The first two return a `ChamberSet`, a frozenset in barycenter order,
and agree on pairs and on random triples in the acceptance suite.  A
sweep checks its sizes, and the hull sets of its sampled pairs, against
the weak order; a disagreement aborts with a structured report since it
would mean an implementation bug, not new mathematics.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import and_, attrgetter, or_, sub

from .coxeter import TypeTag
from .group import MixedContext
from .roots import RootSystem
from .tessellation import Chamber, GroupContext, build_group


def _shared_ctx(*chambers: Chamber) -> GroupContext:
    ctx = chambers[0].ctx
    for c in chambers[1:]:
        if c.ctx is not ctx:
            raise MixedContext("chambers belong to different group contexts")
    return ctx


class ChamberSet(frozenset):
    """A frozenset of chambers with a deterministic iteration order.

    Chambers are interned by their context, so size, membership, set
    algebra and comparison are the frozenset's own, by identity; a
    ChamberSet equals a plain frozenset of the same chambers.  Iteration
    and `chambers` follow the exact barycenter, by the integer
    `Chamber.order_key`, sorted on each read rather than on construction:
    a sweep reads only the size."""

    __slots__ = ()

    @property
    def chambers(self) -> tuple:
        return tuple(sorted(frozenset.__iter__(self), key=attrgetter("order_key")))

    @property
    def size(self) -> int:
        return len(self)

    def __iter__(self):
        return iter(self.chambers)

    def __repr__(self) -> str:
        return f"ChamberSet(size={self.size})"


@dataclass(frozen=True)
class HullVerdict:
    size_uv: int
    size_vw: int
    size_uvw: int

    @property
    def product(self) -> int:
        return self.size_uv * self.size_vw

    @property
    def holds(self) -> bool:
        return self.product >= self.size_uvw


def interval(u: Chamber, v: Chamber) -> ChamberSet:
    """All chambers on some minimal gallery from u to v.

    A chamber is on one iff it is reached from u by steps that each lower
    the distance to v by exactly 1.  The step from c across panel i does
    so iff base wall i separates c^-1(v) from the base chamber, so the
    search outward from u carries c^-1 of v's scaled barycenter, reflected
    by generator i with each step."""
    ctx = _shared_ctx(u, v)
    m = ctx.scale
    steps = list(zip(ctx.base_walls, ctx.gens))
    seen = {u}
    stack = [(u, u.element.preimage_scaled(*v.order_key, m))]
    while stack:
        c, (p1, p2) = stack.pop()
        for ((n1, n2, k), g), (_, nb) in zip(steps, c.neighbors()):
            if n1 * p1 + n2 * p2 < k * m and nb not in seen:
                seen.add(nb)
                stack.append((nb, g.apply_scaled(p1, p2, m)))
    return ChamberSet(seen)


def _window(points):
    """Per-family [lo, hi] floor bounds of the points.  The halfspace hull
    is exactly the chambers whose floors lie inside: it is convex, hence
    gallery-connected, so no chamber of the window is cut off."""
    cols = list(zip(*(p.floors for p in points)))
    return [min(c) for c in cols], [max(c) for c in cols]


def halfspace_hull(points) -> ChamberSet:
    """Chambers on the common side of every wall that does not separate
    the given points; the defining window is per-family integer bounds."""
    points = list(points)
    if not points:
        raise ValueError("hull of an empty point list")
    nfam = len(_shared_ctx(*points).families)
    lo, hi = _window(points)
    seed = points[0]
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for c in frontier:
            for _, nb in c.neighbors():
                if nb in seen:
                    continue
                fl = nb.floors
                if all(lo[f] <= fl[f] <= hi[f] for f in range(nfam)):
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    missing = [p for p in points if p not in seen]
    if missing:
        raise RuntimeError("halfspace flood fill failed to reach a seed point")
    return ChamberSet(seen)


def closure_hull(points) -> ChamberSet:
    """Least set containing the points and closed under geodesic intervals."""
    points = list(points)
    if not points:
        raise ValueError("hull of an empty point list")
    _shared_ctx(*points)
    # Each chamber is paired with the members before it as it joins, so
    # every unordered pair of members is queued exactly once.
    members = set()
    pending = []
    for c in dict.fromkeys(points):
        pending.extend((c, m) for m in members)
        members.add(c)
    while pending:
        a, b = pending.pop()
        for c in interval(a, b) - members:
            pending.extend((c, m) for m in members)
            members.add(c)
    return ChamberSet(members)


class HullDisagreement(RuntimeError):
    """Dual-route hull algorithms returned different sets."""

    def __init__(self, ctx, points, via_halfspace, via_closure):
        words = [ctx.word_of(p) for p in points]
        only_h = [ctx.word_of(c) for c in via_halfspace if c not in via_closure]
        only_c = [ctx.word_of(c) for c in via_closure if c not in via_halfspace]
        super().__init__(
            f"hull algorithms disagree on {ctx.tag.code} points {words}: "
            f"halfspace-only={only_h}, closure-only={only_c}"
        )
        self.points = words
        self.halfspace_only = only_h
        self.closure_only = only_c


class WeakOrderDisagreement(RuntimeError):
    """A sweep used a hull size, or a table hull, other than the weak
    order's; `table_only` and `weak_only` name the chambers one side lacks."""

    def __init__(self, tag, words, size_used, size_weak, table_only, weak_only):
        super().__init__(
            f"weak-order hull disagrees on {tag.code} points {words}: "
            f"sweep used size {size_used}, weak order gives {size_weak}, "
            f"table-only={table_only}, weak-only={weak_only}")
        self.points = words
        self.size_used = size_used
        self.size_weak = size_weak
        self.table_only = table_only
        self.weak_only = weak_only


def checked_hull(points) -> ChamberSet:
    """halfspace_hull cross-checked against closure_hull; aborts on mismatch."""
    points = list(points)
    h = halfspace_hull(points)
    c = closure_hull(points)
    if h != c:
        raise HullDisagreement(points[0].ctx, points, h, c)
    return h


def strong_hull_check(u: Chamber, v: Chamber, w: Chamber) -> HullVerdict:
    """Exact sizes for the hull inequality |C(u,v)|*|C(v,w)| >= |C(u,v,w)|."""
    _shared_ctx(u, v, w)
    return HullVerdict(
        size_uv=halfspace_hull([u, v]).size,
        size_vw=halfspace_hull([v, w]).size,
        size_uvw=halfspace_hull([u, v, w]).size,
    )


@dataclass(frozen=True)
class CoarseningDiagnostic:
    """Both sides of the coarse-triangulation comparison: twice the coarse
    triple-hull size against the fine triple-hull size."""

    coarse_doubled: int
    fine_size: int

    @property
    def holds(self) -> bool:
        return self.coarse_doubled >= self.fine_size


def g2_diagnostic(u1: Chamber, v: Chamber, w1: Chamber) -> CoarseningDiagnostic:
    ctx = _shared_ctx(u1, v, w1)
    coarse = [ctx.coarsen(u1), ctx.coarsen(v), ctx.coarsen(w1)]
    return CoarseningDiagnostic(
        coarse_doubled=2 * halfspace_hull(coarse).size,
        fine_size=halfspace_hull([u1, v, w1]).size,
    )


# -- exhaustive sweep ------------------------------------------------------

@dataclass
class CheckReport:
    type: str
    radius: int
    triples_checked: int
    counterexamples: list
    max_ratio: Fraction
    wall_clock_ms: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "radius": self.radius,
            "triples_checked": self.triples_checked,
            "counterexamples": self.counterexamples,
            "max_ratio": {
                "num": self.max_ratio.numerator,
                "den": self.max_ratio.denominator,
            },
            "wall_clock_ms": self.wall_clock_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class _HullTable:
    """Halfspace hulls of points of one ball, as bit masks over a cover.

    The cover is the halfspace hull of the whole ball.  A hull is the set
    of chambers whose floors lie in its points' window, and a subset of
    the ball has a window inside the ball's, so each hull of ball points
    is the set of cover chambers inside its window.  The cover is convex,
    so each family's floors on it run through one interval of integers.
    Per family the table keeps two lists indexed by floor minus that
    interval's least floor: at offset t, the mask of cover chambers at or
    above it (`ge`) and of those at or below it (`le`).  A hull is the AND
    of 2·nfam list entries."""

    def __init__(self, ball) -> None:
        cover = halfspace_hull(ball).chambers
        self._bit = {c: 1 << k for k, c in enumerate(cover)}
        self.least, self.ge, self.le = [], [], []
        for f in range(len(cover[0].floors)):
            least = min(c.floors[f] for c in cover)
            at = [0] * (max(c.floors[f] for c in cover) - least + 1)
            for c, bit in self._bit.items():
                at[c.floors[f] - least] |= bit
            self.least.append(least)
            self.ge.append(list(accumulate(reversed(at), or_))[::-1])
            self.le.append(list(accumulate(at, or_)))

    def offsets(self, chamber) -> tuple:
        """The chamber's floors minus each family's least cover floor."""
        return tuple(map(sub, chamber.floors, self.least))

    def hull(self, points) -> ChamberSet:
        if any(p not in self._bit for p in points):
            raise ValueError("point outside the table's cover")
        lo, hi = _window(points)
        mask = -1
        for least, ge, le, a, b in zip(self.least, self.ge, self.le, lo, hi):
            mask &= ge[a - least] & le[b - least]
        return ChamberSet(c for c, bit in self._bit.items() if mask & bit)


def _row(ge, le, lo, hi) -> list:
    """[ge[min(lo, t)] & le[max(hi, t)] for each offset t], for lo <= hi."""
    return [*map(and_, ge[:lo], repeat(le[hi])), *repeat(ge[lo] & le[hi], hi - lo),
            *map(and_, repeat(ge[lo]), le[hi:])]


def _row_sizes(table: _HullTable, offsets, i: int) -> list:
    """Sizes (|Conv(v, w)|, |Conv(u, v, w)|) for v = ball[i] and each
    w = ball[j], j >= i, in order; `offsets` are the ball's table offsets
    and u = ball[0].  Per family the masks of both hulls are listed by w's
    floor offset and mapped over that family's column of `offsets[i:]`;
    the families are ANDed and bit-counted by `map`, with no frame per pair."""
    v, u = offsets[i], offsets[0]
    pair_cols, triple_cols = [], []
    for ge, le, a, b, col in zip(table.ge, table.le, v, u, zip(*offsets[i:])):
        pair_cols.append(map(_row(ge, le, a, a).__getitem__, col))
        triple_cols.append(map(_row(ge, le, min(a, b), max(a, b)).__getitem__, col))
    return list(zip(map(int.bit_count, reduce(partial(map, and_), pair_cols)),
                    map(int.bit_count, reduce(partial(map, and_), triple_cols))))


class _WeakOrder:
    """The sweep's weak-order route: hulls of ball points, and their sizes,
    from the letters of their canonical words.  The words are folds of the
    chambers' barycenters in base walls, so neither they nor this route
    read a floor."""

    def __init__(self, ctx: GroupContext, ball) -> None:
        self.ctx, self.ball = ctx, ball
        self.roots = RootSystem(ctx.matrix)
        self.letters = [ctx.letters_of(c) for c in ball]
        # N(ball[k]) as a mask.
        self.masks = [self.roots.inversions(word) for word in self.letters]

    def between(self, i: int, j: int) -> int:
        """N(v^-1 w) as a mask, for v = ball[i] and w = ball[j]."""
        x = self.roots.element(self.letters[i][::-1] + self.letters[j])
        return self.roots.inversions(self.roots.reduced(x))

    def check(self, points, mask, *sizes_used, hull=None) -> None:
        """Raise unless each size used is the size of the weak-order hull of
        `mask`, the inversions of the hull of the ball points numbered
        `points`, and unless a table `hull` given holds its elements, each
        chamber's by a fold that reads no floor."""
        lower = self.roots.lower_set(mask)
        held = {} if hull is None else {
            self.roots.element(self.ctx.letters_of(c)): c for c in hull}
        for used in sizes_used:
            if used != len(lower) or held and held.keys() != lower:
                raise WeakOrderDisagreement(
                    self.ctx.tag, [self.ctx.word_of(self.ball[k]) for k in points],
                    used, len(lower),
                    [self.ctx.word_of(c) for k, c in held.items() if k not in lower],
                    ["".join(str(s + 1) for s in self.roots.reduced(k))
                     for k in sorted(lower - held.keys())] if held else [])


def sweep_triples(tag: TypeTag, radius: int, jobs: int = 1,
                  seed: int = 0, oracle_samples: int = 32) -> CheckReport:
    """Check the strong hull inequality for u = identity and all ordered
    pairs (v, w) in the ball of the given radius, in this process.

    One pass over v = ball[i]: each row of sizes for w = ball[j], j >= i,
    is checked, sampled and reduced as it arrives, so one row is alive at
    a time.  One mask table serves the rows and the sampled hull sets.

    With `oracle_samples` > 0 the weak order checks the sweep, and a
    disagreement aborts it; a negative count raises ValueError.  It
    checks every |Conv(u, w)| of row 0, and, on a seeded sample of the
    pairs i <= j (numbered in that order), |Conv(v, w)| by size and
    Conv(u, v, w) as the table's set of chambers.

    `max_ratio` is the largest |Conv(u, v, w)| / (|Conv(u, v)|·|Conv(v, w)|).
    The pairs with v = u all give exactly 1, and a ratio above 1 is a
    counterexample, so it is read off the counterexamples, not tracked.

    `jobs` must be 1; any other value raises ValueError.  The slot stays
    only because `bench/worker.py` passes 1 there by position, before the
    seed; it goes once the benchmark stops passing it.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: sweeps run in one process")
    if oracle_samples < 0:
        raise ValueError(f"oracle_samples must be non-negative, got {oracle_samples}")
    started = time.monotonic()
    ctx = build_group(tag)
    ball = ctx.ball(radius)
    n = len(ball)
    table = _HullTable(ball)
    offsets = [table.offsets(c) for c in ball]
    rng = random.Random(seed)
    # Sampled pair numbers, popped from the end in ascending order.
    sampled = sorted({rng.randrange(n * (n + 1) // 2)
                      for _ in range(oracle_samples)}, reverse=True)
    weak = _WeakOrder(ctx, ball) if oracle_samples > 0 else None
    counterexamples = []
    first = 0  # the number of the pair (i, i)
    for i in range(n):
        row = _row_sizes(table, offsets, i)
        if len(row) != n - i:
            raise RuntimeError(
                f"sweep row {i} has {len(row)} sizes, expected {n - i}")
        if i == 0:
            # ball[0] is u, so row 0 holds |Conv(u, ball[j])|.
            usize = [vw for vw, _ in row]
        while sampled and sampled[-1] < first + n - i:
            j = i + sampled.pop() - first
            vw, uvw = row[j - i]
            weak.check([i, j], weak.between(i, j), vw)
            weak.check([0, i, j], weak.masks[i] | weak.masks[j], uvw,
                       hull=table.hull([ctx.base_chamber, ball[i], ball[j]]))
        if i == 0 and weak is not None:
            # Both sizes of row 0 are |Conv(u, w)|, as v = u.
            for j, (vw, uvw) in enumerate(row):
                weak.check([0, j], weak.masks[j], vw, uvw)
        first += n - i
        for j, (vw, uvw) in enumerate(row, i):
            # Ordered verdicts (v, w) and (w, v) share the vw and uvw sizes.
            for a, b in [(i, j)] if i == j else [(i, j), (j, i)]:
                if usize[a] * vw < uvw:
                    counterexamples.append(dict(
                        v=ctx.word_of(ball[a]), w=ctx.word_of(ball[b]),
                        size_uv=usize[a], size_vw=vw, size_uvw=uvw))
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return CheckReport(
        type=tag.code,
        radius=radius,
        triples_checked=n * n,
        counterexamples=counterexamples,
        max_ratio=max((Fraction(c["size_uvw"], c["size_uv"] * c["size_vw"])
                       for c in counterexamples), default=Fraction(1)),
        wall_clock_ms=elapsed_ms,
    )
