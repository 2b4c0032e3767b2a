"""Cayley-graph metric structure: distances, intervals, convex hulls.

Three hull routes are kept:

* ``halfspace_hull`` is the production definition.  A chamber belongs to
  the hull of a point set iff, for every wall with all the points strictly
  on one side, the chamber lies on that same side.  Per wall family this
  is an integer window test on floor vectors, and the hull is collected by
  flood fill from one seed.  A sweep reads the same windows from bit masks
  instead: ``_HullTable`` takes one cover's floor vectors and keeps, per
  family, masks over cover indices by floor offset, from which the rows of
  Conv(v, w) and Conv(u, v, w) by w's offset are built once per offset of
  v.  A row's sizes and verdicts are `map` scans over them.

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
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import and_, attrgetter, lt, mul, or_, sub

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
    seen = {u}
    stack = [(u, u.element.preimage_scaled(*v.order_key, m))]
    while stack:
        c, (p1, p2) = stack.pop()
        for (n1, n2, k), g, nb in zip(ctx.base_walls, ctx.gens, c.neighbors()):
            if n1 * p1 + n2 * p2 < k * m and nb not in seen:
                seen.add(nb)
                stack.append((nb, g.apply_scaled(p1, p2, m)))
    return ChamberSet(seen)


def halfspace_hull(points) -> ChamberSet:
    """Chambers on the common side of every wall that does not separate
    the given points: those whose floors lie in the points' per-family
    [lo, hi] window.  That set is convex, hence gallery-connected, so the
    flood fill from one point cuts no chamber of the window off."""
    points = list(points)
    if not points:
        raise ValueError("hull of an empty point list")
    nfam = len(_shared_ctx(*points).families)
    cols = list(zip(*(p.floors for p in points)))
    lo, hi = [min(c) for c in cols], [max(c) for c in cols]
    seed = points[0]
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for c in frontier:
            for nb in c.neighbors():
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
    """One sweep's result: the counterexamples among `triples_checked`
    ordered triples of the ball of `radius`, and the sweep's wall time.
    `ok` and `max_ratio` are read off the counterexamples."""

    type: str
    radius: int
    triples_checked: int
    counterexamples: list
    wall_clock_ms: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def max_ratio(self) -> Fraction:
        """The largest |Conv(u, v, w)| / (|Conv(u, v)|·|Conv(v, w)|).  The
        pairs with v = u all give exactly 1, and a ratio above 1 is a
        counterexample."""
        return max((Fraction(c["size_uvw"], c["size_uv"] * c["size_vw"])
                    for c in self.counterexamples), default=Fraction(1))

    def to_dict(self) -> dict:
        ratio = self.max_ratio
        return {**asdict(self), "max_ratio": {"num": ratio.numerator, "den": ratio.denominator}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class _HullTable:
    """Hulls of points of a convex cover, as bit masks over the cover's
    integer vectors: bit k stands for cover[k].

    Each coordinate places a chamber among one family of parallel walls
    (a floor, or the 0/1 side of one wall), so by Tits' theorem the hull
    of cover points is the set of cover vectors inside their window: per
    coordinate, between the points' least and greatest value.  Per
    coordinate the table keeps two lists indexed by value minus the least
    cover value (the offset): at offset t, the mask of cover vectors at
    or above it (`ge`) and of those at or below it (`le`).  A hull is the
    AND of two entries per coordinate."""

    def __init__(self, cover) -> None:
        self.least, self.ge, self.le = [], [], []
        for col in zip(*cover):
            least = min(col)
            at = [0] * (max(col) - least + 1)
            for k, x in enumerate(col):
                at[x - least] |= 1 << k
            self.least.append(least)
            self.ge.append(list(accumulate(reversed(at), or_))[::-1])
            self.le.append(list(accumulate(at, or_)))

    def offsets(self, vector) -> tuple:
        """The vector minus each coordinate's least cover value."""
        return tuple(map(sub, vector, self.least))

    def hull(self, offsets) -> int:
        """The mask of the hull of the points with these offsets; an offset
        outside its coordinate's range on the cover raises ValueError."""
        mask = -1
        for ge, le, col in zip(self.ge, self.le, zip(*offsets)):
            lo, hi = min(col), max(col)
            if lo < 0 or hi >= len(ge):
                raise ValueError(f"offsets {list(col)} outside the cover's 0..{len(ge) - 1}")
            mask &= ge[lo] & le[hi]
        return mask


def _offset_rows(table: _HullTable, cols) -> list:
    """Per coordinate, by v's offset a, the masks of Conv(v, w) and, for
    u = ball[0], of Conv(u, v, w) by w's offset: rows of shared windows
    win[s][t] = ge[min(s, t)] & le[max(s, t)], each ANDed once."""
    rows = []
    for ge, le, col in zip(table.ge, table.le, cols):
        win, b = [], col[0]
        for a in range(len(ge)):
            win.append([*(row[a] for row in win), *map(and_, repeat(ge[a]), le[a:])])
        rows.append((win, [[*win[max(a, b)][:min(a, b)], *repeat(win[a][b], abs(a - b)),
                            *win[min(a, b)][max(a, b):]] for a in range(len(ge))]))
    return rows


def _row_sizes(rows, cols, i: int) -> tuple:
    """Sizes |Conv(v, w)| and |Conv(u, v, w)|, as two lists, for v = ball[i]
    and each w = ball[j], j >= i, in order: per coordinate of `cols`, the
    ball's table offsets, v's two `_offset_rows` are mapped over the column
    from i on, then ANDed and bit-counted by `map`, with no frame per pair."""
    pair_cols, triple_cols = [], []
    for (pairs, triples), col in zip(rows, cols):
        tail = col[i:]
        pair_cols.append(map(pairs[col[i]].__getitem__, tail))
        triple_cols.append(map(triples[col[i]].__getitem__, tail))
    return (list(map(int.bit_count, reduce(partial(map, and_), pair_cols))),
            list(map(int.bit_count, reduce(partial(map, and_), triple_cols))))


class _WeakOrder:
    """The sweep's weak-order route: hulls of ball points, and their sizes,
    from the letters of their canonical words.  The words are folds of the
    chambers' barycenters in base walls, so neither they nor this route
    read a floor.  Each chamber is folded once: the ball's at construction,
    where `sizes` gets their |[e, x]|, any other on first sight."""

    def __init__(self, ctx: GroupContext, ball) -> None:
        self.ctx, self.ball = ctx, ball
        self.roots = RootSystem(ctx.matrix)
        self.letters = [ctx.letters_of(c) for c in ball]
        ids, self.masks = zip(*map(self.roots.walk, self.letters))
        self.ids = dict(zip(ball, ids))
        self.sizes = self.roots.interval_sizes(ids, [len(word) for word in self.letters])

    def between(self, i: int, j: int) -> int:
        """N(v^-1 w) as a mask, for v = ball[i] and w = ball[j]."""
        x = self.roots.element(self.letters[i][::-1] + self.letters[j])
        return self.roots.walk(self.roots.reduced(x))[1]

    def check(self, points, mask, *sizes_used, hull=None) -> None:
        """Raise unless each size used is the size of the weak-order hull of
        `mask`, the inversions of the hull of the ball points numbered
        `points`, and unless a table `hull` given holds its elements, each
        chamber's by a fold that reads no floor."""
        lower = self.roots.lower_set(mask)
        ids, held = self.ids, {}
        for c in hull or ():
            if c not in ids:
                ids[c] = self.roots.element(self.ctx.letters_of(c))
            held[ids[c]] = c
        for used in sizes_used:
            if used != len(lower) or hull is not None and held.keys() != lower:
                raise WeakOrderDisagreement(
                    self.ctx.tag, [self.ctx.word_of(self.ball[k]) for k in points],
                    used, len(lower),
                    [self.ctx.word_of(c) for k, c in held.items() if k not in lower],
                    ["".join(str(s + 1) for s in self.roots.reduced(k))
                     for k in sorted(lower - held.keys())] if hull is not None else [])


def sweep_triples(tag: TypeTag, radius: int, jobs: int = 1,
                  seed: int = 0, oracle_samples: int = 32) -> CheckReport:
    """Check the strong hull inequality for u = identity and all ordered
    pairs (v, w) in the ball of the given radius, in this process.

    One pass over v = ball[i]: each row's two size lists, for w = ball[j],
    j >= i, are gathered from the rows built once per offset, then checked,
    sampled and scanned for a failing verdict in either order, so one row
    is alive at a time; only a failing row is walked pair by pair.

    With `oracle_samples` > 0 the weak order checks the sweep, and a
    disagreement aborts it; a negative count raises ValueError.  It checks
    both sizes of row 0 against each |[e, w]| of its one pass over the ball,
    and, on a sample of the pairs i <= j (numbered in that order) drawn with
    `seed`, |Conv(v, w)| by size and Conv(u, v, w) as the table's chambers.

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
    cover = halfspace_hull(ball).chambers
    table = _HullTable([c.floors for c in cover])
    offsets = [table.offsets(c.floors) for c in ball]
    cols = list(zip(*offsets))
    rows = _offset_rows(table, cols)
    rng = random.Random(seed)
    # Sampled pair numbers, popped from the end in ascending order.
    sampled = sorted({rng.randrange(n * (n + 1) // 2)
                      for _ in range(oracle_samples)}, reverse=True)
    weak = _WeakOrder(ctx, ball) if oracle_samples > 0 else None
    counterexamples = []
    first = 0  # the number of the pair (i, i)
    for i in range(n):
        vws, uvws = _row_sizes(rows, cols, i)
        if len(vws) != n - i or len(uvws) != n - i:
            raise RuntimeError(f"sweep row {i} has {len(vws)} pair and "
                               f"{len(uvws)} triple sizes, expected {n - i}")
        if i == 0:
            # ball[0] is u, so row 0 holds |Conv(u, ball[j])|.
            usize = vws
        while sampled and sampled[-1] < first + n - i:
            j = i + sampled.pop() - first
            weak.check([i, j], weak.between(i, j), vws[j - i])
            mask = table.hull([offsets[0], offsets[i], offsets[j]])
            weak.check([0, i, j], weak.masks[i] | weak.masks[j], uvws[j - i],
                       hull=[c for c, bit in zip(cover, bin(mask)[:1:-1]) if bit == "1"])
        if i == 0 and weak is not None:
            # Both sizes of row 0 are |Conv(u, w)| = |[e, w]|, as v = u.
            for j, (vw, uvw, size) in enumerate(zip(vws, uvws, weak.sizes)):
                if vw != size or uvw != size:
                    raise WeakOrderDisagreement(tag, [ctx.word_of(ball[0]), ctx.word_of(ball[j])],
                                                uvw if vw == size else vw, size, [], [])
        first += n - i
        # Ordered verdicts (v, w) and (w, v) share the vw and uvw sizes; a row
        # is walked pair by pair only if a scan finds either order failing.
        if (any(map(lt, map(mul, repeat(usize[i]), vws), uvws))
                or any(map(lt, map(mul, usize[i:], vws), uvws))):
            for j, (vw, uvw) in enumerate(zip(vws, uvws), i):
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
        wall_clock_ms=elapsed_ms,
    )
