"""Cayley-graph metric structure: distances, intervals, convex hulls.

Three hull routes are kept:

* ``halfspace_hull`` is the production definition.  A chamber belongs to
  the hull of a point set iff, for every wall with all the points strictly
  on one side, the chamber lies on that same side.  Per wall family this
  is an integer window test on floor vectors, and the hull is collected by
  flood fill from one seed.  A sweep reads the same windows from bit masks
  instead: ``_offset_rows`` takes one cover's floor vectors and builds,
  per family and offset of v, the rows of Conv(v, w) and Conv(u, v, w)
  masks by w's offset.  Every mask a sweep counts or decodes is ANDed from
  them: a row's sizes and verdicts are `map` scans, made only for the v
  least in their orbit under the diagram automorphisms, and a sampled
  pair's two hulls are one lookup per family (``_hull_masks``).

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
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, compress, repeat
from operator import and_, attrgetter, itemgetter, lt, mul, or_, sub

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


class HullVerdict(namedtuple("HullVerdict", "size_uv size_vw size_uvw")):
    __slots__ = ()

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
    if not seen.issuperset(points):
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
    return HullVerdict(*(halfspace_hull(p).size for p in ([u, v], [v, w], [u, v, w])))


# -- exhaustive sweep ------------------------------------------------------

class CheckReport:
    """One sweep's result: the counterexamples among `triples_checked`
    ordered triples of the ball of `radius`, and the sweep's wall time.
    `ok` and `max_ratio` are read off the counterexamples."""

    __slots__ = ("type", "radius", "triples_checked", "counterexamples", "wall_clock_ms")

    def __init__(self, type: str, radius: int, triples_checked: int,
                 counterexamples: list, wall_clock_ms: int) -> None:
        self.type, self.radius, self.triples_checked = type, radius, triples_checked
        self.counterexamples, self.wall_clock_ms = counterexamples, wall_clock_ms

    def __repr__(self) -> str:
        return f"CheckReport({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

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
        return {**{k: getattr(self, k) for k in self.__slots__},
                "counterexamples": [dict(c) for c in self.counterexamples],
                "max_ratio": {"num": ratio.numerator, "den": ratio.denominator}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _offset_rows(cover, u) -> tuple:
    """The sweep's hull table over a convex cover's integer vectors, as rows
    of bit masks: bit k stands for cover[k].

    Each coordinate places a chamber among one family of parallel walls
    (a floor, or the 0/1 side of one wall), so by Tits' theorem the hull
    of cover points is the set of cover vectors inside their window: per
    coordinate, between the points' least and greatest value.  Returns
    each coordinate's least cover value and, by v's offset (its value
    minus that least one), the rows of Conv(v, w) and, with u's vector
    `u`, of Conv(u, v, w) masks by w's offset.  The rows share windows
    win[s][t] = ge[min(s, t)] & le[max(s, t)], each ANDed once, where `ge`
    and `le` mask the vectors at or above and at or below an offset."""
    least, rows = [min(col) for col in zip(*cover)], []
    for col, lo, b in zip(zip(*cover), least, u):
        at = [0] * (max(col) - lo + 1)
        for k, x in enumerate(col):
            at[x - lo] |= 1 << k
        ge, le = list(accumulate(reversed(at), or_))[::-1], list(accumulate(at, or_))
        win, b = [], b - lo
        for a in range(len(ge)):
            win.append([*(row[a] for row in win), *map(and_, repeat(ge[a]), le[a:])])
        rows.append((win, [[*win[max(a, b)][:min(a, b)], *repeat(win[a][b], abs(a - b)),
                            *win[min(a, b)][max(a, b):]] for a in range(len(ge))]))
    return least, rows


def _hull_masks(rows, v, w) -> tuple:
    """The masks of Conv(v, w) and Conv(u, v, w) for the points with offset
    vectors v and w: per coordinate, one lookup in each of v's two rows."""
    pair = triple = -1
    for (pairs, triples), a, b in zip(rows, v, w):
        pair &= pairs[a][b]
        triple &= triples[a][b]
    return pair, triple


def _row_sizes(rows, cols, i: int) -> tuple:
    """Sizes |Conv(v, w)| and |Conv(u, v, w)|, as two lists, for v = ball[i]
    and each w = ball[j], j >= i, in order: per coordinate of `cols`, the
    ball's offsets, v's two `_offset_rows` are mapped over the column
    from i on, then ANDed and bit-counted by `map`, with no frame per pair."""
    pair_cols, triple_cols = [], []
    for (pairs, triples), col in zip(rows, cols):
        tail = col[i:]
        pair_cols.append(map(pairs[col[i]].__getitem__, tail))
        triple_cols.append(map(triples[col[i]].__getitem__, tail))
    return (list(map(int.bit_count, reduce(partial(map, and_), pair_cols))),
            list(map(int.bit_count, reduce(partial(map, and_), triple_cols))))


def _orbit_maps(ball, perms) -> list:
    """Per generator permutation p, the ball index of each ball chamber's
    image under s_i -> s_p(i), by one walk over the ball's edges: the image
    of c s_i is the image of c, times s_p(i).  `_check_map` checks each."""
    index = {c: k for k, c in enumerate(ball)}
    edges = [[index.get(nb) for nb in c.neighbors()] for c in ball]
    maps = []
    for p in perms:
        img = [0] + [None] * (len(ball) - 1)
        for k, row in enumerate(edges):
            for s, j in enumerate(row):
                if j is not None and img[j] is None and img[k] is not None:
                    img[j] = edges[img[k]][p[s]]
        _check_map(edges, p, img)
        maps.append(img)
    return maps


def _check_map(edges, p, img) -> None:
    """Raise RuntimeError unless `img` fixes ball[0], permutes the ball and
    takes each edge c - c s_i to img(c) - img(c) s_p(i), where `edges`
    gives the ball index of c s_i, or None outside the ball."""
    if img[0] != 0 or set(img) != set(range(len(img))):
        raise RuntimeError(f"generator map {p} is no permutation of the ball fixing ball[0]")
    for k, row in enumerate(edges):
        if [edges[img[k]][q] for q in p] != [None if j is None else img[j] for j in row]:
            raise RuntimeError(f"generator map {p} breaks an edge at ball[{k}]")


class _WeakOrder:
    """The sweep's weak-order route: hulls of ball points, and their sizes,
    from the letters of their canonical words.  The words are folds of the
    chambers' barycenters in base walls, so neither they nor this route
    read a floor.  Each chamber is folded once: the ball's at construction,
    where `sizes` gets their |[e, x]|, any other on first sight."""

    def __init__(self, ctx: GroupContext, ball) -> None:
        self.ctx, self.ball = ctx, ball
        self.roots = RootSystem(ctx.matrix)
        ids, self.masks = zip(*(self.roots.walk(ctx.letters_of(c)) for c in ball))
        self.ids = dict(zip(ball, ids))
        self.sizes = self.roots.interval_sizes(ids, [mask.bit_count() for mask in self.masks])

    def check(self, i: int, j: int, size_vw: int, size_uvw: int, hull_vw, hull_uvw) -> None:
        """Raise unless, for v = ball[i] and w = ball[j], the sizes used are
        |Conv(v, w)| and |Conv(u, v, w)|, and the chambers `hull_uvw` hold
        the elements of the lower set of N(v) | N(w), and `hull_vw` those of
        its x with N(v) & N(w) in N(x), each chamber's by a fold that reads
        no floor."""
        both = self.masks[i] & self.masks[j]
        lower = self.roots.lower_set(self.masks[i] | self.masks[j])
        pair = {k: nx for k, nx in lower.items() if nx & both == both}
        ids = self.ids
        for points, used, weak, hull in (([i, j], size_vw, pair, hull_vw),
                                         ([0, i, j], size_uvw, lower, hull_uvw)):
            held = {}
            for c in hull:
                if c not in ids:
                    ids[c] = self.roots.element(self.ctx.letters_of(c))
                held[ids[c]] = c
            if used != len(weak) or held.keys() != weak.keys():
                raise WeakOrderDisagreement(
                    self.ctx.tag, [self.ctx.word_of(self.ball[k]) for k in points], used,
                    len(weak), [self.ctx.word_of(c) for k, c in held.items() if k not in weak],
                    ["".join(str(s + 1) for s in self.roots.reduced(k))
                     for k in sorted(weak.keys() - held.keys())])


def sweep_triples(tag: TypeTag, radius: int, jobs: int = 1,
                  seed: int = 0, oracle_samples: int = 32) -> CheckReport:
    """Check the strong hull inequality for u = identity and all ordered
    pairs (v, w) in the ball of the given radius, in this process.

    A diagram automorphism s fixes u and keeps hulls, so (a, b) and (sa, sb)
    share their verdict, and the sizes of (a, b) and (b, a) agree: with m =
    sa least in a's orbit, and no more than b's orbit's least, (m, sb) covers
    them.  So one pass over v = ball[m], m least in its orbit: each row's
    two size lists, for w = ball[j], j >= m, are gathered from the rows
    built once per offset, then sampled and scanned for a failing verdict
    in either order, so one row is alive at a time; only a failing row is
    walked pair by pair, listing each failing pair's images.

    With `oracle_samples` > 0 the weak order checks the sweep, and a
    disagreement aborts it; a negative count raises ValueError.  It checks
    both sizes of row 0 against each |[e, w]| of its one pass over the ball,
    and, on a sample of the pairs i <= j (numbered in that order) drawn with
    `seed`, the sizes read for them from their orbit's row, as |Conv(v, w)|
    and |Conv(u, v, w)| at their own chambers, and both hulls as sets of
    the cover chambers their masks, looked up in the same rows, hold.

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
    least, rows = _offset_rows([c.floors for c in cover], ball[0].floors)
    offsets = [tuple(map(sub, c.floors, least)) for c in ball]
    cols = list(zip(*offsets))

    def row_sizes(i):
        vws, uvws = _row_sizes(rows, cols, i)
        if len(vws) != n - i or len(uvws) != n - i:
            raise RuntimeError(f"sweep row {i} has {len(vws)} pair and "
                               f"{len(uvws)} triple sizes, expected {n - i}")
        return vws, uvws

    weak = _WeakOrder(ctx, ball) if oracle_samples > 0 else None
    # ball[0] is u, so row 0 holds |Conv(u, ball[j])|.
    usize, uvws = row_sizes(0)
    if weak is not None:
        # Both sizes of row 0 are |Conv(u, w)| = |[e, w]|, as v = u.
        for j, (vw, uvw, size) in enumerate(zip(usize, uvws, weak.sizes)):
            if vw != size or uvw != size:
                raise WeakOrderDisagreement(tag, [ctx.word_of(ball[0]), ctx.word_of(ball[j])],
                                            uvw if vw == size else vw, size, [], [])
    maps = _orbit_maps(ball, ctx.matrix.automorphisms())
    # Per ball index, the map that takes it to the least index of its orbit.
    to_least = [min(maps, key=itemgetter(k)) for k in range(n)]
    # The sampled pairs i <= j, numbered row by row from (i, i) at starts[i],
    # grouped by the row m their sizes are read from, with the column sb.
    starts, samples = list(accumulate(range(n, 0, -1), initial=0)), {}
    rng = random.Random(seed)
    for k in sorted({rng.randrange(starts[-1]) for _ in range(oracle_samples)}):
        i = bisect_right(starts, k) - 1
        a, b = sorted((i, i + k - starts[i]), key=lambda x: to_least[x][x])
        samples.setdefault(to_least[a][a], []).append((i, i + k - starts[i], to_least[a][b]))
    # A mask's binary digits, lowest first, as 0/1 bytes select its chambers.
    failing, bits = {}, bytes.maketrans(b"01", b"\0\1")
    for m in [k for k in range(n) if to_least[k][k] == k]:
        vws, uvws = row_sizes(m) if m else (usize, uvws)
        for i, j, b in samples.get(m, ()):
            weak.check(i, j, vws[b - m], uvws[b - m], *(
                compress(cover, bin(mask)[:1:-1].encode().translate(bits))
                for mask in _hull_masks(rows, offsets[i], offsets[j])))
        # Ordered verdicts (v, w) and (w, v) share the vw and uvw sizes; a row
        # is walked pair by pair only if a scan finds either order failing.
        if (any(map(lt, map(mul, repeat(usize[m]), vws), uvws))
                or any(map(lt, map(mul, usize[m:], vws), uvws))):
            for j, (vw, uvw) in enumerate(zip(vws, uvws), m):
                for a, b in [(m, j)] if m == j else [(m, j), (j, m)]:
                    if usize[a] * vw < uvw:
                        for x, y in {(img[a], img[b]) for img in maps} - failing.keys():
                            failing[x, y] = dict(
                                v=ctx.word_of(ball[x]), w=ctx.word_of(ball[y]),
                                size_uv=usize[x], size_vw=vw, size_uvw=uvw)
    # The unreduced rows list (i, j), then (j, i), for each i < j.
    counterexamples = [failing[ab] for ab in sorted(
        failing, key=lambda ab: (min(ab), max(ab), ab[0] > ab[1]))]
    return CheckReport(type=tag.code, radius=radius, triples_checked=n * n,
                       counterexamples=counterexamples,
                       wall_clock_ms=int((time.monotonic() - started) * 1000))
