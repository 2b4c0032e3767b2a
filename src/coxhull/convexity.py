"""Cayley-graph metric structure: distances, intervals, convex hulls.

Three hull routes are kept:

* ``halfspace_hull`` is the production definition.  A chamber belongs to
  the hull of a point set iff, for every wall with all the points strictly
  on one side, the chamber lies on that same side.  Per wall family this
  is an integer window test on floor vectors, and the hull is collected by
  flood fill from one seed.  A sweep reads the same windows from the bit
  masks of ``_offset_rows`` over one cover's floor vectors, in a core,
  ``_sweep``, that sees integer vectors, an edge table and generator
  permutations, never a chamber; ``sweep_triples`` adapts it to the plane.

* ``closure_hull`` is an oracle.  It iterates geodesic intervals (the
  sets {c : d(a,c) + d(c,b) = d(a,b)}) to a least fixpoint.  An interval
  grows from one end across the panels that face the other, found by
  reflecting the other end's barycenter in base walls, so this route
  reads no floor and does not share the first route's family table.

* The weak order (``roots.RootSystem``) is the oracle that shares nothing
  with the geometry: it finds a hull as a lower set of inversion sets,
  from the Cartan matrix alone.  It sees words, not chambers, folded
  without a floor; it certifies a sweep's cover as the weak-order hull of
  the ball, then checks hull masks over it, cover position by position.

The first two return a `ChamberSet`, a frozenset in barycenter order,
and agree on pairs and on random triples in the acceptance suite.  A
sweep checks its sizes, and the hull masks of its sampled pairs, against
the weak order; a disagreement aborts with a structured report since it
would mean an implementation bug, not new mathematics.
"""

from __future__ import annotations

import json
import random
import time
from bisect import bisect_right
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import and_, attrgetter, itemgetter, lt, mul, or_, sub

from .coxeter import TypeTag
from .group import apply_scaled, preimage_scaled
from .roots import RootSystem
from .tessellation import Chamber, build_group


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
    ctx = u.ctx
    ctx._check(v)
    m = ctx.scale
    seen = {u}
    stack = [(u, preimage_scaled(u.element, *v.order_key, m))]
    while stack:
        c, (p1, p2) = stack.pop()
        for (n1, n2, k), g, nb in zip(ctx.base_walls, ctx.gens, c.neighbors()):
            if n1 * p1 + n2 * p2 < k * m and nb not in seen:
                seen.add(nb)
                stack.append((nb, apply_scaled(g, p1, p2, m)))
    return ChamberSet(seen)


def halfspace_hull(points) -> ChamberSet:
    """Chambers on the common side of every wall that does not separate
    the given points: those whose floors lie in the points' per-family
    [lo, hi] window.  That set is convex, hence gallery-connected, so the
    flood fill from one point cuts no chamber of the window off."""
    points = list(points)
    if not points:
        raise ValueError("hull of an empty point list")
    ctx = points[0].ctx
    ctx._check(*points)
    nfam = len(ctx.families)
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
    points[0].ctx._check(*points)
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
    """A sweep used a hull size, table hull or cover other than the weak
    order's.  It takes words as lists of 0-based letters, and spells the
    points and what only one side holds as `GroupContext.word_of` does."""

    def __init__(self, code, ball_size, words, size_used, size_weak, table_only, weak_only):
        words, table_only, weak_only = (["".join(str(s + 1) for s in word) for word in group]
                                        for group in (words, table_only, weak_only))
        super().__init__(
            f"weak-order hull disagrees on {code} points {words} of the cover of a ball "
            f"of {ball_size} chambers: "
            f"sweep used size {size_used}, weak order gives {size_weak}, "
            f"table-only={table_only}, weak-only={weak_only}")
        self.points, self.size_used, self.size_weak = words, size_used, size_weak
        self.table_only, self.weak_only = table_only, weak_only


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

class CheckReport(namedtuple("CheckReport",
                             "type radius triples_checked counterexamples wall_clock_ms")):
    """One sweep's result: the counterexamples among `triples_checked`
    ordered triples of the ball of `radius`, and the sweep's wall time.
    `ok` and `max_ratio` are read off the counterexamples."""

    __slots__ = ()

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
        return {**self._asdict(), "counterexamples": [dict(c) for c in self.counterexamples],
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


def _orbit_maps(edges, perms) -> list:
    """Per generator permutation p, the ball index of each ball element's
    image under s_i -> s_p(i), by one walk over the edge table, whose
    edges[k][s] is the ball index of ball[k] s_s, or None outside the ball:
    the image of c s_i is that of c, times s_p(i).  `_check_map` checks each."""
    maps = []
    for p in perms:
        img = [0] + [None] * (len(edges) - 1)
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
    """The sweep's weak-order route from the Coxeter matrix and a cover's
    reduced words, each walked once for its element and N_k.  It certifies
    that they are distinct and form the weak-order hull of the ball, at
    cover positions `ball`, e first; `sizes` gets each ball one's |[e, x]|."""

    def __init__(self, code: str, matrix, words, ball) -> None:
        self.code, self.words, self.ball = code, words, ball
        roots = RootSystem(matrix)
        ids, self.masks = zip(*map(roots.walk, words))
        lower = roots.lower_set(reduce(or_, (self.masks[p] for p in ball)))
        if len(set(ids)) != len(ids) or set(ids) != lower.keys():
            raise WeakOrderDisagreement(
                code, len(ball), [], len(ids), len(lower),
                [w for k, (x, w) in enumerate(zip(ids, words))
                 if ids.index(x) != k or x not in lower],
                list(map(roots.reduced, sorted(lower.keys() - set(ids)))))
        self.sizes = roots.interval_sizes([ids[p] for p in ball],
                                          [self.masks[p].bit_count() for p in ball])
        self.held = defaultdict(int)  # per root's bit, the cover positions k with it in N_k
        for k, nk in enumerate(self.masks):
            while nk:
                self.held[nk & -nk] |= 1 << k
                nk &= nk - 1

    def check_row(self, vws, uvws) -> None:
        """Raise unless both sizes of row 0 are |Conv(u, w)| = |[e, w]|."""
        for j, (vw, uvw, size) in enumerate(zip(vws, uvws, self.sizes)):
            if vw != size or uvw != size:
                raise WeakOrderDisagreement(self.code, len(self.ball),
                                            [self.words[self.ball[k]] for k in (0, j)],
                                            uvw if vw == size else vw, size, [], [])

    def check(self, i: int, j: int, size_vw: int, size_uvw: int, hull_vw, hull_uvw) -> None:
        """Raise unless, for v = ball[i] and w = ball[j], the sizes used are
        |Conv(v, w)| and |Conv(u, v, w)|, and the masks over cover positions
        are {k : N_k <= N(v) | N(w)} and its part with N(v) & N(w) <= N_k."""
        nv, nw = self.masks[self.ball[i]], self.masks[self.ball[j]]
        uvw = (1 << len(self.masks)) - 1 & ~reduce(
            or_, [ks for bit, ks in self.held.items() if not bit & (nv | nw)], 0)
        vw = reduce(and_, [ks for bit, ks in self.held.items() if bit & nv & nw], uvw)
        for points, used, weak, hull in (([i, j], size_vw, vw, hull_vw),
                                         ([0, i, j], size_uvw, uvw, hull_uvw)):
            if used != weak.bit_count() or hull != weak:
                raise WeakOrderDisagreement(
                    self.code, len(self.ball), [self.words[self.ball[k]] for k in points], used,
                    weak.bit_count(), *([w for k, w in enumerate(self.words) if mask >> k & 1]
                                        for mask in (hull & ~weak, weak & ~hull)))


def _sweep(vectors, ball, edges, perms, weak, seed: int, samples: int) -> list:
    """The sweep over a convex cover's integer vectors, u = ball[0] and v, w
    over the ball at cover positions `ball`: the failing (x, y, |Conv(u, v)|,
    |Conv(v, w)|, |Conv(u, v, w)|), v = ball[x] and w = ball[y], in the
    unreduced rows' order.  A permutation in `perms` fixes u and keeps hulls,
    so (a, b) and (sa, sb) share their verdict, and the sizes of (a, b) and
    (b, a) agree: with m = sa least in a's orbit, and no more than b's
    orbit's least, (m, sb) covers them.  So only rows of v = ball[m], m least
    in its orbit, are swept, one at a time, and only a failing one pair by
    pair.  `weak`, a `_WeakOrder` over the cover, checks row 0's sizes, and
    both sizes and hull masks of `samples` pairs i <= j drawn with `seed`."""
    n = len(ball)
    least, rows = _offset_rows(vectors, vectors[ball[0]])
    offsets = [tuple(map(sub, vectors[p], least)) for p in ball]
    cols = list(zip(*offsets))

    def row_sizes(i):
        vws, uvws = _row_sizes(rows, cols, i)
        if len(vws) != n - i or len(uvws) != n - i:
            raise RuntimeError(f"sweep row {i} has {len(vws)} pair and "
                               f"{len(uvws)} triple sizes, expected {n - i}")
        return vws, uvws

    # ball[0] is u, so row 0 holds |Conv(u, ball[j])|.
    usize, uvws = row_sizes(0)
    if weak is not None:
        weak.check_row(usize, uvws)
    maps = _orbit_maps(edges, perms)
    # Per ball index, the map that takes it to the least index of its orbit.
    to_least = [min(maps, key=itemgetter(k)) for k in range(n)]
    # The sampled pairs i <= j, numbered row by row from (i, i) at starts[i],
    # grouped by the row m their sizes are read from, with the column sb.
    starts, sampled = list(accumulate(range(n, 0, -1), initial=0)), {}
    rng = random.Random(seed)
    for k in sorted({rng.randrange(starts[-1]) for _ in range(samples)}):
        i = bisect_right(starts, k) - 1
        a, b = sorted((i, i + k - starts[i]), key=lambda x: to_least[x][x])
        sampled.setdefault(to_least[a][a], []).append((i, i + k - starts[i], to_least[a][b]))
    failing = {}
    for m in [k for k in range(n) if to_least[k][k] == k]:
        vws, uvws = row_sizes(m) if m else (usize, uvws)
        for i, j, b in sampled.get(m, ()):
            weak.check(i, j, vws[b - m], uvws[b - m], *_hull_masks(rows, offsets[i], offsets[j]))
        # Ordered verdicts (v, w) and (w, v) share the vw and uvw sizes; a row
        # is walked pair by pair only if a scan finds either order failing.
        if (any(map(lt, map(mul, repeat(usize[m]), vws), uvws))
                or any(map(lt, map(mul, usize[m:], vws), uvws))):
            for j, (vw, uvw) in enumerate(zip(vws, uvws), m):
                for a, b in [(m, j)] if m == j else [(m, j), (j, m)]:
                    if usize[a] * vw < uvw:
                        for x, y in {(img[a], img[b]) for img in maps} - failing.keys():
                            failing[x, y] = usize[x], vw, uvw
    # The unreduced rows list (i, j), then (j, i), for each i < j.
    return [(*ab, *failing[ab]) for ab in sorted(
        failing, key=lambda ab: (min(ab), max(ab), ab[0] > ab[1]))]


def sweep_triples(tag: TypeTag, radius: int, jobs: int = 1,
                  seed: int = 0, oracle_samples: int = 32) -> CheckReport:
    """Check the strong hull inequality for u = identity and all ordered
    pairs (v, w) in the ball of the given radius, by `_sweep` over the floor
    vectors of the ball's halfspace hull: the one place a sweep reads
    chambers.  With `oracle_samples` > 0 the weak order checks it on the
    cover's folded words; a negative count raises ValueError, and so does
    `jobs` other than 1, a slot kept as `bench/worker.py` passes it."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: sweeps run in one process")
    if oracle_samples < 0:
        raise ValueError(f"oracle_samples must be non-negative, got {oracle_samples}")
    started = time.monotonic()
    ctx = build_group(tag)
    ball = ctx.ball(radius)
    cover = halfspace_hull(ball).chambers
    at, index = {c: k for k, c in enumerate(cover)}, {c: k for k, c in enumerate(ball)}
    weak = _WeakOrder(tag.code, ctx.matrix, [ctx.letters_of(c) for c in cover],
                      [at[c] for c in ball]) if oracle_samples > 0 else None
    found = _sweep([c.floors for c in cover], [at[c] for c in ball],
                   [[index.get(nb) for nb in c.neighbors()] for c in ball],
                   ctx.matrix.automorphisms(), weak, seed, oracle_samples)
    return CheckReport(type=tag.code, radius=radius, triples_checked=len(ball) ** 2,
                       counterexamples=[dict(v=ctx.word_of(ball[x]), w=ctx.word_of(ball[y]),
                                             size_uv=uv, size_vw=vw, size_uvw=uvw)
                                        for x, y, uv, vw, uvw in found],
                       wall_clock_ms=int((time.monotonic() - started) * 1000))
