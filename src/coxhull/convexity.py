"""Cayley-graph metric structure: distances, intervals, convex hulls.

Two hull algorithms are kept deliberately independent:

* ``halfspace_hull`` is the production definition.  A chamber belongs to
  the hull of a point set iff, for every wall with all the points strictly
  on one side, the chamber lies on that same side.  Per wall family this
  is an integer window test on floor vectors, and the hull is collected by
  flood fill from one seed.  A sweep reads the same windows from bit masks
  over one precomputed cover (``_HullTable``) instead of flood filling:
  per family, lists of masks indexed by floor offset, and per v one row
  list of the masks of Conv(v, w) and Conv(u, v, w) over w's offsets, so
  each pair's two sizes take one lookup per family and one AND.

* ``closure_hull`` is the oracle.  It iterates geodesic intervals (the
  sets {c : d(a,c) + d(c,b) = d(a,b)}) to a least fixpoint, never looking
  at wall sides directly.

Their equality on pairs and on random triples is part of the acceptance
suite; a disagreement aborts with a structured report since it would mean
an implementation bug, not new mathematics.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import and_, getitem, or_, sub

from .coxeter import TypeTag
from .group import MixedContext
from .tessellation import Chamber, Gallery, GroupContext, build_group


def _shared_ctx(*chambers: Chamber) -> GroupContext:
    ctx = chambers[0].ctx
    for c in chambers[1:]:
        if c.ctx is not ctx:
            raise MixedContext("chambers belong to different group contexts")
    return ctx


class ChamberSet:
    """A finite set of chambers with a deterministic iteration order.

    Chambers are interned by their context, so the members are held in a
    plain frozenset and size, membership and comparison use identity.
    Iteration and `chambers` follow `Chamber.sort_key`, sorted on each
    read rather than on construction: a sweep reads only the size."""

    __slots__ = ("_members",)

    def __init__(self, chambers):
        self._members = frozenset(chambers)

    @property
    def chambers(self) -> tuple:
        return tuple(sorted(self._members, key=lambda c: c.sort_key))

    @property
    def size(self) -> int:
        return len(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.chambers)

    def __contains__(self, chamber) -> bool:
        return chamber in self._members

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChamberSet):
            return NotImplemented
        return self._members == other._members

    def __le__(self, other: "ChamberSet") -> bool:
        return self._members <= other._members

    def __hash__(self) -> int:
        return hash(self._members)

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


def distance(u: Chamber, v: Chamber) -> int:
    return _shared_ctx(u, v).wall_distance(u, v)


def minimal_gallery(u: Chamber, v: Chamber) -> Gallery:
    return _shared_ctx(u, v).geodesic(u, v)


def interval(u: Chamber, v: Chamber) -> ChamberSet:
    """All chambers on some minimal gallery from u to v.

    A chamber is on one iff it is reached from u by steps that each lower
    the distance to v by exactly 1, so the search outward from u needs
    only distances to v."""
    ctx = _shared_ctx(u, v)
    fv = v.floors
    seen = {u}
    frontier = [u]
    for dv in range(ctx.wall_distance(u, v) - 1, -1, -1):
        nxt = []
        for c in frontier:
            for _, nb in c.neighbors():
                if nb not in seen and sum(map(abs, map(sub, nb.floors, fv))) == dv:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
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
        for c in interval(a, b)._members:
            if c not in members:
                pending.extend((c, m) for m in members)
                members.add(c)
    return ChamberSet(members)


class HullDisagreement(RuntimeError):
    """Dual-route hull algorithms returned different sets, or a sweep used
    a size (`size_used`) other than the closure hull's."""

    def __init__(self, ctx, points, via_halfspace, via_closure, size_used=None):
        words = [ctx.word_of(p) for p in points]
        only_h = [ctx.word_of(c) for c in via_halfspace if c not in via_closure]
        only_c = [ctx.word_of(c) for c in via_closure if c not in via_halfspace]
        used = "" if size_used is None else (
            f", sweep used size {size_used} for closure size {via_closure.size}")
        super().__init__(
            f"hull algorithms disagree on {ctx.tag.code} points {words}: "
            f"halfspace-only={only_h}, closure-only={only_c}{used}"
        )
        self.points = words
        self.halfspace_only = only_h
        self.closure_only = only_c


def checked_hull(points) -> ChamberSet:
    """halfspace_hull cross-checked against closure_hull; aborts on mismatch."""
    points = list(points)
    ctx = _shared_ctx(*points)
    h = halfspace_hull(points)
    c = closure_hull(points)
    if h != c:
        raise HullDisagreement(ctx, list(points), h, c)
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


def _pair_sizes(table: _HullTable, ball) -> list:
    """Hull sizes for the unordered ball-index pairs i <= j, in order, as
    rows (i, j, size_ij, size_uij) with u = ball[0], the identity.

    For each v = ball[i] the loop builds per family the masks of
    Conv(v, w) and of Conv(u, v, w) as lists indexed by w's floor offset,
    so a pair's sizes are the bit counts of one AND over the families."""
    offsets = [table.offsets(c) for c in ball]
    u = offsets[0]
    rows = []
    for i, v in enumerate(offsets):
        pair_row, triple_row = [], []
        for ge, le, a, b in zip(table.ge, table.le, v, u):
            pair_row.append([ge[min(a, t)] & le[max(a, t)] for t in range(len(ge))])
            triple_row.append([ge[min(a, b, t)] & le[max(a, b, t)]
                               for t in range(len(ge))])
        for j, w in enumerate(offsets[i:], i):
            rows.append((i, j, reduce(and_, map(getitem, pair_row, w)).bit_count(),
                         reduce(and_, map(getitem, triple_row, w)).bit_count()))
    return rows


def sweep_triples(tag: TypeTag, radius: int, jobs: int = 1,
                  seed: int = 0, oracle_samples: int = 32) -> CheckReport:
    """Check the strong hull inequality for u = identity and all ordered
    pairs (v, w) in the ball of the given radius, in this process.

    One mask table serves the pair loop and the oracle.  A seeded sample
    of the checked triples is recomputed through the interval-closure
    oracle and compared with the table's hull and with the size the sweep
    used; any disagreement aborts the sweep with a structured report.

    `jobs` must be 1; any other value raises ValueError.  The slot stays
    only because `bench/worker.py` passes 1 there by position, before the
    seed; it goes once the benchmark stops passing it.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: sweeps run in one process")
    started = time.monotonic()
    ctx = build_group(tag)
    ball = ctx.ball(radius)
    n = len(ball)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    table = _HullTable(ball)
    rows = _pair_sizes(table, ball)

    if [row[:2] for row in rows] != pairs:
        raise RuntimeError("sweep lost, duplicated or reordered pair rows")
    # ball[0] is u, so the rows (0, j) come first and hold |Conv(u, ball[j])|.
    usize = [vw for _, _, vw, _ in rows[:n]]
    if oracle_samples and pairs:
        rng = random.Random(seed)
        for k in (rng.randrange(len(pairs)) for _ in range(oracle_samples)):
            i, j, _, uvw = rows[k]
            points = [ctx.base_chamber, ball[i], ball[j]]
            via_table = table.hull(points)
            via_closure = closure_hull(points)
            if via_table != via_closure or uvw != via_closure.size:
                raise HullDisagreement(ctx, points, via_table, via_closure, uvw)
    counterexamples = []
    # The largest ratio uvw / product so far, as the int pair (uvw, product).
    top_uvw, top_product = 0, 1
    for i, j, vw, uvw in rows:
        # Ordered verdicts (v, w) and (w, v) share the vw and uvw sizes.
        for a, b in [(i, j)] if i == j else [(i, j), (j, i)]:
            product = usize[a] * vw
            if uvw * top_product > top_uvw * product:
                top_uvw, top_product = uvw, product
            if product < uvw:
                counterexamples.append({
                    "v": ctx.word_of(ball[a]),
                    "w": ctx.word_of(ball[b]),
                    "size_uv": usize[a],
                    "size_vw": vw,
                    "size_uvw": uvw,
                })
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return CheckReport(
        type=tag.code,
        radius=radius,
        triples_checked=n * n,
        counterexamples=counterexamples,
        max_ratio=Fraction(top_uvw, top_product),
        wall_clock_ms=elapsed_ms,
    )
