"""Cayley-graph metric structure: distances, intervals, convex hulls.

Two hull algorithms are kept deliberately independent:

* ``halfspace_hull`` is the production definition.  A chamber belongs to
  the hull of a point set iff, for every wall with all the points strictly
  on one side, the chamber lies on that same side.  Per wall family this
  is an integer window test on floor vectors, and the hull is collected by
  flood fill from one seed.

* ``closure_hull`` is the oracle.  It iterates geodesic intervals (the
  sets {c : d(a,c) + d(c,b) = d(a,b)}) to a least fixpoint, never looking
  at wall sides directly.

Their equality on pairs and on random triples is part of the acceptance
suite; a disagreement aborts with a structured report since it would mean
an implementation bug, not new mathematics.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.size_uvw, self.product)


def distance(u: Chamber, v: Chamber) -> int:
    return _shared_ctx(u, v).wall_distance(u, v)


def minimal_gallery(u: Chamber, v: Chamber) -> Gallery:
    return _shared_ctx(u, v).geodesic(u, v)


def interval(u: Chamber, v: Chamber) -> ChamberSet:
    """All chambers on some minimal gallery from u to v, found by searching
    the metric condition d(u,c) + d(c,v) = d(u,v) outward from u."""
    ctx = _shared_ctx(u, v)
    total = ctx.wall_distance(u, v)
    fu, fv = u.floors, v.floors
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for c in frontier:
            for _, nb in c.neighbors():
                if nb in seen:
                    continue
                fn = nb.floors
                du = sum(abs(a - b) for a, b in zip(fu, fn))
                dv = sum(abs(a - b) for a, b in zip(fn, fv))
                if du + dv == total:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return ChamberSet(seen)


def halfspace_hull(points) -> ChamberSet:
    """Chambers on the common side of every wall that does not separate
    the given points; the defining window is per-family integer bounds."""
    points = list(points)
    if not points:
        raise ValueError("hull of an empty point list")
    ctx = _shared_ctx(*points)
    nfam = len(ctx.families)
    lo = [min(p.floors[f] for p in points) for f in range(nfam)]
    hi = [max(p.floors[f] for p in points) for f in range(nfam)]
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


def checked_hull(points) -> ChamberSet:
    """halfspace_hull cross-checked against closure_hull; aborts on mismatch."""
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


def _pair_sizes(tag_code: str, radius: int, pairs):
    """Hull sizes for unordered ball-index pairs; used directly and by
    worker processes.  Returns rows (i, j, size_ij, size_uij) with u fixed
    at the identity."""
    ctx = build_group(TypeTag.from_code(tag_code))
    ball = ctx.ball(radius)
    u = ctx.base_chamber
    return [(i, j, halfspace_hull([ball[i], ball[j]]).size,
             halfspace_hull([u, ball[i], ball[j]]).size)
            for i, j in pairs]


def sweep_triples(tag: TypeTag, radius: int, jobs: int = 1,
                  seed: int = 0, oracle_samples: int = 32) -> CheckReport:
    """Check the strong hull inequality for u = identity and all ordered
    pairs (v, w) in the ball of the given radius.

    The work is a map over unordered pairs with a canonical-order
    reduction, so the report is independent of the level of parallelism.
    A seeded sample of the checked triples is recomputed through the
    interval-closure oracle; any disagreement with the halfspace route
    aborts the sweep with a structured report.
    """
    started = time.monotonic()
    ctx = build_group(tag)
    ball = ctx.ball(radius)
    n = len(ball)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    if jobs > 1 and len(pairs) > jobs:
        chunk = (len(pairs) + 4 * jobs - 1) // (4 * jobs)
        batches = [pairs[k:k + chunk] for k in range(0, len(pairs), chunk)]
        args = [(tag.code, radius, batch) for batch in batches]
        mp = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
        with mp.Pool(jobs) as pool:
            chunks = pool.starmap(_pair_sizes, args)
        rows = [row for part in chunks for row in part]
    else:
        rows = _pair_sizes(tag.code, radius, pairs)

    if [row[:2] for row in rows] != pairs:
        raise RuntimeError("sweep lost, duplicated or reordered pair rows")
    # ball[0] is u, so the rows (0, j) come first and hold |Conv(u, ball[j])|.
    usize = [vw for _, _, vw, _ in rows[:n]]
    if oracle_samples and pairs:
        rng = random.Random(seed)
        for i, j in (pairs[rng.randrange(len(pairs))] for _ in range(oracle_samples)):
            checked_hull([ctx.base_chamber, ball[i], ball[j]])
    counterexamples = []
    max_ratio = Fraction(0)
    for i, j, vw, uvw in rows:
        # Ordered verdicts (v, w) and (w, v) share the vw and uvw sizes.
        for a, b in [(i, j)] if i == j else [(i, j), (j, i)]:
            verdict = HullVerdict(usize[a], vw, uvw)
            if verdict.ratio > max_ratio:
                max_ratio = verdict.ratio
            if not verdict.holds:
                counterexamples.append({
                    "v": ctx.word_of(ball[a]),
                    "w": ctx.word_of(ball[b]),
                    "size_uv": verdict.size_uv,
                    "size_vw": vw,
                    "size_uvw": uvw,
                })
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return CheckReport(
        type=tag.code,
        radius=radius,
        triples_checked=n * n,
        counterexamples=counterexamples,
        max_ratio=max_ratio,
        wall_clock_ms=elapsed_ms,
    )
