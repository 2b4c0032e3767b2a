#!/usr/bin/env python3
"""Certify the G̃2 coarsening lemma on B(R), and count the pair side.

Lemma: with x̄ = ctx.coarsen(x), the Ã2 chamber holding x, the coarse
image of Conv_f(u, v, w) lies in Conv_c(ū, v̄, w̄), so |Conv_f| <= 2·|Conv_c|.
Proof: each coarse wall family is a fine one, so x̄ has x's floors on them;
hulls are per-family floor windows; x̄ is cut into two fine chambers.  One
pass over the cover halfspace_hull(B(R)), which holds every hull of points
of B(R), checks the floors; a failure exits 1 with an `error:` line.  The
pair side |Conv_f(u,v)|·|Conv_f(v,w)| >= 2·|Conv_c(ū,v̄)|·|Conv_c(v̄,w̄)| fails
already at u = v = w = e (1·1 < 2·1·1); its failures among the u-triples
(e, v, w) of B(R) are counted by (d(u,v), d(v,w)), with the least words.
"""

import argparse
import sys
from functools import cache
from itertools import product

from coxhull.convexity import halfspace_hull
from coxhull.coxeter import TypeTag
from coxhull.tessellation import build_group


def certify(ctx, radius):
    """Return the size of B(radius)'s cover; raise RuntimeError if some x̄ lacks x's floors."""
    cover = halfspace_hull(ctx.ball(radius))
    for x in cover:
        for form, floor in zip(ctx.companion.families, ctx.coarsen(x).floors):
            if floor != x.floors[ctx.families.index(form)]:
                raise RuntimeError(f"coarse floor of {ctx.word_of(x)!r} differs on family {form}")
    return cover.size


def pair_side(ctx, radius):
    """{(d(u,v), d(v,w)): [(word v, word w, lhs, rhs)]} of the u-triples
    (e, v, w) of B(radius) that fail the pair side."""
    ball, e = ctx.ball(radius), ctx.base_chamber
    bar, words = {x: ctx.coarsen(x) for x in ball}, {x: ctx.word_of(x) for x in ball}
    size = cache(lambda *pair: halfspace_hull(pair).size)
    failures = {}
    for v, w in product(ball, ball):
        lhs = size(e, v) * size(*sorted((v, w), key=words.get))
        rhs = 2 * size(bar[e], bar[v]) * size(bar[v], bar[w])
        if lhs < rhs:
            failures.setdefault((ctx.wall_distance(e, v), ctx.wall_distance(v, w)), []).append(
                (words[v], words[w], lhs, rhs))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=int, default=8)
    radius = parser.parse_args().radius
    if radius < 0:
        parser.error(f"--radius must be non-negative, got {radius}")
    ctx = build_group(TypeTag.G2Tilde)
    try:
        print(f"radius {radius}: the lemma holds on all {certify(ctx, radius)} cover chambers")
    except RuntimeError as exc:
        sys.exit(f"error: {exc}")
    failures = pair_side(ctx, radius)
    failed, total = sum(map(len, failures.values())), len(ctx.ball(radius)) ** 2
    print(f"pair side: {total - failed} held, {failed} failed, of {total} u-triples")
    for (d_uv, d_vw), found in sorted(failures.items()):
        print(f"  d(u,v)={d_uv} d(v,w)={d_vw}: {len(found)} fail, least "
              "v={!r} w={!r}: {} < {}".format(*min(found)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
