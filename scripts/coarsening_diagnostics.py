#!/usr/bin/env python3
"""Tally the coarse-vs-fine hull comparison on random triples.

For triples (u1, v, w1) of the finest planar complex, sampled with the
fixed seed 0, this logs how often twice the coarse triple-hull size
dominates the fine triple-hull size.  Purely diagnostic: the comparison holds for the
reduced configurations the coarsening argument uses, not universally,
so the output is a tally rather than an assertion.
"""

import argparse
import random
import sys

from coxhull.convexity import g2_diagnostic
from coxhull.coxeter import TypeTag
from coxhull.tessellation import build_group


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=int, default=4)
    parser.add_argument("--samples", type=int, default=500)
    args = parser.parse_args()
    for name in ("radius", "samples"):
        if getattr(args, name) < 0:
            parser.error(f"--{name} must be non-negative, got {getattr(args, name)}")

    ctx = build_group(TypeTag.G2Tilde)
    ball = ctx.ball(args.radius)
    rng = random.Random(0)
    holds = fails = 0
    worst = None
    for _ in range(args.samples):
        triple = [ball[rng.randrange(len(ball))] for _ in range(3)]
        d = g2_diagnostic(*triple)
        if d.holds:
            holds += 1
        else:
            fails += 1
            gap = d.fine_size - d.coarse_doubled
            if worst is None or gap > worst[0]:
                worst = (gap, [ctx.word_of(c) for c in triple],
                         d.coarse_doubled, d.fine_size)
    print(f"radius {args.radius}, {args.samples} samples: "
          f"{holds} hold, {fails} fail")
    if worst:
        gap, words, coarse2, fine = worst
        print(f"largest violation: words {words}: 2*coarse={coarse2} "
              f"< fine={fine} (gap {gap})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
