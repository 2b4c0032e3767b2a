"""Acceptance suite: one test per exit criterion, each printing a PASS or
FAIL line.  Every tolerance is exact: integer equality, exact set equality,
or a zero-counterexample requirement.  Runtime budgets are asserted where
stated.

Criterion 6 compares all three square-grid case-2 closed forms with
enumeration.  The paper's simplified middle form undercounts the
enumerated hull by exactly one chamber on every admissible grid point (its
own row-by-row derivation sums to the enumerated value; the simplification
dropped a unit), so the program carries the corrected form.  Criterion 7
still pins the expansion of the paper's form, which the corrected one
exceeds by the positive |Conv(u,v)|.
"""

import random

from coxhull.convexity import (closure_hull, halfspace_hull, interval,
                               strong_hull_check, sweep_triples)
from coxhull.coxeter import TypeTag
from coxhull.formulas import (A2Coord, C2CaseParams, a2_chamber_pair,
                              a2_pair_count, c2_case2_chambers,
                              c2_case2_counts, dihedral_pair_count, i2_cell,
                              orientation_for_parity)
from coxhull.poly import check_nonneg_coeffs
from coxhull.propcheck import (a2_box_violations, verify_a2_identities,
                               verify_c2_expansion)
from coxhull.tessellation import build_group

SEED = 20260811


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {num:2d}] {status} {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_01_exhaustive_sweeps():
    budget_ms = 5 * 60 * 1000
    details = []
    ok = True
    for code, radius in (("a2t", 6), ("c2t", 6), ("g2t", 5)):
        report = sweep_triples(TypeTag.from_code(code), radius, seed=SEED)
        details.append(f"{code} r{radius}: {report.triples_checked} triples, "
                       f"{len(report.counterexamples)} ce, {report.wall_clock_ms} ms")
        ok = ok and report.ok and report.wall_clock_ms <= budget_ms
    _report(1, "exhaustive strong-hull sweeps find no counterexample",
            ok, "; ".join(details))


def test_criterion_02_metric_oracle():
    ok = True
    for code in ("a2t", "c2t", "g2t", "i2inf"):
        ctx = build_group(TypeTag.from_code(code))
        dist = {ctx.base_chamber: 0}
        frontier = [ctx.base_chamber]
        for d in range(1, 9):
            nxt = []
            for c in frontier:
                for _, nb in c.neighbors():
                    if nb not in dist:
                        dist[nb] = d
                        nxt.append(nb)
            frontier = nxt
        for c, d in dist.items():
            if ctx.wall_distance(ctx.base_chamber, c) != d:
                ok = False
    _report(2, "wall-separation distance equals BFS distance to radius 8", ok)


def test_criterion_03_pair_hull_identity():
    rng = random.Random(SEED)
    ok = True
    for code in ("a2t", "c2t", "g2t", "i2inf"):
        ctx = build_group(TypeTag.from_code(code))
        ball = ctx.ball(8)
        for v in ball:
            if interval(ctx.base_chamber, v) != halfspace_hull([ctx.base_chamber, v]):
                ok = False
        # translated pairs, same distance range
        moves = ctx.ball(4)
        for _ in range(100):
            g = rng.choice(moves).element
            v = rng.choice(ball)
            u2 = ctx.chamber_of(g)
            v2 = ctx.chamber_of(g.compose(v.element))
            if interval(u2, v2) != halfspace_hull([u2, v2]):
                ok = False
    _report(3, "interval equals halfspace hull for all pairs at distance <= 8", ok)


def test_criterion_04_dual_algorithm_triples():
    rng = random.Random(SEED)
    ok = True
    checked = 0
    for code in ("a2t", "c2t", "g2t"):
        ctx = build_group(TypeTag.from_code(code))
        ball = ctx.ball(6)
        for _ in range(1000):
            pts = [ball[rng.randrange(len(ball))] for _ in range(3)]
            checked += 1
            if closure_hull(pts) != halfspace_hull(pts):
                ok = False
    _report(4, "closure hull equals halfspace hull on seeded random triples",
            ok, f"{checked} triples")


def test_criterion_05_a2_formula_reproduction():
    ctx = build_group(TypeTag.A2Tilde)
    ok = True
    checked = 0
    for s in range(1, 15):
        for y in range(s + 1):
            x = s - y
            if x < max(0, y - 1):
                continue
            coord = A2Coord(x, y, orientation_for_parity(x, y))
            u, v = a2_chamber_pair(ctx, coord)
            checked += 1
            if halfspace_hull([u, v]).size != a2_pair_count(coord):
                ok = False
    pin = A2Coord(7, 3, orientation_for_parity(7, 3))
    u, v = a2_chamber_pair(ctx, pin)
    ok = ok and a2_pair_count(pin) == 23 == halfspace_hull([u, v]).size
    _report(5, "triangular pair-count formulas match enumeration for x+y <= 14",
            ok, f"{checked} coordinates, (7,3) -> 23")


def test_criterion_06_c2_case2_formulas():
    ctx = build_group(TypeTag.C2Tilde)
    mism = {0: 0, 1: 0, 2: 0}
    deltas = set()
    total = 0
    for a in (2, 6, 10):
        for b in (2, 3, 4, 5):
            for x in (a + 3, a + 7, a + 11):
                for y in range(b + 2, b + 6):
                    params = C2CaseParams(a, b, x, y)
                    want = c2_case2_counts(params)
                    u, v, w = c2_case2_chambers(ctx, params)
                    got = (halfspace_hull([u, v]).size,
                           halfspace_hull([v, w]).size,
                           halfspace_hull([u, v, w]).size)
                    total += 1
                    for idx in range(3):
                        if got[idx] != want[idx]:
                            mism[idx] += 1
                            deltas.add((idx, got[idx] - want[idx]))
    ok = not any(mism.values())
    detail = (f"{total} grid points; mismatches per count: uv={mism[0]}, "
              f"vw={mism[1]}, uvw={mism[2]}; distinct deltas={sorted(deltas)}")
    _report(6, "square-grid case-2 closed forms match enumeration on the grid",
            ok, detail)


def test_criterion_07_case2_expansion():
    diff = verify_c2_expansion()   # raises MismatchReport on any term deviation
    ok = (len(diff.terms) == 16
          and diff.coefficient(k=1, n=1, p=1, q=1) == 16
          and diff.coefficient() == 22
          and check_nonneg_coeffs(diff)
          and all(c > 0 for c in diff.terms.values()))
    _report(7, "case-2 difference expands to the pinned 16 positive terms", ok)


def test_criterion_08_a2_identities_and_box():
    lhs_match, rhs_match = verify_a2_identities()
    violations = a2_box_violations(25)
    ok = lhs_match and rhs_match and not violations
    _report(8, "product-inequality proof identities hold; box <= 25 clean",
            ok, f"violations={len(violations)}")


def test_criterion_09_line_model():
    ctx = build_group(TypeTag.I2Infinity)
    ok = True
    origin = i2_cell(ctx, 0)
    for d in range(101):
        size = halfspace_hull([origin, i2_cell(ctx, d)]).size
        if size != d + 1 or dihedral_pair_count(d) != d + 1:
            ok = False
    for a in range(101):
        u = i2_cell(ctx, -a)
        for b in range(101):
            verdict = strong_hull_check(u, origin, i2_cell(ctx, b))
            if (verdict.size_uv, verdict.size_vw, verdict.size_uvw) != (a + 1, b + 1, a + b + 1):
                ok = False
            if not verdict.holds:
                ok = False
    _report(9, "line model: |Conv| = d+1 and (1+a)(1+b) >= a+b+1 for a,b <= 100", ok)


def test_criterion_10_invariance_suite():
    rng = random.Random(SEED)
    per_type = 170  # x3 planar types -> >= 500 instances per property
    failures = {"translation": 0, "permutation": 0, "monotonicity": 0, "gallery": 0}
    for code in ("a2t", "c2t", "g2t"):
        ctx = build_group(TypeTag.from_code(code))
        ball = ctx.ball(5)
        moves = ctx.ball(6)
        for _ in range(per_type):
            pts = [rng.choice(ball) for _ in range(3)]
            g = rng.choice(moves).element
            moved = [ctx.chamber_of(g.compose(p.element)) for p in pts]
            if halfspace_hull(moved).size != halfspace_hull(pts).size:
                failures["translation"] += 1

            u, v, w = (rng.choice(ball) for _ in range(3))
            h = halfspace_hull([u, v, w])
            if halfspace_hull([w, u, v]) != h or halfspace_hull([v, u, w]) != h:
                failures["permutation"] += 1
            if halfspace_hull([u, v]).size != halfspace_hull([v, u]).size:
                failures["permutation"] += 1

            p = [rng.choice(ball) for _ in range(2)]
            q = p + [rng.choice(ball)]
            if not (halfspace_hull(p) <= halfspace_hull(q)):
                failures["monotonicity"] += 1

            x, y = rng.choice(ball), rng.choice(ball)
            gal = ctx.geodesic(x, y)
            walls = gal.crossed_walls()
            if len(set(walls)) != len(walls) or set(walls) != ctx.separating_walls(x, y):
                failures["gallery"] += 1
    ok = not any(failures.values())
    _report(10, "translation/permutation/monotonicity/gallery invariants hold",
            ok, f"failures={failures}")
