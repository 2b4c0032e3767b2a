import random
from fractions import Fraction

import pytest

from coxhull import convexity
from coxhull.convexity import (ChamberSet, HullDisagreement, HullVerdict,
                               _HullTable, checked_hull,
                               closure_hull, distance, g2_diagnostic,
                               halfspace_hull, interval, minimal_gallery,
                               strong_hull_check, sweep_triples)
from coxhull.coxeter import TypeTag
from coxhull.formulas import C2CaseParams, c2_case2_chambers, i2_cell
from coxhull.group import MixedContext
from coxhull.tessellation import GroupContext, build_group


def test_distance_examples(a2, i2):
    base = a2.base_chamber
    assert distance(base, base) == 0
    assert distance(base, base.neighbor(0)) == 1
    for a in range(7):
        assert distance(i2_cell(i2, -a), i2_cell(i2, 0)) == a


def test_interval_examples(a2, i2):
    base = a2.base_chamber
    assert interval(base, base).size == 1
    assert interval(base, base.neighbor(1)).size == 2
    for a in range(4):
        for b in range(4):
            assert interval(i2_cell(i2, -a), i2_cell(i2, b)).size == a + b + 1


def test_interval_contains_endpoints_and_meets_lower_bound(planar_ctx):
    ball = planar_ctx.ball(5)
    rng = random.Random(3)
    for _ in range(40):
        u, v = rng.choice(ball), rng.choice(ball)
        iv = interval(u, v)
        assert u in iv and v in iv
        assert iv.size >= distance(u, v) + 1


def test_interval_equals_brute_force(planar_ctx):
    # Every chamber on a geodesic between points of ball(5) is within
    # distance 10 of the base, so ball(10) holds the whole interval.
    around = planar_ctx.ball(10)
    ball = planar_ctx.ball(5)
    rng = random.Random(21)
    for _ in range(40):
        u, v = rng.choice(ball), rng.choice(ball)
        d = distance(u, v)
        brute = ChamberSet(c for c in around if distance(u, c) + distance(c, v) == d)
        assert interval(u, v) == brute


def test_halfspace_single_point(ctx):
    c = ctx.ball(3)[-1]
    assert halfspace_hull([c]).chambers == (c,)


def test_pair_hull_equals_interval(planar_ctx):
    base = planar_ctx.base_chamber
    for c in planar_ctx.ball(5):
        assert halfspace_hull([base, c]) == interval(base, c)


def test_duplicate_points_collapse(planar_ctx):
    ball = planar_ctx.ball(4)
    u, v = ball[3], ball[-1]
    assert halfspace_hull([u, v, u, v]) == halfspace_hull([u, v])


def test_flood_fill_seed_independent(planar_ctx):
    ball = planar_ctx.ball(5)
    rng = random.Random(9)
    for _ in range(25):
        pts = [rng.choice(ball) for _ in range(3)]
        fills = [halfspace_hull(rot) for rot in (pts, pts[1:] + pts[:1], pts[2:] + pts[:2])]
        assert fills[0] == fills[1] == fills[2]


def test_closure_equals_halfspace_on_random_triples(planar_ctx):
    ball = planar_ctx.ball(5)
    rng = random.Random(100)
    for _ in range(60):
        pts = [rng.choice(ball) for _ in range(3)]
        assert closure_hull(pts) == halfspace_hull(pts)
        checked_hull(pts)


def test_checked_hull_takes_an_iterator(a2):
    pts = a2.ball(3)[-3:]
    assert checked_hull(iter(pts)) == halfspace_hull(pts)


def test_convexity_idempotence(planar_ctx):
    ball = planar_ctx.ball(5)
    rng = random.Random(5)
    for _ in range(15):
        pts = [rng.choice(ball) for _ in range(3)]
        hull = halfspace_hull(pts)
        sample = list(hull)[:: max(1, len(hull) // 6)]
        for a in sample:
            for b in sample:
                assert interval(a, b) <= hull


def test_monotonicity(planar_ctx):
    ball = planar_ctx.ball(5)
    rng = random.Random(6)
    for _ in range(30):
        p = [rng.choice(ball) for _ in range(2)]
        q = p + [rng.choice(ball)]
        assert halfspace_hull(p) <= halfspace_hull(q)


def test_translation_invariance(planar_ctx):
    ctx = planar_ctx
    ball = ctx.ball(5)
    moves = ctx.ball(6)
    rng = random.Random(8)
    for _ in range(30):
        pts = [rng.choice(ball) for _ in range(3)]
        g = rng.choice(moves).element
        moved = [ctx.chamber_of(g.compose(p.element)) for p in pts]
        assert halfspace_hull(moved).size == halfspace_hull(pts).size


def test_permutation_invariance(planar_ctx):
    ball = planar_ctx.ball(5)
    rng = random.Random(4)
    for _ in range(30):
        u, v, w = (rng.choice(ball) for _ in range(3))
        h = halfspace_hull([u, v, w])
        assert halfspace_hull([w, u, v]) == h
        assert halfspace_hull([v, w, u]) == h
        assert halfspace_hull([u, v]).size == halfspace_hull([v, u]).size


def test_gallery_is_minimal_and_deterministic(planar_ctx):
    ctx = planar_ctx
    ball = ctx.ball(5)
    rng = random.Random(2)
    for _ in range(40):
        u, v = rng.choice(ball), rng.choice(ball)
        gal = minimal_gallery(u, v)
        assert len(gal) == distance(u, v)
        assert gal.chambers[0] == u and gal.chambers[-1] == v
        again = minimal_gallery(u, v)
        assert gal.chambers == again.chambers
        crossed = gal.crossed_walls()
        assert len(set(crossed)) == len(crossed)
        assert set(crossed) == ctx.separating_walls(u, v)


def test_gallery_trivial_cases(a2):
    base = a2.base_chamber
    assert minimal_gallery(base, base).chambers == (base,)
    nb = base.neighbor(2)
    assert minimal_gallery(base, nb).chambers == (base, nb)


def test_strong_hull_trivial_and_line(a2, i2):
    base = a2.base_chamber
    v = strong_hull_check(base, base, base)
    assert (v.size_uv, v.size_vw, v.size_uvw) == (1, 1, 1)
    assert v.holds
    v = strong_hull_check(i2_cell(i2, -2), i2_cell(i2, 0), i2_cell(i2, 3))
    assert (v.size_uv, v.size_vw, v.size_uvw) == (3, 4, 6)
    assert v.product == 12 and v.holds


def test_strong_hull_square_grid_case(c2):
    u, v, w = c2_case2_chambers(c2, C2CaseParams(2, 2, 5, 4))
    verdict = strong_hull_check(u, v, w)
    assert verdict.size_uv == 4
    assert verdict.size_uvw == 26
    # enumerated middle hull, equal to the closed form; the paper's form gives 18
    assert verdict.size_vw == 19
    assert verdict.holds


def test_mixed_context_rejected(a2, c2):
    with pytest.raises(MixedContext):
        distance(a2.base_chamber, c2.base_chamber)
    with pytest.raises(MixedContext):
        halfspace_hull([a2.base_chamber, c2.base_chamber])


def test_same_type_contexts_rejected():
    first, second = GroupContext(TypeTag.A2Tilde), GroupContext(TypeTag.A2Tilde)
    with pytest.raises(MixedContext):
        halfspace_hull([first.base_chamber, second.chamber_from_word([0])])


def test_hull_verdict_fields():
    v = HullVerdict(3, 4, 6)
    assert v.product == 12
    assert v.holds
    assert not HullVerdict(2, 2, 5).holds


def test_chamber_set_determinism(a2):
    ball = a2.ball(3)
    s1 = ChamberSet(ball)
    s2 = ChamberSet(reversed(ball))
    assert s1 == s2
    assert [c.sort_key for c in s1] == [c.sort_key for c in s2]


def test_sweep_small_all_types():
    for code, radius in (("a2t", 3), ("c2t", 3), ("g2t", 2), ("i2inf", 4)):
        report = sweep_triples(TypeTag.from_code(code), radius)
        n = len(build_group(TypeTag.from_code(code)).ball(radius))
        assert report.triples_checked == n * n
        assert report.counterexamples == []
        assert report.max_ratio == 1  # attained by degenerate triples


def test_sweep_refuses_jobs_other_than_1():
    with pytest.raises(ValueError, match="jobs must be 1"):
        sweep_triples(TypeTag.A2Tilde, 2, 2)


def test_sweep_rejects_lost_pair_row(monkeypatch):
    pair_sizes = convexity._pair_sizes
    monkeypatch.setattr(convexity, "_pair_sizes",
                        lambda *args: pair_sizes(*args)[:-1])
    with pytest.raises(RuntimeError, match="pair rows"):
        sweep_triples(TypeTag.A2Tilde, 2)


def test_hull_table_equals_halfspace_hull(planar_ctx):
    ball = planar_ctx.ball(6)
    table = _HullTable(ball)
    for i, v in enumerate(ball):
        for w in ball[i:]:
            assert table.hull([v, w]) == halfspace_hull([v, w])
    rng = random.Random(12)
    for _ in range(1000):
        pts = [rng.choice(ball) for _ in range(3)]
        hull = halfspace_hull(pts)
        assert table.hull(pts) == hull
        assert table.hull(pts).size == hull.size


def test_pair_sizes_rows_under_any_split(ctx):
    # Every pair and u-triple of the ball, against the flood-fill hull.
    ball = ctx.ball(6)
    u = ctx.base_chamber
    rows = convexity._pair_sizes(_HullTable(ball), ball)
    assert rows == [(i, j, halfspace_hull([ball[i], ball[j]]).size,
                     halfspace_hull([u, ball[i], ball[j]]).size)
                    for i in range(len(ball)) for j in range(i, len(ball))]


def test_hull_table_rejects_points_outside_cover(a2):
    table = _HullTable(a2.ball(2))
    with pytest.raises(ValueError, match="cover"):
        table.hull([a2.ball(4)[-1]])


def test_sweep_oracle_catches_wrong_table_hull(monkeypatch):
    hull = _HullTable.hull

    def drop_one(self, points):
        return ChamberSet(hull(self, points).chambers[1:])

    monkeypatch.setattr(_HullTable, "hull", drop_one)
    with pytest.raises(HullDisagreement, match="closure-only"):
        sweep_triples(TypeTag.C2Tilde, 3)


def test_sweep_oracle_catches_wrong_swept_size(monkeypatch):
    pair_sizes = convexity._pair_sizes
    monkeypatch.setattr(convexity, "_pair_sizes", lambda *args: [
        (i, j, vw, uvw + 1) for i, j, vw, uvw in pair_sizes(*args)])
    with pytest.raises(HullDisagreement, match="sweep used size"):
        sweep_triples(TypeTag.A2Tilde, 3)


def test_sweep_reports_counterexamples(monkeypatch):
    # Inflate |Conv(u,v,w)| of the one row for v = ball[1] (distance 1)
    # and w = ball[-1] (distance 2); both orders of (v, w) then fail.
    ctx = build_group(TypeTag.A2Tilde)
    ball = ctx.ball(2)
    u, v, w = ctx.base_chamber, ball[1], ball[-1]
    pair_sizes = convexity._pair_sizes
    monkeypatch.setattr(convexity, "_pair_sizes", lambda *args: [
        (i, j, vw, 100 if (i, j) == (1, len(ball) - 1) else uvw)
        for i, j, vw, uvw in pair_sizes(*args)])
    report = sweep_triples(TypeTag.A2Tilde, 2, oracle_samples=0)
    sizes = [halfspace_hull(p).size for p in ([u, v], [u, w], [v, w])]
    assert sizes == [2, 3, 4]
    assert report.counterexamples == [
        {"v": "2", "w": "31", "size_uv": 2, "size_vw": 4, "size_uvw": 100},
        {"v": "31", "w": "2", "size_uv": 3, "size_vw": 4, "size_uvw": 100},
    ]
    assert [ctx.word_of(v), ctx.word_of(w)] == ["2", "31"]
    assert report.max_ratio == Fraction(100, 2 * 4)
    assert report.ok is False


def test_sweep_radius_zero(g2):
    report = sweep_triples(TypeTag.G2Tilde, 0)
    assert report.triples_checked == 1
    assert report.ok


def test_g2_diagnostic_examples(g2):
    base = g2.base_chamber
    d = g2_diagnostic(base, base, base)
    assert d.coarse_doubled == 2 and d.fine_size == 1 and d.holds

    rng = random.Random(77)
    ball = g2.ball(4)
    outcomes = [g2_diagnostic(*(rng.choice(ball) for _ in range(3))).holds
                for _ in range(60)]
    # Diagnostic only: record the tally, no universal claim intended.
    assert len(outcomes) == 60
    assert any(outcomes)


def test_g2_diagnostic_hand_built_instance(g2):
    # A spread-out triple: u1 lower left, v above the middle, w1 far right.
    from coxhull.ring import RingScalar as R
    u1 = g2.chamber_containing((R(-23, 0, 10), R(3, 0, 7)))
    v = g2.chamber_containing((R(2, 0, 5), R(31, 0, 8)))
    w1 = g2.chamber_containing((R(41, 0, 7), R(5, 0, 9)))
    d = g2_diagnostic(u1, v, w1)
    assert d.fine_size > 1
    assert d.holds
