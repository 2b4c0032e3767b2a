import random
import tracemalloc
from fractions import Fraction

import pytest

from coxhull import convexity
from coxhull.convexity import (ChamberSet, HullDisagreement, HullVerdict,
                               WeakOrderDisagreement, _HullTable, checked_hull,
                               closure_hull, g2_diagnostic, halfspace_hull,
                               interval, strong_hull_check, sweep_triples)
from coxhull.coxeter import TypeTag, matrix_for
from coxhull.formulas import C2CaseParams, c2_case2_chambers, i2_cell
from coxhull.group import MixedContext
from coxhull.roots import RootSystem
from coxhull.tessellation import GroupContext, build_group


def test_distance_examples(a2, i2):
    base = a2.base_chamber
    assert a2.wall_distance(base, base) == 0
    assert a2.wall_distance(base, base.neighbors()[0][1]) == 1
    for a in range(7):
        assert i2.wall_distance(i2_cell(i2, -a), i2_cell(i2, 0)) == a


def test_interval_examples(a2, i2):
    base = a2.base_chamber
    assert interval(base, base).size == 1
    assert interval(base, base.neighbors()[1][1]).size == 2
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
        assert iv.size >= planar_ctx.wall_distance(u, v) + 1


def test_interval_equals_brute_force(planar_ctx):
    # Every chamber on a geodesic between points of ball(5) is within
    # distance 10 of the base, so ball(10) holds the whole interval.
    around = planar_ctx.ball(10)
    ball = planar_ctx.ball(5)
    distance = planar_ctx.wall_distance
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


@pytest.mark.parametrize("route", [halfspace_hull, closure_hull, checked_hull])
def test_hull_of_no_points_raises_value_error(route):
    with pytest.raises(ValueError, match="empty point list"):
        route([])


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
        gal = ctx.geodesic(u, v)
        assert len(gal) == ctx.wall_distance(u, v)
        assert gal.chambers[0] == u and gal.chambers[-1] == v
        again = ctx.geodesic(u, v)
        assert gal.chambers == again.chambers
        crossed = gal.crossed_walls()
        assert len(set(crossed)) == len(crossed)
        assert set(crossed) == ctx.separating_walls(u, v)


def test_gallery_trivial_cases(a2):
    base = a2.base_chamber
    assert a2.geodesic(base, base).chambers == (base,)
    nb = base.neighbors()[2][1]
    assert a2.geodesic(base, nb).chambers == (base, nb)


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
        a2.wall_distance(a2.base_chamber, c2.base_chamber)
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
    assert [c.barycenter for c in s1] == [c.barycenter for c in s2]
    # The set algebra is the frozenset's own: a ChamberSet equals, and
    # hashes as, the plain frozenset of its chambers.
    plain = frozenset(ball)
    assert s1 == plain and hash(s1) == hash(plain)
    assert ChamberSet(ball[:4]) <= s1 and not s1 <= ChamberSet(ball[:4])
    assert ball[-1] in s1 and a2.ball(4)[-1] not in s1


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


def test_sweep_refuses_negative_oracle_samples():
    with pytest.raises(ValueError, match="oracle_samples must be non-negative"):
        sweep_triples(TypeTag.A2Tilde, 2, oracle_samples=-5)


def test_sweep_rejects_lost_pair_row(monkeypatch):
    row_sizes = convexity._row_sizes
    monkeypatch.setattr(convexity, "_row_sizes",
                        lambda *args: row_sizes(*args)[:-1])
    with pytest.raises(RuntimeError, match="sizes, expected"):
        sweep_triples(TypeTag.A2Tilde, 2)


def test_sweep_memory_does_not_grow_with_pairs():
    # One row of sizes is alive at a time: an all-pairs list of the
    # 27,730 pairs i <= j of a2t's ball(12) alone would take megabytes.
    build_group(TypeTag.A2Tilde).ball(12)
    tracemalloc.start()
    try:
        report = sweep_triples(TypeTag.A2Tilde, 12, oracle_samples=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1 << 20


def test_sweep_memory_with_the_oracle_stays_small():
    # With the default oracle the weak order's memo holds only the
    # elements of the hulls it walks and of the sampled table hulls.
    build_group(TypeTag.A2Tilde).ball(12)
    tracemalloc.start()
    try:
        report = sweep_triples(TypeTag.A2Tilde, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1 << 20


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
    # Every pair and u-triple of the ball, row by row, against the
    # flood-fill hull.
    ball = ctx.ball(6)
    u = ctx.base_chamber
    table = _HullTable(ball)
    offsets = [table.offsets(c) for c in ball]
    for i, v in enumerate(ball):
        assert convexity._row_sizes(table, offsets, i) == [
            (halfspace_hull([v, w]).size, halfspace_hull([u, v, w]).size)
            for w in ball[i:]]


def test_hull_table_rejects_points_outside_cover(a2):
    table = _HullTable(a2.ball(2))
    with pytest.raises(ValueError, match="cover"):
        table.hull([a2.ball(4)[-1]])


def test_sweep_oracle_catches_wrong_table_hull(monkeypatch):
    hull = _HullTable.hull

    def drop_one(self, points):
        return ChamberSet(hull(self, points).chambers[1:])

    monkeypatch.setattr(_HullTable, "hull", drop_one)
    with pytest.raises(WeakOrderDisagreement, match="weak-only") as err:
        sweep_triples(TypeTag.C2Tilde, 3)
    assert err.value.table_only == [] and len(err.value.weak_only) == 1


def test_sweep_oracle_catches_same_size_swap_in_table_hull(monkeypatch):
    # Swap one member of each table hull for a chamber outside it: the
    # size is unchanged, so only the set comparison catches it, and it
    # names the word each side holds alone.
    hull = _HullTable.hull
    swaps = []

    def swap_one(self, points):
        members = hull(self, points).chambers
        outside = next(nb for c in members for _, nb in c.neighbors()
                       if nb not in members)
        swaps.append((members[-1], outside))
        return ChamberSet([*members[:-1], outside])

    monkeypatch.setattr(_HullTable, "hull", swap_one)
    ctx = build_group(TypeTag.G2Tilde)
    with pytest.raises(WeakOrderDisagreement, match="table-only") as err:
        sweep_triples(TypeTag.G2Tilde, 3)
    dropped, outside = swaps[-1]
    assert err.value.size_used == err.value.size_weak
    assert err.value.table_only == [ctx.word_of(outside)]
    # The weak order spells the dropped member by a reduced word of its own.
    [weak_word] = err.value.weak_only
    roots = RootSystem(matrix_for(TypeTag.G2Tilde))
    assert (roots.element([int(d) - 1 for d in weak_word])
            == roots.element(ctx.letters_of(dropped)))


def test_sweep_oracle_catches_wrong_swept_size(monkeypatch):
    row_sizes = convexity._row_sizes
    monkeypatch.setattr(convexity, "_row_sizes", lambda *args: [
        (vw, uvw + 1) for vw, uvw in row_sizes(*args)])
    with pytest.raises(WeakOrderDisagreement, match="sweep used size") as err:
        sweep_triples(TypeTag.A2Tilde, 3)
    assert err.value.size_used == err.value.size_weak + 1


def _sampled_pairs(n, seed, samples):
    """The pairs (i, j), i <= j, that a sweep over n ball chambers samples:
    pair numbers drawn as in `sweep_triples`, counted row by row."""
    rng = random.Random(seed)
    numbers = {rng.randrange(n * (n + 1) // 2) for _ in range(samples)}
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return [pairs[k] for k in sorted(numbers)]


def test_sweep_weak_order_checks_every_u_pair(monkeypatch):
    # Inflate |Conv(u, ball[j])| for a j that no sampled pair touches: only
    # the row-0 check sees it, and the inflated size only raises products.
    n = len(build_group(TypeTag.A2Tilde).ball(3))
    touched = {k for pair in _sampled_pairs(n, 0, 32) for k in pair}
    j = max(set(range(1, n)) - touched)
    row_sizes = convexity._row_sizes

    def inflated(table, offsets, i):
        row = row_sizes(table, offsets, i)
        if i == 0:
            row[j] = (row[j][0] + 1, row[j][1])
        return row

    monkeypatch.setattr(convexity, "_row_sizes", inflated)
    with pytest.raises(WeakOrderDisagreement, match="sweep used size") as err:
        sweep_triples(TypeTag.A2Tilde, 3)
    assert err.value.size_used == err.value.size_weak + 1
    assert err.value.points[0] == ""


_CODES = ["a2t", "c2t", "g2t", "i2inf"]


@pytest.mark.parametrize("code,before_ball", [
    *(pytest.param(code, False, id=code) for code in _CODES),
    *(pytest.param(code, True, id=f"{code}-before-ball") for code in _CODES)])
def test_sweep_weak_order_catches_corrupted_family_table(monkeypatch, code, before_ball):
    # Double one family's spacing, after or before the ball is built.
    # After: the ball's chambers keep their exact floors, and the chambers
    # first met past the ball, on the rim of the table's cover, take wrong
    # floors that change the table's hull sizes; the weak order aborts the
    # sweep.  Before: every chamber past the base's neighbours takes wrong
    # floors.  Words are folds that read no floor, so the sweep reaches
    # the weak order, which aborts it.
    tag = TypeTag.from_code(code)
    ctx = GroupContext(tag)
    if not before_ball:
        ctx.ball(4)
    n1, n2, r, s = ctx.floor_forms[0]
    ctx.floor_forms = [(n1, n2, r, 2 * s), *ctx.floor_forms[1:]]
    monkeypatch.setattr(convexity, "build_group", lambda _: ctx)
    with pytest.raises(WeakOrderDisagreement, match=f"on {code} points"):
        sweep_triples(tag, 4)


@pytest.mark.parametrize("code", _CODES)
def test_disagreement_report_survives_corrupted_floor_table(code):
    # With family 0's divisor doubled after the ball is built, some hulls
    # reach chambers with wrong floors; the disagreement still reports,
    # and it names every chamber by its word, which reads no floor.
    ctx = GroupContext(TypeTag.from_code(code))
    ball = ctx.ball(4)
    n1, n2, r, s = ctx.floor_forms[0]
    ctx.floor_forms = [(n1, n2, r, 2 * s), *ctx.floor_forms[1:]]
    digits = set("123"[:ctx.rank])
    rng = random.Random(0)
    raised = 0
    for _ in range(60):
        try:
            checked_hull([ctx.base_chamber, rng.choice(ball), rng.choice(ball)])
        except HullDisagreement as exc:
            assert f"disagree on {code} points" in str(exc)
            names = exc.points + exc.halfspace_only + exc.closure_only
            assert all(set(name) <= digits for name in names), names
            raised += 1
    assert raised > 0


def test_sweep_reports_counterexamples(monkeypatch):
    # Inflate |Conv(u,v,w)| of the one pair v = ball[1] (distance 1) and
    # w = ball[-1] (distance 2), the last of row 1; both orders of (v, w)
    # then fail.
    ctx = build_group(TypeTag.A2Tilde)
    ball = ctx.ball(2)
    u, v, w = ctx.base_chamber, ball[1], ball[-1]
    row_sizes = convexity._row_sizes

    def inflated(table, offsets, i):
        row = row_sizes(table, offsets, i)
        if i == 1:
            row[-1] = (row[-1][0], 100)
        return row

    monkeypatch.setattr(convexity, "_row_sizes", inflated)
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
    # A spread-out triple: u1 lower left, v above the middle, w1 far right,
    # the chambers holding the Cartesian points (-23/10, 3/7), (2/5, 31/8)
    # and (41/7, 5/9).
    u1, v, w1 = (g2.chamber_from_word(int(d) - 1 for d in word)
                 for word in ("21212312123", "2131212131212", "31212312123121231"))
    d = g2_diagnostic(u1, v, w1)
    assert d.fine_size > 1
    assert d.holds
    assert (d.coarse_doubled, d.fine_size) == (148, 128)
