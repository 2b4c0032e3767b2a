import random
import re
import runpy
import sys
import time
import tracemalloc
from fractions import Fraction
from operator import sub
from pathlib import Path

import pytest

from coxhull import convexity
from coxhull.convexity import (ChamberSet, CheckReport, HullDisagreement, HullVerdict,
                               WeakOrderDisagreement, checked_hull,
                               closure_hull, halfspace_hull, interval,
                               strong_hull_check, sweep_triples)
from coxhull.coxeter import TypeTag, matrix_for, validate_matrix
from coxhull.formulas import A2Coord, C2CaseParams, c2_case2_chambers, i2_cell
from coxhull.group import MixedContext, compose
from coxhull.roots import RootSystem
from coxhull.tessellation import GroupContext, Wall, build_group


def test_distance_examples(a2, i2):
    base = a2.base_chamber
    assert a2.wall_distance(base, base) == 0
    assert a2.wall_distance(base, base.neighbors()[0]) == 1
    for a in range(7):
        assert i2.wall_distance(i2_cell(i2, -a), i2_cell(i2, 0)) == a


def test_interval_examples(a2, i2):
    base = a2.base_chamber
    assert interval(base, base).size == 1
    assert interval(base, base.neighbors()[1]).size == 2
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
        moved = [ctx.chamber_of(compose(g, p.element)) for p in pts]
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
        assert len(gal) == ctx.wall_distance(u, v) + 1
        assert gal[0] == u and gal[-1] == v
        assert gal == ctx.geodesic(u, v)
        crossed = ctx.crossed_walls(gal)
        assert len(set(crossed)) == len(crossed)
        assert set(crossed) == ctx.separating_walls(u, v)


def test_gallery_trivial_cases(a2):
    base = a2.base_chamber
    assert a2.geodesic(base, base) == (base,)
    nb = base.neighbors()[2]
    assert a2.geodesic(base, nb) == (base, nb)


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


@pytest.mark.parametrize("make, other, field, text", [
    (lambda: validate_matrix([[1, 3], [3, 1]]), lambda: validate_matrix([[1, 4], [4, 1]]),
     "rank", "CoxeterMatrix(rank=2, entries=((1, 3), (3, 1)))"),
    (lambda: Wall(1, -2), lambda: Wall(1, 2), "offset", "Wall(family=1, offset=-2)"),
    (lambda: HullVerdict(3, 4, 6), lambda: HullVerdict(3, 4, 7), "size_uvw",
     "HullVerdict(size_uv=3, size_vw=4, size_uvw=6)"),
    (lambda: A2Coord(7, 3), lambda: A2Coord(7, 4), "x", "A2Coord(x=7, y=3)"),
    (lambda: C2CaseParams(2, 2, 5, 4), lambda: C2CaseParams(2, 3, 5, 4), "a",
     "C2CaseParams(a=2, b=2, x=5, y=4)"),
], ids=["CoxeterMatrix", "Wall", "HullVerdict", "A2Coord", "C2CaseParams"])
def test_value_types_frozen_and_equal_by_value(make, other, field, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and a != other()
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other(), field))
    assert a == b


def test_check_report_dict_holds_fresh_containers():
    ce = dict(v="2", w="31", size_uv=2, size_vw=4, size_uvw=9)
    report = CheckReport("a2t", 2, 100, [ce], 5)
    data = report.to_dict()
    assert data == dict(type="a2t", radius=2, triples_checked=100, counterexamples=[ce],
                        wall_clock_ms=5, max_ratio={"num": 9, "den": 8})
    assert data["counterexamples"] is not report.counterexamples
    assert data["counterexamples"][0] is not ce
    assert repr(report) == ("CheckReport(type='a2t', radius=2, triples_checked=100, "
                            f"counterexamples=[{ce!r}], wall_clock_ms=5)")


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
                        lambda *args: [sizes[:-1] for sizes in row_sizes(*args)])
    with pytest.raises(RuntimeError, match="sizes, expected"):
        sweep_triples(TypeTag.A2Tilde, 2)


def test_sweep_rejects_lost_triple_size(monkeypatch):
    # Only the last |Conv(u, v, w)| goes: zipped with the pair sizes, the
    # row would lose its last pair without a word.
    row_sizes = convexity._row_sizes

    def lost(*args):
        vws, uvws = row_sizes(*args)
        return vws, uvws[:-1]

    monkeypatch.setattr(convexity, "_row_sizes", lost)
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
    # With the default oracle the weak order holds one word, id and N(x)
    # per cover chamber, each folded once, its memo holds only the cover's
    # elements, and its pass over the ball keeps two lengths' interval
    # bitsets at a time.
    build_group(TypeTag.A2Tilde).ball(12)
    tracemalloc.start()
    try:
        report = sweep_triples(TypeTag.A2Tilde, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1 << 20


def _cover_table(ball):
    """The sweep's rows over the halfspace hull of the ball, the columns of
    the ball's offsets, and the two hulls `_hull_masks` gives for a pair of
    ball indices, decoded back to cover chambers."""
    cover = halfspace_hull(ball).chambers
    least, rows = convexity._offset_rows([c.floors for c in cover], ball[0].floors)
    offsets = [tuple(map(sub, c.floors, least)) for c in ball]

    def hulls(i, j):
        return [ChamberSet(c for k, c in enumerate(cover) if mask >> k & 1)
                for mask in convexity._hull_masks(rows, offsets[i], offsets[j])]

    return rows, list(zip(*offsets)), hulls


def test_hull_table_equals_halfspace_hull(ctx):
    # Every pair and u-triple of the ball: both masks one lookup per
    # coordinate gives, as chamber sets, against the flood-fill hull.
    ball = ctx.ball(6)
    u = ctx.base_chamber
    _, _, hulls = _cover_table(ball)
    for i, v in enumerate(ball):
        for j, w in enumerate(ball):
            assert hulls(i, j) == [halfspace_hull([v, w]), halfspace_hull([u, v, w])]


def _pairs(row):
    """A row's two size lists as (|Conv(v, w)|, |Conv(u, v, w)|) pairs."""
    return list(zip(*row, strict=True))


def test_pair_sizes_rows_under_any_split(ctx):
    # Every pair and u-triple of the ball, row by row, against the
    # flood-fill hull.
    ball = ctx.ball(6)
    u = ctx.base_chamber
    rows, cols, _ = _cover_table(ball)
    for i, v in enumerate(ball):
        assert _pairs(convexity._row_sizes(rows, cols, i)) == [
            (halfspace_hull([v, w]).size, halfspace_hull([u, v, w]).size)
            for w in ball[i:]]


def _row(col, lo, hi):
    """The masks of the vectors whose coordinate `col` lies between
    min(lo, t) and max(hi, t), for each offset t of the column."""
    return [sum(1 << k for k, x in enumerate(col) if min(lo, t) <= x <= max(hi, t))
            for t in range(max(col) + 1)]


def test_offset_rows_equal_rows_built_per_row(ctx):
    # The rows built once per offset and shared are, for every v, the rows
    # a per-row build lists: at v's offset a, and at a with u's offset b.
    # Offsets are counted from each coordinate's least cover value.
    ball = ctx.ball(6)
    rows, cols, _ = _cover_table(ball)
    cover_cols = [[x - min(col) for x in col]
                  for col in zip(*(c.floors for c in halfspace_hull(ball).chambers))]
    for i in range(len(ball)):
        for cover_col, col, (pairs, triples) in zip(cover_cols, cols, rows, strict=True):
            a, b = col[i], col[0]
            assert pairs[a] == _row(cover_col, a, a)
            assert triples[a] == _row(cover_col, min(a, b), max(a, b))


@pytest.mark.parametrize("orders, order", [
    pytest.param([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 24, id="A3"),
    pytest.param([[1, 3, 2], [3, 1, 4], [2, 4, 1]], 48, id="B3")])
def test_hull_table_on_root_indicator_vectors(orders, order):
    # The kernel knows no chamber.  Over the 0/1 vectors of the inversion
    # sets N(x) of a whole finite group, e first, every pair's sizes are
    # the weak order's: |Conv(v, w)| through v^-1 w, and |Conv(e, v, w)|
    # through N(v) | N(w).
    roots = RootSystem(validate_matrix(orders))
    words = [roots.reduced(k) for k in sorted(roots.lower_set(-1))]
    masks = [roots.walk(word)[1] for word in words]
    assert len(words) == order and words[0] == []
    width = max(masks).bit_length()
    vectors = [[m >> b & 1 for b in range(width)] for m in masks]
    least, rows = convexity._offset_rows(vectors, vectors[0])
    cols = list(zip(*(map(sub, vector, least) for vector in vectors)))
    for i, (v, nv) in enumerate(zip(words, masks)):
        between = [roots.walk(roots.reduced(roots.element(v[::-1] + w)))[1]
                   for w in words[i:]]
        assert _pairs(convexity._row_sizes(rows, cols, i)) == [
            (len(roots.lower_set(nvw)), len(roots.lower_set(nv | nw)))
            for nvw, nw in zip(between, masks[i:])]


def _whole_group(matrix):
    """A whole finite Coxeter group as `_sweep` takes it: the reduced words
    by element id, e first, the 0/1 vectors of their inversion sets, and
    the ascent graph's edges x -> x s by the same index."""
    roots = RootSystem(matrix)
    ids = sorted(roots.lower_set(-1))
    words = [roots.reduced(k) for k in ids]
    masks = [roots.walk(word)[1] for word in words]
    vectors = [[m >> b & 1 for b in range(max(masks).bit_length())] for m in masks]
    index = {k: p for p, k in enumerate(ids)}
    edges = [[index[roots._step(k, s)] for s in range(matrix.rank)] for k in ids]
    return words, vectors, edges


@pytest.mark.parametrize("orders, order, symmetries", [
    pytest.param([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 24, 2, id="A3"),
    pytest.param([[1, 3, 2], [3, 1, 4], [2, 4, 1]], 48, 1, id="B3")])
def test_sweep_core_on_whole_finite_groups(monkeypatch, orders, order, symmetries):
    # The whole sweep loop knows no chamber: over a finite group's
    # root-indicator vectors, its ascent graph and its diagram
    # automorphisms, checked by a weak order built on reduced words, it
    # finds no counterexample; sizes inflated past row 0 are caught by
    # the sampled pairs; and a planted failing pair is listed alike with
    # the automorphisms as with the identity alone.
    started = time.monotonic()
    matrix = validate_matrix(orders)
    words, vectors, edges = _whole_group(matrix)
    ball, perms = list(range(order)), matrix.automorphisms()
    assert len(words) == order and len(perms) == symmetries

    def sweep(perms, weak=True, samples=32):
        checker = convexity._WeakOrder("x", matrix, words, ball) if weak else None
        return convexity._sweep(vectors, ball, edges, perms, checker, 0, samples)

    assert sweep(perms) == []
    row_sizes = convexity._row_sizes

    def inflated(rows, cols, i):
        vws, uvws = row_sizes(rows, cols, i)
        return ([vw + 1 for vw in vws] if i else vws), uvws

    with monkeypatch.context() as patch:
        patch.setattr(convexity, "_row_sizes", inflated)
        assert sweep(perms, weak=False, samples=0) == []
        with pytest.raises(WeakOrderDisagreement, match="on x points") as err:
            sweep(perms)
        assert err.value.size_used == err.value.size_weak + 1
    # Plant |Conv(u, v, w)| = 1000 on (s_1, s_1 s_2) and its images.
    a, b = words.index([0]), words.index([0, 1])
    planted = {tuple(sorted((img[a], img[b]))) for img in convexity._orbit_maps(edges, perms)}
    assert len(planted) == symmetries

    def planting(rows, cols, i):
        vws, uvws = row_sizes(rows, cols, i)
        for x, y in planted:
            if x == i:
                uvws[y - i] = 1000
        return vws, uvws

    monkeypatch.setattr(convexity, "_row_sizes", planting)
    found = sweep(perms, weak=False, samples=0)
    assert found == sweep([tuple(range(matrix.rank))], weak=False, samples=0)
    assert {(x, y) for x, y, *_ in found} == {p for xy in planted for p in (xy, xy[::-1])}
    assert len(found) == 2 * symmetries and {c[-1] for c in found} == {1000}
    assert time.monotonic() - started < 1


def test_weak_order_refuses_a_cover_with_a_repeated_element():
    # s1 s3 = s3 s1 in A3: a cover that spells that element twice is
    # refused, and the second spelling is named as the table's alone.
    matrix = validate_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    words, _, _ = _whole_group(matrix)
    assert [2, 0] in words and [0, 2] not in words
    with pytest.raises(WeakOrderDisagreement) as err:
        convexity._WeakOrder("a3", matrix, words + [[0, 2]], list(range(len(words))))
    assert (err.value.size_used, err.value.size_weak) == (25, 24)
    assert err.value.table_only == ["13"] and err.value.weak_only == []


def test_sweep_oracle_catches_wrong_table_hull(monkeypatch):
    # Drop the lowest bit of the table's Conv(u, v, w), its member first in
    # barycenter order.
    hull_masks = convexity._hull_masks

    def drop_one(*args):
        pair, triple = hull_masks(*args)
        return pair, triple & triple - 1

    monkeypatch.setattr(convexity, "_hull_masks", drop_one)
    with pytest.raises(WeakOrderDisagreement, match="weak-only") as err:
        sweep_triples(TypeTag.C2Tilde, 3)
    assert err.value.table_only == [] and len(err.value.weak_only) == 1


def test_sweep_oracle_catches_empty_table_hull(monkeypatch):
    # A table Conv(u, v, w) with no chamber still differs from the lower
    # set, which holds e at least; the sizes used are the table's own and
    # agree.
    hull_masks = convexity._hull_masks
    monkeypatch.setattr(convexity, "_hull_masks", lambda *args: (hull_masks(*args)[0], 0))
    with pytest.raises(WeakOrderDisagreement, match="table-only=\\[\\]") as err:
        sweep_triples(TypeTag.A2Tilde, 5)
    assert err.value.size_used == err.value.size_weak == len(err.value.weak_only)
    assert err.value.table_only == [] and "" in err.value.weak_only


def _swapping_hull_masks(monkeypatch, ctx, radius, half):
    """Make `_hull_masks` swap one member of half `half` (0 for Conv(v, w),
    1 for Conv(u, v, w)) of each sampled pair's masks for a cover chamber
    outside it; return the list it appends (v, w, dropped, outside) to."""
    hull_masks = convexity._hull_masks
    ball = ctx.ball(radius)
    cover = halfspace_hull(ball).chambers
    least, _ = convexity._offset_rows([c.floors for c in cover], ball[0].floors)
    at = {tuple(map(sub, c.floors, least)): c for c in ball}
    swaps = []

    def swap_one(rows, v, w):
        masks = list(hull_masks(rows, v, w))
        members = [c for k, c in enumerate(cover) if masks[half] >> k & 1]
        outside = next(nb for c in members for nb in c.neighbors()
                       if nb in cover and nb not in members)
        swaps.append((at[v], at[w], members[-1], outside))
        masks[half] ^= 1 << cover.index(members[-1]) | 1 << cover.index(outside)
        return tuple(masks)

    monkeypatch.setattr(convexity, "_hull_masks", swap_one)
    return swaps


def test_sweep_oracle_catches_same_size_swap_in_table_hull(monkeypatch):
    # Swap one member of each table Conv(u, v, w) for a cover chamber
    # outside it: the size is unchanged, so only the set comparison catches
    # it, and it names the word each side holds alone.
    ctx = build_group(TypeTag.G2Tilde)
    swaps = _swapping_hull_masks(monkeypatch, ctx, 3, 1)
    with pytest.raises(WeakOrderDisagreement, match="table-only") as err:
        sweep_triples(TypeTag.G2Tilde, 3)
    _, _, dropped, outside = swaps[-1]
    assert err.value.size_used == err.value.size_weak
    assert err.value.table_only == [ctx.word_of(outside)]
    # The weak order spells the dropped member by a reduced word of its own.
    [weak_word] = err.value.weak_only
    roots = RootSystem(matrix_for(TypeTag.G2Tilde))
    assert (roots.element([int(d) - 1 for d in weak_word])
            == roots.element(ctx.letters_of(dropped)))


@pytest.mark.parametrize("code", ["a2t", "c2t", "g2t", "i2inf"])
def test_sweep_oracle_catches_same_size_swap_in_pair_hull(monkeypatch, code):
    # The same swap in the table's Conv(v, w): its size is the counted one,
    # so only the set comparison catches it, on the first sampled pair,
    # and it names that pair (v, w) and the chamber each side holds alone.
    tag = TypeTag.from_code(code)
    ctx = build_group(tag)
    swaps = _swapping_hull_masks(monkeypatch, ctx, 3, 0)
    with pytest.raises(WeakOrderDisagreement, match="table-only") as err:
        sweep_triples(tag, 3)
    [(v, w, dropped, outside)] = swaps
    assert err.value.points == [ctx.word_of(v), ctx.word_of(w)]
    assert err.value.size_used == err.value.size_weak
    assert err.value.table_only == [ctx.word_of(outside)]
    [weak_word] = err.value.weak_only
    roots = RootSystem(ctx.matrix)
    assert (roots.element([int(d) - 1 for d in weak_word])
            == roots.element(ctx.letters_of(dropped)))


def test_sweep_oracle_catches_wrong_swept_size(monkeypatch):
    row_sizes = convexity._row_sizes

    def inflated(*args):
        vws, uvws = row_sizes(*args)
        return vws, [uvw + 1 for uvw in uvws]

    monkeypatch.setattr(convexity, "_row_sizes", inflated)
    with pytest.raises(WeakOrderDisagreement, match="sweep used size") as err:
        sweep_triples(TypeTag.A2Tilde, 3)
    assert err.value.size_used == err.value.size_weak + 1


@pytest.mark.parametrize("code", ["a2t", "c2t", "g2t", "i2inf"])
def test_sweep_oracle_catches_wrong_pair_size_past_row_zero(monkeypatch, code):
    # Add 1 to every |Conv(v, w)| past row 0.  Products only grow and row 0
    # is untouched, so the sweep finds no counterexample and only the
    # sampled pairs, read from their orbit's row, can catch it.
    row_sizes = convexity._row_sizes

    def inflated(offset_rows, cols, i):
        vws, uvws = row_sizes(offset_rows, cols, i)
        return ([vw + 1 for vw in vws] if i else vws), uvws

    monkeypatch.setattr(convexity, "_row_sizes", inflated)
    tag = TypeTag.from_code(code)
    assert sweep_triples(tag, 3, oracle_samples=0).ok
    with pytest.raises(WeakOrderDisagreement, match="sweep used size") as err:
        sweep_triples(tag, 3)
    assert err.value.size_used == err.value.size_weak + 1
    assert len(err.value.points) == 2 and err.value.table_only == err.value.weak_only == []


def test_weak_order_reads_pair_sizes_off_the_triple_lower_set(ctx):
    # The weak order counts |Conv(v, w)| in the lower set of N(v) | N(w),
    # as the x with N(v) & N(w) in N(x).  The translation route is the
    # reference: |Conv(v, w)| = |Conv(e, v^-1 w)|, the lower set of N(v^-1 w).
    # The hulls are handed over as masks over the cover's positions.
    ball = ctx.ball(6)
    cover = halfspace_hull(ball).chambers
    at = {c: k for k, c in enumerate(cover)}
    weak = convexity._WeakOrder(ctx.tag.code, ctx.matrix, [ctx.letters_of(c) for c in cover],
                                [at[c] for c in ball])
    roots = RootSystem(ctx.matrix)
    rng = random.Random(29)
    for _ in range(100):
        i, j = sorted(rng.randrange(len(ball)) for _ in range(2))
        lv, lw = ctx.letters_of(ball[i]), ctx.letters_of(ball[j])
        between = roots.walk(roots.reduced(roots.element(lv[::-1] + lw)))[1]
        size_vw = len(roots.lower_set(between))
        pair, hull = (sum(1 << at[c] for c in halfspace_hull(points))
                      for points in ([ball[i], ball[j]], [ctx.base_chamber, ball[i], ball[j]]))
        weak.check(i, j, size_vw, hull.bit_count(), pair, hull)
        for wrong in (size_vw - 1, size_vw + 1):
            with pytest.raises(WeakOrderDisagreement) as err:
                weak.check(i, j, wrong, hull.bit_count(), pair, hull)
            assert (err.value.size_used, err.value.size_weak) == (wrong, size_vw)


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

    def inflated(offset_rows, cols, i):
        vws, uvws = row_sizes(offset_rows, cols, i)
        if i == 0:
            vws[j] += 1
        return vws, uvws

    monkeypatch.setattr(convexity, "_row_sizes", inflated)
    with pytest.raises(WeakOrderDisagreement, match="sweep used size") as err:
        sweep_triples(TypeTag.A2Tilde, 3)
    assert err.value.size_used == err.value.size_weak + 1
    assert err.value.points[0] == ""


def test_sweep_checks_row_zero_against_the_pass_alone(monkeypatch):
    # Raise the pass's |[e, ball[j]]| for a j that no sampled pair touches:
    # the table's sizes are right, and a lower set would agree with them,
    # yet the row-0 check must abort on the pass's size.
    ctx = build_group(TypeTag.A2Tilde)
    n = len(ctx.ball(3))
    touched = {k for pair in _sampled_pairs(n, 0, 32) for k in pair}
    j = max(set(range(1, n)) - touched)
    interval_sizes = RootSystem.interval_sizes

    def raised(self, ids, lengths):
        sizes = interval_sizes(self, ids, lengths)
        sizes[j] += 1
        return sizes

    monkeypatch.setattr(RootSystem, "interval_sizes", raised)
    with pytest.raises(WeakOrderDisagreement, match="sweep used size") as err:
        sweep_triples(TypeTag.A2Tilde, 3)
    assert err.value.size_weak == err.value.size_used + 1
    assert err.value.points == ["", ctx.word_of(ctx.ball(3)[j])]
    assert err.value.table_only == err.value.weak_only == []
    roots = RootSystem(ctx.matrix)
    _, mask = roots.walk(ctx.letters_of(ctx.ball(3)[j]))
    assert len(roots.lower_set(mask)) == err.value.size_used


@pytest.mark.parametrize("bad_ball, k, refusal", [
    pytest.param(lambda ball: ball[:1] + ball[2:], 1, "{} below ", id="chamber-removed"),
    pytest.param(lambda ball: ball + ball[3:4], 3, "element {} is listed twice",
                 id="chamber-duplicated")])
def test_sweep_refuses_a_bad_ball(monkeypatch, bad_ball, k, refusal):
    # The weak order's pass over the ball's elements refuses a ball that
    # lacks ball[1], a lower cover of chambers above it, or holds ball[3]
    # twice, and names the element by its word.
    ctx = GroupContext(TypeTag.A2Tilde)
    ball = ctx.ball(3)
    monkeypatch.setattr(ctx, "ball", lambda radius: bad_ball(ball))
    monkeypatch.setattr(convexity, "build_group", lambda _: ctx)
    word = ctx.letters_of(ball[k])
    with pytest.raises(RuntimeError, match=re.escape(refusal.format(word))) as err:
        sweep_triples(TypeTag.A2Tilde, 3)
    assert type(err.value) is RuntimeError


_CODES = ["a2t", "c2t", "g2t", "i2inf"]


@pytest.mark.parametrize("code,before_ball,check", [
    *(pytest.param(code, False, "cover", id=code) for code in _CODES),
    *(pytest.param(code, True, "row 0" if code == "g2t" else "cover", id=f"{code}-before-ball")
      for code in _CODES)])
def test_sweep_weak_order_catches_corrupted_family_table(monkeypatch, code, before_ball, check):
    # Double one family's spacing, after or before the ball is built.
    # After: the ball's chambers keep their exact floors, and the chambers
    # first met past the ball, on the rim of the table's cover, take wrong
    # floors.  Before: every chamber past the base's neighbours takes wrong
    # floors.  Words are folds that read no floor, so the sweep reaches
    # the weak order, which aborts it.  The flood fill then takes in
    # chambers outside the weak-order hull of the ball, and the cover
    # certificate aborts before any row is swept; only g2t's cover,
    # corrupted before the ball, still comes out right as a set of
    # elements, and row 0's sizes, read off the wrong floors, catch it.
    tag = TypeTag.from_code(code)
    ctx = GroupContext(tag)
    if not before_ball:
        ctx.ball(4)
    n1, n2, r, s = ctx.floor_forms[0]
    ctx.floor_forms = [(n1, n2, r, 2 * s), *ctx.floor_forms[1:]]
    monkeypatch.setattr(convexity, "build_group", lambda _: ctx)
    row_sizes, swept = convexity._row_sizes, []
    monkeypatch.setattr(convexity, "_row_sizes",
                        lambda *args: swept.append(args[2]) or row_sizes(*args))
    with pytest.raises(WeakOrderDisagreement, match=f"on {code} points") as err:
        sweep_triples(tag, 4)
    if check == "cover":
        assert swept == []
        assert err.value.points == []
        assert f"of a ball of {len(ctx.ball(4))} chambers" in str(err.value)
        assert err.value.size_used > err.value.size_weak
        assert len(err.value.table_only) == err.value.size_used - err.value.size_weak
    else:
        assert swept == [0]
        assert len(err.value.points) == 2 and err.value.points[0] == ""
        assert err.value.table_only == err.value.weak_only == []


@pytest.mark.parametrize("code", ["a2t", "c2t", "g2t"])
def test_sweep_certifies_its_cover_before_any_row(monkeypatch, code):
    # Drop one chamber outside the ball from the cover the sweep builds:
    # the cover is then no longer the weak-order hull of the ball, and the
    # certificate aborts the sweep before any row is swept, naming the
    # dropped chamber as the one the weak order holds alone.
    tag = TypeTag.from_code(code)
    ctx = build_group(tag)
    ball = ctx.ball(3)
    hull = halfspace_hull(ball)
    dropped = [c for c in hull.chambers if c not in set(ball)][-1]
    monkeypatch.setattr(convexity, "halfspace_hull",
                        lambda points: ChamberSet(halfspace_hull(points) - {dropped}))
    row_sizes, swept = convexity._row_sizes, []
    monkeypatch.setattr(convexity, "_row_sizes",
                        lambda *args: swept.append(args[2]) or row_sizes(*args))
    with pytest.raises(WeakOrderDisagreement, match=f"on {code} points") as err:
        sweep_triples(tag, 3)
    assert swept == []
    assert (err.value.size_used, err.value.size_weak) == (hull.size - 1, hull.size)
    assert err.value.table_only == [] and err.value.weak_only == [ctx.word_of(dropped)]
    # Without the oracle the sweep runs on the short cover and sees nothing.
    assert sweep_triples(tag, 3, oracle_samples=0).ok and swept


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
    # w = ball[-1] (distance 2), the last of row 1, the first row after
    # u's.  Both orders of (v, w) then fail, and so do both orders of each
    # of its images under S3, the pairs (s_a, s_b s_c) with a, b, c
    # distinct, listed in the order of the unreduced rows.
    ctx = build_group(TypeTag.A2Tilde)
    ball = ctx.ball(2)
    u, v, w = ctx.base_chamber, ball[1], ball[-1]
    row_sizes = convexity._row_sizes
    swept = []

    def inflated(offset_rows, cols, i):
        swept.append(i)
        vws, uvws = row_sizes(offset_rows, cols, i)
        if i == 1:
            uvws[-1] = 100
        return vws, uvws

    monkeypatch.setattr(convexity, "_row_sizes", inflated)
    report = sweep_triples(TypeTag.A2Tilde, 2, oracle_samples=0)
    sizes = [halfspace_hull(p).size for p in ([u, v], [u, w], [v, w])]
    assert sizes == [2, 3, 4]
    assert [ctx.word_of(v), ctx.word_of(w)] == ["2", "31"]
    # One row per orbit: {e}, the generators, and the six of length 2.
    assert swept == [0, 1, 4]
    pairs = [("2", "13"), ("2", "31"), ("1", "23"), ("1", "32"), ("3", "21"), ("3", "12")]
    assert report.counterexamples == [
        dict(v=x, w=y, size_uv=len(x) + 1, size_vw=4, size_uvw=100)
        for pair in pairs for x, y in (pair, pair[::-1])]
    assert report.max_ratio == Fraction(100, 2 * 4)
    assert report.ok is False


def _edges(ball):
    """The sweep's edge table: per ball chamber, the ball index of each
    neighbour, or None outside the ball."""
    index = {c: k for k, c in enumerate(ball)}
    return [[index.get(nb) for nb in c.neighbors()] for c in ball]


def _word_images(ctx, ball):
    """Per diagram automorphism p, the index of each ball chamber's image,
    from words: the chamber of i1 i2 ... goes to that of p(i1) p(i2) ..."""
    index = {c: k for k, c in enumerate(ball)}
    return [[index[ctx.chamber_from_word([p[s] for s in ctx.letters_of(c)])] for c in ball]
            for p in ctx.matrix.automorphisms()]


@pytest.mark.parametrize("code, order, n, swept_rows", [
    ("a2t", 6, 64, 14), ("c2t", 2, 57, 33), ("g2t", 1, 52, 52), ("i2inf", 2, 13, 7)])
def test_orbit_rows_give_every_pair_its_sizes(monkeypatch, code, order, n, swept_rows):
    # The sweep's rows are those of the v least in their orbit.  Expanded
    # through the maps, they give every ordered pair of ball(6) both sizes
    # of the unreduced rows, whichever rows and images reach it.  The maps
    # are those the words give, and there are as many as the group orders.
    tag = TypeTag.from_code(code)
    ctx = build_group(tag)
    ball = ctx.ball(6)
    assert len(ball) == n and len(ctx.matrix.automorphisms()) == order
    maps = convexity._orbit_maps(_edges(ball), ctx.matrix.automorphisms())
    assert maps == _word_images(ctx, ball)
    least = sorted({min(img[k] for img in maps) for k in range(n)})
    rows, cols, _ = _cover_table(ball)
    full = [_pairs(convexity._row_sizes(rows, cols, i)) for i in range(n)]
    expanded = {}
    for m in least:
        for j, sizes in enumerate(full[m], m):
            for img in maps:
                for a, b in [(img[m], img[j]), (img[j], img[m])]:
                    expanded.setdefault((a, b), set()).add(sizes)
    assert expanded.keys() == {(a, b) for a in range(n) for b in range(n)}
    for (a, b), sizes in expanded.items():
        assert sizes == {full[min(a, b)][abs(a - b)]}
    row_sizes = convexity._row_sizes
    swept = []
    monkeypatch.setattr(convexity, "_row_sizes",
                        lambda *args: swept.append(args[2]) or row_sizes(*args))
    assert sweep_triples(tag, 6).triples_checked == n * n
    assert swept == least and len(least) == swept_rows


@pytest.mark.parametrize("swap, refusal", [((4, 5), "breaks an edge"),
                                           ((0, 4), "fixing ball\\[0\\]")])
def test_orbit_maps_refuse_a_planted_image(monkeypatch, swap, refusal):
    # Two images of each map but the identity swapped: the maps' check
    # refuses it before the sweep reads a row through it.
    check_map = convexity._check_map

    def planted(edges, p, img):
        if p != tuple(range(len(p))):
            a, b = swap
            img[a], img[b] = img[b], img[a]
        check_map(edges, p, img)

    monkeypatch.setattr(convexity, "_check_map", planted)
    with pytest.raises(RuntimeError, match=refusal) as err:
        sweep_triples(TypeTag.A2Tilde, 3)
    assert type(err.value) is RuntimeError


def test_orbit_maps_refuse_a_permutation_that_moves_an_order():
    # c2t's m_01 = 2 and m_12 = 4: swapping generators 0 and 2 is no
    # diagram automorphism, and its walk breaks the ball.
    ctx = build_group(TypeTag.C2Tilde)
    assert ctx.matrix.automorphisms() == [(0, 1, 2), (1, 0, 2)]
    with pytest.raises(RuntimeError, match="generator map \\(2, 1, 0\\)"):
        convexity._orbit_maps(_edges(ctx.ball(4)), [(2, 1, 0)])


def _mirrored_only(usize, i, vws, uvws):
    # In a row with a later w where |Conv(u, w)| < |Conv(u, v)|,
    # raise the first such pair's |Conv(u, v, w)| to |Conv(u, v)|·|Conv(v, w)|:
    # then (w, v) fails and (v, w) holds.
    if min(usize[i:]) < usize[i]:
        j = next(j for j in range(i, len(usize)) if usize[j] < usize[i])
        uvws[j - i] = usize[i] * vws[j - i]


def _diagonal_only(usize, i, vws, uvws):
    if i == 4:
        uvws[0] = usize[i] * vws[0] + 1


def _two_in_one_row(usize, i, vws, uvws):
    if i == 1:
        uvws[3] = uvws[-1] = 100


@pytest.mark.parametrize("corrupt, failing", [
    pytest.param(_mirrored_only, 6, id="mirrored-only"),
    pytest.param(_diagonal_only, 6, id="diagonal-only"),
    pytest.param(_two_in_one_row, 24, id="two-in-one-row")])
def test_sweep_verdict_scan_lists_what_the_per_pair_loop_lists(monkeypatch, corrupt, failing):
    # Corrupt some triple sizes in the rows the sweep reads, put the same
    # sizes on every image of each corrupted pair in the unreduced rows, and
    # list their counterexamples with the per-pair loop: the sweep, which
    # walks only the rows its scans flag, must list the same, in the same
    # order.
    ctx = build_group(TypeTag.A2Tilde)
    ball = ctx.ball(3)
    words = [ctx.word_of(c) for c in ball]
    row_sizes = convexity._row_sizes
    corrupted = {}

    def corrupting(offset_rows, cols, i):
        # Each corruption applies once, in the first swept row it fits.
        vws, uvws = row_sizes(offset_rows, cols, i)
        before = list(uvws)
        if not corrupted:
            corrupt(usize, i, vws, uvws)
        corrupted.update({(i, j): uvw for j, (was, uvw) in enumerate(zip(before, uvws), i)
                          if uvw != was})
        return vws, uvws

    offset_rows, cols, _ = _cover_table(ball)
    rows = [row_sizes(offset_rows, cols, i) for i in range(len(ball))]
    usize = rows[0][0]
    monkeypatch.setattr(convexity, "_row_sizes", corrupting)
    report = sweep_triples(TypeTag.A2Tilde, 3, oracle_samples=0)
    for (i, j), uvw in corrupted.items():
        for img in _word_images(ctx, ball):
            a, b = sorted((img[i], img[j]))
            rows[a][1][b - a] = uvw
    expected = []
    for i, (vws, uvws) in enumerate(rows):
        for j, (vw, uvw) in enumerate(zip(vws, uvws), i):
            for a, b in [(i, j)] if i == j else [(i, j), (j, i)]:
                if usize[a] * vw < uvw:
                    expected.append(dict(v=words[a], w=words[b], size_uv=usize[a],
                                         size_vw=vw, size_uvw=uvw))
    assert len(corrupted) == (2 if corrupt is _two_in_one_row else 1)
    assert len(expected) == failing
    assert report.counterexamples == expected
    if corrupt is _mirrored_only:
        assert all(c["size_uv"] < usize[words.index(c["w"])] for c in expected)
    if corrupt is _diagonal_only:
        assert all(c["v"] == c["w"] for c in expected)


def test_sweep_folds_each_chamber_once(monkeypatch):
    # The weak order folds every cover chamber exactly once, the ball's
    # among them, however many sampled table hulls, of pairs or of
    # u-triples, hold it.
    ctx = build_group(TypeTag.A2Tilde)
    cover = halfspace_hull(ctx.ball(8))
    letters_of = GroupContext.letters_of
    calls = []

    def counted(self, c):
        calls.append(c)
        return letters_of(self, c)

    monkeypatch.setattr(GroupContext, "letters_of", counted)
    assert sweep_triples(TypeTag.A2Tilde, 8).ok
    assert 0 < len(calls) == cover.size
    assert len(set(calls)) == len(calls)


def test_sweep_radius_zero(g2):
    report = sweep_triples(TypeTag.G2Tilde, 0)
    assert report.triples_checked == 1
    assert report.ok


# -- the G~2 coarsening lemma (scripts/coarsening_diagnostics.py) --------------

COARSENING = runpy.run_path(
    str(Path(__file__).parents[1] / "scripts" / "coarsening_diagnostics.py"))


def test_coarsening_certificate_covers_the_r16_cover(g2):
    assert COARSENING["certify"](g2, 16) == halfspace_hull(g2.ball(16)).size == 392


def test_coarsening_certificate_catches_a_planted_coarsening(g2, monkeypatch):
    # One chamber is sent to a neighbour of its coarse chamber, which has
    # another floor on the family of the panel between them.
    moved = g2.ball(4)[-1]
    coarsen = GroupContext.coarsen
    monkeypatch.setattr(GroupContext, "coarsen", lambda ctx, x: (
        coarsen(ctx, x).neighbors()[0] if x is moved else coarsen(ctx, x)))
    with pytest.raises(RuntimeError, match=re.escape(f"{g2.word_of(moved)!r} differs on family")):
        COARSENING["certify"](g2, 8)
    monkeypatch.setattr(sys, "argv", ["coarsening_diagnostics.py", "--radius", "8"])
    with pytest.raises(SystemExit) as exit_:
        COARSENING["main"]()
    # A string exit code is printed on stderr as it stands, and exits 1.
    assert exit_.value.code.startswith("error: coarse floor of ")
    assert "\n" not in exit_.value.code


def _coarse_image_in_coarse_hull(g2, points):
    fine = halfspace_hull(points)
    coarse = halfspace_hull([g2.coarsen(p) for p in points])
    assert {g2.coarsen(x) for x in fine} <= coarse
    assert fine.size <= 2 * coarse.size
    return fine.size, coarse.size


def test_coarse_image_of_a_fine_hull_lies_in_the_coarse_hull(g2):
    # A spread-out triple: u lower left, v above the middle, w far right,
    # the chambers holding the Cartesian points (-23/10, 3/7), (2/5, 31/8)
    # and (41/7, 5/9).
    triple = [g2.chamber_from_word(int(d) - 1 for d in word)
              for word in ("21212312123", "2131212131212", "31212312123121231")]
    assert _coarse_image_in_coarse_hull(g2, triple) == (128, 74)
    rng = random.Random(16)
    ball = g2.ball(16)
    for _ in range(200):
        _coarse_image_in_coarse_hull(g2, [g2.base_chamber, rng.choice(ball), rng.choice(ball)])


def test_coarsening_pair_side_counts_at_r8(g2):
    # The pair side is no lemma: it fails 2,313 of the 7,744 u-triples of
    # B(8), the first at u = v = w = e, where 1*1 < 2*1*1.
    failures = COARSENING["pair_side"](g2, 8)
    assert len(g2.ball(8)) ** 2 == 7744
    assert sum(map(len, failures.values())) == 2313
    assert min(failures[0, 0]) == ("", "", 1, 2)
