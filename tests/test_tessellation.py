import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from coxhull.convexity import halfspace_hull, sweep_triples
from coxhull.coxeter import TypeTag
from coxhull.group import reflection_across
from coxhull.tessellation import GroupContext, _base_data, _derive_families


def bfs_distances(start, depth):
    """Plain graph BFS over lazily materialized chambers."""
    dist = {start: 0}
    frontier = [start]
    for d in range(1, depth + 1):
        nxt = []
        for c in frontier:
            for _, nb in c.neighbors():
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


def canonical(n1, n2, c):
    """The line n1*x + n2*y = c scaled so its first nonzero normal
    component is 1: one triple per line."""
    s = n1 or n2
    return Fraction(n1, s), Fraction(n2, s), Fraction(c, s)


def family_of(form):
    """(normal, ref, spacing) of an integer family form, on the canonical
    scale of its normal."""
    n1, n2, r, gap = form
    *normal, ref = canonical(n1, n2, r)
    return tuple(normal), ref, canonical(n1, n2, gap)[2]


def line_of_wall(ctx, wall):
    """The canonical line of a wall, rebuilt from its family's form."""
    n1, n2, r, gap = ctx.families[wall.family]
    return canonical(n1, n2, r + gap * wall.offset)


EXPECTED_FAMILY_COUNT = {"a2t": 3, "c2t": 4, "g2t": 6, "i2inf": 1}


def test_family_counts(ctx):
    assert len(ctx.families) == EXPECTED_FAMILY_COUNT[ctx.tag.code]
    for *_, gap in ctx.families:
        assert gap > 0


# (normal, ref, spacing) of each family, in table order.
FAMILY_TABLES = {
    "a2t": [((0, 1), 0, 1), ((1, 0), 0, 1), ((1, 1), 0, 1)],
    "c2t": [((0, 1), 0, 1), ((1, -1), 0, 2), ((1, 0), 0, 1), ((1, 1), 0, 2)],
    "g2t": [((0, 1), 0, 1), ((1, -1), 0, 3), ((1, 0), 0, 1),
            ((1, Fraction(1, 2)), 0, Fraction(3, 2)), ((1, 1), 0, 1),
            ((1, 2), 0, 3)],
    "i2inf": [((1, 0), 0, 1)],
}


def family_coordinates(ctx, point):
    """The exact family coordinates of a point, from the pinned table:
    each family's walls sit at the integers of its coordinate."""
    x, y = map(Fraction, point)
    return [(a * x + b * y - ref) / spacing
            for (a, b), ref, spacing in FAMILY_TABLES[ctx.tag.code]]


def test_family_tables_pinned(ctx):
    table = [family_of(form) for form in ctx.families]
    assert table == FAMILY_TABLES[ctx.tag.code]


def test_integer_floors_and_order_match_exact_barycenters(ctx):
    # Floors come from integer forms and ball layers are ordered by integer
    # keys; both must agree with the exact Fraction barycenter.
    layers = collections.defaultdict(list)
    for c in ctx.ball(16):
        exact = tuple(map(math.floor, family_coordinates(ctx, c.barycenter)))
        assert c.floors == exact
        layers[ctx.wall_distance(ctx.base_chamber, c)].append(c)
    assert list(layers) == list(range(17))
    for layer in layers.values():
        barycenters = [c.barycenter for c in layer]
        assert barycenters == sorted(set(barycenters))


def test_no_fractions_after_construction(ctx, monkeypatch):
    fresh = GroupContext(ctx.tag)
    points = [fresh.chamber_from_word(w).barycenter for w in ([0, 1], [1, 0, 1, 0])]
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if "_from_coprime_ints" in vars(Fraction):
        # Since Python 3.12, Fraction arithmetic builds results here
        # without calling __new__.
        coprime = vars(Fraction)["_from_coprime_ints"].__func__

        def counted_coprime(cls, n, d):
            made.append((n, d))
            return coprime(cls, n, d)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    ball = fresh.ball(8)
    hull = halfspace_hull([ball[0], ball[len(ball) // 2], ball[-1]])
    hull.chambers
    fresh.chamber_from_word([i % fresh.rank for i in range(16)])
    for c in fresh.ball(4):
        c.panel_walls()
    located = [fresh.chamber_containing(p) for p in points]
    monkeypatch.undo()
    assert made == []
    assert len(hull) > 1
    assert located == [fresh.chamber_from_word(w) for w in ([0, 1], [1, 0, 1, 0])]


def test_floor_forms_checked_at_construction(monkeypatch):
    # A family table one spacing off the integer forms moves every exact
    # floor by one, and the context refuses to build.
    check = GroupContext._check_floor_forms

    def shifted(self):
        self.families = [(n1, n2, r + gap, gap) for n1, n2, r, gap in self.families]
        check(self)

    monkeypatch.setattr(GroupContext, "_check_floor_forms", shifted)
    with pytest.raises(RuntimeError, match="integer floors"):
        GroupContext(TypeTag.A2Tilde)


def test_floor_form_divisor_must_be_positive(monkeypatch):
    # A form negated throughout gives the same family coordinate and the
    # same table, but a negative divisor.
    import coxhull.tessellation as tessellation
    derive = tessellation._derive_families

    def negated(gens, walls):
        first, *rest = derive(gens, walls)
        return [tuple(-x for x in first), *rest]

    monkeypatch.setattr(tessellation, "_derive_families", negated)
    with pytest.raises(RuntimeError, match="non-positive divisor"):
        GroupContext(TypeTag.A2Tilde)


def table_faults(ctx, span=20):
    """(generator, family, fault) for each place where the family table is
    not invariant: a generator must map walls k in [-span, span] of a
    family to walls of one family at offsets eps*k + c, with eps = +-1."""
    faults = []
    for i, s in enumerate(ctx.gens):
        for f, (n1, n2, r, gap) in enumerate(ctx.families):
            try:
                images = [ctx.wall_of_line(s.line_image(n1, n2, r + k * gap))
                          for k in range(-span, span + 1)]
            except ValueError as e:
                faults.append((i, f, str(e)))
                continue
            if len({w.family for w in images}) != 1:
                faults.append((i, f, "images span several families"))
            elif {b.offset - a.offset for a, b in zip(images, images[1:])} not in ({1}, {-1}):
                faults.append((i, f, "offsets are not eps*k + c"))
    return faults


def test_family_table_is_invariant(ctx):
    assert table_faults(ctx) == []


# i2inf is left out: its one family with the gap doubled is still invariant
# (it misses the base wall x = 1, which test_base_walls_in_table sees), and
# with it dropped there is nothing left to map.
@pytest.mark.parametrize("code", ["a2t", "c2t", "g2t"])
@pytest.mark.parametrize("mutate", [
    lambda forms: [(n1, n2, r, 2 * gap) for n1, n2, r, gap in forms[:1]] + forms[1:],
    lambda forms: forms[1:],
], ids=["gap doubled", "family dropped"])
def test_table_faults_flags_mutated_tables(monkeypatch, code, mutate):
    import coxhull.tessellation as tessellation
    derive = tessellation._derive_families
    monkeypatch.setattr(tessellation, "_derive_families",
                        lambda gens, walls: mutate(derive(gens, walls)))
    assert table_faults(GroupContext(TypeTag.from_code(code))) != []


def test_derivation_ignores_order_and_sign_of_base_walls(ctx):
    _, walls, _ = _base_data(ctx.tag)
    for perm in itertools.permutations(walls):
        for signs in itertools.product([1, -1], repeat=len(walls)):
            signed = [tuple(e * x for x in w) for e, w in zip(signs, perm)]
            assert _derive_families(ctx.gens, signed) == ctx.families


def test_non_primitive_base_normal_refused(monkeypatch):
    # c2t with the wall x = 1 moved to 2x = 1: its reflection x -> 1 - x
    # is still an integer map with the Coxeter matrix's orders, but the
    # normal (2, 0) is not primitive.
    import coxhull.tessellation as tessellation
    base_data = tessellation._base_data

    def halved(tag):
        verts, walls, gram_inv = base_data(tag)
        return verts, [walls[0], (2, 0, 1), walls[2]], gram_inv

    monkeypatch.setattr(tessellation, "_base_data", halved)
    with pytest.raises(RuntimeError, match="not primitive"):
        GroupContext(TypeTag.C2Tilde)


def test_finite_group_has_single_wall_families():
    # The reflections in y = 0 and y = x generate a finite group: each of
    # its four mirrors is alone in its direction.
    walls = [(0, 1, 0), (1, -1, 0)]
    gens = [reflection_across("c2t", w, (1, 0, 1)) for w in walls]
    with pytest.raises(RuntimeError, match="single wall"):
        _derive_families(gens, walls)


def test_ball_matches_reference_bfs(ctx):
    reference = GroupContext(ctx.tag)
    layers = collections.defaultdict(list)
    for c, d in bfs_distances(reference.base_chamber, 10).items():
        layers[d].append(c)
    want = {r: [c.order_key for d in range(r + 1)
                for c in sorted(layers[d], key=lambda c: c.order_key)]
            for r in range(11)}
    for radii in (range(11), range(10, -1, -1)):
        fresh = GroupContext(ctx.tag)
        for r in radii:
            assert [c.order_key for c in fresh.ball(r)] == want[r]
    # Each call returns a new list: appending to one leaves the ball.
    fresh.ball(2).append(fresh.ball(3)[-1])
    assert [c.order_key for c in fresh.ball(2)] == want[2]


def test_negative_radius_refused(a2):
    with pytest.raises(ValueError, match="non-negative"):
        a2.ball(-5)
    with pytest.raises(ValueError, match="non-negative"):
        sweep_triples(TypeTag.A2Tilde, -2)


def test_base_walls_in_table(ctx):
    for line in ctx.base_walls:
        wall = ctx.wall_of_line(line)
        assert line_of_wall(ctx, wall) == canonical(*line)


def test_barycenters_never_on_walls(ctx):
    for c in ctx.ball(4):
        for proj in family_coordinates(ctx, c.barycenter):
            k = math.floor(proj)
            assert proj - k > 0
            assert k + 1 - proj > 0


def test_neighbors_rank_many_distinct_symmetric(ctx):
    for c in ctx.ball(3):
        nbs = [nb for _, nb in c.neighbors()]
        assert len(nbs) == ctx.rank
        assert len(set(nbs)) == ctx.rank
        assert all(nb != c for nb in nbs)
        for nb in nbs:
            assert c in [x for _, x in nb.neighbors()]


def test_adjacent_chambers_separated_by_exactly_their_panel(ctx):
    for c in ctx.ball(3):
        for i, nb in c.neighbors():
            walls = ctx.separating_walls(c, nb)
            assert walls == {c.panel_walls()[i]}


def test_separates_basics(ctx):
    base = ctx.base_chamber
    assert ctx.separating_walls(base, base) == set()
    assert base.panel_walls()[0] in ctx.separating_walls(base, base.neighbors()[0][1])


def test_distance_equals_bfs(ctx):
    dist = bfs_distances(ctx.base_chamber, 6)
    for c, d in dist.items():
        assert ctx.wall_distance(ctx.base_chamber, c) == d


def test_adjacent_distance_parity(ctx):
    base = ctx.base_chamber
    for c in ctx.ball(5):
        d = ctx.wall_distance(base, c)
        for _, nb in c.neighbors():
            assert abs(ctx.wall_distance(base, nb) - d) == 1


def test_separating_wall_count_is_distance(ctx):
    ball = ctx.ball(4)
    rng = random.Random(7)
    for _ in range(60):
        c1, c2 = rng.choice(ball), rng.choice(ball)
        walls = ctx.separating_walls(c1, c2)
        assert len(walls) == ctx.wall_distance(c1, c2)


def test_reflection_flips_only_its_wall(planar_ctx):
    ctx = planar_ctx
    for c in ctx.ball(2):
        for i, nb in c.neighbors():
            wall = c.panel_walls()[i]
            for f in range(len(ctx.families)):
                if f == wall.family:
                    assert abs(c.floors[f] - nb.floors[f]) == 1
                else:
                    assert c.floors[f] == nb.floors[f]


def test_equivariance_of_separating_walls(planar_ctx):
    ctx = planar_ctx
    ball = ctx.ball(4)
    rng = random.Random(11)
    for _ in range(40):
        c1, c2 = rng.choice(ball), rng.choice(ball)
        g = rng.choice(ball).element
        g1 = ctx.chamber_of(g.compose(c1.element))
        g2c = ctx.chamber_of(g.compose(c2.element))
        before = ctx.separating_walls(c1, c2)
        after = ctx.separating_walls(g1, g2c)
        assert len(before) == len(after)
        # g permutes wall directions, so per-family counts match as multisets
        def family_profile(walls):
            counts = collections.Counter(w.family for w in walls)
            return sorted(counts.values())
        assert family_profile(before) == family_profile(after)


def test_wall_table_complete_for_short_conjugates(ctx):
    # Every reflection w s w^-1 with l(w) <= 6 fixes a wall of the table.
    for chamber in ctx.ball(6):
        w = chamber.element
        for line in ctx.base_walls:
            image = w.line_image(*line)
            wall = ctx.wall_of_line(image)  # raises if not on the lattice
            assert line_of_wall(ctx, wall) == canonical(*image)


@pytest.mark.parametrize("code,line,message", [
    ("a2t", (1, -1, 0), "matches no wall family"),
    ("a2t", (2, 0, 1), "not on the family's wall lattice"),   # a = 1/2
    ("c2t", (0, 2, 1), "not on the family's wall lattice"),   # y = 1/2
    ("c2t", (1, 2, 0), "matches no wall family"),
])
def test_wall_of_line_refuses_non_walls(code, line, message):
    with pytest.raises(ValueError, match=message):
        GroupContext(TypeTag.from_code(code)).wall_of_line(line)


def test_chamber_element_bijection(ctx):
    ball = ctx.ball(5)
    assert len({c.element for c in ball}) == len(ball)
    assert len({c.barycenter for c in ball}) == len(ball)


def test_identity_chamber_and_products(ctx):
    base = ctx.base_chamber
    assert base.element.is_identity()
    s1s2 = ctx.chamber_from_word([0, 1])
    dist = bfs_distances(base, 3)
    assert dist[s1s2] == 2
    assert ctx.wall_distance(base, s1s2) == 2


def test_wrong_generator_orders_rejected_at_construction(monkeypatch):
    import coxhull.tessellation as tessellation
    monkeypatch.setattr(tessellation, "element_order", lambda g: 5)
    with pytest.raises(RuntimeError, match="Coxeter matrix"):
        GroupContext(TypeTag.A2Tilde)


def test_off_lattice_frame_rejected_at_construction(monkeypatch):
    # Moving a2t's third wall to a + b = 1/2 gives its reflection the
    # translation (1/2, 1/2): not an integer map, so the frame is refused.
    import coxhull.tessellation as tessellation
    base_data = tessellation._base_data

    def off_lattice(tag):
        verts, walls, gram_inv = base_data(tag)
        return verts, [*walls[:2], (1, 1, Fraction(1, 2))], gram_inv

    monkeypatch.setattr(tessellation, "_base_data", off_lattice)
    with pytest.raises(RuntimeError, match="not an integer map"):
        GroupContext(TypeTag.A2Tilde)


def test_exact_data_only(ctx):
    # Points are Fractions, never floats (an int/int division anywhere would
    # leak one); maps and family forms are ints.
    def exact(*values):
        return all(type(x) is Fraction for x in values)

    def integral(*values):
        return all(type(x) is int for x in values)

    for form in ctx.families:
        assert integral(*form)
    for v in ctx.base_vertices:
        assert exact(*v)
    for g in ctx.gens:
        assert integral(g.a, g.b, g.c, g.d, g.tx, g.ty)
    for c in ctx.ball(4):
        assert exact(*c.barycenter)
        e = c.element
        assert integral(e.a, e.b, e.c, e.d, e.tx, e.ty)


def test_chambers_are_interned(ctx):
    # Two words for one element give the one chamber object.
    for i in range(ctx.rank):
        assert ctx.chamber_from_word([i, i]) is ctx.base_chamber
    assert ctx.chamber_from_word([0, 1, 1]) is ctx.base_chamber.neighbors()[0][1]


def test_separate_contexts_never_share_chambers():
    first, second = GroupContext(TypeTag.A2Tilde), GroupContext(TypeTag.A2Tilde)
    a, b = first.chamber_from_word([0, 1]), second.chamber_from_word([0, 1])
    assert a.element == b.element
    assert a != b
    assert len({a, b}) == 2


def test_word_roundtrip(ctx):
    for c in ctx.ball(5):
        word = ctx.word_of(c)
        again = ctx.chamber_from_word(int(d) - 1 for d in word)
        assert again == c
        assert len(word) == ctx.wall_distance(ctx.base_chamber, c)


def test_separating_wall_count_spec_words(a2):
    base = a2.base_chamber
    c = a2.chamber_from_word([0, 1, 0])
    assert len(a2.separating_walls(base, c)) == 3
    c = a2.chamber_from_word([0, 1, 0, 2])
    assert len(a2.separating_walls(base, c)) == 4


def test_barycenter_locates_own_chamber(ctx):
    for c in ctx.ball(4):
        assert ctx.chamber_containing(c.barycenter) is c


def test_point_location_matches_exact_reference(ctx):
    # Rational points with denominators up to 12: refused exactly on a
    # wall, else located in the chamber with the reference floors.
    rng = random.Random(2026)
    refused = located = 0
    for _ in range(300):
        point = tuple(Fraction(rng.randint(-48, 48), rng.randint(1, 12)) for _ in "xy")
        coords = family_coordinates(ctx, point)
        if any(x.denominator == 1 for x in coords):
            with pytest.raises(ValueError, match="on a wall"):
                ctx.chamber_containing(point)
            refused += 1
        else:
            c = ctx.chamber_containing(point)
            assert c.floors == tuple(map(math.floor, coords))
            located += 1
    assert refused > 10 and located > 100


@pytest.mark.parametrize("code,point", [
    ("a2t", (Fraction(1, 2), 0)),
    ("a2t", (0, 0)),
    ("c2t", (1, Fraction(1, 2))),
    ("i2inf", (3, Fraction(1, 2))),
])
def test_point_on_wall_rejected(code, point):
    ctx = GroupContext(TypeTag.from_code(code))
    with pytest.raises(ValueError, match="on a wall"):
        ctx.chamber_containing(tuple(map(Fraction, point)))


def test_inexact_point_refused(ctx):
    with pytest.raises(TypeError, match=r"point \(0\.5, 0\.25\).*ints or Fractions"):
        ctx.chamber_containing((0.5, 0.25))


def test_vertices_map_with_element(ctx):
    c = ctx.chamber_from_word([0, 1, 0])
    assert c.vertices() == [c.element.apply(v) for v in ctx.base_vertices]


# -- coarsening ---------------------------------------------------------------

def test_coarsen_base_to_base(g2):
    assert g2.coarsen(g2.base_chamber) == g2.companion.base_chamber


def test_coarse_preimage_count_is_two(g2):
    counts = collections.Counter(g2.coarsen(c) for c in g2.ball(8))
    assert max(counts.values()) == 2
    # Interior coarse chambers all reach the constant; only the boundary of
    # the ball truncates preimages.
    full = [k for k, v in counts.items() if v == 2]
    assert len(full) > len(counts) // 2


def test_coarsen_commutes_with_shared_reflections(g2):
    a2 = g2.companion
    for line in a2.base_walls:
        rg = reflection_across("g2t", line, g2.gram_inv)
        ra = reflection_across("a2t", line, a2.gram_inv)
        for c in g2.ball(4):
            lhs = g2.coarsen(g2.chamber_of(rg.compose(c.element)))
            rhs = a2.chamber_of(ra.compose(g2.coarsen(c).element))
            assert lhs == rhs


def test_coarsen_rejected_for_other_types(a2):
    with pytest.raises(Exception):
        a2.coarsen(a2.base_chamber)


def test_unsupported_type_rejected():
    # TypeTag has only the four supported members; anything else is refused.
    with pytest.raises(ValueError, match="unsupported type"):
        GroupContext("b2t")


def test_companion_refuses_a_shifted_family():
    # The fine walls x = k moved half a spacing, to x = k + 1/2: the
    # coarse walls x = k are no longer among them.
    g2 = GroupContext(TypeTag.G2Tilde)
    g2.families = [(2, 0, 1, 2) if form == (1, 0, 0, 1) else form
                   for form in g2.families]
    with pytest.raises(RuntimeError, match="do not align"):
        g2.companion


def test_companion_families_align(g2):
    a2 = g2.companion
    g2_dirs = {normal: (ref, spacing) for normal, ref, spacing in map(family_of, g2.families)}
    for normal, ref, spacing in map(family_of, a2.families):
        assert normal in g2_dirs
        assert g2_dirs[normal][1] == spacing
        assert g2_dirs[normal][0] == ref
