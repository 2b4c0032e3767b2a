import pytest

from coxhull.convexity import halfspace_hull
from coxhull.formulas import (A2Coord, C2CaseParams, CoordinateError,
                              a2_chamber_pair, a2_pair_count,
                              a2_strong_hull_sides, c2_case2_chambers,
                              c2_case2_counts, c2_triangle, dihedral_pair_count,
                              i2_cell)


def test_pair_count_examples():
    assert a2_pair_count(A2Coord(3, 0)) == 4
    assert a2_pair_count(A2Coord(7, 3)) == 23
    assert a2_pair_count(A2Coord(1, 0)) == 2


def test_parity_enforced():
    with pytest.raises(CoordinateError, match="^x\\+y must be positive$"):
        A2Coord(0, 0)


def test_shape_enforced():
    with pytest.raises(CoordinateError, match="need x >= y-1"):
        a2_pair_count(A2Coord(0, 2))
    with pytest.raises(CoordinateError, match="coordinates must be non-negative"):
        A2Coord(-1, 1)
    with pytest.raises(CoordinateError, match="coordinates must be non-negative"):
        A2Coord(7, 3)._replace(x=-1)


def test_base_orientation_follows_parity():
    assert not A2Coord(7, 3).down
    assert not A2Coord(2, 0).down
    assert A2Coord(3, 0).down
    assert A2Coord(4, 3).down


def test_formula_agrees_with_enumeration_small(a2):
    for s in range(1, 9):
        for y in range(s + 1):
            x = s - y
            if x < max(0, y - 1):
                continue
            coord = A2Coord(x, y)
            u, v = a2_chamber_pair(a2, coord)
            assert halfspace_hull([u, v]).size == a2_pair_count(coord)


def test_strong_hull_sides_examples():
    assert a2_strong_hull_sides(1, 0, 2, 0) == (6, 4)
    assert a2_strong_hull_sides(2, 1, 1, 1) == (18, 10)


def test_strong_hull_sides_match_enumeration(a2):
    """The closed-form sides are hull sizes of an actual configuration:
    product of the pair hulls on the left, triple hull on the right."""
    from coxhull.formulas import a2_reduced_triple
    checked = 0
    for x in range(7):
        for y in range(7):
            if x < y - 1 or (x + y) % 2 != 1:
                continue
            for a in range(7):
                for b in range(7):
                    if a < b - 1 or (a + b) % 2 != 0 or a + b == 0:
                        continue
                    lhs, rhs = a2_strong_hull_sides(x, y, a, b)
                    u, v, w = a2_reduced_triple(a2, x, y, a, b)
                    assert halfspace_hull([u, v]).size * halfspace_hull([v, w]).size == lhs
                    assert halfspace_hull([u, v, w]).size == rhs
                    assert lhs >= rhs
                    checked += 1
    assert checked > 200


def test_strong_hull_sides_constraints():
    with pytest.raises(CoordinateError, match="need x >= y-1"):
        a2_strong_hull_sides(0, 2, 2, 0)
    with pytest.raises(CoordinateError, match="^x must be non-negative, got -1$"):
        a2_strong_hull_sides(-1, 0, 0, 2)
    with pytest.raises(CoordinateError, match="need a >= b-1, got a=0, b=2"):
        a2_strong_hull_sides(1, 0, 0, 2)
    with pytest.raises(CoordinateError, match="x\\+y must be positive odd"):
        a2_strong_hull_sides(2, 0, 2, 0)
    with pytest.raises(CoordinateError, match="a\\+b must be positive even, got 1"):
        a2_strong_hull_sides(1, 0, 1, 0)
    with pytest.raises(CoordinateError, match="a\\+b must be positive even, got 0"):
        a2_strong_hull_sides(1, 0, 0, 0)


def test_case2_counts_examples():
    assert c2_case2_counts(C2CaseParams(2, 2, 5, 4)) == (4, 19, 26)
    uv, vw, uvw = c2_case2_counts(C2CaseParams(2, 3, 9, 5))
    assert uv * vw >= uvw


@pytest.mark.parametrize("call", [
    pytest.param(lambda: a2_pair_count(A2Coord(2.5, 0.5)), id="a2-coord-float"),
    pytest.param(lambda: A2Coord(True, 2), id="a2-coord-bool"),
    pytest.param(lambda: A2Coord(7, 3)._replace(y=3.0), id="a2-coord-replace"),
    pytest.param(lambda: c2_case2_counts(C2CaseParams(2.0, 2, 5.0, 4)), id="c2-params-float"),
    pytest.param(lambda: C2CaseParams(2, True, 5, 4), id="c2-params-bool"),
    pytest.param(lambda: C2CaseParams(2, 2, 5, 4)._replace(x=5.0), id="c2-params-replace"),
    pytest.param(lambda: dihedral_pair_count(2.5), id="dihedral-float"),
    pytest.param(lambda: dihedral_pair_count(False), id="dihedral-bool"),
    pytest.param(lambda: a2_strong_hull_sides(1.0, 0, 1, 1), id="a2-sides-float"),
    pytest.param(lambda: a2_strong_hull_sides(1, 0, True, True), id="a2-sides-bool")])
def test_closed_forms_refuse_non_int_input(call):
    # Every closed form's domain is the integers: a float or a bool is
    # refused, where it used to give a float or be read as 0 or 1.
    with pytest.raises(CoordinateError, match="must be an int, got (True|False|[0-9.]+)$"):
        call()


def test_case2_params_constraints():
    with pytest.raises(CoordinateError, match="a must be 2 mod 4"):
        C2CaseParams(3, 2, 5, 4)
    with pytest.raises(CoordinateError, match="a must be 2 mod 4"):
        C2CaseParams(2, 2, 5, 4)._replace(a=3)
    with pytest.raises(CoordinateError, match="x must be 1 mod 4"):
        C2CaseParams(2, 2, 6, 4)
    with pytest.raises(CoordinateError, match="need y > b >= 2, got b=1"):
        C2CaseParams(2, 1, 5, 4)
    with pytest.raises(CoordinateError, match="need y > b >= 2, got b=2, y=2"):
        C2CaseParams(2, 2, 5, 2)
    with pytest.raises(CoordinateError, match="need x >= a\\+3"):
        C2CaseParams(6, 2, 5, 4)
    with pytest.raises(CoordinateError, match="closed forms need y >= b\\+2"):
        c2_case2_counts(C2CaseParams(2, 2, 5, 3))  # y = b+1 outside formula domain


def test_case2_configuration_counts(c2):
    """The configuration enumerates to all three closed forms exactly."""
    grid = [(2, 2, 5, 4), (2, 3, 5, 5), (6, 2, 9, 4), (2, 4, 9, 6), (6, 3, 13, 5)]
    for a, b, x, y in grid:
        params = C2CaseParams(a, b, x, y)
        u, v, w = c2_case2_chambers(c2, params)
        want = c2_case2_counts(params)
        got = (halfspace_hull([u, v]).size,
               halfspace_hull([v, w]).size,
               halfspace_hull([u, v, w]).size)
        assert got == want


def test_case2_strong_hull_holds_enumerated(c2):
    u, v, w = c2_case2_chambers(c2, C2CaseParams(2, 2, 5, 4))
    suv = halfspace_hull([u, v]).size
    svw = halfspace_hull([v, w]).size
    suvw = halfspace_hull([u, v, w]).size
    assert suv * svw >= suvw


@pytest.mark.parametrize("address, own", [
    pytest.param(lambda ctx: a2_chamber_pair(ctx, A2Coord(1, 0)), "a2t", id="a2-pair"),
    pytest.param(lambda ctx: c2_triangle(ctx, 1, 0, "NE"), "c2t", id="c2-triangle"),
    pytest.param(lambda ctx: i2_cell(ctx, 0), "i2inf", id="i2-cell")])
def test_coordinates_refuse_another_types_context(address, own, ctx):
    if ctx.tag.code == own:
        address(ctx)
    else:
        with pytest.raises(CoordinateError):
            address(ctx)


@pytest.mark.parametrize("address, message", [
    pytest.param(lambda c2, i2: c2_triangle(c2, 0, 0, "XX"), "species must be one of LR, SW, NE",
                 id="c2-unknown-species"),
    pytest.param(lambda c2, i2: c2_triangle(c2, 0, 0, "SW"), r"square \(0, 0\) has no SW",
                 id="c2-sw-even"),
    pytest.param(lambda c2, i2: c2_triangle(c2, 2, 0, "NE"), r"square \(2, 0\) has no NE",
                 id="c2-ne-even"),
    pytest.param(lambda c2, i2: c2_triangle(c2, 1, 0, "LR"), r"square \(1, 0\) has no LR",
                 id="c2-lr-odd"),
    pytest.param(lambda c2, i2: c2_triangle(c2, 1.0, 0, "NE"), "i must be an int", id="c2-float"),
    pytest.param(lambda c2, i2: c2_triangle(c2, 0, True, "NE"), "j must be an int", id="c2-bool"),
    pytest.param(lambda c2, i2: i2_cell(i2, 1.5), "n must be an int", id="i2-float"),
    pytest.param(lambda c2, i2: i2_cell(i2, True), "n must be an int", id="i2-bool")])
def test_coordinate_views_refuse_bad_addresses(address, message, c2, i2):
    with pytest.raises(CoordinateError, match=message):
        address(c2, i2)


def test_dihedral_pair_count(i2):
    assert dihedral_pair_count(0) == 1
    assert dihedral_pair_count(5) == 6
    a, b = 2, 3
    union = halfspace_hull([i2_cell(i2, -a), i2_cell(i2, b)]).size
    assert dihedral_pair_count(a) * dihedral_pair_count(b) == 12 >= union == 6


def test_i2_cells(i2):
    assert i2_cell(i2, 0) == i2.base_chamber
    assert i2.wall_distance(i2_cell(i2, -3), i2_cell(i2, 4)) == 7
