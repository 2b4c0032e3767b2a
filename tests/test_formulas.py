import pytest

from coxhull.convexity import halfspace_hull
from coxhull.formulas import (A2Coord, C2CaseParams, ConstraintViolation,
                              Orientation, ParityViolation, ShapeViolation,
                              a2_chamber_pair, a2_pair_count,
                              a2_strong_hull_sides, c2_case2_chambers,
                              c2_case2_counts, dihedral_pair_count, i2_cell,
                              orientation_for_parity)


def test_pair_count_examples():
    assert a2_pair_count(A2Coord(3, 0, Orientation.Down)) == 4
    assert a2_pair_count(A2Coord(7, 3, Orientation.Up)) == 23
    assert a2_pair_count(A2Coord(1, 0, Orientation.Down)) == 2


def test_parity_enforced():
    with pytest.raises(ParityViolation):
        A2Coord(3, 0, Orientation.Up)
    with pytest.raises(ParityViolation):
        A2Coord(2, 0, Orientation.Down)
    with pytest.raises(ParityViolation):
        A2Coord(0, 0, Orientation.Up)


def test_shape_enforced():
    with pytest.raises(ShapeViolation):
        a2_pair_count(A2Coord(0, 2, Orientation.Up))
    with pytest.raises(ShapeViolation):
        A2Coord(-1, 1, Orientation.Up)


def test_orientation_for_parity():
    assert orientation_for_parity(7, 3) is Orientation.Up
    assert orientation_for_parity(3, 0) is Orientation.Down


def test_formula_agrees_with_enumeration_small(a2):
    for s in range(1, 9):
        for y in range(s + 1):
            x = s - y
            if x < max(0, y - 1):
                continue
            coord = A2Coord(x, y, orientation_for_parity(x, y))
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
    with pytest.raises(ConstraintViolation):
        a2_strong_hull_sides(0, 2, 2, 0)   # x < y-1
    with pytest.raises(ConstraintViolation):
        a2_strong_hull_sides(2, 0, 2, 0)   # x+y even
    with pytest.raises(ConstraintViolation):
        a2_strong_hull_sides(1, 0, 1, 0)   # a+b odd
    with pytest.raises(ConstraintViolation):
        a2_strong_hull_sides(1, 0, 0, 0)   # a+b not positive


def test_case2_counts_examples():
    assert c2_case2_counts(C2CaseParams(2, 2, 5, 4)) == (4, 19, 26)
    uv, vw, uvw = c2_case2_counts(C2CaseParams(2, 3, 9, 5))
    assert uv * vw >= uvw


def test_case2_params_constraints():
    with pytest.raises(ConstraintViolation):
        C2CaseParams(3, 2, 5, 4)    # a not 2 mod 4
    with pytest.raises(ConstraintViolation):
        C2CaseParams(2, 2, 6, 4)    # x not 1 mod 4
    with pytest.raises(ConstraintViolation):
        C2CaseParams(2, 1, 5, 4)    # b < 2
    with pytest.raises(ConstraintViolation):
        C2CaseParams(2, 2, 5, 2)    # y <= b
    with pytest.raises(ConstraintViolation):
        C2CaseParams(6, 2, 5, 4)    # x < a+3
    with pytest.raises(ConstraintViolation):
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


def test_dihedral_pair_count(i2):
    assert dihedral_pair_count(0) == 1
    assert dihedral_pair_count(5) == 6
    a, b = 2, 3
    union = halfspace_hull([i2_cell(i2, -a), i2_cell(i2, b)]).size
    assert dihedral_pair_count(a) * dihedral_pair_count(b) == 12 >= union == 6


def test_i2_cells(i2):
    assert i2_cell(i2, 0) == i2.base_chamber
    assert i2.wall_distance(i2_cell(i2, -3), i2_cell(i2, 4)) == 7
