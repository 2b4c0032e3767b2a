import pytest

from coxhull.coxeter import (INF, BadDiagonal, CoxeterMatrixError, NonSymmetric,
                             OrderBelowTwo, TypeTag, validate_matrix)


def test_valid_triangular_matrix():
    m = validate_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    assert m.rank == 3
    assert m.order(0, 1) == 3


def test_infinite_order_sentinel():
    m = validate_matrix([[1, "inf"], ["inf", 1]])
    assert m.rank == 2
    assert m.order(0, 1) == INF


def test_none_is_not_an_order():
    # Only "inf" spells an infinite order; a JSON null is refused.
    with pytest.raises(CoxeterMatrixError, match="None"):
        validate_matrix([[1, None], [None, 1]])


def test_non_symmetric_names_indices():
    with pytest.raises(NonSymmetric) as exc:
        validate_matrix([[1, 2], [3, 1]])
    assert exc.value.indices == (0, 1)


def test_bad_diagonal():
    with pytest.raises(BadDiagonal) as exc:
        validate_matrix([[2, 3], [3, 1]])
    assert exc.value.indices == (0, 0)


def test_order_below_two():
    with pytest.raises(OrderBelowTwo) as exc:
        validate_matrix([[1, 1], [1, 1]])
    assert exc.value.indices == (0, 1)


def test_tag_codes_roundtrip():
    for tag in (TypeTag.A2Tilde, TypeTag.C2Tilde, TypeTag.G2Tilde, TypeTag.I2Infinity):
        assert TypeTag.from_code(tag.code) is tag
    with pytest.raises(ValueError):
        TypeTag.from_code("b2t")
