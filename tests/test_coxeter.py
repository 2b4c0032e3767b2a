import pytest

from coxhull.coxeter import INF, CoxeterMatrixError, TypeTag, validate_matrix


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


@pytest.mark.parametrize("raw", [
    [[True, 3], [3, True]],      # True is the int 1 on the diagonal
    [[1, True], [True, 1]],
    [[False, 3], [3, 1]],
    [[1, False], [False, 1]],
])
def test_bool_is_not_an_order(raw):
    # bool subclasses int, but True and False are refused as entries,
    # not read as the orders 1 and 0.
    with pytest.raises(CoxeterMatrixError, match="integers or 'inf', got (True|False)"):
        validate_matrix(raw)


@pytest.mark.parametrize("raw", [[], [[1, 3], [3]]])
def test_empty_or_ragged_matrix_refused(raw):
    with pytest.raises(CoxeterMatrixError, match="^matrix must be square and nonempty$"):
        validate_matrix(raw)


def test_non_symmetric_names_indices():
    with pytest.raises(CoxeterMatrixError,
                       match=r"^entries\[0\]\[1\]=2 != entries\[1\]\[0\]=3$"):
        validate_matrix([[1, 2], [3, 1]])


def test_bad_diagonal():
    with pytest.raises(CoxeterMatrixError,
                       match=r"^entries\[0\]\[0\]=2, diagonal orders must be 1$"):
        validate_matrix([[2, 3], [3, 1]])


def test_order_below_two():
    with pytest.raises(CoxeterMatrixError,
                       match=r"^entries\[0\]\[1\]=1, off-diagonal orders must be >= 2$"):
        validate_matrix([[1, 1], [1, 1]])


def test_tag_codes_roundtrip():
    for tag in (TypeTag.A2Tilde, TypeTag.C2Tilde, TypeTag.G2Tilde, TypeTag.I2Infinity):
        assert TypeTag.from_code(tag.code) is tag
    with pytest.raises(ValueError):
        TypeTag.from_code("b2t")
