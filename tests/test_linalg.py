import math

import numpy as np
import pytest

from conecert.linalg import (
    as_matrix,
    least_squares_solve,
    null_space_basis,
)


def test_as_matrix_shapes():
    assert as_matrix([[1.0, 2.0]]).shape == (1, 2)
    assert as_matrix([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])


def test_null_space_empty_rows_gives_identity():
    basis = null_space_basis(np.zeros((0, 3)))
    assert len(basis) == 3
    assert np.allclose(np.column_stack(basis), np.eye(3))


def test_null_space_of_rank_one():
    basis = null_space_basis(np.array([[1.0, 1.0]]))
    assert len(basis) == 1
    v = basis[0]
    assert abs(v @ np.array([1.0, 1.0])) < 1e-12
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_least_squares_exact_and_residual():
    # overdetermined column: projection of (1, 0) onto span([1, 1])
    x, res = least_squares_solve(np.array([[1.0], [1.0]]), [1.0, 0.0])
    assert x[0] == pytest.approx(0.5)
    assert res == pytest.approx(math.sqrt(0.5))

    x, res = least_squares_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0])
    assert res == pytest.approx(0.0, abs=1e-12)


def test_least_squares_min_norm_on_underdetermined():
    x, res = least_squares_solve(np.array([[1.0, 1.0]]), [2.0])
    assert np.allclose(x, [1.0, 1.0])
    assert res == pytest.approx(0.0, abs=1e-12)
