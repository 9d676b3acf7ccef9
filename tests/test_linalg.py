import math

import numpy as np
import pytest

from conecert.linalg import (
    RANK_RTOL,
    as_matrix,
    least_squares_polish,
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


def _graded_matrix(weak: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 3 x 3 matrix with singular values 1, 0.5 and weak, and its
    orthonormal singular vectors (U, V), seeded."""
    rng = np.random.default_rng(21)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return U @ np.diag([1.0, 0.5, weak]) @ V.T, U, V


@pytest.mark.parametrize("weak", [1e-6, 1e-4])
def test_rank_rule_keeps_a_singular_value_above_its_threshold(weak):
    # a relative singular value between RANK_RTOL and 1e-2 is rank: both
    # least-squares helpers then solve M x = v exactly, so each reaches the
    # point whose weak component is 1, where a rule at rtol 1e-2 would
    # drop that component
    assert RANK_RTOL < weak < 1e-2
    M, U, V = _graded_matrix(weak)
    x_true = V @ np.array([0.3, -0.2, 1.0])
    v = M @ x_true
    x, res = least_squares_solve(M, v)
    assert np.allclose(x, x_true, rtol=0.0, atol=1e-6)
    assert res <= 1e-12
    X = np.array([np.zeros(3), x_true + V[:, 2]])  # one row off along the weak direction
    P = least_squares_polish(M, X, np.array([v, v]))
    assert np.allclose(P, [x_true, x_true], rtol=0.0, atol=1e-6)


def test_rank_rule_drops_a_singular_value_below_its_threshold():
    # below RANK_RTOL the weak direction is not rank: the correction leaves
    # the weak component of the start alone, instead of dividing noise by it
    M, U, V = _graded_matrix(1e-13)
    v = M @ (V @ np.array([0.3, -0.2, 0.0])) + 1e-14 * U[:, 2]
    x, _ = least_squares_solve(M, v)
    assert abs(x @ V[:, 2]) <= 1e-6
    P = least_squares_polish(M, np.array([2.0 * V[:, 2]]), np.array([v]))
    assert P[0] @ V[:, 2] == pytest.approx(2.0, abs=1e-6)
