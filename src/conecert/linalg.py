"""Dense linear algebra helpers: null spaces, least squares."""

from __future__ import annotations

import numpy as np
import scipy.linalg

#: Relative singular-value threshold shared by every rank decision.
RANK_RTOL = 1e-10


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """A as a 2-D float array; raises a ValueError naming it unless its
    entries are all finite."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name}: entries must be finite")
    return A


def null_space_basis(M) -> list[np.ndarray]:
    """Orthonormal basis of the (numerical) kernel of M."""
    M = as_matrix(M)
    if M.shape[0] == 0:
        return [np.eye(M.shape[1])[:, j] for j in range(M.shape[1])]
    ns = scipy.linalg.null_space(M, rcond=RANK_RTOL)
    return [ns[:, j].copy() for j in range(ns.shape[1])]


def least_squares_solve(M, v) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of M x = v and its residual norm."""
    M = as_matrix(M)
    v = np.asarray(v, dtype=float).ravel()
    if v.size != M.shape[0]:
        raise ValueError(f"length(v)={v.size} does not match rows(M)={M.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(M, v, rcond=RANK_RTOL)
    residual = float(np.linalg.norm(M @ x - v))
    return x, residual


def least_squares_polish(M, X, V) -> np.ndarray:
    """Each row x of X moved onto {x : M x = v}, v its row of V, by the
    minimum-norm least-squares correction that `least_squares_solve` gives
    for M d = v - M x: all rows with one pseudo-inverse, at the same rank
    rule."""
    M = as_matrix(M)
    return X + np.matvec(np.linalg.pinv(M, rtol=RANK_RTOL), V - np.matvec(M, X))
