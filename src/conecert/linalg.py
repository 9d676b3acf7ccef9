"""Dense linear algebra helpers: null spaces, least squares."""

from __future__ import annotations

import numpy as np
import scipy.linalg

#: Relative singular-value threshold shared by every rank decision.
RANK_RTOL = 1e-10


def as_matrix(A) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
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
