"""Primal-dual interior-point solver for standard-form conic programs.

Solves min <c,x> s.t. Ax = b, x in K, where K is a ConeProduct that may
contain Free and Zero blocks alongside Nonneg and Lorentz blocks. The
algorithm is a homogeneous self-dual embedding with Nesterov-Todd scaling
and a Mehrotra predictor-corrector step, so infeasibility and unboundedness
come out as Farkas-type certificates rather than failures.

`solve_batch` runs a stack of right-hand sides for one (A, K) in lockstep,
with one objective c for all rows or one per row: every iterate is a (B, .)
array with one row per problem. A row leaves the batch only at the top of
an iteration: when the screen there finds it terminated, when its last
step broke down, or after max_iters steps. Every operation acts row by row
(`np.matvec`, `np.vecdot`, matmul on a stack of rows, one LU per row), so a
row's result does not depend on the rest of the batch, and `solve` is a
batch of one.

The rows that end at one iteration are scaled back to the program and
checked by the verifier as one stack, but each Solution owns fresh row
arrays and its objective is a 1-D dot on them. A dot on a row view of a
stack may round differently: `np.vecdot` on a stack need not round like a
1-D dot, and an OpenBLAS dot can round differently when the row starts at
another alignment, so the objective would depend on the row's place in the
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .cones import BlockKind, ConeProduct
from .linalg import as_matrix


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    NUMERICAL_LIMIT = "NumericalLimit"


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iters: int = 200


@dataclass
class ConicProgram:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cone: ConeProduct

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.A = as_matrix(self.A)
        self.b = np.asarray(self.b, dtype=float).ravel()
        n = self.cone.dim
        if self.c.size != n or self.A.shape[1] != n or self.b.size != self.A.shape[0]:
            raise ValueError(
                f"inconsistent program dims: c={self.c.size}, A={self.A.shape}, "
                f"b={self.b.size}, cone={n}"
            )
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.b))):
            raise ValueError("program data must be finite")


@dataclass
class Solution:
    status: SolveStatus
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    s: np.ndarray | None = None
    objective: float | None = None
    certificate: np.ndarray | None = None
    iterations: int = 0


# Static regularization of the KKT matrix, and the multipliers of it tried
# in turn when a factorization fails.
_STATIC_REG = 1e-10
_BUMPS = (1.0, 1e2, 1e4, 1e6)
_NO_INDEX = np.zeros(0, dtype=int)


def _inf_norms(X: np.ndarray) -> np.ndarray:
    """Infinity norm of each row; 0 for rows of length 0."""
    return np.maximum.reduce(np.abs(X), axis=1, initial=0.0)


def _all_finite(X: np.ndarray) -> np.ndarray:
    """Whether each row is finite."""
    return np.logical_and.reduce(np.isfinite(X), axis=1)


class _EmbeddingCone:
    """Cone of the embedded slack variables, acting on (B, dim) batches: the
    Lorentz blocks stored radius-first and grouped by dimension, then n_l
    nonnegative scalars. A group of nb blocks of dimension d is a
    contiguous slice that `blocks` reshapes to (B, nb, d). Without Lorentz
    groups every operation is the elementwise one of the orthant."""

    def __init__(self, soc_groups: list[tuple[int, int]], n_l: int):
        # (offset, nb, d, J, diag(J), the group's slice) with J = (1, -1, ..., -1)
        self.groups = []
        off = 0
        for d, nb in soc_groups:
            J = -np.ones(d)
            J[0] = 1.0
            self.groups.append((off, nb, d, J, np.diag(J), slice(off, off + nb * d)))
            off += nb * d
        self.lp = slice(off, off + n_l)
        self.dim = off + n_l
        # the Nonneg coordinates and the Lorentz radii
        self.edges = self.lp if not self.groups else np.concatenate(
            [np.arange(o, o + nb * d, d) for o, nb, d, *_ in self.groups]
            + [np.arange(off, self.dim)]).astype(int)
        self.degree = n_l + sum(nb for _, nb in soc_groups)

    def blocks(self, u: np.ndarray) -> list[np.ndarray]:
        """(B, nb, d) views of the Lorentz groups of a (B, dim) batch."""
        return [u[:, sl].reshape(-1, nb, d) for _, nb, d, _, _, sl in self.groups]

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.lp] = 1.0
        for off, nb, d, *_ in self.groups:
            e[off : off + nb * d : d] = 1.0
        return e

    def stepper(self, u: np.ndarray):
        """The step length du -> sup {alpha >= 0 : u + alpha*du in cone} per
        row, for u strictly inside, with the terms of u computed once."""
        nu = -u[:, self.edges]
        # per group: J, nb, d, its slice, U and the Lorentz form U'JU
        form = [(J, nb, d, sl, U, np.vecdot(U, U * J))
                for (_, nb, d, J, _, sl), U in zip(self.groups, self.blocks(u))]

        def step(du: np.ndarray) -> np.ndarray:
            # where a Nonneg coordinate or a Lorentz radius reaches 0
            a = nu / du[:, self.edges]
            if form:
                roots = [a]
                for J, nb, d, sl, U, c0 in form:
                    # The Lorentz form c0 + 2 b a + c2 a^2 of u + a du is
                    # positive at a = 0; its least positive root,
                    # c0 / (sqrt(b^2 - c0 c2) - b), is where the block leaves
                    # the cone.
                    D = du[:, sl].reshape(-1, nb, d)
                    JD = D * J
                    b = np.vecdot(U, JD)
                    roots.append(c0 / (np.sqrt(b * b - c0 * np.vecdot(D, JD)) - b))
                a = np.concatenate(roots, axis=1)
            return np.minimum.reduce(a, axis=1, where=a > 0, initial=np.inf)

        return step

    def jprod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = u * v
        for _, nb, d, _, _, sl in self.groups:
            U, V = u[:, sl].reshape(-1, nb, d), v[:, sl].reshape(-1, nb, d)
            O = out[:, sl].reshape(-1, nb, d)
            O[..., 0] = np.vecdot(U, V)
            O[..., 1:] = U[..., :1] * V[..., 1:] + V[..., :1] * U[..., 1:]
        return out

    def jsolve(self, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lam o q = d for q (lam strictly inside). Degenerate iterates
        may overflow here; callers check finiteness."""
        out = d / lam
        for _, nb, dim, J, _, sl in self.groups:
            L, D = lam[:, sl].reshape(-1, nb, dim), d[:, sl].reshape(-1, nb, dim)
            Q = out[:, sl].reshape(-1, nb, dim)
            JL = L * J
            q0 = np.vecdot(JL, D) / np.vecdot(JL, L)
            Q[..., 0] = q0
            Q[..., 1:] = (D[..., 1:] - q0[..., None] * L[..., 1:]) / L[..., :1]
        return out


class _Scaling:
    """Nesterov-Todd scaling W of a batch (W z = W^-1 s), kept factored:
    w = sqrt(s/z) on the Nonneg part and, per Lorentz block, eta and wbar
    with W = eta (h h' / h0 - J), h = wbar + e0 (the hyperbolic Householder
    form eta (2 v v' - J), v = h / sqrt(2 h0)). Then
    W^-1 = (Jh (Jh)' / h0 - J) / eta and W^2 = eta^2 (2 wbar wbar' - J)
    (Vandenberghe, "The CVXOPT linear and quadratic cone program solvers",
    2010). W^2 is also kept as dense blocks, which the KKT matrix needs.
    Without Lorentz groups W is the diagonal w, and each product is one
    elementwise operation on the whole row."""

    def __init__(self, work: _EmbeddingCone, s: np.ndarray, z: np.ndarray):
        self.work = work
        self.w = np.sqrt(s[:, work.lp] / z[:, work.lp])
        self.w2 = self.w * self.w
        # per group: its slice and shape, eta as (B, nb, 1), h, h*eta/h0,
        # eta*J and the dense W^2 blocks
        self.groups = []
        for _, nb, d, J, DJ, sl in work.groups:
            S, Z = s[:, sl].reshape(-1, nb, d), z[:, sl].reshape(-1, nb, d)
            ZJ = Z * J
            gs = np.sqrt(np.maximum(np.vecdot(S, S * J), 1e-300))[..., None]
            gz = np.sqrt(np.maximum(np.vecdot(Z, ZJ), 1e-300))[..., None]
            cos = np.vecdot(S, Z)[..., None] / (gs * gz)
            gamma = np.sqrt(np.maximum((1.0 + cos) / 2.0, 1e-150))
            wbar = (S / gs + ZJ / gz) / (2.0 * gamma)
            eta = np.sqrt(gs / gz)
            h = wbar.copy()
            h[..., 0] += 1.0
            w2 = (eta * eta)[..., None] * (2.0 * wbar[..., :, None] * wbar[..., None, :] - DJ)
            self.groups.append((sl, (-1, nb, d), eta, h, h * (eta / h[..., :1]), eta * J, w2))

    def mul(self, u: np.ndarray) -> np.ndarray:
        if not self.groups:
            return self.w * u
        out = np.empty_like(u)
        lp = self.work.lp
        np.multiply(self.w, u[:, lp], out=out[:, lp])
        for sl, shape, _, h, g, etaJ, _ in self.groups:
            U, O = u[:, sl].reshape(shape), out[:, sl].reshape(shape)
            np.multiply(g, np.vecdot(h, U)[..., None], out=O)
            O -= etaJ * U
        return out

    def inv(self, u: np.ndarray) -> np.ndarray:
        if not self.groups:
            return u / self.w
        out = np.empty_like(u)
        lp = self.work.lp
        np.divide(u[:, lp], self.w, out=out[:, lp])
        for (_, _, _, J, *_), (sl, shape, eta, h, *_) in zip(self.work.groups, self.groups):
            U, Jh = u[:, sl].reshape(shape), h * J
            out[:, sl].reshape(shape)[...] = (Jh * (np.vecdot(Jh, U)[..., None] / h[..., :1])
                                              - U * J) / eta
        return out

    def sq(self, u: np.ndarray) -> np.ndarray:
        if not self.groups:
            return self.w2 * u
        out = np.empty_like(u)
        lp = self.work.lp
        np.multiply(self.w2, u[:, lp], out=out[:, lp])
        for sl, shape, *_, w2 in self.groups:
            np.matvec(w2, u[:, sl].reshape(shape), out=out[:, sl].reshape(shape))
        return out

    def sq_entries(self) -> np.ndarray:
        """The entries of the block-diagonal W^2 of each row: the dense blocks
        of the Lorentz groups, then the Nonneg diagonal."""
        if not self.groups:
            return self.w2
        B = len(self.w)
        return np.concatenate([g[-1].reshape(B, -1) for g in self.groups] + [self.w2], axis=1)


class _Embedding:
    """Reduction of a ConicProgram to the homogeneous self-dual form, on the
    program's columns reordered as [one-row Nonneg | other Nonneg | the
    rest], each part in program order: a Nonneg column is one-row when it
    has exactly one nonzero in Ahat. There are n1 one-row and nN Nonneg
    columns in all, and x[pos] puts an embedding x back in program order.
    The slacks are s = x[cidx]: the Lorentz blocks radius-first, grouped by
    dimension in order of first appearance, then the Nonneg coordinates in
    column order, so that s's Nonneg part is x[:nN]; soc1 lists the slack
    slots of the one-row Lorentz columns and `free` the program's Free
    columns, in program order. The embedding cone
    `work` has one more Nonneg coordinate, last, for the pair (kappa, tau)
    of the embedding: s carries kappa there and z tau.

    Everything here depends on (A, K) alone and is built once per
    `solve_batch` call: Ahat (A with a unit row per Zero coordinate, on the
    reordered columns) and its transpose, its nonzero pattern nz, from which
    `_KKT` reads its pairs and bound rows, and max |Ahat| (amax)."""

    def __init__(self, p: ConicProgram):
        n = p.cone.dim
        zero_idx, free_idx, lp_idx, rest = [], [], [], []
        soc_blocks: dict[int, list[list[int]]] = {}
        for blk, off in p.cone.offsets():
            idx = list(range(off, off + blk.dim))
            if blk.kind is BlockKind.NONNEG:
                lp_idx += idx
                continue
            rest += idx
            if blk.kind is BlockKind.ZERO:
                zero_idx += idx
            elif blk.kind is BlockKind.FREE:
                free_idx += idx
            elif blk.kind is BlockKind.LORENTZ:
                soc_blocks.setdefault(blk.dim, []).append([idx[-1]] + idx[:-1])
        # the Zero rows miss Nonneg columns
        nnz = (p.A != 0).sum(axis=0, dtype=np.int32).tolist()
        one = [j for j in lp_idx if nnz[j] == 1]
        lp = one + [j for j in lp_idx if nnz[j] != 1]
        self.perm = np.array(lp + rest, dtype=int)
        self.pos = np.argsort(self.perm)
        self.n1, self.nN = len(one), len(lp)
        soc = [i for blks in soc_blocks.values() for blk in blks for i in blk]
        self.cidx = self.pos[soc + lp]
        self.soc1 = [k for k, j in enumerate(soc) if nnz[j] == 1]
        self.free = free_idx
        self.work = _EmbeddingCone([(d, len(b)) for d, b in soc_blocks.items()], self.nN + 1)
        if zero_idx:
            Zrows = np.zeros((len(zero_idx), n))
            Zrows[np.arange(len(zero_idx)), zero_idx] = 1.0
            self.Ahat = np.vstack([p.A, Zrows])[:, self.perm]
        else:
            self.Ahat = p.A[:, self.perm]
        self.nz = self.Ahat != 0
        # max |Ahat|, which is max |A| with a 1 in each Zero row
        amax_A = np.abs(p.A).max(initial=0.0)
        self.amax = max(amax_A, 1.0) if zero_idx else amax_A
        self.AhatT = np.ascontiguousarray(self.Ahat.T)
        self.n = n
        self.mh = self.Ahat.shape[0]


@dataclass
class _Factors:
    """What `_KKT.solve` needs of each row's factorization: the LU of its
    reduced matrix (None where it failed) and the eliminated terms at the
    row's regularization r: -1/(w2 + r) per Nonneg slack, 1/h per
    one-row column and 1/D per bound row (None without bound rows), as
    (B, 1, nN), (B, 1, n1) and (B, 1, nB) stacks, and the pairs' M^-1 (None
    without pairs), as a (B, 2 nP, 2 nP) stack, or the one matrix of
    `_KKT.static` while every row is at one bump."""

    lu: list | None
    ng: np.ndarray
    ih: np.ndarray
    Mi: np.ndarray | None
    iD: np.ndarray | None = None

    def put(self, row: slice, other: "_Factors") -> None:
        """Take the eliminated terms of `row` from the one-row `other`."""
        self.ng[row], self.ih[row] = other.ng, other.ih
        if self.iD is not None:
            self.iD[row] = other.iD
        if self.Mi is not None:
            if self.Mi.ndim == 2:
                self.Mi = np.repeat(self.Mi[None], len(self.ng), axis=0)
            self.Mi[row] = other.Mi


class _KKT:
    """The embedding's KKT matrix [[rI, A', G'], [A, -rI, 0], [G, 0, -(W^2 + rI)]]
    for one (A, K), with unknowns [x, y, z] and a z row per slack (the
    (kappa, tau) pair has none), G = -E for the selector E of the slacks.

    Each row factors a reduced matrix. A Nonneg slack's z row gives
    dz = -(rz + dx_c) g with g = 1/(w2 + r), which leaves g on the diagonal
    of its column c and rx_c - g rz on the right. A one-row Nonneg column,
    whose only nonzero a is in row i, then gives dx_c = (rx_c - a dy_i) / h
    with h = r + g, which subtracts a^2/h from row i's diagonal and
    a (rx_c - g rz) / h from ry_i. The embedding puts these columns first and
    the Nonneg slacks last, so the unknowns left, [other Nonneg x, the rest
    of x, y, Lorentz z], are the one slice `red`.

    A Lorentz column with one nonzero a, in a row i that holds no one-row
    Nonneg column, is paired with y_i (the first such column of the row, if
    it holds several) and both leave through the 2 x 2 pivot
    M = [[r, a], [a, -r]], whose inverse is [[r, a], [a, -r]] / d with
    d = r^2 + a^2 (a 2 x 2 pivot of a quasi-definite matrix; Vanderbei,
    SIAM J. Optim. 5, 1995). The pair couples only to its slack z_c (by -1)
    and to row i's other columns v (by A_iv): these are its rows of C. The
    term C' M^-1 C that its elimination subtracts (r/d on z_c's diagonal,
    -a A_iv/d between z_c and v, -r A_iv A_iw/d between columns v and w)
    depends on r alone and is part of the static matrix. A step subtracts
    C' M^-1 [rx_c, ry_i] from the right-hand side and recovers
    [dx_c, dy_i] = M^-1 ([rx_c, ry_i] - C u) from the reduced solution u,
    which holds the unknowns of `red` less the pairs and the bound rows
    (`keep`). In every multiplier program gamma_k is an identity block, so
    on Lorentz(3) products every gamma_k column pairs.

    A bound row i holds one-row Nonneg columns and one other nonzero a, in
    a Free column v (a row holding a one-row Nonneg column never pairs).
    After the one-row columns leave, y_i couples only to x_v, and its
    diagonal D = -(r + sum a_c^2/h_c) < 0 is a pivot of the negative block,
    so y_i leaves too: a^2/|D| is added to v's diagonal, a ry_i/D is
    subtracted from rx_v, and dy_i = (ry_i - a dx_v)/D is recovered from the
    reduced solution. Several bound rows may share v. D depends on the
    iterate, so these terms are written in each iteration, with the
    one-row columns'. Every box row |mu_i| <= 1, |eta0| <= 1 and every
    split-slack row of a cut program is a bound row, so the cut program of
    a 36-variable split factors 131 unknowns on the orthant and on
    Lorentz(3) products alike, instead of 207 with the pairs alone and 351
    with neither.

    Every eliminated block is diagonal or 2 x 2, so the reduced matrix keeps
    the quasi-definite form for which any symmetric pivot order is stable.
    The Lorentz slacks stay in it: eliminating one needs the inverse of its
    W^2 + rI, whose eigenvalues spread without bound as the iterate nears
    the boundary of the cone. On min x1 - x3 : x3 - x1 = 0, x in L3 they
    reach 0 and 3.7e14 (r is lost to rounding), the explicit inverse is
    singular, and the solve ends NumericalLimit instead of Optimal in 5
    iterations; the LU pivots on the block as it is.

    Once per (A, K) and at the reduced order, without building the
    unreduced matrix: the pairs and bound rows, the unknowns that stay
    (`keep`, offsets in `red`, in their order in [x, y, z], on which the LU
    pivots), C and the bound rows' coefficients, and the part of the reduced
    matrix that no regularization touches (A and A' on the reduced x and y,
    and -1 between each Lorentz slack and its unpaired column). Once per
    regularization r: a copy of it with r on the diagonal and the pairs'
    C' M^-1 C subtracted. The eliminated unknowns keep their places in
    [x, y, z]: one gather R[..., kidx] takes the reduced right-hand side of
    R (kidx is the slice `red` without pairs and bound rows), one more
    takes the pairs' [rx_c, ry_i], and the solution goes back by one write
    each for the reduced unknowns, the pairs and the bound rows. Each
    iteration copies the static matrix into one buffer per batch, writes
    the Lorentz W^2 blocks through one flat index and the eliminated
    diagonal terms of every row, and factors each row once with LAPACK.
    The matrix is symmetric, so a C-ordered K[i] is handed to LAPACK as the
    Fortran-ordered K[i]' = K[i] and factored in place; its factors live in
    the buffer until the next factorization."""

    def __init__(self, emb: _Embedding):
        self.emb = emb
        n, mh, n1, nN = emb.n, emb.mh, emb.n1, emb.nN
        pl = emb.work.lp.start
        self.size = n + mh + pl + nN
        self.red = slice(n1, n + mh + pl)
        self.ys = slice(n, n + mh)  # y in the unknowns
        self.zN = slice(n + mh + pl, self.size)
        self.n1, self.nN = n1, nN
        self.A1 = np.ascontiguousarray(emb.Ahat[:, :n1])
        self.A1T = emb.AhatT[:n1]
        pcol, prow, slots = self._pairs(emb) if emb.soc1 else (_NO_INDEX,) * 3
        brow = self._bound_rows(emb) if emb.free and n1 else _NO_INDEX
        self.nP, self.nB = nP, nB = len(pcol), len(brow)
        self.nx = nx = n - n1 - nP  # x in the reduced unknowns
        ny = mh - nP - nB  # y in the reduced unknowns
        self.rsize = nx + ny + pl
        self.y = slice(nx, nx + ny)
        # the unknowns of `red` that stay in the reduced matrix, and where
        # a right-hand side holds them: `red` itself without pairs and bound
        # rows, else one gather
        keep = np.ones(self.red.stop - n1, dtype=bool)
        keep[np.concatenate([pcol, n + prow, n + brow]) - n1] = False
        self.keep = np.flatnonzero(keep)
        self.kidx = n1 + self.keep if nP or nB else self.red
        xk = n1 + self.keep[:nx]  # the reduced x and y as columns and rows of Ahat
        yk = self.keep[nx : nx + ny] - (n - n1)
        if nP or nB:
            self.A1T = self.A1T[:, yk]
        if nP:
            # the pairs' x and y in the unknowns, the paired slacks in the
            # reduced unknowns, each pair's a, and C: -1 at the paired slack
            # (rows ..nP) and the coefficients A_iv of the pair's row on the
            # reduced x (rows nP..)
            self.pidx = np.concatenate([pcol, n + prow])
            self.zP = nx + ny + slots
            self.a = emb.Ahat[prow, pcol]
            self.C = np.zeros((2 * nP, self.rsize))
            self.C[np.arange(nP), self.zP] = -1.0
            self.C[nP:, :nx] = emb.Ahat[prow][:, xk]
        if nB:
            # the bound rows' y in the unknowns, their one-row coefficients
            # and their coefficient a on the reduced x
            self.yb = n + brow
            self.A1Tb = emb.AhatT[:n1, brow]
            self.A1sqTb = self.A1Tb * self.A1Tb
            self.Bv = emb.Ahat[brow][:, xk]
            self.Bv2 = self.Bv * self.Bv
        self.A1sqT = self.A1T * self.A1T
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        for o, nb, d, *_ in emb.work.groups:
            idx = nx + ny + o + np.arange(nb * d).reshape(nb, d)
            rows.append(np.repeat(idx[:, :, None], d, axis=2).ravel())
            cols.append(np.repeat(idx[:, None, :], d, axis=1).ravel())
        self.rows, self.cols = np.concatenate(rows), np.concatenate(cols)
        self.flat = self.rows * self.rsize + self.cols  # the W^2 entries in a flat matrix
        # the part of the reduced matrix that no regularization touches: A
        # and A' on the reduced x and y, and -1 between each Lorentz slack
        # and its column unless that column is paired
        T = np.zeros((self.rsize, self.rsize))
        T[nx : nx + ny, :nx] = emb.Ahat[np.ix_(yk, xk)]
        T[:nx, nx : nx + ny] = T[nx : nx + ny, :nx].T
        at = np.full(keep.size, -1)
        at[self.keep] = np.arange(self.rsize)
        col, slot = at[emb.cidx[:pl] - n1], nx + ny + np.arange(pl)
        T[col[col >= 0], slot[col >= 0]] = T[slot[col >= 0], col[col >= 0]] = -1.0
        self._base = T
        self._static: dict[float, tuple] = {}
        self._K = T[:0]  # the matrices of the last factored batch, which LAPACK overwrites

    @staticmethod
    def _pairs(emb: _Embedding):
        """The Lorentz columns paired with their rows, with those rows and
        the columns' slack slots: a one-row Lorentz column pairs when its row
        holds no one-row Nonneg column, and is the first such column of that
        row in slack order."""
        slots = np.array(emb.soc1)
        rows = emb.nz[:, emb.cidx[slots]].argmax(axis=0)
        ok = ~emb.nz[rows, : emb.n1].any(axis=1)
        first = np.full(emb.mh, slots[-1] + 1)
        np.minimum.at(first, rows[ok], slots[ok])
        rows = np.flatnonzero(first <= slots[-1])
        slots = first[rows]
        return emb.cidx[slots], rows, slots

    @staticmethod
    def _bound_rows(emb: _Embedding) -> np.ndarray:
        """The rows that hold a one-row Nonneg column and exactly one other
        nonzero, in a Free column."""
        nz, n1 = emb.nz, emb.n1
        rows = np.flatnonzero(nz[:, :n1].any(axis=1)
                              & (nz[:, n1:].sum(axis=1, dtype=np.int32) == 1))
        free = np.zeros(emb.n, dtype=bool)
        free[emb.pos[emb.free]] = True
        return rows[free[nz[rows, n1:].argmax(axis=1) + n1]]

    def static(self, bump: float) -> tuple:
        """The static reduced matrix at one bump, and the pairs' M^-1 (None
        without pairs)."""
        if bump not in self._static:
            rr = _STATIC_REG * bump
            T = self._base.copy()
            diag = T.reshape(-1)[:: self.rsize + 1]
            diag[: self.nx] = rr
            diag[self.nx :] = -rr
            Mi = None
            if self.nP:
                # M^-1 = [[r, a], [a, -r]] / d per pair, and the reduced
                # matrix less C' (M^-1 C), whose only nonzero rows are at the
                # paired slacks (C's first nP rows are -1 there) and at the
                # reduced x (C's last nP rows). Each entry of M^-1 C is one
                # product, written as the matrix product rounds it (a sum
                # of one product and exact zeros, +0 where it vanishes).
                nP, nx, zP = self.nP, self.nx, self.zP
                d = rr * rr + self.a * self.a
                pr, pa = rr / d, self.a / d
                k = np.arange(nP)
                Mi = np.zeros((2 * nP, 2 * nP))
                Mi[np.arange(2 * nP), np.arange(2 * nP)] = np.concatenate([pr, -pr])
                Mi[k, nP + k] = Mi[nP + k, k] = pa
                Cx = self.C[nP:, :nx]
                MC = np.zeros((2 * nP, self.rsize))
                MC[k, zP], MC[nP + k, zP] = -pr, -pa
                MC[:nP, :nx] = pa[:, None] * Cx + 0.0
                MC[nP:, :nx] = -pr[:, None] * Cx + 0.0
                T[zP] += MC[:nP]
                T[:nx] -= Cx.T @ MC[nP:]
            self._static[bump] = T, Mi
        return self._static[bump]

    def _assemble(self, wL: np.ndarray, wN: np.ndarray, bump: float, K: np.ndarray):
        """Write the reduced matrices of a batch at one bump into K, given
        the entries wL of its Lorentz W^2 blocks and the Nonneg diagonal wN
        of W^2, and return K and the eliminated terms of its rows."""
        T, Mi = self.static(bump)
        B = len(wL)
        K[...] = T
        Kf = K.reshape(B, -1)
        if self.flat.size:
            Kf[:, self.flat] -= wL
        if not self.nN:
            return K, _Factors(None, wN[:, None], wN[:, None], Mi)  # (B, 1, 0) each
        r = _STATIC_REG * bump
        n1 = self.n1
        ng = np.divide(-1.0, (wN + r)[:, None])
        ih = np.divide(1.0, r - ng[..., :n1])
        diag = Kf[:, :: self.rsize + 1]
        if self.nN > n1:
            diag[:, : self.nN - n1] -= ng[:, 0, n1:]
        if n1:
            diag[:, self.y] -= (ih @ self.A1sqT)[:, 0]
        if not self.nB:
            return K, _Factors(None, ng, ih, Mi)
        iD = np.divide(1.0, -r - ih @ self.A1sqTb)
        diag[:, : self.nx] -= (iD @ self.Bv2)[:, 0]
        return K, _Factors(None, ng, ih, Mi, iD)

    def _reduce(self, R: np.ndarray, f: _Factors):
        """The reduced right-hand sides of R (..., size), and the terms that
        `_recover` needs: v, (rx - g rz)/h of the one-row columns then ry/D
        of the bound rows, and the pairs' [rx_c, ry_i] (None without pairs);
        the terms of f broadcast against R's rows. Rr is a fresh C-ordered
        array, which LAPACK solves in place."""
        Rr = R.take(self.kidx, axis=-1) if self.nP or self.nB else R[..., self.red].copy()
        n1, z = self.n1, self.zN.start
        if self.nN > n1:
            # rx - g rz of the other Nonneg columns
            Rr[..., : self.nN - n1] += f.ng[..., n1:] * R[..., z + n1 : self.zN.stop]
        RP = None
        if self.nP:
            RP = R.take(self.pidx, axis=-1)
            Rr -= RP @ f.Mi @ self.C
        if not n1:
            return Rr, R[..., :0], RP
        v = f.ng[..., :n1] * R[..., z : z + n1]
        v += R[..., :n1]
        v *= f.ih
        Rr[..., self.y] -= v @ self.A1T
        if not self.nB:
            return Rr, v, RP
        wy = R.take(self.yb, axis=-1)
        wy -= v @ self.A1Tb
        wy *= f.iD
        Rr[..., : self.nx] -= wy @ self.Bv
        return Rr, np.concatenate((v, wy), axis=-1), RP

    def _recover(self, R: np.ndarray, U: np.ndarray, Rr: np.ndarray, f: _Factors,
                 v: np.ndarray, RP: np.ndarray | None) -> None:
        """Write the reduced solution Rr, dx and dy of the pairs, dy of the
        bound rows, dx of the one-row columns and dz of the Nonneg slacks
        into U (..., size), given the terms v and RP of `_reduce`."""
        U[..., self.kidx] = Rr
        if self.nP:
            U[..., self.pidx] = (RP - Rr @ self.C.T) @ f.Mi
        if not self.nN:
            return
        n1 = self.n1
        if self.nB:
            dy = Rr[..., : self.nx] @ self.Bv.T
            dy *= f.iD
            U[..., self.yb] = v[..., n1:] - dy
            v = v[..., :n1]
        if n1:
            w = U[..., self.ys] @ self.A1
            w *= f.ih
            np.subtract(v, w, out=U[..., :n1])
        dz = np.add(R[..., self.zN], U[..., : self.nN], out=U[..., self.zN])
        dz *= f.ng

    def factor_solve(self, w2: np.ndarray, R: np.ndarray, U: np.ndarray) -> _Factors:
        """Factor each row's matrix, given its W^2 entries w2[i] (in the order
        of `_Scaling.sq_entries`; extra trailing entries are ignored), and
        solve it for the right-hand sides R[i] (k, size) into U[i, :, :size].
        A row whose factorization is singular or whose first solution is not
        finite is refactored with the regularization, and the eliminated
        terms with it, bumped by 1e2, 1e4 and 1e6 in turn. A row with
        non-finite W^2 or no rescuing bump gets no factor and NaN solutions."""
        nL = len(self.flat)
        w2 = w2[:, : nL + self.nN]
        wL, wN = w2[:, :nL], w2[:, nL:]
        B = len(w2)
        if len(self._K) < B:
            self._K = np.empty((B, self.rsize, self.rsize))
        K, f = self._assemble(wL, wN, _BUMPS[0], self._K[:B])
        Rr, v, RP = self._reduce(R, f)
        finite = _all_finite(w2)
        f.lu = [self._factor(Ki, Ri, Ri) if ok else None for ok, Ki, Ri in zip(finite, K, Rr)]
        if not (finite.all() and np.isfinite(Rr[:, 0]).all()):
            Rr[~finite] = np.nan
            for i in np.flatnonzero(finite & ~_all_finite(Rr[:, 0])):
                f.lu[i] = None
                row = slice(i, i + 1)
                for bump in _BUMPS[1:]:
                    _, g = self._assemble(wL[row], wN[row], bump, K[row])
                    f.put(row, g)
                    Rr[row], v[row], _ = self._reduce(R[row], g)
                    lu = self._factor(K[i], Rr[i], Rr[i])
                    if lu is not None and np.isfinite(Rr[i, 0]).all():
                        f.lu[i] = lu
                        break
        self._recover(R, U, Rr, f, v, RP)
        return f

    @staticmethod
    def _factor(Ki: np.ndarray, Ri: np.ndarray, Ui: np.ndarray):
        """Factor Ki in place and solve it for the rows of Ri into Ui, in one
        LAPACK gesv call. A C-ordered Ri is solved in place, so Ui may be Ri
        itself and is then not copied."""
        lu, piv, x, info = lapack.dgesv(Ki.T, Ri.T, overwrite_a=True, overwrite_b=True)
        if info != 0:
            Ui[...] = np.nan
            return None
        if not (Ui is Ri and Ri.flags.c_contiguous):
            Ui[...] = x.T
        return lu, piv

    def solve(self, factors: _Factors, R: np.ndarray, U: np.ndarray) -> None:
        """Solve each factored row for R[i] into U[i, :size]; NaN where there
        is no factor."""
        R, U = R[:, None], U[:, None]  # stacks of one row keep each product per row
        Rr, v, RP = self._reduce(R, factors)
        for f, Ri in zip(factors.lu, Rr):
            if f is None:
                Ri[...] = np.nan
            else:
                lapack.dgetrs(f[0], f[1], Ri[0], overwrite_b=True)
        self._recover(R, U, Rr, factors, v, RP)


@dataclass
class _Iterates:
    """The rows of a batch still iterating: their index in the batch, their
    data ([c, bh], feas_tol*(1 + |c|) and feas_tol*(1 + |bh|)), the
    embedding's iterates xz = [x, yh, z, tau], laid out like the KKT
    unknowns followed by tau, and sk = [s, kappa], and the predictor's two
    KKT systems: the right-hand sides R, the first [-c, bh, 0] and the
    second rewritten in each step, and their solutions U, each with tau's
    column (1 and 0) after the unknowns."""

    ids: np.ndarray
    cb: np.ndarray
    ftol_c: np.ndarray
    ftol_b: np.ndarray
    xz: np.ndarray
    sk: np.ndarray
    R: np.ndarray
    U: np.ndarray

    def take(self, keep: np.ndarray) -> "_Iterates":
        return _Iterates(*(getattr(self, f.name)[keep] for f in fields(self)))


def solve(p: ConicProgram, opts: SolverOptions | None = None) -> Solution:
    return solve_batch(p, p.b[None, :], opts)[0]


def solve_batch(p: ConicProgram, rhs, opts: SolverOptions | None = None,
                c=None) -> list[Solution]:
    """Solve min <c,x> : Ax = b, x in K for every row b of rhs, with A and K
    taken from p (p.b is not used), and c the matching row of the (B, n)
    stack `c`, or p.c for every row when it is None. The problems run in
    lockstep and each row ends on its own iteration; the i-th Solution is
    what `solve` returns for the program with b = rhs[i] and c = c[i]."""
    opts = opts or SolverOptions()
    m = p.A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2 or rhs.shape[1] != m:
        raise ValueError(f"rhs must have shape (B, {m}), got {rhs.shape}")
    B, n = rhs.shape[0], p.cone.dim
    costs = np.ascontiguousarray(np.repeat(p.c[None], B, axis=0) if c is None else c,
                                 dtype=float)
    if costs.shape != (B, n):
        raise ValueError(f"c must have shape ({B}, {n}), got {costs.shape}")
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(costs))):
        raise ValueError("program data must be finite")
    if not B:
        return []
    emb = _Embedding(p)
    work, mh = emb.work, emb.mh
    nm = n + mh
    Ah, AhT = emb.Ahat, emb.AhatT
    # the slacks s = x[cidx]: the first nN columns once the Lorentz slacks
    # are gone
    cidx = emb.cidx if work.groups else slice(0, emb.nN)
    ftol, gtol = opts.feas_tol, opts.gap_tol
    ftol_A = ftol * (1.0 + emb.amax)
    kkt = _KKT(emb)

    e = work.identity()
    cb = np.zeros((B, nm))
    cb[:, :n] = costs[:, emb.perm]
    cb[:, n : n + m] = rhs
    R = np.zeros((B, 2, kkt.size))
    R[:, 0, :nm] = cb
    R[:, 0, :n] *= -1.0
    U = np.zeros((B, 2, kkt.size + 1))
    U[:, 0, -1] = 1.0
    xz = np.zeros((B, kkt.size + 1))
    xz[:, nm:] = e
    it = _Iterates(np.arange(B), cb, ftol * (1.0 + _inf_norms(costs)),
                   ftol * (1.0 + _inf_norms(rhs)), xz, np.tile(e, (B, 1)), R, U)
    out: list[Solution | None] = [None] * B
    verify = _Verifier(p, opts)

    def screen(it: _Iterates):
        """The termination code of every row (0 go on, 1 optimal, 2 primal
        infeasible, 3 dual infeasible), and its residuals: [hres_x, hres_y,
        hres_z] as one KKT right-hand side, and hres_kappa."""
        x, yh, z, tau = it.xz[:, :n], it.xz[:, n:nm], it.xz[:, nm:-1], it.xz[:, -1]
        s = it.sk[:, :-1]
        c, bh = it.cb[:, :n], it.cb[:, n:]
        res = np.empty((len(tau), kkt.size))
        # A'y + G'z, where the slacks are s = -G x = x[cidx]
        r_d = np.matvec(AhT, yh, out=res[:, :n])
        r_d[:, cidx] -= z
        Ax = np.matvec(Ah, x, out=res[:, n:nm])
        np.subtract(s, x[:, cidx], out=res[:, nm:])
        cx, by = np.vecdot(x, c), np.vecdot(bh, yh)
        code = np.zeros(len(tau), dtype=int)
        # primal infeasibility: -b'y > 0 with A'y + G'z ~ 0
        if (by < -ftol).any():
            dp = -by
            code[(dp > ftol) & (_inf_norms(r_d) <= ftol_A * (dp + _inf_norms(yh)))] = 2
        # dual infeasibility: -c'x > 0 with Ax ~ 0, x in K
        if (cx < -ftol).any():
            dd = -cx
            scale_x = dd + _inf_norms(x)
            code[(code == 0) & (dd > ftol) & (_inf_norms(Ax) <= ftol_A * scale_x)
                 & (_inf_norms(res[:, nm:]) <= ftol * scale_x)] = 3
        res[:, :nm] -= it.R[:, 0, :nm] * tau[:, None]  # [-c, bh]
        # optimality, which takes precedence; each test only while a row passes
        opt = (tau > 1e-12) & (_inf_norms(res[:, :n]) <= it.ftol_c * tau)
        if opt.any():
            opt &= _inf_norms(res[:, n:]) <= it.ftol_b * tau
        if opt.any():
            opt &= np.vecdot(s, z) <= gtol * tau * (tau + np.abs(cx) + np.abs(by))
            code[opt] = 1
        return code, (res, it.sk[:, -1] + cx + by)

    def ray(it: _Iterates, r: int, code: int, iters: int) -> Solution:
        """The Farkas ray of row r of `it`, screened with code 2 (y scaled to
        b.y = 1) or 3 (x scaled to c.x = -1)."""
        i = it.ids[r]
        if code == 2:
            y = it.xz[r, n : n + m]
            return Solution(SolveStatus.PRIMAL_INFEASIBLE, certificate=y / (rhs[i] @ y),
                            iterations=iters)
        x = it.xz[r, emb.pos]
        return Solution(SolveStatus.DUAL_INFEASIBLE, certificate=x / -(costs[i] @ x),
                        iterations=iters)

    def finish(it: _Iterates, code: np.ndarray, iters: int) -> None:
        """Record the Solution of every row of `it` that the screen has not
        recorded as a verified ray (code 2 or 3): its iterate scaled back to
        the program, x/tau, y = -yh/tau and s = c - A'y, Optimal by code 1
        once the verifier accepts it and NUMERICAL_LIMIT otherwise, or
        NUMERICAL_LIMIT with no iterate when tau has vanished."""
        tau = it.xz[:, -1]
        scaled = (code <= 1) & (tau > 1e-12)
        for i in it.ids[(code <= 1) & ~scaled]:
            out[i] = Solution(SolveStatus.NUMERICAL_LIMIT, iterations=iters)
        if not scaled.any():
            return
        ids, xz, t = it.ids[scaled], it.xz[scaled], tau[scaled, None]
        X, Y = xz[:, emb.pos] / t, xz[:, n : n + m] / -t
        C = costs[ids]
        S = C - np.matvec(p.A.T, Y)
        for i, x, y, s in zip(ids, X, Y, S):
            x = x.copy()
            out[i] = Solution(SolveStatus.NUMERICAL_LIMIT, x=x, y=y.copy(), s=s.copy(),
                              objective=float(costs[i] @ x), iterations=iters)
        opt = np.flatnonzero(code[scaled] == 1)
        if opt.size:
            objective = np.array([out[i].objective for i in ids[opt]])
            ok = verify.optimal_stack(rhs[ids[opt]], C[opt], X[opt], Y[opt], S[opt], objective)
            for i in ids[opt[ok]]:
                out[i].status = SolveStatus.OPTIMAL

    # A row broke down when its Newton step failed (it then takes no step)
    # or its step left non-finite entries; it ends at the next top on the
    # iterate it has.
    broke = np.zeros(B, dtype=bool)
    with np.errstate(all="ignore"):  # a row that breaks down carries inf/nan to the next top
        for iters in range(1, opts.max_iters + 2):
            code, res = screen(it)
            done = broke
            if code.any():
                for r in np.flatnonzero(code > 1):  # a ray ends its row only once it verifies
                    i, sol = it.ids[r], ray(it, r, code[r], iters - 1)
                    if verify.ray(rhs[i], costs[i], sol):
                        out[i] = sol
                    else:
                        code[r] = 0
                done = (code != 0) | broke
            if iters > opts.max_iters:
                done = np.ones_like(broke)
            if done.any():
                finish(it.take(done), code[done], iters - 1)
                if done.all():
                    break
                it = it.take(~done)
                res = tuple(r[~done] for r in res)
            dxz, dsk, alpha, broke = _newton_step(it, res, work, kkt, e, nm)
            alpha = alpha[:, None]
            if broke.any():
                np.add(it.xz, alpha * dxz, out=it.xz, where=~broke[:, None])
                np.add(it.sk, alpha * dsk, out=it.sk, where=~broke[:, None])
            else:
                it.xz += alpha * dxz
                it.sk += alpha * dsk
            broke |= ~(_all_finite(it.xz[:, :n]) & np.isfinite(it.xz[:, -1])
                       & np.isfinite(it.sk[:, -1]))
    return out


def _newton_step(it: _Iterates, res: tuple, work: _EmbeddingCone, kkt: _KKT,
                 e: np.ndarray, nm: int):
    """One Mehrotra predictor-corrector step for every row, on the embedding
    cone with (kappa, tau) as its last pair: the directions [dx, dy, dz,
    dtau] and [ds, dkappa], the step lengths and the rows that broke down."""
    sk, zt, cb = it.sk, it.xz[:, nm:], it.cb
    tau, kappa = zt[:, -1], sk[:, -1]
    hres, hres_k = res
    B, size = len(tau), kkt.size
    mu = np.vecdot(sk, zt) / work.degree
    W = _Scaling(work, sk, zt)
    lam = W.inv(sk)  # = W z
    # The Newton system's last block is lam o (W^-1 ds + W dz) = ds_rhs, and
    # ds = t - W^2 dz with t = W jsolve(lam, ds_rhs). The predictor's
    # ds_rhs = -lam o lam gives t_a = -W lam.
    t_a = -W.mul(lam)
    both = np.concatenate([sk, zt])

    def direction(eta, t, u2):
        # dtau from the tau row of the embedding, where t[:, -1] = dk_rhs / tau
        dtau = (-eta * hres_k - t[:, -1] - np.vecdot(u2[:, :nm], cb)) / denom
        du = u2 + dtau[:, None] * u1
        return du, t - W.sq(du[:, nm:])

    step_max = work.stepper(both)

    def step_len(du, ds):
        d = np.concatenate([ds, du[:, nm:]])
        return np.minimum.reduce(step_max(d).reshape(2, B), axis=0), d

    # predictor, solved together with the first system [-c, bh, 0]; the
    # solutions carry tau's column: 1 in u1 = d[x, y, z]/dtau, 0 in u2
    R, U = it.R, it.U
    np.negative(hres, out=R[:, 1])
    R[:, 1, nm:] -= t_a[:, :-1]
    factors = kkt.factor_solve(W.sq_entries(), R, U)
    u1 = U[:, 0]
    denom = np.vecdot(u1[:, :nm], cb) - kappa / tau
    du_a, ds_a = direction(1.0, t_a, U[:, 1])
    alpha_a, d_a = step_len(du_a, ds_a)
    alpha_a = np.minimum(alpha_a, 1.0)
    aff = both + np.concatenate([alpha_a, alpha_a])[:, None] * d_a
    mu_aff = np.vecdot(aff[:B], aff[B:]) / work.degree
    sigma = np.minimum(np.maximum((mu_aff / mu) ** 3, 0.0), 1.0)

    # corrector: ds_rhs = sigma mu e - lam o lam - (W^-1 ds_a) o (W dz_a), where
    # W^-1 ds_a = -lam - W dz_a; jsolve is linear, so the -lam o lam part of
    # t_c is t_a
    wdz = W.mul(du_a[:, nm:])
    ds_rhs = (sigma * mu)[:, None] * e + work.jprod(lam + wdz, wdz)
    t_c = W.mul(work.jsolve(lam, ds_rhs)) + t_a
    eta = 1.0 - sigma
    rhs3 = -eta[:, None] * hres
    rhs3[:, nm:] -= t_c[:, :-1]
    u2 = np.zeros((B, size + 1))
    kkt.solve(factors, rhs3, u2)
    du, ds = direction(eta, t_c, u2)
    alpha = np.minimum(0.99 * step_len(du, ds)[0], 1.0)
    ok = (_all_finite(U[:, 1]) & _all_finite(u2) & (np.abs(denom) >= 1e-300)
          & (alpha >= 1e-10))  # false for nan
    return du, ds, alpha, ~ok


class _Verifier:
    """Independent checks, on the original program (c, A, K) of a row (b, c),
    of the status the row ends with, at loose = 100*max(feas_tol, gap_tol)
    scaled by the data. An optimum must meet its KKT conditions; the
    candidate optima of a batch are checked as one stack, and a screened
    ray on its own. A primal infeasibility ray y, normalized
    to b.y = 1, needs -A'y in K* within loose*|A|/|b|; a dual infeasibility
    ray x, normalized to c.x = -1, needs |Ax| <= loose*|A|/|c| and x in K
    within loose/|c|. Rays are homogeneous, so these bounds scale with the
    data: multiplying b or c by s leaves each check unchanged."""

    def __init__(self, p: ConicProgram, opts: SolverOptions):
        self.A = p.A
        self.loose = 100.0 * max(opts.feas_tol, opts.gap_tol)
        self.scale_A = 1.0 + np.abs(p.A).max(initial=0.0)
        self.cone, self.dual_cone = p.cone, p.cone.dual()

    def residual_stack(self, b, c, x, y, s) -> dict:
        """The residuals of k candidate optima, given as (k, .) stacks of
        their data b, c and iterates x, y, s: one (k,) array each."""
        return {
            "primal_residual": _inf_norms(np.matvec(self.A, x) - b),
            "dual_residual": _inf_norms(np.matvec(self.A.T, y) + s - c),
            "gap": np.abs(np.vecdot(c, x) - np.vecdot(b, y)),
            "cone_violation": _violation(self.cone, x),
            "dual_cone_violation": _violation(self.dual_cone, s),
        }

    def optimal_stack(self, b, c, x, y, s, objective) -> np.ndarray:
        """Whether each of k candidate optima (as in `residual_stack`, with
        their (k,) objectives) meets its KKT conditions."""
        rec, loose = self.residual_stack(b, c, x, y, s), self.loose
        scale, scale_c = 1.0 + _inf_norms(b), 1.0 + _inf_norms(c)
        return (
            (rec["primal_residual"] <= loose * scale)
            & (rec["dual_residual"] <= loose * scale_c)
            & (rec["cone_violation"] <= loose * scale)
            & (rec["dual_cone_violation"] <= loose * scale_c)
            & (rec["gap"] <= loose * (1.0 + np.abs(objective)))
        )

    def ray(self, b: np.ndarray, c: np.ndarray, sol: Solution) -> bool:
        """The ray, normalized to b.y = 1 or c.x = -1, checked at tolerances
        that do not grow with the ray, so that a huge ray with a small
        relative residual does not pass. b.y > 0 makes b nonzero, and
        c.x < 0 makes c nonzero."""
        A, r, tol_A = self.A, sol.certificate, self.loose * self.scale_A
        if sol.status is SolveStatus.PRIMAL_INFEASIBLE:
            by = float(b @ r)
            return bool(by > 0.0 and _violation(self.dual_cone, -(A.T @ r) / by)
                        * np.abs(b).max() <= tol_A)
        cx = float(c @ r)
        if not cx < 0.0:
            return False
        x, size_c = r / -cx, np.abs(c).max()
        return bool(np.abs(A @ x).max(initial=0.0) * size_c <= tol_A
                    and _violation(self.cone, x) * size_c <= self.loose)


def _violation(cone: ConeProduct, v: np.ndarray):
    """How far v, or each row of a (k, dim) stack, lies outside the cone: 0
    inside, -margin outside, and nan for a vector with a nan (max(0.0, nan)
    would return 0.0)."""
    margin = cone.interior_margin(v)
    return np.where(margin >= 0.0, 0.0, -margin)
