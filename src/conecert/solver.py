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
    contiguous slice that `blocks` reshapes to (B, nb, d)."""

    def __init__(self, soc_groups: list[tuple[int, int]], n_l: int):
        self.groups = []  # (offset, nb, d, J, diag(J)) with J = (1, -1, ..., -1)
        off = 0
        for d, nb in soc_groups:
            J = -np.ones(d)
            J[0] = 1.0
            self.groups.append((off, nb, d, J, np.diag(J)))
            off += nb * d
        self.lp = slice(off, off + n_l)
        self.dim = off + n_l
        self.edges = np.concatenate([np.arange(o, o + nb * d, d) for o, nb, d, *_ in self.groups]
                                    + [np.arange(off, self.dim)]).astype(int)
        self.degree = n_l + sum(nb for _, nb in soc_groups)

    def blocks(self, u: np.ndarray) -> list[np.ndarray]:
        """(B, nb, d) views of the Lorentz groups of a (B, dim) batch."""
        return [u[:, off : off + nb * d].reshape(-1, nb, d) for off, nb, d, *_ in self.groups]

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.lp] = 1.0
        for off, nb, d, *_ in self.groups:
            e[off : off + nb * d : d] = 1.0
        return e

    def step_max(self, u: np.ndarray, du: np.ndarray) -> np.ndarray:
        """sup {alpha >= 0 : u + alpha*du in cone} per row, for u strictly inside."""
        # where a Nonneg coordinate or a Lorentz radius reaches 0
        roots = [-u[:, self.edges] / du[:, self.edges]]
        for (_, _, _, J, _), U, D in zip(self.groups, self.blocks(u), self.blocks(du)):
            # The Lorentz form c0 + 2 b a + c2 a^2 of u + a du is positive at
            # a = 0; its least positive root, c0 / (sqrt(b^2 - c0 c2) - b),
            # is where the block leaves the cone.
            JD = D * J
            b = np.vecdot(U, JD)
            c0 = np.vecdot(U, U * J)
            roots.append(c0 / (np.sqrt(b * b - c0 * np.vecdot(D, JD)) - b))
        a = np.concatenate(roots, axis=1)
        return np.minimum.reduce(a, axis=1, where=a > 0, initial=np.inf)

    def jprod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = u * v
        for U, V, O in zip(self.blocks(u), self.blocks(v), self.blocks(out)):
            O[..., 0] = np.vecdot(U, V)
            O[..., 1:] = U[..., :1] * V[..., 1:] + V[..., :1] * U[..., 1:]
        return out

    def jsolve(self, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lam o q = d for q (lam strictly inside). Degenerate iterates
        may overflow here; callers check finiteness."""
        out = d / lam
        for (_, _, _, J, _), L, D, Q in zip(self.groups, self.blocks(lam), self.blocks(d),
                                         self.blocks(out)):
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
    2010). W^2 is also kept as dense blocks, which the KKT matrix needs."""

    def __init__(self, work: _EmbeddingCone, s: np.ndarray, z: np.ndarray):
        self.work = work
        self.w = np.sqrt(s[:, work.lp] / z[:, work.lp])
        self.w2 = self.w * self.w
        self.groups = []  # (eta, h, h*eta/h0, eta*J, dense W^2) per group, eta as (B, nb, 1)
        for (_, _, _, J, DJ), S, Z in zip(work.groups, work.blocks(s), work.blocks(z)):
            gs = np.sqrt(np.maximum(np.vecdot(S, S * J), 1e-300))[..., None]
            gz = np.sqrt(np.maximum(np.vecdot(Z, Z * J), 1e-300))[..., None]
            cos = np.vecdot(S, Z)[..., None] / (gs * gz)
            gamma = np.sqrt(np.maximum((1.0 + cos) / 2.0, 1e-150))
            wbar = (S / gs + Z * J / gz) / (2.0 * gamma)
            eta = np.sqrt(gs / gz)
            h = wbar.copy()
            h[..., 0] += 1.0
            w2 = (eta * eta)[..., None] * (2.0 * wbar[..., :, None] * wbar[..., None, :] - DJ)
            self.groups.append((eta, h, h * (eta / h[..., :1]), eta * J, w2))

    def mul(self, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[:, self.work.lp] = self.w * u[:, self.work.lp]
        for (_, h, g, etaJ, _), U, O in zip(self.groups, self.work.blocks(u),
                                            self.work.blocks(out)):
            np.multiply(g, np.vecdot(h, U)[..., None], out=O)
            O -= etaJ * U
        return out

    def inv(self, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[:, self.work.lp] = u[:, self.work.lp] / self.w
        blocks = zip(self.work.groups, self.groups, self.work.blocks(u), self.work.blocks(out))
        for (_, _, _, J, _), (eta, h, _, _, _), U, O in blocks:
            Jh = h * J
            O[...] = (Jh * (np.vecdot(Jh, U)[..., None] / h[..., :1]) - U * J) / eta
        return out

    def sq(self, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[:, self.work.lp] = self.w2 * u[:, self.work.lp]
        for g, U, O in zip(self.groups, self.work.blocks(u), self.work.blocks(out)):
            np.matvec(g[4], U, out=O)
        return out

    def sq_entries(self) -> np.ndarray:
        """The entries of the block-diagonal W^2 of each row: the dense blocks
        of the Lorentz groups, then the Nonneg diagonal."""
        B = len(self.w)
        return np.concatenate([g[4].reshape(B, -1) for g in self.groups] + [self.w2], axis=1)


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
    of the embedding: s carries kappa there and z tau."""

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
        nnz = (p.A != 0).sum(axis=0).tolist()  # the Zero rows miss Nonneg columns
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
        Zrows = np.zeros((len(zero_idx), n))
        Zrows[np.arange(len(zero_idx)), zero_idx] = 1.0
        self.Ahat = np.vstack([p.A, Zrows])[:, self.perm]
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

    The static part of the reduced matrix is built once per regularization
    r. Each iteration writes the Lorentz W^2 blocks and the eliminated
    diagonal terms of every row into a copy and factors each row once with
    LAPACK. The matrix is symmetric, so a C-ordered K[i] is handed to LAPACK
    as the Fortran-ordered K[i]' = K[i] and factored in place."""

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
        if nP or nB:
            # the unknowns of `red` that stay in the reduced matrix
            keep = np.ones(self.red.stop - n1, dtype=bool)
            keep[np.concatenate([pcol, n + prow, n + brow]) - n1] = False
            self.keep = np.flatnonzero(keep)
            self.A1T = self.A1T[:, keep[n - n1 : n - n1 + mh]]
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
            self.C[nP:, :nx] = emb.Ahat[prow][:, n1 + self.keep[:nx]]
        if nB:
            # the bound rows' y in the unknowns, their one-row coefficients
            # and their coefficient a on the reduced x
            self.yb = n + brow
            self.A1Tb = emb.AhatT[:n1, brow]
            self.A1sqTb = self.A1Tb * self.A1Tb
            self.Bv = emb.Ahat[brow][:, n1 + self.keep[:nx]]
            self.Bv2 = self.Bv * self.Bv
        self.A1sqT = self.A1T * self.A1T
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        for o, nb, d, *_ in emb.work.groups:
            idx = nx + ny + o + np.arange(nb * d).reshape(nb, d)
            rows.append(np.repeat(idx[:, :, None], d, axis=2).ravel())
            cols.append(np.repeat(idx[:, None, :], d, axis=1).ravel())
        self.rows, self.cols = np.concatenate(rows), np.concatenate(cols)
        self._static: dict[float, tuple] = {}

    @staticmethod
    def _pairs(emb: _Embedding):
        """The Lorentz columns paired with their rows, with those rows and
        the columns' slack slots: a one-row Lorentz column pairs when its row
        holds no one-row Nonneg column, and is the first such column of that
        row in slack order."""
        slots = np.array(emb.soc1)
        rows = (emb.Ahat[:, emb.cidx[slots]] != 0).argmax(axis=0)
        ok = ~(emb.Ahat[rows, : emb.n1] != 0).any(axis=1)
        first = np.full(emb.mh, slots[-1] + 1)
        np.minimum.at(first, rows[ok], slots[ok])
        rows = np.flatnonzero(first <= slots[-1])
        slots = first[rows]
        return emb.cidx[slots], rows, slots

    @staticmethod
    def _bound_rows(emb: _Embedding) -> np.ndarray:
        """The rows that hold a one-row Nonneg column and exactly one other
        nonzero, in a Free column."""
        nz = emb.Ahat != 0
        rows = np.flatnonzero(nz[:, : emb.n1].any(axis=1) & (nz[:, emb.n1 :].sum(axis=1) == 1))
        cols = nz[rows, emb.n1 :].argmax(axis=1) + emb.n1
        return rows[np.isin(cols, emb.pos[emb.free])]

    def static(self, bump: float) -> tuple:
        """The static reduced matrix at one bump, and the pairs' M^-1 (None
        without pairs)."""
        if bump not in self._static:
            emb = self.emb
            n1, mh = emb.n1, emb.mh
            nx, size = emb.n - n1, self.red.stop - n1
            rr = _STATIC_REG * bump
            T = np.zeros((size, size))
            T[:nx, nx : nx + mh] = emb.AhatT[n1:]
            T[nx : nx + mh, :nx] = emb.Ahat[:, n1:]
            slots = np.arange(nx + mh, size)
            T[emb.cidx[: slots.size] - n1, slots] = -1.0
            T[slots, emb.cidx[: slots.size] - n1] = -1.0
            T[np.diag_indices(size)] = np.concatenate([np.full(nx, rr), np.full(size - nx, -rr)])
            Mi = None
            if self.nP or self.nB:
                T = T[np.ix_(self.keep, self.keep)]
            if self.nP:
                # M^-1 = [[r, a], [a, -r]] / d per pair, and the reduced
                # matrix less C' (M^-1 C), whose only nonzero rows are at the
                # paired slacks (C's first nP rows are -1 there) and at the
                # reduced x (C's last nP rows)
                nP, nx = self.nP, self.nx
                d = rr * rr + self.a * self.a
                pr, pa = rr / d, self.a / d
                Mi = np.diag(np.concatenate([pr, -pr])) + np.diag(pa, nP) + np.diag(pa, -nP)
                MC = Mi @ self.C
                T[self.zP] += MC[:nP]
                T[:nx] -= self.C[nP:, :nx].T @ MC[nP:]
            self._static[bump] = T, Mi
        return self._static[bump]

    def _assemble(self, wL: np.ndarray, wN: np.ndarray, bump: float):
        """The reduced matrices of a batch at one bump, given the entries wL
        of its Lorentz W^2 blocks and the Nonneg diagonal wN of W^2, and the
        eliminated terms of its rows."""
        T, Mi = self.static(bump)
        B = len(wL)
        K = np.repeat(T[None], B, axis=0)
        if self.rows.size:
            K[:, self.rows, self.cols] -= wL
        if not self.nN:
            return K, _Factors(None, wN[:, None], wN[:, None], Mi)  # (B, 1, 0) each
        r = _STATIC_REG * bump
        n1 = self.n1
        ng = np.divide(-1.0, (wN + r)[:, None])
        ih = np.divide(1.0, r - ng[..., :n1])
        diag = K.reshape(B, -1)[:, :: self.rsize + 1]
        diag[:, : self.nN - n1] -= ng[:, 0, n1:]
        diag[:, self.y] -= (ih @ self.A1sqT)[:, 0]
        if not self.nB:
            return K, _Factors(None, ng, ih, Mi)
        iD = np.divide(1.0, -r - ih @ self.A1sqTb)
        diag[:, : self.nx] -= (iD @ self.Bv2)[:, 0]
        return K, _Factors(None, ng, ih, Mi, iD)

    def _reduce(self, R: np.ndarray, f: _Factors):
        """The reduced right-hand sides of R (..., size), and v: (rx - g rz)/h
        of the one-row columns, then ry/D of the bound rows; the terms of f
        broadcast against R's rows."""
        if not self.nN:
            return (self._pair_reduce(R, R, f) if self.nP else R.copy()), R[..., :0]
        rx = f.ng * R[..., self.zN]
        rx += R[..., : self.nN]
        v = rx[..., : self.n1] * f.ih
        Rr = np.concatenate((rx[..., self.n1 :], R[..., self.nN : self.red.stop]), axis=-1)
        if self.nP:
            Rr = self._pair_reduce(R, Rr, f)
        elif self.nB:
            Rr = np.take(Rr, self.keep, axis=-1)
        Rr[..., self.y] -= v @ self.A1T
        if not self.nB:
            return Rr, v
        wy = np.take(R, self.yb, axis=-1)
        wy -= v @ self.A1Tb
        wy *= f.iD
        Rr[..., : self.nx] -= wy @ self.Bv
        return Rr, np.concatenate((v, wy), axis=-1)

    def _pair_reduce(self, R: np.ndarray, Rr: np.ndarray, f: _Factors) -> np.ndarray:
        """Rr (..., red) on the reduced unknowns, less C' M^-1 [rx_c, ry_i] of
        the pairs."""
        Rr = np.take(Rr, self.keep, axis=-1)  # C-ordered rows, which LAPACK solves in place
        Rr -= np.take(R, self.pidx, axis=-1) @ f.Mi @ self.C
        return Rr

    def _recover(self, R: np.ndarray, U: np.ndarray, Rr: np.ndarray, f: _Factors,
                 v: np.ndarray) -> None:
        """Write the reduced solution Rr, dx and dy of the pairs, dy of the
        bound rows, dx of the one-row columns and dz of the Nonneg slacks
        into U (..., size)."""
        if self.nP or self.nB:
            U[..., self.red][..., self.keep] = Rr
        else:
            U[..., self.red] = Rr
        if self.nP:
            U[..., self.pidx] = (np.take(R, self.pidx, axis=-1) - Rr @ self.C.T) @ f.Mi
        if not self.nN:
            return
        if self.nB:
            dy = Rr[..., : self.nx] @ self.Bv.T
            dy *= f.iD
            U[..., self.yb] = v[..., self.n1 :] - dy
            v = v[..., : self.n1]
        w = U[..., self.ys] @ self.A1
        w *= f.ih
        np.subtract(v, w, out=U[..., : self.n1])
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
        B, nL = len(w2), len(self.rows)
        w2 = w2[:, : nL + self.nN]
        wL, wN = w2[:, :nL], w2[:, nL:]
        K, f = self._assemble(wL, wN, _BUMPS[0])
        Rr, v = self._reduce(R, f)
        finite = _all_finite(w2)
        f.lu = [self._factor(Ki, Ri, Ri) if ok else None for ok, Ki, Ri in zip(finite, K, Rr)]
        if not (finite.all() and np.isfinite(Rr[:, 0]).all()):
            Rr[~finite] = np.nan
            for i in np.flatnonzero(finite & ~_all_finite(Rr[:, 0])):
                f.lu[i] = None
                row = slice(i, i + 1)
                for bump in _BUMPS[1:]:
                    K[row], g = self._assemble(wL[row], wN[row], bump)
                    f.put(row, g)
                    Rr[row], v[row] = self._reduce(R[row], g)
                    lu = self._factor(K[i], Rr[i], Rr[i])
                    if lu is not None and np.isfinite(Rr[i, 0]).all():
                        f.lu[i] = lu
                        break
        self._recover(R, U, Rr, f, v)
        return f

    @staticmethod
    def _factor(Ki: np.ndarray, Ri: np.ndarray, Ui: np.ndarray):
        """Factor Ki in place and solve it for the rows of Ri into Ui, in one
        LAPACK gesv call. Ui may be Ri itself: LAPACK then overwrites Ri and
        the copy is skipped."""
        lu, piv, x, info = lapack.dgesv(Ki.T, Ri.T, overwrite_a=True, overwrite_b=True)
        if info != 0:
            Ui[...] = np.nan
            return None
        Ui[...] = x.T
        return lu, piv

    def solve(self, factors: _Factors, R: np.ndarray, U: np.ndarray) -> None:
        """Solve each factored row for R[i] into U[i, :size]; NaN where there
        is no factor."""
        R, U = R[:, None], U[:, None]  # stacks of one row keep each product per row
        Rr, v = self._reduce(R, factors)
        for f, Ri in zip(factors.lu, Rr):
            if f is None:
                Ri[...] = np.nan
            else:
                lapack.dgetrs(f[0], f[1], Ri[0], overwrite_b=True)
        self._recover(R, U, Rr, factors, v)


@dataclass
class _Iterates:
    """The rows of a batch still iterating: their index in the batch, their
    data ([c, bh], the first KKT right-hand side [-c, bh, 0],
    feas_tol*(1 + |c|) and feas_tol*(1 + |bh|)) and the embedding's iterates
    xz = [x, yh, z, tau], laid out like the KKT unknowns followed by tau,
    and sk = [s, kappa]."""

    ids: np.ndarray
    cb: np.ndarray
    rhs1: np.ndarray
    ftol_c: np.ndarray
    ftol_b: np.ndarray
    xz: np.ndarray
    sk: np.ndarray

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
    Ah, AhT, cidx = emb.Ahat, emb.AhatT, emb.cidx
    ftol, gtol = opts.feas_tol, opts.gap_tol
    ftol_A = ftol * (1.0 + np.abs(Ah).max(initial=0.0))
    kkt = _KKT(emb)

    e = work.identity()
    cb = np.zeros((B, nm))
    cb[:, :n] = costs[:, emb.perm]
    cb[:, n : n + m] = rhs
    rhs1 = np.zeros((B, kkt.size))
    rhs1[:, :nm] = cb
    rhs1[:, :n] *= -1.0
    xz = np.zeros((B, kkt.size + 1))
    xz[:, nm:] = e
    it = _Iterates(np.arange(B), cb, rhs1, ftol * (1.0 + _inf_norms(costs)),
                   ftol * (1.0 + _inf_norms(rhs)), xz, np.tile(e, (B, 1)))
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
        dp = -by
        if (dp > ftol).any():
            code[(dp > ftol) & (_inf_norms(r_d) <= ftol_A * (dp + _inf_norms(yh)))] = 2
        # dual infeasibility: -c'x > 0 with Ax ~ 0, x in K
        dd = -cx
        if (dd > ftol).any():
            scale_x = dd + _inf_norms(x)
            code[(code == 0) & (dd > ftol) & (_inf_norms(Ax) <= ftol_A * scale_x)
                 & (_inf_norms(res[:, nm:]) <= ftol * scale_x)] = 3
        res[:, :n] += c * tau[:, None]
        res[:, n:nm] -= bh * tau[:, None]
        # optimality, which takes precedence
        opt = (
            (tau > 1e-12)
            & (_inf_norms(res[:, :n]) <= it.ftol_c * tau)
            & (_inf_norms(res[:, n:]) <= it.ftol_b * tau)
            & (np.vecdot(s, z) <= gtol * tau * (tau + np.abs(cx) + np.abs(by)))
        )
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
            for r in np.flatnonzero(code > 1):  # a ray ends its row only once it verifies
                i, sol = it.ids[r], ray(it, r, code[r], iters - 1)
                if verify.ray(rhs[i], costs[i], sol):
                    out[i] = sol
                else:
                    code[r] = 0
            done = (code != 0) | broke | (iters > opts.max_iters)
            if done.any():
                finish(it.take(done), code[done], iters - 1)
                if done.all():
                    break
                it = it.take(~done)
                res = tuple(r[~done] for r in res)
            dxz, dsk, alpha, broke = _newton_step(it, res, work, kkt, e, nm)
            step = ~broke[:, None]
            np.add(it.xz, alpha[:, None] * dxz, out=it.xz, where=step)
            np.add(it.sk, alpha[:, None] * dsk, out=it.sk, where=step)
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

    def step_len(du, ds):
        d = np.concatenate([ds, du[:, nm:]])
        return np.minimum.reduce(work.step_max(both, d).reshape(2, B), axis=0), d

    # predictor, solved together with the first system [-c, bh, 0]; the
    # solutions carry tau's column: 1 in u1 = d[x, y, z]/dtau, 0 in u2
    R = np.empty((B, 2, size))
    R[:, 0] = it.rhs1
    np.negative(hres, out=R[:, 1])
    R[:, 1, nm:] -= t_a[:, :-1]
    U = np.zeros((B, 2, size + 1))
    U[:, 0, size] = 1.0
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
    candidate optima of a batch are checked as one stack, and the one-row
    entry points are stacks of one. A primal infeasibility ray y, normalized
    to b.y = 1, needs -A'y in K* within loose*|A|/|b|; a dual infeasibility
    ray x, normalized to c.x = -1, needs |Ax| <= loose*|A|/|c| and x in K
    within loose/|c|. Rays are homogeneous, so these bounds scale with the
    data: multiplying b or c by s leaves each check unchanged."""

    def __init__(self, p: ConicProgram, opts: SolverOptions):
        self.A = p.A
        self.loose = 100.0 * max(opts.feas_tol, opts.gap_tol)
        self.scale_A = 1.0 + np.abs(p.A).max(initial=0.0)
        self.cone, self.dual_cone = p.cone, p.cone.dual()

    def __call__(self, b: np.ndarray, c: np.ndarray, sol: Solution) -> Solution:
        """The solution, or NUMERICAL_LIMIT if it is an optimum that fails its
        check."""
        if sol.status is SolveStatus.OPTIMAL and not self.optimal(b, c, sol):
            return Solution(SolveStatus.NUMERICAL_LIMIT, x=sol.x, y=sol.y, s=sol.s,
                            objective=sol.objective, iterations=sol.iterations)
        return sol

    def residuals(self, b: np.ndarray, c: np.ndarray, sol: Solution) -> dict:
        rec = self.residual_stack(*_stack_of_one(b, c, sol))
        return {k: float(v[0]) for k, v in rec.items()}

    def optimal(self, b: np.ndarray, c: np.ndarray, sol: Solution) -> bool:
        return bool(self.optimal_stack(*_stack_of_one(b, c, sol), np.array([sol.objective]))[0])

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


def _stack_of_one(b, c, sol: Solution) -> list[np.ndarray]:
    """b, c and the iterates x, y, s of sol, each as a stack of one row."""
    if sol.x is None or sol.y is None or sol.s is None:
        raise ValueError("solution carries no iterates to check")
    return [np.asarray(v, dtype=float)[None] for v in (b, c, sol.x, sol.y, sol.s)]


def _violation(cone: ConeProduct, v: np.ndarray):
    """How far v, or each row of a (k, dim) stack, lies outside the cone: 0
    inside, -margin outside, and nan for a vector with a nan (max(0.0, nan)
    would return 0.0)."""
    margin = cone.interior_margin(v)
    return np.where(margin >= 0.0, 0.0, -margin)
