"""Split disjunctions and multiplier-based cut generation.

Branches are plain (A, K, b) triples sharing a common prefix of variables;
`generate_cut` searches the multiplier description of the valid inequalities
for one that separates a given point. `multiplier_program` is that
description, for the cut program and for the exact minimality program of
`analysis.decide_minimal_exact`, and `_verify_cut` checks both by their
multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import BlockKind, ConeBlock, ConeProduct, nonneg
from .linalg import as_matrix
from .model import DisjunctiveSet, Inequality
from .solver import ConicProgram, SolveStatus, SolverOptions, solve


@dataclass(frozen=True)
class Branch:
    A: np.ndarray
    K: ConeProduct
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        if self.A.shape[0] != self.b.size:
            raise ValueError("rhs length does not match the row count")
        if self.A.shape[1] != self.K.dim:
            raise ValueError("cone dimension does not match the column count")


@dataclass(frozen=True)
class SplitDisjunction:
    """Base relaxation {x in K : Atilde x = b} split along d.x <= r0 or
    d.x >= r0 + 1."""

    Atilde: np.ndarray
    b: np.ndarray
    K: ConeProduct
    d: np.ndarray
    r0: int

    def __post_init__(self):
        A = np.asarray(self.Atilde, dtype=float)
        if A.ndim != 2:
            A = np.atleast_2d(A)
        object.__setattr__(self, "Atilde", A)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float).ravel())
        if A.shape[0] != self.b.size:
            raise ValueError("rhs length does not match the row count")
        if A.shape[1] != self.K.dim or self.d.size != self.K.dim:
            raise ValueError("dimension mismatch between base and split direction")
        if not np.any(self.d):
            raise ValueError("split direction d must be nonzero")


def build_split_set(sd: SplitDisjunction) -> list[Branch]:
    """Two branches over (x, s) with one Nonneg slack s each:
    d.x + s = r0  and  d.x - s = r0 + 1."""
    m, n = sd.Atilde.shape
    out = []
    for sign, rhs in ((1.0, float(sd.r0)), (-1.0, float(sd.r0) + 1.0)):
        A = np.zeros((m + 1, n + 1))
        A[:m, :n] = sd.Atilde
        A[m, :n] = sd.d
        A[m, n] = sign
        b = np.concatenate([sd.b, [rhs]])
        K = ConeProduct(list(sd.K.blocks) + [nonneg(1)])
        out.append(Branch(A, K, b))
    return out


def branches_from_set(dset: DisjunctiveSet) -> list[Branch]:
    """One equality branch per expanded right-hand side."""
    return [Branch(dset.A, dset.K, b) for b in dset.B.expand()]


@dataclass
class CutResult:
    found: bool
    inequality: Inequality | None = None
    violation: float | None = None
    verified: bool = False
    diagnostic: str = ""
    # validity certificate: the cut program's lambda_k per branch, checked by
    # _verify_cut; None for an infeasible branch, which a feasibility solve
    # found empty after the cut program's dual gave no point of it
    multipliers: list | None = None


def generate_cut(
    branches: list[Branch],
    xhat,
    tol: float = 1e-6,
    solver: SolverOptions | None = None,
) -> CutResult:
    """Search for (mu; eta0) valid on every feasible branch (in the shared
    variables, the first len(xhat) of every branch) with
    <mu, xhat> < eta0 - tol, normalized by the box |mu_i| <= 1, |eta0| <= 1.

    The cut program is solved once over every branch, and the nonemptiness
    of each branch is read from its dual (`_nonempty_by_dual`). Only a
    branch that the dual does not prove nonempty gets a c = 0 feasibility
    solve. When one of those is infeasible, the program is solved again over
    the feasible branches, so every cut comes from the program over exactly
    the feasible branches, up to the tolerance of the dual's point check.
    A set of n branches takes 1 solve when the dual proves every branch, and
    at most n + 2 (the first solve, n feasibility solves, the re-solve) when
    it proves none and some branch is empty; the solve over every branch is
    then spent for nothing."""
    solver = solver or SolverOptions()
    xhat = np.asarray(xhat, dtype=float).ravel()
    if xhat.size > min(br.K.dim for br in branches):
        raise ValueError(f"xhat must have the shared-variable length (got {xhat.size})")

    prog, lam_at = _cut_program(branches, xhat)
    sol = solve(prog, solver)
    is_feasible = []
    for br, ok in zip(branches, _nonempty_by_dual(branches, sol, solver)):
        if not ok:
            pre = solve(ConicProgram(np.zeros(br.K.dim), br.A, br.b, br.K), solver)
            if pre.status not in (SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE):
                return CutResult(False, diagnostic=f"branch feasibility {pre.status.value}")
            ok = pre.status is SolveStatus.OPTIMAL
        is_feasible.append(ok)
    feasible = [br for br, ok in zip(branches, is_feasible) if ok]
    if not feasible:
        raise ValueError("every branch of the disjunction is infeasible")
    if len(feasible) < len(branches):
        prog, lam_at = _cut_program(feasible, xhat)
        sol = solve(prog, solver)

    if sol.status is not SolveStatus.OPTIMAL:
        return CutResult(False, diagnostic=f"cut program {sol.status.value}")
    if sol.objective >= -tol:
        return CutResult(False, diagnostic="no violated inequality under this normalization")
    ns = xhat.size
    mu = sol.x[:ns]
    eta0 = float(sol.x[ns])
    violation = eta0 - float(mu @ xhat)
    lams = iter(sol.x[at] for at in lam_at)
    multipliers = [next(lams) if ok else None for ok in is_feasible]
    verified = _verify_cut(branches, multipliers, mu, eta0, tol, solver)
    return CutResult(True, Inequality(mu, eta0, "cut"), violation, verified,
                     multipliers=multipliers)


def _cut_program(branches, xhat):
    """The cut program over `branches`: head (mu, eta0) free, rho = mu,
    rho0 = eta0, cost <mu, xhat> - eta0, in the box |mu_i| <= 1,
    |eta0| <= 1. Returns the program and the slice of each lambda_k."""
    ns = xhat.size
    head = [ConeBlock(BlockKind.FREE, ns), ConeBlock(BlockKind.FREE, 1)]
    j = np.arange(ns + 1)
    box = np.zeros((2 * ns + 2, ns + 1))
    box[2 * j, j], box[2 * j + 1, j] = 1.0, -1.0
    return multiplier_program(
        branches, head, np.concatenate([xhat, [-1.0]]),
        (np.zeros(ns), np.eye(ns, ns + 1)), (0.0, np.eye(ns + 1)[ns]),
        (box, np.ones(2 * ns + 2)))


def _nonempty_by_dual(branches, sol, solver) -> list[bool]:
    """Which branches the cut program's dual proves nonempty. Dual
    feasibility on branch k's columns (lambda_k, gamma_k, w_k) reads
    A_k y_k + theta_k b_k = 0, -y_k in K_k and theta_k >= 0, where y_k is
    the dual of the branch's K_k.dim rows and theta_k that of its rho0 row.
    So for theta_k > 0, x_k = -y_k / theta_k is a point of the branch; it
    counts when it passes A_k x = b_k and x in K_k within
    100 * feas_tol * (1 + |b_k|_inf), scaled by the data as `_verify_cut`
    scales its check. A tolerance that grew with |x_k| would pass the far
    points of a tiny theta_k that approach an empty branch, such as
    x2 + x3 = -1 in L3 (ex4_2). An empty branch with a point within this
    tolerance of it still counts as nonempty: it stays in the program, and
    the cut is valid but may be weaker than over the feasible branches."""
    if sol.status is not SolveStatus.OPTIMAL:
        return [False] * len(branches)
    out, i = [], 0
    for br in branches:
        nk = br.K.dim
        y, theta = sol.y[i : i + nk], float(sol.y[i + nk])
        i += nk + 1
        if not theta > 0.0:
            out.append(False)
            continue
        x = -y / theta
        t = 100.0 * solver.feas_tol * (1.0 + float(np.abs(br.b).max(initial=0.0)))
        out.append(float(np.abs(br.A @ x - br.b).max(initial=0.0)) <= t
                   and br.K.contains(x, t))
    return out


def multiplier_program(branches, head, c_head, rho, rho0, bound):
    """The conic program that makes (rho; rho0) valid on every branch, with
    rho = r + R h and rho0 = r0 + q.h affine in the head variables h (cone
    blocks `head`, cost c_head; rho = (r, R), rho0 = (r0, q)).

    Its variables are h, then per branch (lambda_k free, gamma_k in K_k*,
    w_k >= 0), then, unless bound is None, the slacks s >= 0 of
    T h + s = t for bound = (T, t).
    Per branch, its K_k.dim rows say that A_k^T lambda_k + gamma_k agrees
    with rho on the shared prefix and vanishes on the branch-local
    variables, and one more row says b_k . lambda_k - w_k = rho0; with
    weak duality these give <rho, x> >= rho0 on the branch, as `_verify_cut`
    checks. Returns the program and the slice of each branch's lambda_k."""
    (r, R), (r0, q) = rho, rho0
    ns, nh = R.shape
    blocks, lam_at, off = list(head), [], nh
    for br in branches:
        mk, nk = br.A.shape
        lam_at.append(slice(off, off + mk))
        blocks += [ConeBlock(BlockKind.FREE, mk), *br.K.dual().blocks, ConeBlock(BlockKind.NONNEG, 1)]
        off += mk + nk + 1
    nt = 0 if bound is None else bound[0].shape[0]
    rows = sum(br.K.dim + 1 for br in branches) + nt
    Amat = np.zeros((rows, off + nt))
    bvec = np.zeros(rows)
    i = 0
    for br, at in zip(branches, lam_at):
        o, (mk, nk) = at.start, br.A.shape
        Amat[i : i + nk, o : o + mk] = br.A.T
        Amat[i : i + nk, o + mk : o + mk + nk] = np.eye(nk)
        Amat[i : i + ns, :nh] -= R
        bvec[i : i + ns] = r
        i += nk
        Amat[i, o : o + mk] = br.b
        Amat[i, :nh] -= q
        Amat[i, o + mk + nk] = -1.0
        bvec[i] = r0
        i += 1
    if bound is not None:
        T, t = bound
        Amat[i:, :nh] = T
        Amat[i:, off:] = np.eye(nt)
        bvec[i:] = t
        blocks.append(ConeBlock(BlockKind.NONNEG, nt))
    c = np.zeros(off + nt)
    c[:nh] = c_head
    return ConicProgram(c, Amat, bvec, ConeProduct(blocks)), lam_at


def _verify_cut(branches, multipliers, mu, eta0, tol, solver) -> bool:
    """Validity of the cut <mu, x> >= eta0 on every branch with a multiplier,
    by weak duality and without a solve: gamma_k = (mu; 0) - A_k^T lambda_k
    in K_k* and b_k . lambda_k >= eta0 give <mu, x> = b_k . lambda_k +
    gamma_k . x >= eta0 for every x in K_k with A_k x = b_k."""
    cone_tol = 100.0 * solver.feas_tol * (1.0 + float(np.linalg.norm(mu, np.inf)))
    for br, lam in zip(branches, multipliers):
        if lam is None:
            continue
        gamma = -(br.A.T @ lam)
        gamma[: mu.size] += mu
        if not br.K.dual().contains(gamma, cone_tol):
            return False
        if float(br.b @ lam) < eta0 - 10 * tol:
            return False
    return True
