"""Primal-dual interior-point solver for standard-form conic programs.

Solves min <c,x> s.t. Ax = b, x in K, where K is a ConeProduct that may
contain Free and Zero blocks alongside Nonneg and Lorentz blocks. The
algorithm is a homogeneous self-dual embedding with Nesterov-Todd scaling
and a Mehrotra predictor-corrector step, so infeasibility and unboundedness
come out as Farkas-type certificates rather than failures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

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
    static_reg: float = 1e-10


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


class _EmbeddingCone:
    """Cone structure of the embedded slack variables: nonnegative scalars
    followed by Lorentz blocks stored radius-first."""

    def __init__(self, n_l: int, soc_dims: list[int]):
        self.n_l = n_l
        self.soc_dims = list(soc_dims)
        self.dim = n_l + sum(soc_dims)
        self.degree = n_l + len(soc_dims)
        self._soc_offsets = []
        off = n_l
        for d in soc_dims:
            self._soc_offsets.append((off, d))
            off += d

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[: self.n_l] = 1.0
        for off, _ in self._soc_offsets:
            e[off] = 1.0
        return e

    def inside(self, u: np.ndarray) -> bool:
        if self.n_l and np.min(u[: self.n_l]) <= 0:
            return False
        for off, d in self._soc_offsets:
            if u[off] <= np.linalg.norm(u[off + 1 : off + d]):
                return False
        return True

    def step_max(self, u: np.ndarray, du: np.ndarray) -> float:
        """sup {alpha >= 0 : u + alpha*du in cone}, for u strictly inside."""
        alpha = math.inf
        if self.n_l:
            neg = du[: self.n_l] < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-u[: self.n_l][neg] / du[: self.n_l][neg])))
        for off, d in self._soc_offsets:
            u0, ub = u[off], u[off + 1 : off + d]
            d0, db = du[off], du[off + 1 : off + d]
            c2 = d0 * d0 - db @ db
            c1 = 2.0 * (u0 * d0 - ub @ db)
            c0 = u0 * u0 - ub @ ub
            roots = []
            if abs(c2) > 1e-14:
                disc = c1 * c1 - 4.0 * c2 * c0
                if disc >= 0:
                    r = math.sqrt(disc)
                    roots.extend([(-c1 - r) / (2.0 * c2), (-c1 + r) / (2.0 * c2)])
            elif abs(c1) > 1e-14:
                roots.append(-c0 / c1)
            if d0 < 0:
                roots.append(-u0 / d0)
            pos = [r for r in roots if r > 0]
            if pos:
                alpha = min(alpha, min(pos))
        return alpha

    def jprod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.dim)
        out[: self.n_l] = u[: self.n_l] * v[: self.n_l]
        for off, d in self._soc_offsets:
            u0, ub = u[off], u[off + 1 : off + d]
            v0, vb = v[off], v[off + 1 : off + d]
            out[off] = u0 * v0 + ub @ vb
            out[off + 1 : off + d] = u0 * vb + v0 * ub
        return out

    def jsolve(self, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lam o q = d for q (lam strictly inside)."""
        out = np.empty(self.dim)
        # degenerate iterates may overflow here; callers check finiteness
        with np.errstate(all="ignore"):
            out[: self.n_l] = d[: self.n_l] / lam[: self.n_l]
            for off, dd in self._soc_offsets:
                l0, lb = lam[off], lam[off + 1 : off + dd]
                d0, db = d[off], d[off + 1 : off + dd]
                nu = l0 * l0 - lb @ lb
                q0 = (l0 * d0 - lb @ db) / nu
                out[off] = q0
                out[off + 1 : off + dd] = (db - q0 * lb) / l0
        return out

    def nt_scaling(self, s: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Dense symmetric scaling W with W z = W^{-1} s."""
        W = np.zeros((self.dim, self.dim))
        if self.n_l:
            idx = np.arange(self.n_l)
            W[idx, idx] = np.sqrt(s[: self.n_l] / z[: self.n_l])
        for off, d in self._soc_offsets:
            sb = s[off : off + d]
            zb = z[off : off + d]
            J = -np.eye(d)
            J[0, 0] = 1.0
            gs = math.sqrt(max(sb @ (J @ sb), 1e-300))
            gz = math.sqrt(max(zb @ (J @ zb), 1e-300))
            sn = sb / gs
            zn = zb / gz
            gamma = math.sqrt(max((1.0 + sn @ zn) / 2.0, 1e-150))
            wbar = (sn + J @ zn) / (2.0 * gamma)
            # Hyperbolic Householder square root: W_blk^2 = eta^2 (2 wbar wbar' - J)
            v = wbar.copy()
            v[0] += 1.0
            v /= math.sqrt(2.0 * (wbar[0] + 1.0))
            eta = math.sqrt(gs / gz)
            W[off : off + d, off : off + d] = eta * (2.0 * np.outer(v, v) - J)
        return W


class _Embedding:
    """Reduction of a ConicProgram to the homogeneous self-dual form."""

    def __init__(self, p: ConicProgram):
        n = p.cone.dim
        free_idx, zero_idx, lp_idx = [], [], []
        soc_blocks = []
        for blk, off in p.cone.offsets():
            idx = list(range(off, off + blk.dim))
            if blk.kind is BlockKind.FREE:
                free_idx.extend(idx)
            elif blk.kind is BlockKind.ZERO:
                zero_idx.extend(idx)
            elif blk.kind is BlockKind.NONNEG:
                lp_idx.extend(idx)
            else:
                # Lorentz: store radius coordinate first inside the solver.
                soc_blocks.append([idx[-1]] + idx[:-1])
        self.cidx = np.array(lp_idx + [i for blk in soc_blocks for i in blk], dtype=int)
        self.work = _EmbeddingCone(len(lp_idx), [len(b) for b in soc_blocks])
        m = p.A.shape[0]
        Zrows = np.zeros((len(zero_idx), n))
        for r, i in enumerate(zero_idx):
            Zrows[r, i] = 1.0
        self.Ahat = np.vstack([p.A, Zrows]) if len(zero_idx) else p.A.copy()
        self.bhat = np.concatenate([p.b, np.zeros(len(zero_idx))])
        self.m_orig = m
        self.n = n


def solve(p: ConicProgram, opts: SolverOptions | None = None) -> Solution:
    opts = opts or SolverOptions()
    emb = _Embedding(p)
    work = emb.work
    n, mh, pc = emb.n, emb.Ahat.shape[0], work.dim
    Ah, bh, cidx, c = emb.Ahat, emb.bhat, emb.cidx, p.c
    slots = np.arange(pc)
    ftol, gtol, reg = opts.feas_tol, opts.gap_tol, opts.static_reg

    e = work.identity()
    x = np.zeros(n)
    yh = np.zeros(mh)
    z = e.copy()
    s = e.copy()
    tau, kappa = 1.0, 1.0
    deg = work.degree + 1

    norm_b = 1.0 + np.linalg.norm(bh, np.inf) if mh else 1.0
    norm_c = 1.0 + (np.linalg.norm(c, np.inf) if n else 0.0)
    scale_A = 1.0 + (np.abs(Ah).max() if Ah.size else 0.0)

    # the slacks are s = -G x = x[cidx]; Gt(v) applies G^T without forming G
    def Gt(v: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        out[cidx] = -v
        return out

    def _optimal_solution(iters: int) -> Solution:
        xt = x / tau
        y = -yh[: emb.m_orig] / tau
        sdual = c - p.A.T @ y
        return Solution(
            status=SolveStatus.OPTIMAL,
            x=xt,
            y=y,
            s=sdual,
            objective=float(c @ xt),
            iterations=iters,
        )

    def _check_termination(iters: int) -> Solution | None:
        # optimality
        if tau > 1e-12:
            pres = np.linalg.norm(Ah @ x - bh * tau, np.inf) / tau if mh else 0.0
            link = np.linalg.norm(s - x[cidx], np.inf) / tau
            dres = np.linalg.norm(Ah.T @ yh + Gt(z) + c * tau, np.inf) / tau
            pobj = float(c @ x) / tau
            dobj = float(-bh @ yh) / tau
            gap = float(s @ z) / (tau * tau)
            if (
                pres <= ftol * norm_b
                and link <= ftol * norm_b
                and dres <= ftol * norm_c
                and gap <= gtol * (1.0 + abs(pobj) + abs(dobj))
            ):
                return _optimal_solution(iters)
        # primal infeasibility: -b'y > 0 with A*y + G*z ~ 0
        dp = float(-bh @ yh)
        if dp > ftol:
            yc = yh / dp
            zc = z / dp
            if np.linalg.norm(Ah.T @ yc + Gt(zc), np.inf) <= ftol * scale_A * (
                1.0 + np.linalg.norm(yc, np.inf)
            ):
                cert = -yc[: emb.m_orig]
                return Solution(
                    status=SolveStatus.PRIMAL_INFEASIBLE,
                    certificate=cert,
                    iterations=iters,
                )
        # dual infeasibility: -c'x > 0 with Ax ~ 0, x in K
        dd = float(-c @ x)
        if dd > ftol:
            xc = x / dd
            sc = s / dd
            scale_x = 1.0 + np.linalg.norm(xc, np.inf)
            if (
                (not mh or np.linalg.norm(Ah @ xc, np.inf) <= ftol * scale_A * scale_x)
                and np.linalg.norm(sc - xc[cidx], np.inf) <= ftol * scale_x
            ):
                ray = xc.copy()
                return Solution(
                    status=SolveStatus.DUAL_INFEASIBLE,
                    certificate=ray,
                    iterations=iters,
                )
        return None

    sol = None
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        sol = _check_termination(iters - 1)
        if sol is not None:
            break

        mu = (float(s @ z) + tau * kappa) / deg
        hres_x = Ah.T @ yh + Gt(z) + c * tau
        hres_y = Ah @ x - bh * tau
        hres_z = s - x[cidx]
        hres_k = kappa + float(c @ x) + float(bh @ yh)

        W = work.nt_scaling(s, z)
        lam = W @ z
        W2 = W @ W

        rhs1 = np.concatenate([-c, bh, np.zeros(pc)])
        lu = None
        # bump the static regularization if the factorization degenerates
        for bump in (1.0, 1e2, 1e4, 1e6):
            rr = reg * bump
            K3 = np.zeros((n + mh + pc, n + mh + pc))
            K3[:n, :n] = rr * np.eye(n)
            K3[:n, n : n + mh] = Ah.T
            K3[n : n + mh, :n] = Ah
            K3[n : n + mh, n : n + mh] = -rr * np.eye(mh)
            K3[cidx, n + mh + slots] = -1.0
            K3[n + mh + slots, cidx] = -1.0
            K3[n + mh :, n + mh :] = -(W2 + rr * np.eye(pc))
            if not np.all(np.isfinite(K3)):
                lu = None
                break
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    lu = scipy.linalg.lu_factor(K3)
                except (scipy.linalg.LinAlgError, ValueError):
                    lu = None
                    continue
            u1 = scipy.linalg.lu_solve(lu, rhs1)
            if np.all(np.isfinite(u1)):
                break
            lu = None
        if lu is None:
            break
        u1x, u1y, u1z = u1[:n], u1[n : n + mh], u1[n + mh :]

        def newton(eta: float, ds_rhs: np.ndarray, dk_rhs: float):
            rz = -eta * hres_z - W @ work.jsolve(lam, ds_rhs)
            rhs2 = np.concatenate([-eta * hres_x, -eta * hres_y, rz])
            if not np.all(np.isfinite(rhs2)):
                return None
            u2 = scipy.linalg.lu_solve(lu, rhs2)
            if not np.all(np.isfinite(u2)):
                return None
            u2x, u2y, u2z = u2[:n], u2[n : n + mh], u2[n + mh :]
            denom = float(c @ u1x) + float(bh @ u1y) - kappa / tau
            numer = -eta * hres_k - dk_rhs / tau - (float(c @ u2x) + float(bh @ u2y))
            if abs(denom) < 1e-300:
                return None
            dtau = numer / denom
            dx = u2x + dtau * u1x
            dy = u2y + dtau * u1y
            dz = u2z + dtau * u1z
            ds = W @ work.jsolve(lam, ds_rhs) - W2 @ dz
            dkappa = (dk_rhs - kappa * dtau) / tau
            return dx, dy, dz, dtau, ds, dkappa

        # predictor
        aff = newton(1.0, -work.jprod(lam, lam), -tau * kappa)
        if aff is None:
            break
        dx_a, dy_a, dz_a, dtau_a, ds_a, dk_a = aff
        alpha_a = min(
            work.step_max(s, ds_a),
            work.step_max(z, dz_a),
            (tau / -dtau_a) if dtau_a < 0 else math.inf,
            (kappa / -dk_a) if dk_a < 0 else math.inf,
            1.0,
        )
        mu_aff = (
            float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a))
            + (tau + alpha_a * dtau_a) * (kappa + alpha_a * dk_a)
        ) / deg
        sigma = min(max((mu_aff / mu) ** 3, 0.0), 1.0)

        # corrector
        try:
            corr = work.jprod(np.linalg.solve(W, ds_a), W @ dz_a)
        except np.linalg.LinAlgError:
            break
        ds_rhs = sigma * mu * e - work.jprod(lam, lam) - corr
        dk_rhs = sigma * mu - tau * kappa - dtau_a * dk_a
        step = newton(1.0 - sigma, ds_rhs, dk_rhs)
        if step is None:
            break
        dx, dy, dz, dtau, ds, dkappa = step
        alpha = 0.99 * min(
            work.step_max(s, ds),
            work.step_max(z, dz),
            (tau / -dtau) if dtau < 0 else math.inf,
            (kappa / -dkappa) if dkappa < 0 else math.inf,
        )
        alpha = min(alpha, 1.0)
        if not math.isfinite(alpha) or alpha < 1e-10:
            break

        x += alpha * dx
        yh += alpha * dy
        z += alpha * dz
        s += alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa
        if not (math.isfinite(tau) and math.isfinite(kappa) and np.all(np.isfinite(x))):
            break
    else:
        sol = _check_termination(opts.max_iters)

    if sol is None:
        sol = _check_termination(iters)
    if sol is None:
        sol = Solution(status=SolveStatus.NUMERICAL_LIMIT, iterations=iters)
        if tau > 1e-12:
            sol.x = x / tau
            sol.y = -yh[: emb.m_orig] / tau
            sol.s = c - p.A.T @ sol.y
            sol.objective = float(c @ sol.x)
    elif sol.status is SolveStatus.OPTIMAL and not _verify_optimal(p, sol, opts):
        sol = Solution(
            status=SolveStatus.NUMERICAL_LIMIT,
            x=sol.x,
            y=sol.y,
            s=sol.s,
            objective=sol.objective,
            iterations=sol.iterations,
        )
    return sol


def _verify_optimal(p: ConicProgram, sol: Solution, opts: SolverOptions) -> bool:
    rec = check_kkt(p, sol, tol=0.0)
    scale = 1.0 + np.linalg.norm(p.b, np.inf) if p.b.size else 1.0
    cscale = 1.0 + (np.linalg.norm(p.c, np.inf) if p.c.size else 0.0)
    loose = 100.0 * max(opts.feas_tol, opts.gap_tol)
    return (
        rec["primal_residual"] <= loose * scale
        and rec["dual_residual"] <= loose * cscale
        and rec["cone_violation"] <= loose * scale
        and rec["dual_cone_violation"] <= loose * cscale
        and rec["gap"] <= loose * (1.0 + abs(sol.objective))
    )


def check_kkt(p: ConicProgram, sol: Solution, tol: float) -> dict:
    """Residual diagnostics for a claimed optimal solution."""
    if sol.x is None or sol.y is None or sol.s is None:
        raise ValueError("solution carries no iterates to check")
    x, y, s = sol.x, sol.y, sol.s
    primal = float(np.linalg.norm(p.A @ x - p.b, np.inf)) if p.b.size else 0.0
    dual = float(np.linalg.norm(p.A.T @ y + s - p.c, np.inf))
    gap = float(abs(p.c @ x - p.b @ y))
    cone_viol = _violation(p.cone, x)
    dual_cone_viol = _violation(p.cone.dual(), s)
    passed = max(primal, dual, gap, cone_viol, dual_cone_viol) <= tol
    return {
        "primal_residual": primal,
        "dual_residual": dual,
        "gap": gap,
        "cone_violation": cone_viol,
        "dual_cone_violation": dual_cone_viol,
        "passed": passed,
    }


def _violation(cone: ConeProduct, v: np.ndarray) -> float:
    worst = 0.0
    for blk, off in cone.offsets():
        u = v[off : off + blk.dim]
        if blk.kind is BlockKind.FREE:
            continue
        if blk.kind is BlockKind.ZERO:
            worst = max(worst, float(np.max(np.abs(u))))
        elif blk.kind is BlockKind.NONNEG:
            worst = max(worst, float(max(0.0, -np.min(u))))
        else:
            worst = max(worst, float(max(0.0, np.linalg.norm(u[:-1]) - u[-1])))
    return worst
