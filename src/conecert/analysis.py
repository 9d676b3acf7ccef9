"""Certification machinery for inequalities over disjunctive conic sets.

Implements the best-rhs value theta, support-function evaluation over the
cut generating set D_mu = {lambda : mu - A* lambda in K*}, the algebraic
conditions behind sublinearity, sufficient and necessary minimality
certificates, the exact orthant minimality decision, valid-equation
detection, the interior-point Assumption 2, and the full verdict ladder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import BlockKind, ConeBlock, ConeProduct, sample_extreme_rays
from .linalg import least_squares_solve, null_space_basis
from .model import (
    MARGIN_TOL,
    CertificateReport,
    DisjunctiveSet,
    Inequality,
    Status,
)
from .separation import Branch, _verify_cut, multiplier_program
from .solver import ConicProgram, SolveStatus, SolverOptions, solve, solve_batch


@dataclass(frozen=True)
class AnalysisOptions:
    tol: float = 1e-6
    samples: int = 256
    solver: SolverOptions = field(default_factory=SolverOptions)


class EmptyCutSetError(ValueError):
    """D_mu is empty: condition (A.0) fails for this mu."""


class ModelError(ValueError):
    """The disjunctive set itself is broken (e.g. every branch infeasible)."""


# ---------------------------------------------------------------------------
# theta


@dataclass
class BranchValue:
    """One row of the branch table: the solve of min <mu,x> : Ax = b, x in K.

    An optimal row holds x with the upper bound value = <mu,x> on v(b), and
    the dual y, a verified point of D_mu, with the lower bound sigma = y.b on
    sigma_{D_mu}(b). An infeasible row holds the Farkas certificate, and its
    sigma is +inf once D_mu is nonempty. An unbounded row leaves D_mu empty
    (sigma = -inf); a row ended by a solver limit has sigma = nan."""

    label: str
    b: np.ndarray
    status: str  # "optimal" | "infeasible" | "unbounded" | "limit"
    value: float | None = None
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    sigma: float = math.nan
    certificate: np.ndarray | None = None


@dataclass
class ThetaResult:
    value: float  # may be -inf
    argmin: str | None
    table: list  # BranchValue rows, one per expanded b
    handle: SupportHandle  # solved the table; the rungs read dset, mu and opts from it
    had_limit: bool = False
    inf_sigma: float = math.nan  # min of the rows' sigma; may be +inf/nan
    sigma_argmin: str | None = None
    monotone_ok: bool = True

    def branch_values(self) -> dict:
        """The validity rung's values: theta, its argmin and each branch's
        value, or its status where it has none."""
        return {
            "theta": self.value,
            "argmin": self.argmin,
            "branches": {
                r.label: (r.value if r.value is not None else r.status) for r in self.table
            },
        }

    def sigma_values(self) -> dict:
        """The inf_sigma rung's values: inf_b sigma(b), its argmin, the
        lattice spot-check and each branch's sigma."""
        return {
            "inf_sigma": self.inf_sigma,
            "argmin": self.sigma_argmin,
            "monotone_ok": self.monotone_ok,
            "table": {r.label: r.sigma for r in self.table},
        }


def theta(dset: DisjunctiveSet, mu, opts: AnalysisOptions | None = None) -> ThetaResult:
    """Best possible right-hand side: min over feasible b of
    inf{<mu,x> : Ax = b, x in K}, with the branch table of that one solve
    per branch and inf_b sigma(b) read from the table.

    The rows are solved by a new SupportHandle of (dset, mu), returned as
    the result's `handle`. The one-mu case of `thetas`."""
    return thetas(dset, [mu], opts)[0]


def thetas(dset: DisjunctiveSet, mus, opts: AnalysisOptions | None = None) -> list[ThetaResult]:
    """`theta` of every mu of `mus` over one set, with the branch tables of
    all of them solved in one batch of the branch program (`branch_tables`)."""
    return _thetas(dset, mus, opts or AnalysisOptions(), np.empty((0, dset.m)))


def _thetas(dset: DisjunctiveSet, mus, opts: AnalysisOptions,
            directions: np.ndarray, zero: bool = False) -> list[ThetaResult]:
    """`thetas`, with the (k, m) stack `directions` in the same batch: each
    handle files their values for its later `eval`. With `zero`, the batch and
    the results end with the objective-0 record that `_assumption2` reads."""
    mus = [_vec(mu, dset.n) for mu in mus]
    if not all(np.any(mu) for mu in mus):
        raise ValueError("mu must be nonzero")
    handles = [SupportHandle(dset, mu, opts) for mu in mus]
    handles += [_ZeroObjective(dset, opts)] if zero else []
    tables = branch_tables(handles, dset.B.expand_labeled(), directions)
    return [_theta_result(h, table) for h, table in zip(handles, tables)]


def _theta_result(handle: SupportHandle, table: list) -> ThetaResult:
    value, argmin = _column_min(table, "value")
    had_limit = any(r.status == "limit" for r in table)
    if value == math.inf:  # no optimal or unbounded row
        if not had_limit:
            raise ModelError("every branch of the disjunction is infeasible")
        value = math.nan
    inf_sigma, sigma_argmin = _column_min(table, "sigma")
    if not math.isfinite(inf_sigma) and had_limit:
        inf_sigma, sigma_argmin = math.nan, None
    return ThetaResult(value, argmin, table, handle, had_limit, inf_sigma, sigma_argmin,
                       _lattice_monotone(handle.dset, table))


def _column_min(table: list, column: str) -> tuple[float, str | None]:
    """Least entry of a table column over the rows that have one (not None or
    nan), and the first row attaining it up to 1e-9; (+inf, None) if none."""
    best, argmin = math.inf, None
    for r in table:
        v = getattr(r, column)
        if v is not None and v < best - 1e-9:
            best, argmin = v, r.label
    return best, argmin


def _lattice_monotone(dset: DisjunctiveSet, table: list) -> bool:
    """Spot-check that sigma values grow outward along the truncated lattice:
    the last three shifts on each side must be nondecreasing."""
    if dset.B.lattice is None:
        return True
    by_k = {int(r.label[8:-1]): r.sigma for r in table if r.label.startswith("lattice[")}
    for side in (sorted(k for k in by_k if k > 0), sorted((k for k in by_k if k < 0), reverse=True)):
        vals = [by_k[k] for k in side[-3:]]
        for lo, hi in zip(vals, vals[1:]):
            if math.isnan(lo) or math.isnan(hi) or hi < lo - 1e-9:
                return False
    return True


# ---------------------------------------------------------------------------
# support function of D_mu


class SupportHandle:
    """Evaluator for the support function of D_mu = {lambda : mu - A* lambda in K*},
    and the one owner of the branch program min <mu,x> : Ax = z, x in K,
    whose dual is max z.lambda over D_mu.

    With one row (m = 1), D_mu is an interval [lo, hi] computed once without
    a solve, and sigma(z) is z*hi for z > 0 and z*lo for z < 0, so `eval`
    makes no solve, unless the interval fails its check in K* (see
    `_one_row_dmu`). Otherwise `branch_tables` solves the branch program
    for theta's right-hand sides and every uncached direction in one batch,
    and `eval` asks it for its uncached directions alone: a verified optimum
    gives sigma(z) = y.z, a verified infeasibility +inf (its Farkas ray is a
    recession direction of D_mu with a positive z-value), and an unbounded
    row shows D_mu empty, which `eval` raises. A +inf reads the handle's one
    (A.0) decision (`decide_A0`): it stands when D_mu holds a point, raises
    when D_mu is empty, and reads as nan while a solver limit leaves (A.0)
    inconclusive."""

    def __init__(self, dset: DisjunctiveSet, mu, opts: AnalysisOptions | None = None):
        self.dset = dset
        self.opts = opts or AnalysisOptions()
        self.mu = _vec(mu, dset.n)
        self._m = dset.m
        # sigma per direction: +inf for an infeasible row, -inf for an unbounded one
        self._cache: dict[tuple, float] = {}
        self._a0: tuple | None = None  # (Status, witness) once (A.0) is settled
        # the points of D_mu the handle holds: the interval's finite ends,
        # or the dual y of every optimal direction row it has solved
        self.points: list[np.ndarray] = []
        self._interval = None
        if self._m == 1:
            tol = 100.0 * self.opts.solver.feas_tol * (1.0 + float(np.max(np.abs(self.mu))))
            self._interval = _one_row_dmu(dset.K, self.mu, dset.A[0], tol)
        if self._interval is not None and self._interval[0] <= self._interval[1]:
            self.points = [np.array([v]) for v in self._interval if math.isfinite(v)]
            self._a0 = Status.HOLDS, self._witness(self.points[0] if self.points else np.zeros(1))

    def _witness(self, lam: np.ndarray) -> dict:
        return {"lambda": lam, "gamma": self.mu - self.dset.A.T @ lam}

    def decide_A0(self):
        """(A.0), i.e. D_mu nonempty, as (Status, witness), settled once per
        handle: Holds with a known point of D_mu (the one-row interval, or
        the dual y of an optimal row some `eval` has solved), else the
        result of one `feasibility` solve: Holds with its dual y, Fails with
        its ray x (Ax = 0, x in K, <mu,x> < 0), or Inconclusive at a solver
        limit, which an optimal row seen later upgrades to Holds."""
        if self._a0 is None:
            sol = self.feasibility()
            if sol.status is SolveStatus.OPTIMAL:
                self._a0 = Status.HOLDS, self._witness(sol.y)
            elif sol.status is SolveStatus.DUAL_INFEASIBLE:
                self._a0 = Status.FAILS, {"ray": sol.certificate}
            else:
                self._a0 = Status.INCONCLUSIVE, {}
        return self._a0

    def feasibility(self):
        """Solve the branch program at z = 0, min <mu,x> : Ax = 0, x in K,
        whose dual asks for a point of D_mu; returns the raw Solution."""
        dset = self.dset
        return solve(ConicProgram(self.mu, dset.A, np.zeros(self._m), dset.K), self.opts.solver)

    def _uncached(self, keys: list, directions: np.ndarray) -> dict:
        """The directions whose sigma the handle has not filed, by key; none
        for the one-row interval."""
        if self._interval is not None:
            return {}
        return {k: z for k, z in zip(keys, directions) if k not in self._cache}

    def _file(self, todo: dict, rows: list[BranchValue]) -> None:
        """File the solved rows of the directions `todo`: their sigma in the
        cache and their optimal duals in `points`."""
        self.points += [r.y for r in rows if r.status == "optimal"]
        if self.points and (self._a0 is None or self._a0[0] is Status.INCONCLUSIVE):
            self._a0 = Status.HOLDS, self._witness(self.points[0])
        self._cache.update(zip(todo, (r.sigma for r in rows)))

    def eval(self, z):
        """sigma_{D_mu}(z) for one direction z of length m (a float), or for
        each row of a (k, m) stack (an array of k values); +inf when D_mu is
        unbounded in that direction, nan on solver limits."""
        Z = np.asarray(z, dtype=float)
        if Z.ndim == 2 and Z.shape[1] == self._m:
            return self._values(Z)
        return float(self._values(_vec(Z, self._m)[None])[0])

    def _values(self, Z: np.ndarray) -> np.ndarray:
        if self._interval is not None:
            lo, hi = self._interval
            if lo > hi:
                raise EmptyCutSetError("D_mu is empty; condition (A.0) fails")
            t = Z[:, 0]
            out = np.zeros(len(t))
            pos, neg = t > 0, t < 0
            out[pos] = t[pos] * hi
            out[neg] = t[neg] * lo
            return out
        branch_tables([self], [], Z)
        out = np.array([self._cache[k] for k in _keys(Z)])
        if (out == -math.inf).any():
            raise EmptyCutSetError("D_mu is empty; condition (A.0) fails")
        inf = out == math.inf
        if inf.any():
            a0 = self.decide_A0()[0]
            if a0 is Status.FAILS:
                raise EmptyCutSetError("D_mu is empty; condition (A.0) fails")
            if a0 is Status.INCONCLUSIVE:
                out[inf] = math.nan
        return out


class _ZeroObjective(SupportHandle):
    """The branch program at objective 0, whose table `_assumption2` reads.
    No rung evaluates its support function, so it solves no direction."""

    def __init__(self, dset: DisjunctiveSet, opts: AnalysisOptions):
        super().__init__(dset, np.zeros(dset.n), opts)

    def _uncached(self, keys: list, directions: np.ndarray) -> dict:
        return {}


def _keys(Z: np.ndarray) -> list[tuple]:
    """The cache keys of the directions of a (k, m) stack."""
    return [tuple(z) for z in np.round(Z, 12)]


def branch_tables(handles: list[SupportHandle], labeled: list,
                  directions: np.ndarray) -> list[list[BranchValue]]:
    """One batch of the branch program min <mu,x> : Ax = z, x in K for
    handles of one set, each row with its handle's mu as the objective: per
    handle a row per (label, b) of `labeled`, then a row per direction of
    the (k, m) stack `directions` that it has not filed. The direction rows
    file their sigma in their handle's cache and their optimal duals in its
    `points`; the labelled rows come back as each handle's branch table and
    join neither. Every solve of the branch program goes through here but
    one: `SupportHandle.feasibility` solves the z = 0 program of the (A.0)
    decision on its own."""
    keys = _keys(directions)
    todos = [h._uncached(keys, directions) for h in handles]
    groups = [list(labeled) + [("", z) for z in todo.values()] for todo in todos]
    rows = [row for group in groups for row in group]
    if not rows:
        return [[] for _ in handles]
    dset = handles[0].dset
    rhs = np.array([b for _, b in rows])
    costs = np.repeat([h.mu for h in handles], [len(g) for g in groups], axis=0)
    sols = solve_batch(ConicProgram(costs[0], dset.A, rhs[0], dset.K), rhs,
                       handles[0].opts.solver, costs)
    solved = []
    for (label, b), sol in zip(rows, sols):
        if sol.status is SolveStatus.OPTIMAL:
            solved.append(BranchValue(label, b, "optimal", sol.objective, sol.x, sol.y,
                                      float(sol.y @ b)))
        elif sol.status is SolveStatus.PRIMAL_INFEASIBLE:
            solved.append(BranchValue(label, b, "infeasible", sigma=math.inf,
                                      certificate=sol.certificate))
        elif sol.status is SolveStatus.DUAL_INFEASIBLE:
            solved.append(BranchValue(label, b, "unbounded", -math.inf, sigma=-math.inf))
        else:
            solved.append(BranchValue(label, b, "limit"))
    tables, it = [], iter(solved)
    for h, todo, group in zip(handles, todos, groups):
        table = list(itertools.islice(it, len(group)))
        h._file(todo, table[len(labeled):])
        tables.append(table[:len(labeled)])
    return tables


def _one_row_dmu(K: ConeProduct, mu: np.ndarray, a: np.ndarray, tol: float):
    """D_mu = {lam : mu - lam*a in K*} for the single row a of A, as (lo, hi),
    with lo > hi when it is empty; None when the result fails its check.

    K is regular, so K* = K block by block and D_mu is the intersection of
    the per-block intervals. Each finite end must put mu - lam*a in K*
    within tol, and an infinite end needs its recession direction: -a in K*
    for hi = +inf, a in K* for lo = -inf. An empty result stands only when
    no block end (or 0) puts mu - lam*a in K* within tol: otherwise it may
    be the rounding of a one-point set."""
    lo, hi = -math.inf, math.inf
    ends = []
    for blk, off in K.offsets():
        g, d = mu[off:off + blk.dim], a[off:off + blk.dim]
        interval = _nonneg_interval if blk.kind is BlockKind.NONNEG else _lorentz_interval
        blo, bhi = interval(g, d)
        lo, hi = max(lo, blo), min(hi, bhi)
        ends += [v for v in (blo, bhi) if math.isfinite(v)]
    dual = K.dual()

    def inside(lam: float) -> bool:
        return dual.contains(mu - lam * a, tol)

    if lo <= hi:
        ok = (inside(lo) if lo > -math.inf else dual.contains(a, tol)) and (
            inside(hi) if hi < math.inf else dual.contains(-a, tol))
        return (lo, hi) if ok else None
    return None if any(inside(v) for v in ends or [0.0]) else (lo, hi)


def _nonneg_interval(g: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """{lam : g - lam*d >= 0}; lo > hi when empty."""
    if np.any(g[d == 0] < 0):
        return math.inf, -math.inf
    pos, neg = d > 0, d < 0
    hi = float(np.min(g[pos] / d[pos])) if pos.any() else math.inf
    lo = float(np.max(g[neg] / d[neg])) if neg.any() else -math.inf
    return lo, hi


def _lorentz_interval(g: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """{lam : g - lam*d in L}, radius last: where r(lam) = g0 - lam*d0 >= 0 and
    q(lam) = r(lam)^2 - |gbar - lam*dbar|^2 >= 0. Returns lo > hi when
    empty, with the finite number of the pair nearest to feasibility."""
    g0, d0 = float(g[-1]), float(d[-1])
    if d0 != 0.0:
        lo, hi = (-math.inf, g0 / d0) if d0 > 0 else (g0 / d0, math.inf)
    else:
        lo, hi = (-math.inf, math.inf) if g0 >= 0 else (math.inf, -math.inf)
    # q(lam) = alpha lam^2 - 2 beta lam + gamma
    alpha, beta, gamma = _lorentz_form(d, d), _lorentz_form(g, d), _lorentz_form(g, g)
    if alpha == 0.0:  # d on the boundary of L or -L, or zero: q is linear
        if beta > 0:
            hi = min(hi, gamma / (2.0 * beta))
        elif beta < 0:
            lo = max(lo, gamma / (2.0 * beta))
        elif gamma < 0:
            return math.inf, -math.inf
        return lo, hi
    disc = beta * beta - alpha * gamma
    if disc < 0 and alpha < 0:  # q < 0 everywhere; beta/alpha maximizes q
        return beta / alpha, -math.inf
    if disc <= 0:  # a double root, or its rounding when alpha > 0
        r1 = r2 = beta / alpha
    else:  # cancellation-free roots
        s = beta + math.copysign(math.sqrt(disc), beta)
        r1, r2 = sorted((s / alpha, gamma / s))
    if alpha < 0:  # d outside L and -L: q >= 0 between the roots
        return max(lo, r1), min(hi, r2)
    # d in int L or -int L: q >= 0 outside the roots, and g - lam*d lies in L
    # on the side where r grows
    return (lo, min(hi, r1)) if d0 > 0 else (max(lo, r2), hi)


def _lorentz_form(u: np.ndarray, v: np.ndarray) -> float:
    """u0*v0 - <ubar, vbar> (radius last), or 0 when it is within the
    rounding error of its two terms."""
    head, tail = float(u[-1] * v[-1]), float(u[:-1] @ v[:-1])
    scale = abs(head) + float(np.abs(u[:-1]) @ np.abs(v[:-1]))
    return 0.0 if abs(head - tail) <= 4 * u.size * np.finfo(float).eps * scale else head - tail


def check_A0(th: ThetaResult):
    """Feasibility of D_mu, i.e. mu in K* + Im(A*), for th = theta(dset, mu).
    The witness is the dual y of the first optimal row of its branch table,
    else the (A.0) decision of its handle (`decide_A0`), which gives the
    Farkas ray when D_mu is empty."""
    lam = next((r.y for r in th.table if r.status == "optimal"), None)
    if lam is not None:
        return Status.HOLDS, th.handle._witness(lam)
    return th.handle.decide_A0()


# ---------------------------------------------------------------------------
# tight extreme rays


@dataclass
class TightRay:
    z: np.ndarray
    gap: float


def tight_extreme_ray_search(handle: SupportHandle):
    """Extreme rays z of K whose support gap <mu,z> - sigma(Az) is at most
    tol. Returns (tight rays, all sampled gaps).

    One call of `handle.eval` evaluates `sample_extreme_rays(K, samples)`
    of the handle's options: no solve when `full_reports` has filed them
    already. On Nonneg blocks and dim-2 Lorentz blocks
    these are all the extreme rays, so there the search is exact. On larger
    Lorentz blocks the tight rays come from the points of D_mu the handle
    holds: each such lam bounds the gap by <gamma, z> with gamma =
    mu - A^T lam in K*, so where gamma = (gbar, g0) lies on the boundary of
    a block (margin g0 - |gbar| within tol, gbar nonzero), the
    reflected ray (-gbar/|gbar|, 1)/sqrt(2) on that block has gap at most
    margin/sqrt(2) <= tol. That bound, at least 0, is recorded as its gap,
    and no solve is made. Where gamma is zero on a block no reflection is
    defined, and the tight samples stand."""
    dset, mu = handle.dset, handle.mu
    rays = sample_extreme_rays(dset.K, handle.opts.samples)
    s = handle.eval(rays @ dset.A.T)
    gaps = np.where(np.isfinite(s), rays @ mu - s, math.inf)
    reflected, bounds = _reflected_rays(handle)
    tight = _distinct_tight_rays(np.vstack([rays, reflected]), np.concatenate([gaps, bounds]),
                                 handle.opts.tol)
    return tight, gaps.tolist()


def _reflected_rays(handle: SupportHandle) -> tuple[np.ndarray, np.ndarray]:
    """The rays (-gbar/|gbar|, 1)/sqrt(2) reflected from gamma = mu - A^T lam
    of every point lam the handle holds, on each Lorentz block of dim >= 3
    where gamma lies within tol of the boundary with |gbar| > tol, as the
    rows of a (k, n) array, and their gap bounds max(margin, 0)/sqrt(2)."""
    dset, tol = handle.dset, handle.opts.tol
    gamma = handle.mu - np.reshape(handle.points, (-1, dset.m)) @ dset.A
    rays, bounds = [np.empty((0, dset.n))], [np.empty(0)]
    for blk, off in dset.K.offsets():
        if blk.kind is BlockKind.LORENTZ and blk.dim > 2:
            gbar, g0 = gamma[:, off:off + blk.dim - 1], gamma[:, off + blk.dim - 1]
            r = np.linalg.norm(gbar, axis=1)
            on = (r > tol) & (g0 - r <= tol)
            if on.any():
                Z = np.zeros((on.sum(), dset.n))
                Z[:, off:off + blk.dim - 1] = -gbar[on] / r[on, None]
                Z[:, off + blk.dim - 1] = 1.0
                rays.append(Z / math.sqrt(2.0))
                bounds.append(np.maximum(g0[on] - r[on], 0.0) / math.sqrt(2.0))
    return np.vstack(rays), np.concatenate(bounds)


def _distinct_tight_rays(rays: np.ndarray, gaps: np.ndarray, tol: float) -> list[TightRay]:
    """The rays with gap <= tol in order of gap, each dropped when it lies
    within 1e-6 (max norm) of a ray kept before it."""
    tight = [(z, float(g)) for z, g in zip(rays, gaps) if g <= tol]
    tight.sort(key=lambda t: t[1])
    dedup: list[TightRay] = []
    kept = np.empty((len(tight), rays.shape[1]))
    for z, g in tight:
        k = len(dedup)
        if k == 0 or np.min(np.max(np.abs(kept[:k] - z), axis=1)) > 1e-6:
            kept[k] = z
            dedup.append(TightRay(z, g))
    return dedup


# ---------------------------------------------------------------------------
# sublinearity and minimality certificates


def check_sublinear_sufficient(th: ThetaResult, eta0: float, tight_rays: list[TightRay]):
    """Certify sublinearity through tight extreme rays summing into int(K).
    Validity is pre-certified through eta0 <= inf_b sigma(b), read from the
    branch table th = theta(dset, mu).

    The certificate is the sum of every tight ray: the interior margin is
    concave and positively homogeneous on K, hence superadditive, and every
    ray lies in K, so no sub-sum lies deeper inside K than the full sum.

    On the orthant the extreme rays are the n coordinate rays e_i, so the
    ray test is exact: sublinearity fails as soon as a gap
    mu_i - sigma(a^i) exceeds tol (condition (A.1i)), and the Fails witness
    lists those coordinates and their gaps. The values are the search's,
    read again from the cache of th's handle. The Holds certificate is the
    sum and its margin; the rays are the tight_rays rung's."""
    handle, inf_sigma = th.handle, th.inf_sigma
    dset, opts = handle.dset, handle.opts
    if dset.is_orthant():
        gaps = handle.mu - handle.eval(dset.A.T)
        non_tight = np.flatnonzero(gaps > opts.tol)  # a nan gap is no evidence
        if non_tight.size:
            return Status.FAILS, {"non_tight": non_tight.tolist(), "gaps": gaps[non_tight]}
    if math.isnan(inf_sigma) or eta0 > inf_sigma + opts.tol:
        return Status.INCONCLUSIVE, {"inf_sigma": inf_sigma}
    if not tight_rays:
        return Status.INCONCLUSIVE, {"inf_sigma": inf_sigma, "tight_rays": []}
    total = np.sum([t.z for t in tight_rays], axis=0)
    margin = dset.K.interior_margin(total) / max(np.linalg.norm(total), 1e-300)
    if margin > MARGIN_TOL:
        return Status.HOLDS, {"sum": total, "margin": margin, "inf_sigma": inf_sigma}
    return Status.INCONCLUSIVE, {"inf_sigma": inf_sigma, "margin": margin}


def check_minimal_sufficient(th: ThetaResult, eta0: float):
    """Certify minimality through points x^i on tight branches whose sum is
    interior. Applies only when eta0 equals inf_b sigma(b), read from the
    branch table th = theta(dset, mu).

    The points are the tight rows' own optima, so no solve is made. An IPM
    iterate lies near the relative interior of its optimal face F_i, and
    relint(F_1 + ... + F_r) = relint F_1 + ... + relint F_r lies in int K
    as soon as any sum of points of the faces does (Rockafellar, Convex
    Analysis, Cor. 6.6.2). Soundness rests on the a-posteriori check of
    `_verify_point_sum` alone."""
    inf_sigma = th.inf_sigma
    if not math.isfinite(inf_sigma) or abs(eta0 - inf_sigma) > th.handle.opts.tol:
        return Status.NOT_APPLICABLE, {"inf_sigma": inf_sigma}
    tight = _tight_rows(th, eta0)
    if not tight:
        return Status.INCONCLUSIVE, {"inf_sigma": inf_sigma}
    return _verify_point_sum(th, eta0, tight, [r.x for r in tight])


def _tight_rows(th: ThetaResult, eta0: float) -> list[BranchValue]:
    """The branch table's rows with a finite sigma(b) <= eta0 + tol; finite
    sigma makes each an optimal row with its point x."""
    tol = th.handle.opts.tol
    return [r for r in th.table if math.isfinite(r.sigma) and r.sigma <= eta0 + tol]


def _verify_point_sum(th: ThetaResult, eta0: float, tight: list[BranchValue], xs: list):
    """Polish each x^i onto the affine constraints {Ax = b^i, <mu,x> = eta0}
    of its tight row and certify when the points' sum is interior: its
    normalized margin must exceed MARGIN_TOL and ten times the points'
    largest violation of K."""
    dset, inf_sigma = th.handle.dset, th.inf_sigma
    M = np.vstack([dset.A, th.handle.mu.reshape(1, -1)])
    points = []
    for row, x in zip(tight, xs):
        corr, _ = least_squares_solve(M, np.concatenate([row.b, [eta0]]) - M @ x)
        points.append(x + corr)
    total = np.sum(points, axis=0)
    cone_viol = max(0.0, -float(np.min(dset.K.interior_margin(np.array(points)))))
    margin = dset.K.interior_margin(total) / max(np.linalg.norm(total), 1e-300)
    if margin > MARGIN_TOL and margin > 10.0 * cone_viol:
        return Status.HOLDS, {
            "points": points,
            "branches": [row.label for row in tight],
            "sum": total,
            "margin": margin,
            "inf_sigma": inf_sigma,
        }
    return Status.INCONCLUSIVE, {"inf_sigma": inf_sigma, "margin": margin}


def check_minimal_necessary_interior(th: ThetaResult, eta0: float):
    """For mu in int(K*): minimality forces eta0 = theta = inf_b sigma(b),
    with theta and inf_sigma read from th = theta(dset, mu)."""
    dset, mu, tol = th.handle.dset, th.handle.mu, th.handle.opts.tol
    dual_margin = dset.K.dual().interior_margin(mu)
    if dual_margin <= MARGIN_TOL:
        return Status.NOT_APPLICABLE, {"dual_margin": dual_margin}
    vals = {"dual_margin": dual_margin, "theta": th.value, "inf_sigma": th.inf_sigma}
    if math.isnan(th.inf_sigma) or math.isnan(th.value):
        return Status.INCONCLUSIVE, vals
    if abs(eta0 - th.value) > tol or abs(eta0 - th.inf_sigma) > tol:
        return Status.FAILS, vals
    return Status.HOLDS, vals


def decide_minimal_exact(th: ThetaResult, eta0: float):
    """Exact minimality decision on the orthant: maximize sum(delta) over
    delta >= 0 such that (mu - delta; eta0) stays valid, encoded through one
    multiplier per feasible branch. Minimal iff the optimum is ~0. `th` is
    theta(dset, mu); its optimal rows are the feasible branches. A program
    that ends unbounded or at a solver limit is solved again with delta
    capped: (mu; eta0) is valid and the valid (rho; rho0) form a convex
    set, so every feasible delta scales into the cap."""
    dset, mu, opts = th.handle.dset, th.handle.mu, th.handle.opts
    if not dset.is_orthant():
        return Status.NOT_APPLICABLE, {}
    if math.isnan(th.value) or eta0 > th.value + opts.tol:
        raise ValueError("decide_minimal_exact needs a valid inequality")
    if th.had_limit:  # a branch the program would leave out, unchecked
        return Status.INCONCLUSIVE, {"solver": "limit in the branch table"}
    branches = [Branch(dset.A, dset.K, r.b) for r in th.table if r.status == "optimal"]
    n = dset.n

    def build(cap: float | None):
        # head delta >= 0, rho = mu - delta, rho0 = eta0, optionally delta <= cap
        bound = None if cap is None else (np.eye(n), np.full(n, cap))
        return multiplier_program(branches, [ConeBlock(BlockKind.NONNEG, n)], -np.ones(n),
                                  (mu, -np.eye(n)), (eta0, np.zeros(n)), bound)

    prog, lam_at = build(None)
    sol = solve(prog, opts.solver)
    if sol.status in (SolveStatus.DUAL_INFEASIBLE, SolveStatus.NUMERICAL_LIMIT):
        prog, lam_at = build(1.0 + 2.0 * float(np.max(np.abs(mu))))
        sol = solve(prog, opts.solver)
    if sol.status is not SolveStatus.OPTIMAL:
        return Status.INCONCLUSIVE, {"solver": sol.status.value}
    delta = np.maximum(sol.x[:n], 0.0)
    total = float(np.sum(delta))
    if total <= opts.tol:
        return Status.HOLDS, {"optimum": total}
    verified = _verify_cut(branches, [sol.x[at] for at in lam_at], mu - delta, eta0,
                           opts.tol, opts.solver)
    return Status.FAILS, {"optimum": total, "delta": delta, "witness_verified": verified}


# ---------------------------------------------------------------------------
# valid equations


def valid_equation_check(
    dset: DisjunctiveSet,
    mu,
    opts: AnalysisOptions | None = None,
):
    """Detect whether <mu, x> = eta0 holds on the whole set: a single
    multiplier lam with A* lam = mu and b . lam constant over B."""
    opts = opts or AnalysisOptions()
    mu = _vec(mu, dset.n)
    bs = dset.B.expand()
    rows = [dset.A.T]
    rhs = [mu]
    for b in bs[1:]:
        rows.append((b - bs[0]).reshape(1, -1))
        rhs.append(np.zeros(1))
    M = np.vstack(rows)
    v = np.concatenate(rhs)
    lam, residual = least_squares_solve(M, v)
    scale = 1.0 + float(np.linalg.norm(mu, np.inf))
    if residual <= opts.tol * scale:
        return Status.HOLDS, {"lambda": lam, "eta0": float(bs[0] @ lam), "residual": residual}
    return Status.FAILS, {"lambda": lam, "residual": residual}


def enumerate_valid_equations(dset: DisjunctiveSet) -> list[Inequality]:
    """All valid-equation directions: kernel of the stacked rhs differences
    mapped through the adjoint."""
    bs = dset.B.expand()
    if len(bs) > 1:
        D = np.vstack([(b - bs[0]).reshape(1, -1) for b in bs[1:]])
        basis = null_space_basis(D)
    else:
        basis = [np.eye(dset.m)[:, j] for j in range(dset.m)]
    out = []
    for j, lam in enumerate(basis):
        mu = dset.A.T @ lam
        if np.linalg.norm(mu, np.inf) <= 1e-10:
            continue
        out.append(Inequality(mu, float(bs[0] @ lam), f"eq{j}"))
    return out


# ---------------------------------------------------------------------------
# the full ladder


VERDICT_INVALID = "Invalid"
VERDICT_MINIMAL = "CertifiedMinimal"
VERDICT_NOT_MINIMAL = "CertifiedNotMinimal"
VERDICT_SUBLINEAR = "SublinearInconclusiveMinimality"
VERDICT_INCONCLUSIVE = "Inconclusive"


def full_report(
    dset: DisjunctiveSet,
    ineq: Inequality,
    opts: AnalysisOptions | None = None,
) -> CertificateReport:
    """Run the verdict ladder on one inequality: the one-inequality case of
    `full_reports`."""
    return full_reports(dset, [ineq], opts)[0]


def full_reports(
    dset: DisjunctiveSet,
    ineqs: list[Inequality],
    opts: AnalysisOptions | None = None,
) -> list[CertificateReport]:
    """Run the verdict ladder on every inequality of `ineqs` over one set.
    The branch programs of all of them are solved in one batch, which also
    holds the branch program at objective 0 on every branch: Assumption 2,
    a property of the set, is read from those rows once (`_assumption2`)."""
    opts = opts or AnalysisOptions()
    # When the tight-ray samples are all of K's extreme rays (no Lorentz
    # block of dim >= 3), they are few, and theta's batch of the branch
    # program solves them too; each handle keeps their values for the
    # search. Otherwise they are `samples` per block, which an invalid
    # inequality would solve for nothing, so one batch after validity
    # solves them for the valid inequalities whose handle has no one-row
    # interval to answer them.
    sampled = any(b.kind is BlockKind.LORENTZ and b.dim > 2 for b in dset.K.blocks)
    rays = sample_extreme_rays(dset.K, opts.samples) @ dset.A.T
    directions = np.empty((0, dset.m)) if sampled else rays
    *ths, zero = _thetas(dset, [q.mu for q in ineqs], opts, directions, zero=True)
    if sampled:
        branch_tables([th.handle for q, th in zip(ineqs, ths) if th.handle._interval is None
                       and _validity(th, q.eta0) is Status.HOLDS], [], rays)
    assumption2 = _assumption2(dset, zero.table, opts)
    return [_ladder(q, th, assumption2) for q, th in zip(ineqs, ths)]


def _validity(th: ThetaResult, eta0: float) -> Status:
    """The validity rung: Inconclusive when theta is unknown or a branch
    ended at a solver limit, else Holds iff eta0 <= theta + tol."""
    if math.isnan(th.value) or th.had_limit:
        return Status.INCONCLUSIVE
    return Status.HOLDS if eta0 <= th.value + th.handle.opts.tol else Status.FAILS


def assumption2_check(dset: DisjunctiveSet, opts: AnalysisOptions | None = None):
    """Assumption 2 of a set on its own: the rows `full_reports` reads it
    from, solved alone. Returns the status, the interior witness x (None
    unless Holds) and the best normalized margin."""
    opts = opts or AnalysisOptions()
    zero = _ZeroObjective(dset, opts)
    table = branch_tables([zero], dset.B.expand_labeled(), np.empty((0, dset.m)))[0]
    status, witness, margin = _assumption2(dset, table, opts)
    return status, witness.get("witness"), margin


def _assumption2(dset: DisjunctiveSet, table: list, opts: AnalysisOptions):
    """Assumption 2, some branch {x in K : Ax = b} meets int K, as (status,
    witness, margin), read from the branch table at objective 0, whose
    optimal rows end near the relative interior of their branch.

    Holds when some optimal row's x, polished onto Ax = b, has normalized
    margin interior_margin(x)/|x| above MARGIN_TOL; the margin is the best
    one (-inf with no optimal row). Fails when every row is infeasible or
    has a y that exposes its branch: scaled to |s|_inf = 1 for s = -A^T y,
    s in K* and |b.y| <= tol, the solver's verification tolerance. Then
    margin(x) <= <s,x> = -b.y for x in the branch. An s under tol*|A||y| is
    cancellation noise. Inconclusive otherwise, as after a solver limit."""
    A, K, tol = dset.A, dset.K, 100.0 * max(opts.solver.feas_tol, opts.solver.gap_tol)
    margin, witness, rows = -math.inf, {}, {}
    for r in table:
        if r.status == "infeasible":
            rows[r.label] = "infeasible"
        elif r.status == "optimal":
            x = r.x + least_squares_solve(A, r.b - A @ r.x)[0]
            value = K.interior_margin(x) / max(np.linalg.norm(x), 1e-300)
            if value > margin:
                margin, witness = value, {"witness": x, "branch": r.label}
            scale = float(np.abs(A.T @ r.y).max(initial=0.0))
            noise = tol * np.abs(A).max(initial=0.0) * np.abs(r.y).max(initial=0.0)
            y = r.y / max(scale, 1e-300)
            if scale > noise and K.dual().contains(-A.T @ y, tol) and abs(r.b @ y) <= tol:
                rows[r.label] = {"y": y, "s": -A.T @ y}
    if margin > MARGIN_TOL:
        return Status.HOLDS, witness, margin
    if len(rows) == len(table):
        return Status.FAILS, {"branches": rows}, margin
    return Status.INCONCLUSIVE, {}, margin


def _ladder(ineq: Inequality, th: ThetaResult, assumption2: tuple) -> CertificateReport:
    """The verdict ladder of one inequality, given th = theta(dset, mu) and
    the set's Assumption 2 result (`_assumption2`)."""
    handle = th.handle
    dset, mu, opts, eta0 = handle.dset, handle.mu, handle.opts, float(ineq.eta0)
    rep = CertificateReport(config={
        "tol": opts.tol,
        "margin_tol": MARGIN_TOL,
        "samples": opts.samples,
        "feas_tol": opts.solver.feas_tol,
        "gap_tol": opts.solver.gap_tol,
        "max_iters": opts.solver.max_iters,
        "inequality": ineq.name,
    })
    validity = _validity(th, eta0)
    rep.add("validity", validity, th.branch_values())
    if validity is not Status.HOLDS:
        rep.final_verdict = (VERDICT_INCONCLUSIVE if validity is Status.INCONCLUSIVE
                             else VERDICT_INVALID)
        return rep
    tight = abs(eta0 - th.value) <= opts.tol if math.isfinite(th.value) else False
    rep.add("tightness", Status.HOLDS if tight else Status.FAILS, {"theta": th.value})

    # theta is finite here, so the table has an optimal row, whose y is the
    # (A.0) witness, and no row ended by a solver limit: every sigma is
    # finite or +inf
    a0_status, a0_payload = check_A0(th)
    rep.add("A0", a0_status, witness=a0_payload)
    rep.add("inf_sigma", Status.HOLDS, th.sigma_values())
    mono_ok = th.monotone_ok

    a2_status, a2_witness, a2_margin = assumption2
    rep.add("assumption2", a2_status, {"margin": a2_margin}, a2_witness)

    rays, sampled_gaps = tight_extreme_ray_search(handle)
    rep.add(
        "tight_rays",
        Status.HOLDS if rays else Status.INCONCLUSIVE,
        {"count": len(rays), "min_sampled_gap": float(min(sampled_gaps))},
        {"rays": [t.z for t in rays], "gaps": [t.gap for t in rays]},
    )
    sub_status, sub_payload = check_sublinear_sufficient(th, eta0, rays)
    rep.add("sublinearity", sub_status, sub_payload)

    verdict = None
    if dset.is_orthant():
        ex_status, ex_payload = decide_minimal_exact(th, eta0)
        rep.add("minimality_exact", ex_status, ex_payload)
        if ex_status is Status.HOLDS:
            # a CertifiedMinimal verdict additionally needs a full-dimensional
            # set: without an interior point no inequality is minimal
            verdict = VERDICT_MINIMAL if (mono_ok and a2_status is Status.HOLDS) else None
        elif ex_status is Status.FAILS and ex_payload["witness_verified"]:
            verdict = VERDICT_NOT_MINIMAL if mono_ok else None
    else:
        nec_status, nec_vals = check_minimal_necessary_interior(th, eta0)
        rep.add("minimal_necessary_interior", nec_status, nec_vals)
        if nec_status is Status.FAILS:
            fails_theta = abs(eta0 - th.value) > opts.tol
            if fails_theta or mono_ok:
                verdict = VERDICT_NOT_MINIMAL
        if verdict is None:
            suf_status, suf_payload = check_minimal_sufficient(th, eta0)
            rep.add("minimal_sufficient", suf_status, suf_payload)
            if suf_status is Status.HOLDS and a2_status is Status.HOLDS and mono_ok:
                verdict = VERDICT_MINIMAL

    eq_status, eq_payload = valid_equation_check(dset, mu, opts)
    rep.add("equation", eq_status, eq_payload)

    if verdict is None:
        verdict = VERDICT_SUBLINEAR if sub_status is Status.HOLDS else VERDICT_INCONCLUSIVE
    rep.final_verdict = verdict
    return rep


# ---------------------------------------------------------------------------
# 2-D vertex reconstruction (demo/validation helper)


def dmu_vertices_2d(
    dset: DisjunctiveSet,
    mu,
    opts: AnalysisOptions | None = None,
) -> list[np.ndarray]:
    """Reconstruct the vertices of a bounded 2-D D_mu from support values in
    16 equally spaced directions."""
    if dset.m != 2:
        raise ValueError("vertex reconstruction needs a 2-D multiplier space")
    opts = opts or AnalysisOptions()
    handle = SupportHandle(dset, mu, opts)
    directions = 16
    angles = 2.0 * np.pi * np.arange(directions) / directions
    ds = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vals = handle.eval(ds)
    if not np.all(np.isfinite(vals)):
        raise ValueError("D_mu is unbounded in a sampled direction")
    verts = []
    for j in range(directions):
        k = (j + 1) % directions
        M = np.vstack([ds[j], ds[k]])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        v = np.linalg.solve(M, np.array([vals[j], vals[k]]))
        if np.all(ds @ v <= vals + 1e-7):
            if all(np.linalg.norm(v - w) > 1e-5 for w in verts):
                verts.append(v)
    return verts


def _vec(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size != n:
        raise ValueError(f"expected a vector of length {n}, got {v.size}")
    return v
