import math
from collections import Counter

import numpy as np
import pytest

from conecert import analysis
from conecert.analysis import (
    AnalysisOptions,
    EmptyCutSetError,
    SupportHandle,
    check_minimal_sufficient,
    full_report,
    theta,
    tight_extreme_ray_search,
)
from conecert.cones import BlockKind, ConeProduct, free, lorentz, nonneg, sample_extreme_rays
from conecert.fixtures import builtin, names
from conecert.model import DisjunctiveSet, Inequality, RhsFamily, Status
from conecert.solver import ConicProgram, Solution, SolverOptions, SolveStatus, solve, solve_batch

from oracles import oracle_lp


def _random_orthant_instance(rng):
    m = int(rng.integers(1, 3))
    n = int(rng.integers(m + 1, 5))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    bs = tuple(A @ rng.uniform(0.0, 2.0, size=n) for _ in range(2))
    dset = DisjunctiveSet(A, ConeProduct([nonneg(n)]), RhsFamily(explicit=bs))
    # mu in Im(A*) + K* so the cut generating set is nonempty and theta finite
    lam = rng.normal(size=m)
    gamma = rng.uniform(0.0, 1.0, size=n)
    mu = A.T @ lam + gamma
    if not np.any(mu):
        mu = gamma + 1.0
    return dset, mu


def _inf_support(dset, handle):
    """min over the expanded rhs of handle.eval, by the support program (or
    the one-row interval) rather than the branch table; nan when solver
    limits leave no finite value."""
    sigmas = [handle.eval(b) for b in dset.B.expand()]
    best = min((v for v in sigmas if not math.isnan(v)), default=math.inf)
    return math.nan if not math.isfinite(best) and any(map(math.isnan, sigmas)) else best


def test_weak_bound_on_rays():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(25):
        dset, mu = _random_orthant_instance(rng)
        handle = SupportHandle(dset, mu)
        for z in sample_extreme_rays(dset.K, 8):
            v = handle.eval(dset.A @ z)
            if math.isnan(v):
                continue
            assert v <= float(mu @ z) + 1e-6
            checked += 1
        # a few interior cone points as well
        for _ in range(2):
            z = rng.uniform(0.0, 2.0, size=dset.n)
            v = handle.eval(dset.A @ z)
            if math.isnan(v):
                continue
            assert v <= float(mu @ z) + 1e-6
            checked += 1
    assert checked >= 100


def test_support_subadditive_and_homogeneous():
    rng = np.random.default_rng(7)
    handles = []
    for name, mu in (
        ("ex4_1", [0.0, 1.0, 2.0]),
        ("ex4_2", [0.0, 0.0, 1.0]),
        ("ex2_1", [1.0, 0.0, -1.0]),
        ("cmir", [1.5, 0.5, 1.0, -0.5, 0.0]),
    ):
        fx = builtin(name)
        handles.append(SupportHandle(fx.dset, mu))
    sub_checked = 0
    hom_checked = 0
    while sub_checked < 104:
        h = handles[sub_checked % len(handles)]
        m = h.dset.m
        z1 = rng.normal(size=m)
        z2 = rng.normal(size=m)
        v1, v2, v12 = h.eval(z1), h.eval(z2), h.eval(z1 + z2)
        if any(math.isnan(v) or math.isinf(v) for v in (v1, v2, v12)):
            sub_checked += 1
            continue
        assert v12 <= v1 + v2 + 1e-6
        sub_checked += 1
        for beta in (0.5, 2.0, 10.0):
            vb = h.eval(beta * z1)
            if math.isinf(vb) or math.isnan(vb):
                continue
            assert abs(vb - beta * v1) <= 1e-6 * beta
            hom_checked += 1
    assert hom_checked >= 100


def test_inf_support_bounds_theta():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 100:
        dset, mu = _random_orthant_instance(rng)
        th = theta(dset, mu)
        if math.isnan(th.value):
            continue
        inf_sigma = _inf_support(dset, SupportHandle(dset, mu))
        if math.isnan(inf_sigma):
            continue
        assert inf_sigma <= th.value + 1e-6
        checked += 1


def test_orthant_equalities_under_per_column_conditions():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        dset, mu = _random_orthant_instance(rng)
        if checked % 2 == 0:
            # adjoint image: the per-column conditions hold with equality
            mu = dset.A.T @ rng.normal(size=dset.m)
            if not np.any(mu):
                continue
        per_column = [oracle_lp(mu, dset.A, dset.A[:, i]) for i in range(dset.n)]
        if not all(st == "optimal" and v >= mu[i] - 1e-6
                   for i, (st, v, _) in enumerate(per_column)):
            continue
        handle = SupportHandle(dset, mu)
        ok = True
        for i in range(dset.n):
            v = handle.eval(dset.A[:, i])
            if math.isnan(v) or math.isinf(v):
                ok = False
                break
            assert abs(v - mu[i]) <= 1e-6, (dset.A, mu, i, v)
        if not ok:
            continue
        th = theta(dset, mu)
        inf_sigma = _inf_support(dset, handle)
        if math.isfinite(th.value) and math.isfinite(inf_sigma):
            assert abs(inf_sigma - th.value) <= 1e-6
        checked += 1


def test_solver_against_enumeration_oracle():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        m = int(rng.integers(1, 3))
        n = int(rng.integers(m + 1, 6))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        if rng.random() < 0.7:
            b = A @ rng.uniform(0.0, 2.0, size=n)
        else:
            b = rng.integers(-4, 5, size=m).astype(float)
        status, value, _ = oracle_lp(c, A, b)
        sol = solve(ConicProgram(c, A, b, ConeProduct([nonneg(n)])))
        if sol.status is SolveStatus.NUMERICAL_LIMIT:
            continue
        if status == "optimal":
            assert sol.status is SolveStatus.OPTIMAL, (A, b, c)
            assert sol.objective == pytest.approx(value, rel=1e-6, abs=1e-6)
        elif status == "infeasible":
            assert sol.status is SolveStatus.PRIMAL_INFEASIBLE, (A, b, c)
        else:
            assert sol.status is SolveStatus.DUAL_INFEASIBLE, (A, b, c)
        checked += 1


def test_positive_scaling_verdict_invariance():
    opts = AnalysisOptions(samples=64)
    for name in names():
        fx = builtin(name)
        for fi in fx.inequalities:
            base = full_report(fx.dset, fi.inequality, opts).final_verdict
            for tau in (0.5, 3.0):
                scaled = Inequality(
                    tau * fi.inequality.mu, tau * fi.inequality.eta0
                )
                verdict = full_report(fx.dset, scaled, opts).final_verdict
                assert verdict == base, (name, fi.inequality.name, tau, verdict, base)


# ---------------------------------------------------------------------------
# one-row D_mu: the closed-form interval against the support program

# integer xbar with integer norm, so that (xbar, |xbar|) lies exactly on the
# boundary of L^(len + 1)
_BOUNDARY_BARS = {2: [1.0], 3: [3.0, 4.0], 4: [1.0, 2.0, 2.0], 5: [1.0, 1.0, 1.0, 1.0]}


def _lorentz_point(rng, dim, depth):
    """An integer point of L^dim whose radius exceeds |xbar| by at least depth."""
    bar = rng.integers(-2, 3, size=dim - 1).astype(float)
    return np.append(bar, math.ceil(np.linalg.norm(bar)) + depth)


def _one_row_instance(rng, case):
    """A one-row set over L^2..L^5 blocks and an orthant, with integer data
    and a mu whose D_mu has the named shape: "generic", "unbounded" above,
    "point" (the single point lam0), "empty", or "boundary" (the row's first
    block on the boundary of L or -L)."""
    dims = [int(d) for d in rng.integers(2, 6, size=int(rng.integers(1, 3)))]
    k = int(rng.integers(2, 4))
    K = ConeProduct([lorentz(d) for d in dims] + [nonneg(k)])
    n = K.dim
    first = slice(0, dims[0])
    a = rng.integers(-2, 3, size=n).astype(float)
    # mu = lam0 * a + gamma with gamma in int K*, so lam0 lies in D_mu
    gamma = np.concatenate(
        [_lorentz_point(rng, d, 1) for d in dims] + [rng.integers(1, 3, size=k).astype(float)]
    )
    lam0 = float(rng.integers(-2, 3))
    if case == "unbounded":  # -a in K*
        a = -np.concatenate(
            [_lorentz_point(rng, d, 0) for d in dims] + [rng.integers(0, 3, size=k).astype(float)]
        )
    elif case == "boundary":
        bar = np.array(_BOUNDARY_BARS[dims[0]]) * rng.choice([-1.0, 1.0], size=dims[0] - 1)
        a[first] = rng.choice([-1.0, 1.0]) * np.append(bar, np.linalg.norm(bar))
    elif case == "point":  # the first block's row lies outside L and -L, mu = lam0 * a there
        bar = rng.integers(-2, 3, size=dims[0] - 1).astype(float)
        bar[0] = bar[0] or 1.0
        a[first] = np.append(bar, 0.0)
        gamma[first] = 0.0
    elif case == "empty":
        variant = int(rng.integers(3))
        if variant == 0:  # the first block's radius is negative for every lambda
            a[first] = np.append(rng.integers(-2, 3, size=dims[0] - 1), 0.0)
            gamma[first] = -_lorentz_point(rng, dims[0], 1)
        elif variant == 1 and dims[0] >= 3:
            # mu - lam*a = (-lam, 2, 0, ..., 1) on the first block: outside L
            # and -L for every lambda (the quadratic has no real root)
            a[first] = np.eye(dims[0])[0]
            gamma[first] = np.eye(dims[0])[1] * 2.0 + np.eye(dims[0])[-1] - lam0 * a[first]
        else:  # lambda <= lam0 - 1 and lambda >= lam0 on two orthant coordinates
            a[n - 2 :] = [1.0, -1.0]
            gamma[n - 2 :] = [-1.0, 0.0]
    mu = lam0 * a + gamma
    bs = tuple(np.array([float(b)]) for b in rng.integers(-3, 4, size=2))
    return DisjunctiveSet(a.reshape(1, -1), K, RhsFamily(explicit=bs)), mu, lam0


def _support_program(dset, mu, z):
    """sigma_{D_mu}(z) as the conic program max z.lam : A^T lam + gamma = mu,
    gamma in K*, in the solver's min form."""
    n = dset.n
    return solve(ConicProgram(
        np.concatenate([-np.atleast_1d(np.asarray(z, dtype=float)), np.zeros(n)]),
        np.hstack([dset.A.T, np.eye(n)]),
        mu,
        ConeProduct([free(dset.m)] + list(dset.K.dual().blocks)),
    ))


def _support_value(dset, mu, z):
    """The support program's sigma_{D_mu}(z): its optimum, +inf when it is
    unbounded, -inf when D_mu is empty and nan on a solver limit."""
    sol = _support_program(dset, mu, z)
    if sol.status is SolveStatus.OPTIMAL:
        return -sol.objective
    return {SolveStatus.DUAL_INFEASIBLE: math.inf,
            SolveStatus.PRIMAL_INFEASIBLE: -math.inf}.get(sol.status, math.nan)


def test_one_row_support_matches_support_program(monkeypatch):
    handle_solves = []
    monkeypatch.setattr(analysis, "solve", lambda *args: handle_solves.append(args))
    rng = np.random.default_rng(5)
    statuses = {s: 0 for s in SolveStatus}
    for case in ("generic", "unbounded", "point", "empty", "boundary") * 12:
        dset, mu, lam0 = _one_row_instance(rng, case)
        h = SupportHandle(dset, mu)
        for z in [1.0, -1.0] + [float(b[0]) for b in dset.B.expand()]:
            sol = _support_program(dset, mu, z)
            statuses[sol.status] += 1
            if case == "empty":
                assert sol.status is SolveStatus.PRIMAL_INFEASIBLE
                with pytest.raises(EmptyCutSetError):
                    h.eval([z])
                continue
            got = h.eval([z])
            if case == "point":
                assert got == pytest.approx(z * lam0, abs=1e-12)
            if case == "unbounded" and z > 0:
                assert got == math.inf
            if sol.status is SolveStatus.OPTIMAL:
                assert got == pytest.approx(-sol.objective, abs=1e-6 * (1.0 + abs(got)))
            elif sol.status is SolveStatus.DUAL_INFEASIBLE:
                assert got == math.inf
            else:  # the program has no strictly feasible point only when D_mu is one point
                assert case == "point"
    # every case ran in closed form, and the solver met each outcome
    assert not handle_solves
    assert statuses[SolveStatus.OPTIMAL] >= 100
    assert statuses[SolveStatus.DUAL_INFEASIBLE] >= 15
    assert statuses[SolveStatus.PRIMAL_INFEASIBLE] >= 15


def _branch_table_instance(rng, blocks):
    """A two-row set over the given cone with two feasible right-hand sides
    and one that may be infeasible, and a mu = A^T lam + gamma with gamma in
    int K*, so D_mu is nonempty."""
    K = ConeProduct(blocks)
    A = rng.integers(-2, 3, size=(2, K.dim)).astype(float)
    gamma = np.concatenate([_lorentz_point(rng, blk.dim, 1) if blk.kind is BlockKind.LORENTZ
                            else rng.uniform(0.5, 2.0, blk.dim) for blk in blocks])
    points = [np.concatenate([_lorentz_point(rng, blk.dim, 1) if blk.kind is BlockKind.LORENTZ
                              else rng.uniform(0.0, 2.0, blk.dim) for blk in blocks])
              for _ in range(2)]
    bs = tuple(A @ x for x in points) + (rng.integers(-3, 4, size=2).astype(float),)
    return DisjunctiveSet(A, K, RhsFamily(explicit=bs)), A.T @ rng.normal(size=2) + gamma


def test_branch_table_sigma_matches_support():
    """Each optimal row's sigma = y.b, each infeasible row's +inf, and the
    table's inf sigma agree with the support program, solved here on its own
    rather than as the dual of the branch program."""
    cases = [(fx.dset, fi.inequality.mu) for fx in map(builtin, names())
             for fi in fx.inequalities]
    rng = np.random.default_rng(31)
    for blocks in ([nonneg(4)], [nonneg(5)], [lorentz(3)] * 2, [lorentz(3), nonneg(2)]) * 6:
        cases.append(_branch_table_instance(rng, blocks))
    rows = {"optimal": 0, "infeasible": 0}
    for dset, mu in cases:
        th = theta(dset, mu)
        sigmas = []
        for r in th.table:
            s = _support_value(dset, mu, r.b)
            sigmas.append(s)
            if r.status == "optimal" and not math.isnan(s):
                assert r.sigma == pytest.approx(s, abs=1e-6), (dset.A, mu, r.label)
                rows["optimal"] += 1
            elif r.status == "infeasible":
                assert r.sigma == s == math.inf
                rows["infeasible"] += 1
        if not any(math.isnan(s) for s in sigmas):
            assert th.inf_sigma == pytest.approx(min(sigmas), abs=1e-6)
    assert rows["optimal"] >= 100 and rows["infeasible"] >= 10


def _multi_row_instance(rng, m, blocks, empty):
    """An m-row set over the given cone, a mu and eight directions. D_mu is
    nonempty (mu = A^T lam + gamma with gamma in int K*) unless `empty`,
    which zeroes A on the first block and puts mu there in -int K. The
    directions are four images A x of interior points of K, where the branch
    program is feasible, and four integer vectors, some of which A(K)
    misses, so that sigma is +inf there."""
    K = ConeProduct(blocks)
    A = rng.integers(-2, 3, size=(m, K.dim)).astype(float)

    def interior():
        return np.concatenate([_lorentz_point(rng, blk.dim, 1) if blk.kind is BlockKind.LORENTZ
                               else rng.uniform(0.5, 2.0, blk.dim) for blk in blocks])

    mu = A.T @ rng.normal(size=m) + interior()
    if empty:
        d = blocks[0].dim
        A[:, :d] = 0.0
        mu[:d] = -K.canonical_interior_point()[:d]
    Z = np.vstack([A @ interior() for _ in range(4)]
                  + [rng.integers(-2, 3, size=(4, m)).astype(float)])
    return DisjunctiveSet(A, K, RhsFamily(explicit=(Z[0],))), mu, Z


def test_stacked_support_matches_single_and_support_program(monkeypatch):
    """eval on a (k, m) stack equals eval one direction at a time and the
    support program; an empty D_mu raises either way; and the tight-ray
    search evaluates all its samples in one batched solve and makes none
    for its reflected rays."""
    batches = []
    real_batch = analysis.solve_batch
    monkeypatch.setattr(analysis, "solve_batch",
                        lambda p, rhs, opts=None, c=None: batches.append(len(rhs))
                        or real_batch(p, rhs, opts, c))
    rng = np.random.default_rng(17)
    rows = Counter()
    for rep in range(4):
        for m in (2, 3):
            for blocks in ([nonneg(5)], [lorentz(3)] * 2, [lorentz(3), nonneg(3)]):
                dset, mu, Z = _multi_row_instance(rng, m, blocks, empty=rep == 3)
                want = [_support_value(dset, mu, z) for z in Z]
                if rep == 3:
                    assert all(v == -math.inf for v in want)
                    with pytest.raises(EmptyCutSetError):
                        SupportHandle(dset, mu).eval(Z)
                    for z in Z:
                        with pytest.raises(EmptyCutSetError):
                            SupportHandle(dset, mu).eval(z)
                    rows["empty"] += 1
                    continue
                stacked = SupportHandle(dset, mu).eval(Z)
                single = [SupportHandle(dset, mu).eval(z) for z in Z]
                assert stacked.shape == (len(Z),)
                for got, one, ref in zip(stacked, single, want):
                    assert got == pytest.approx(one, abs=1e-6)
                    if not math.isnan(ref):
                        assert got == pytest.approx(ref, abs=1e-6), (dset.A, mu)
                        rows["inf" if ref == math.inf else "finite"] += 1
                if rep == 0 and m == 2:
                    batches.clear()
                    tight_extreme_ray_search(SupportHandle(dset, mu, AnalysisOptions(samples=16)))
                    samples = {tuple(np.round(dset.A @ z, 12))
                               for z in sample_extreme_rays(dset.K, 16)}
                    assert batches[0] == len(samples)
                    assert len(batches) == 1  # no batch after the sample sweep
    assert rows["finite"] >= 100 and rows["inf"] >= 20 and rows["empty"] == 6


def test_reflected_ray_gap_bounds_are_sound():
    """Every reflected ray's recorded gap is <gamma, z> >= 0 for a point of
    D_mu the handle holds, and it bounds the support gap, solved here at
    tolerances of 1e-10: 0 <= gap <= bound, to 1e-9. At the default
    tolerances the solved gaps carry up to 1e-7 of noise. Rows that end at
    a solver limit give no value; they are at most one in nine per set. A
    search that solves every reflected ray at the default tolerances keeps
    as many tight rays."""
    rng = np.random.default_rng(5)
    tight_opts = SolverOptions(feas_tol=1e-10, gap_tol=1e-10)
    checked = 0
    for m in (2, 3):
        for blocks in ([lorentz(3)] * 2, [lorentz(3), nonneg(3)], [lorentz(4), lorentz(3)]):
            dset, mu, _ = _multi_row_instance(rng, m, blocks, empty=False)
            h = SupportHandle(dset, mu)
            rays, gaps = tight_extreme_ray_search(h)
            Z, bounds = analysis._reflected_rays(h)
            assert len(Z) and np.all(bounds >= 0.0) and np.all(bounds <= h.opts.tol)
            gammas = mu - np.reshape(h.points, (-1, m)) @ dset.A
            exact = np.maximum(Z @ gammas.T, 0.0)
            assert np.all(np.min(np.abs(exact - bounds[:, None]), axis=1) <= 1e-12)
            sols = solve_batch(ConicProgram(mu, dset.A, dset.A @ Z[0], dset.K), Z @ dset.A.T,
                               tight_opts)
            optimal = [(z, sol, bound) for z, sol, bound in zip(Z, sols, bounds)
                       if sol.status is SolveStatus.OPTIMAL]
            assert len(optimal) >= 0.85 * len(Z)
            for z, sol, bound in optimal:
                gap = float(mu @ z - sol.y @ (dset.A @ z))
                assert -1e-9 <= gap <= bound + 1e-9, (dset.A, mu, z)
            checked += len(optimal)
            solved = mu @ Z.T - h.eval(Z @ dset.A.T)
            samples = sample_extreme_rays(dset.K, 256)
            full = analysis._distinct_tight_rays(np.vstack([samples, Z]),
                                                 np.concatenate([gaps, solved]), h.opts.tol)
            assert len(full) == len(rays)
    assert checked >= 1000


def test_unknown_dmu_is_settled_once(monkeypatch):
    """When the (A.0) feasibility solve ends at a limit, +inf rows read nan,
    decide_A0 is Inconclusive, and that solve is not repeated; once an
    optimal row shows a point of D_mu, the cached rows read +inf again and
    decide_A0 holds with that point."""
    dset, mu, Z = _multi_row_instance(np.random.default_rng(17), 2, [nonneg(5)], empty=False)
    want = SupportHandle(dset, mu).eval(Z)
    inf, finite = Z[want == math.inf], Z[np.isfinite(want)]
    assert len(inf) and len(finite)
    h = SupportHandle(dset, mu)
    calls = []
    monkeypatch.setattr(h, "feasibility",
                        lambda: calls.append(1) or Solution(SolveStatus.NUMERICAL_LIMIT))
    for z in inf:
        assert math.isnan(h.eval(z))
    assert np.isnan(h.eval(inf)).all() and len(calls) == 1
    assert h.decide_A0() == (Status.INCONCLUSIVE, {}) and len(calls) == 1
    assert h.eval(finite) == pytest.approx(want[np.isfinite(want)])
    assert (h.eval(inf) == math.inf).all() and len(calls) == 1
    status, witness = h.decide_A0()
    assert status is Status.HOLDS and len(calls) == 1
    assert dset.K.dual().contains(witness["gamma"], 1e-6)


def _minimality_cases():
    """Every fixture x inequality, and cmir at f in {0.1, 0.25, 0.5, 0.6, 0.9}
    and M in {6, 8, 10, 12}."""
    cases = [(fx.dset, fi.inequality) for fx in map(builtin, names())
             for fi in fx.inequalities]
    for f in (0.1, 0.25, 0.5, 0.6, 0.9):
        for M in (6, 8, 10, 12):
            fx = builtin("cmir", f=f, M=M)
            cases += [(fx.dset, fi.inequality) for fi in fx.inequalities]
    return cases


def _joint_program_points(dset, mu, eta0, tight):
    """Points for the minimality witness from one joint program: x^i in K
    with A x^i = b^i and <mu, x^i> = eta0 per tight row, and w in K and
    t <= 1 with sum_i x^i = w + t e, maximizing t. The iterate is kept even
    when the solve stalls (tight-branch geometry is often degenerate);
    None when the solve returns no iterate."""
    n, m, r = dset.n, dset.m, len(tight)
    e = dset.K.canonical_interior_point()
    nv = r * n + n + 2
    A = np.zeros((r * (m + 1) + n + 1, nv))
    b = np.zeros(len(A))
    for i, row in enumerate(tight):
        A[i * m:(i + 1) * m, i * n:(i + 1) * n] = dset.A
        b[i * m:(i + 1) * m] = row.b
        A[r * m + i, i * n:(i + 1) * n] = mu
        b[r * m + i] = eta0
        A[r * (m + 1):r * (m + 1) + n, i * n:(i + 1) * n] = np.eye(n)
    A[r * (m + 1):r * (m + 1) + n, r * n:r * n + n + 1] = np.hstack([-np.eye(n), -e[:, None]])
    A[-1, -2:] = 1.0
    b[-1] = 1.0
    c = np.zeros(nv)
    c[-2] = -1.0
    cone = ConeProduct(list(dset.K.blocks) * (r + 1) + [free(1), nonneg(1)])
    sol = solve(ConicProgram(c, A, b, cone))
    return None if sol.x is None else [sol.x[i * n:(i + 1) * n] for i in range(r)]


def test_table_witness_matches_joint_program(monkeypatch):
    """check_minimal_sufficient, which reads its points from the branch
    table and makes no solve, has the status of the witness a joint program
    for those points would give, on every fixture and the cmir grid."""
    solves = []
    real_solve = analysis.solve
    monkeypatch.setattr(analysis, "solve", lambda *args: solves.append(args) or real_solve(*args))
    statuses = Counter()
    for dset, ineq in _minimality_cases():
        eta0 = float(ineq.eta0)
        th = theta(dset, ineq.mu)
        solves.clear()
        status, _ = check_minimal_sufficient(th, eta0)
        assert not solves
        if status is Status.NOT_APPLICABLE:
            continue
        statuses[status] += 1
        tight = analysis._tight_rows(th, eta0)
        xs = _joint_program_points(dset, th.handle.mu, eta0, tight)
        joint = (Status.INCONCLUSIVE if xs is None else
                 analysis._verify_point_sum(th, eta0, tight, xs)[0])
        assert status is joint, (dset.A, ineq.name)
    assert statuses[Status.HOLDS] >= 45 and statuses[Status.INCONCLUSIVE] >= 4
