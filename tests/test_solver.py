import math
from dataclasses import replace

import numpy as np
import pytest

from conecert import solver
from conecert.cones import ConeBlock, BlockKind, ConeProduct, free, lorentz, nonneg, zero
from conecert.fixtures import builtin
from conecert.separation import _cut_program, branches_from_set
from conecert.solver import (
    ConicProgram,
    Solution,
    SolveStatus,
    SolverOptions,
    _Verifier,
    solve,
    solve_batch,
)

from oracles import oracle_lp
from test_separation import _seeded_split


def test_small_lp_optimal():
    p = ConicProgram(
        c=[1.0, 2.0],
        A=[[1.0, 1.0]],
        b=[1.0],
        cone=ConeProduct([nonneg(2)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-6)
    assert _Verifier(p, SolverOptions()).optimal(p.b, p.c, sol)


def test_lorentz_optimal():
    # min -x2 over L3 with radius fixed: optimum at the boundary
    p = ConicProgram(
        c=[0.0, -1.0, 0.0],
        A=[[0.0, 0.0, 1.0]],
        b=[1.0],
        cone=ConeProduct([lorentz(3)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-6)


def test_lorentz_radius_minimization():
    p = ConicProgram(
        c=[0.0, 0.0, 1.0],
        A=[[1.0, 0.0, 0.0]],
        b=[1.0],
        cone=ConeProduct([lorentz(3)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_free_and_zero_blocks():
    # free variable pair with an equality linking them
    p = ConicProgram(
        c=[1.0, 0.0, 0.0],
        A=[[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
        b=[2.0, 0.0],
        cone=ConeProduct([free(1), nonneg(1), zero(1)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-6)


def test_primal_infeasible_certificate():
    p = ConicProgram(
        c=[0.0],
        A=[[1.0]],
        b=[-1.0],
        cone=ConeProduct([nonneg(1)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.PRIMAL_INFEASIBLE
    y = sol.certificate
    # Farkas: A^T y <= 0 (dual cone of Nonneg), b.y > 0
    assert (np.asarray(p.A).T @ y)[0] <= 1e-8
    assert float(np.asarray(p.b) @ y) > 1e-8


def test_dual_infeasible_certificate():
    p = ConicProgram(
        c=[-1.0, -1.0],
        A=[[1.0, -1.0]],
        b=[0.0],
        cone=ConeProduct([nonneg(2)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.DUAL_INFEASIBLE
    d = sol.certificate
    assert np.min(d) >= -1e-8
    assert abs(np.asarray(p.A) @ d)[0] <= 1e-6 * max(1.0, np.linalg.norm(d))
    assert float(np.asarray(p.c) @ d) < -1e-8


def test_lorentz_infeasible():
    # x in L3 with x3 = -1 is impossible
    p = ConicProgram(
        c=[0.0, 0.0, 0.0],
        A=[[0.0, 0.0, 1.0]],
        b=[-1.0],
        cone=ConeProduct([lorentz(3)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.PRIMAL_INFEASIBLE


def test_scale_invariance():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 5))
    x0 = rng.uniform(0.5, 1.5, size=5)
    b = A @ x0
    # dual-feasible objective so the optimum is finite
    c = A.T @ rng.normal(size=2) + rng.uniform(0.1, 1.0, size=5)
    K = ConeProduct([nonneg(5)])
    base = solve(ConicProgram(c, A, b, K))
    assert base.status is SolveStatus.OPTIMAL
    for tau in (1e-3, 1e3):
        scaled = solve(ConicProgram(tau * c, A, b, K))
        assert scaled.status is SolveStatus.OPTIMAL
        assert scaled.objective == pytest.approx(tau * base.objective, rel=1e-6, abs=1e-6)


def test_validation_errors():
    with pytest.raises(ValueError):
        ConicProgram(c=[1.0], A=[[1.0, 2.0]], b=[1.0], cone=ConeProduct([nonneg(1)]))
    with pytest.raises(ValueError):
        ConicProgram(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0, 2.0], cone=ConeProduct([nonneg(2)]))


def test_agrees_with_basic_solution_oracle():
    rng = np.random.default_rng(11)
    agree = 0
    for _ in range(60):
        m = rng.integers(1, 3)
        n = rng.integers(int(m) + 1, 6)
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        if rng.random() < 0.7:
            b = A @ rng.uniform(0.0, 2.0, size=n)
        else:
            b = rng.integers(-4, 5, size=m).astype(float)
        status, value, _ = oracle_lp(c, A, b)
        sol = solve(ConicProgram(c, A, b, ConeProduct([nonneg(int(n))])))
        if status == "optimal":
            assert sol.status is SolveStatus.OPTIMAL, (A, b, c)
            assert sol.objective == pytest.approx(value, rel=1e-6, abs=1e-6)
        elif status == "infeasible":
            assert sol.status is SolveStatus.PRIMAL_INFEASIBLE
        else:
            assert sol.status is SolveStatus.DUAL_INFEASIBLE
        agree += 1
    assert agree == 60


# ---------------------------------------------------------------------------
# certificate checks


def _ray_ok(p, sol):
    return solver._Verifier(p, SolverOptions()).ray(p.b, p.c, sol)


def test_primal_ray_check_rejects_doctored_certificates():
    p = ConicProgram(
        c=[0.0, 0.0, 0.0, 0.0],
        A=[[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        b=[-1.0, 2.0],
        cone=ConeProduct([lorentz(3), free(1)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.PRIMAL_INFEASIBLE
    y = sol.certificate
    # y is a ray of the program with b times s too, and the check does not
    # depend on s
    for s in (1e-6, 1.0, 1e6):
        ps = replace(p, b=s * p.b)
        assert _ray_ok(ps, sol)
        # b.y <= 0
        assert not _ray_ok(ps, Solution(sol.status, certificate=-y))
        # -A'y leaves the Lorentz block of K*
        assert not _ray_ok(ps, Solution(sol.status, certificate=y + [2.0, 0.0]))
        # -A'y is nonzero on the free block, whose dual block is {0}
        assert not _ray_ok(ps, Solution(sol.status, certificate=y + [0.0, 1e-3]))


def test_dual_ray_check_rejects_doctored_certificates():
    p = ConicProgram(
        c=[-1.0, -1.0, 0.0],
        A=[[1.0, -1.0, 0.0]],
        b=[0.0],
        cone=ConeProduct([nonneg(3)]),
    )
    sol = solve(p)
    assert sol.status is SolveStatus.DUAL_INFEASIBLE
    x = sol.certificate
    # x is a ray of the program with c times s too, and the check does not
    # depend on s
    for s in (1e-6, 1.0, 1e6):
        ps = replace(p, c=s * p.c)
        assert _ray_ok(ps, sol)
        # c.x >= 0
        assert not _ray_ok(ps, Solution(sol.status, certificate=-x))
        # Ax != 0
        assert not _ray_ok(ps, Solution(sol.status, certificate=x + [1.0, 0.0, 0.0]))
        # x leaves K
        assert not _ray_ok(ps, Solution(sol.status, certificate=x + [0.0, 0.0, -1.0]))


def test_failed_ray_check_downgrades_to_numerical_limit(monkeypatch):
    infeasible = ConicProgram(c=[0.0], A=[[1.0]], b=[-1.0], cone=ConeProduct([nonneg(1)]))
    unbounded = ConicProgram(c=[-1.0, -1.0], A=[[1.0, -1.0]], b=[0.0],
                             cone=ConeProduct([nonneg(2)]))
    monkeypatch.setattr(solver._Verifier, "ray", lambda self, b, c, sol: False)
    for p in (infeasible, unbounded):
        sol = solve(p)
        assert sol.status is SolveStatus.NUMERICAL_LIMIT
        assert sol.certificate is None and sol.iterations > 0


def test_verifier_cone_checks_read_the_margin():
    # x in Free x Zero x Nonneg, so s in Zero x Free x Nonneg
    p = ConicProgram(c=[1.0, 0.0, 1.0], A=[[1.0, 1.0, 1.0]], b=[1.0],
                     cone=ConeProduct([free(1), zero(1), nonneg(1)]))
    check = solver._Verifier(p, SolverOptions())

    def violations(x, s):
        rec = check.residuals(p.b, p.c, Solution(SolveStatus.OPTIMAL, x=np.array(x),
                                                 y=np.zeros(1), s=np.array(s), objective=0.0))
        return rec["cone_violation"], rec["dual_cone_violation"]

    # Free blocks are ignored, Zero blocks are checked by |v|
    assert violations([-5.0, 0.0, 1.0], [0.0, -7.0, 2.0]) == (0.0, 0.0)
    assert violations([-5.0, -0.25, 1.0], [0.5, -7.0, 2.0]) == (0.25, 0.5)
    assert violations([-5.0, 0.25, 1.0], [-0.5, -7.0, -2.0]) == (0.25, 2.0)
    # a nan stays nan, and a candidate optimum with a nan ends NumericalLimit
    assert math.isnan(violations([0.0, 0.0, math.nan], [0.0, 0.0, 1.0])[0])
    sol = solve(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert check(p.b, p.c, sol).status is SolveStatus.OPTIMAL
    for i in range(3):
        x = sol.x.copy()
        x[i] = math.nan
        doctored = Solution(SolveStatus.OPTIMAL, x=x, y=sol.y, s=sol.s,
                            objective=sol.objective, iterations=sol.iterations)
        assert check(p.b, p.c, doctored).status is SolveStatus.NUMERICAL_LIMIT


# ---------------------------------------------------------------------------
# lockstep batches


def test_weak_farkas_ray_is_not_infeasibility():
    # D_mu = {lam : mu - lam*a in K*} over K = L4 x L2 x N2 is the one point
    # lam = -2, so the (A.0) program over (lam free, gamma in K*) is feasible
    # with no strictly feasible point. The IPM's screen finds a Farkas ray
    # there with b.y = 1 that leaves K* by 0.53, small only relative to its
    # own size. The verifier rejects it, and the row iterates on to the
    # optimum, lam = -2 (at iteration 6, and 13 at the second scale).
    a = np.array([1.0, 0.0, -2.0, 0.0, 2.0, 0.0, 0.0, 2.0])
    mu = np.array([-2.0, 0.0, 4.0, 0.0, -6.0, 3.0, 1.0, -3.0])
    K = ConeProduct([lorentz(4), lorentz(2), nonneg(2)])
    assert K.dual().contains(mu + 2.0 * a)
    # The check does not depend on the scale of mu (the program's b): the
    # ray of mu * 1e6 is 1e6 times longer and leaves K* by as much.
    for scale in (1.0, 1e6):
        p = ConicProgram(np.zeros(9), np.hstack([a[:, None], np.eye(8)]), scale * mu,
                         ConeProduct([free(1)] + list(K.dual().blocks)))
        sol = solve(p)
        assert sol.status is SolveStatus.OPTIMAL, scale
        assert sol.x[0] == pytest.approx(-2.0 * scale, rel=1e-8)


def _batch_family(rng, unbounded: bool):
    """A seeded (c, A, K) over Nonneg, L2/L3/L4, Free and Zero blocks (in a
    shuffled order) with feasible and infeasible right-hand sides. Row 0 of
    A lies in K*, so b_0 < 0 is infeasible. With `unbounded`, column j of A
    is 0 and c_j < 0 for a Nonneg coordinate j, so the dual is infeasible.
    One (c, A, K) cannot give both Optimal and DualInfeasible rows: dual
    feasibility does not depend on b."""
    blocks = [nonneg(int(rng.integers(1, 3))), lorentz(2), lorentz(3), lorentz(4),
              lorentz(int(rng.integers(2, 5))), free(1), zero(1)]
    blocks = [blocks[i] for i in rng.permutation(len(blocks))]
    K = ConeProduct(blocks)
    n, m = K.dim, int(rng.integers(2, 4))
    a0, x0, s0 = np.zeros(n), np.zeros(n), np.zeros(n)
    for blk, off in K.offsets():
        sl = slice(off, off + blk.dim)
        if blk.kind is BlockKind.NONNEG:
            a0[sl] = rng.uniform(0.5, 1.5, blk.dim)
            x0[sl] = rng.uniform(0.5, 1.5, blk.dim)
            s0[sl] = rng.uniform(0.5, 1.5, blk.dim)
        elif blk.kind is BlockKind.LORENTZ:
            for v in (a0, x0, s0):
                v[off : off + blk.dim - 1] = rng.normal(size=blk.dim - 1)
                v[off + blk.dim - 1] = np.linalg.norm(v[off : off + blk.dim - 1]) + 0.5
        elif blk.kind is BlockKind.FREE:
            x0[sl] = rng.normal(size=blk.dim)
        else:  # Zero: x = 0 there, anything in K* = Free
            a0[sl] = rng.normal(size=blk.dim)
            s0[sl] = rng.normal(size=blk.dim)
    A = np.vstack([a0, rng.normal(size=(m - 1, n))])
    c = A.T @ rng.normal(size=m) + s0
    if unbounded:
        j = next(off for blk, off in K.offsets() if blk.kind is BlockKind.NONNEG)
        A[:, j] = 0.0
        c[j] = -1.0
    rhs = []
    for _ in range(6):
        b = A @ (x0 * rng.uniform(0.5, 2.0))
        if rng.random() < 0.4:
            b[0] = -rng.uniform(0.5, 2.0)
        rhs.append(b)
    return c, A, K, np.array(rhs)


def test_batch_rows_match_single_solves():
    rng = np.random.default_rng(2024)
    seen, mixed = set(), 0
    for trial in range(12):
        c, A, K, rhs = _batch_family(rng, unbounded=trial % 3 == 2)
        p = ConicProgram(c, A, rhs[0], K)
        batch = solve_batch(p, rhs)
        order = rng.permutation(len(rhs))
        permuted = solve_batch(p, rhs[order])
        statuses = set()
        for i, b in enumerate(rhs):
            single = solve(ConicProgram(c, A, b, K))
            for got in (batch[i], permuted[int(np.flatnonzero(order == i)[0])]):
                assert got.status is single.status, (trial, i)
                assert got.iterations == single.iterations, (trial, i)
                if single.objective is not None:
                    assert abs(got.objective - single.objective) <= 1e-8 * (
                        1.0 + abs(single.objective))
            statuses.add(single.status)
        seen |= statuses
        mixed += len(statuses) > 1
    assert {SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE,
            SolveStatus.DUAL_INFEASIBLE} <= seen
    assert mixed >= 6


def test_batch_validates_rhs():
    p = ConicProgram(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], cone=ConeProduct([nonneg(2)]))
    assert solve_batch(p, np.zeros((0, 1))) == []
    with pytest.raises(ValueError):
        solve_batch(p, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        solve_batch(p, [[np.inf]])


def test_batch_validates_objectives():
    p = ConicProgram(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], cone=ConeProduct([nonneg(2)]))
    assert solve_batch(p, np.zeros((0, 1)), c=np.zeros((0, 2))) == []
    for c in ([1.0, 2.0], [[1.0, 2.0]] * 3, [[1.0, 2.0, 3.0]] * 2, [[1.0, np.nan]] * 2,
              [[1.0, -np.inf]] * 2):
        with pytest.raises(ValueError):
            solve_batch(p, [[1.0], [2.0]], c=c)


def test_batch_rows_with_own_objectives_match_single_solves():
    """Each row of a batch with one objective per row is, bit for bit, the
    one-row solve of its own program. Column j of A is 0, so the rows with
    c_j = -1 are unbounded where they are feasible, and the rows with
    c_j = +1 are bounded."""
    rng = np.random.default_rng(77)
    seen, mixed = set(), 0
    for trial in range(8):
        c, A, K, rhs = _batch_family(rng, unbounded=True)
        j = next(off for blk, off in K.offsets() if blk.kind is BlockKind.NONNEG)
        C = c + rng.normal(size=(len(rhs), A.shape[0])) @ A  # keeps c - A'y in K* for some y
        C[:, j] = rng.choice([-1.0, 1.0], len(rhs))
        p = ConicProgram(c, A, rhs[0], K)
        order = rng.permutation(len(rhs))
        batch, permuted = solve_batch(p, rhs, c=C), solve_batch(p, rhs[order], c=C[order])
        statuses = set()
        for i, b in enumerate(rhs):
            single = solve(ConicProgram(C[i], A, b, K))
            for got in (batch[i], permuted[int(np.flatnonzero(order == i)[0])]):
                assert got.status is single.status, (trial, i)
                assert got.iterations == single.iterations, (trial, i)
                for f in ("x", "y", "s", "certificate", "objective"):
                    assert np.array_equal(getattr(got, f), getattr(single, f)), (trial, i, f)
            statuses.add(single.status)
        seen |= statuses
        mixed += {SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE,
                  SolveStatus.DUAL_INFEASIBLE} <= statuses
    assert {SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE,
            SolveStatus.DUAL_INFEASIBLE} <= seen
    assert mixed >= 4


def test_rows_that_break_down_leave_a_mixed_batch_as_they_leave_alone():
    """The ex2_2 cut programs at four seeded points share (A, K, b), so one
    batch with one objective per row runs them together. Rows 0 and 3 break
    down before max_iters and end NumericalLimit while rows 1 and 2 end
    Optimal; each row's status, iteration count and x are, bit for bit,
    those of its own solve."""
    branches = branches_from_set(builtin("ex2_2").dset)
    points = 2.0 * np.random.default_rng(3).normal(size=(4, 3))
    programs = [_cut_program(branches, xhat)[0] for xhat in points]
    p = programs[0]
    assert all(np.array_equal(q.A, p.A) and np.array_equal(q.b, p.b) for q in programs)
    batch = solve_batch(p, np.tile(p.b, (4, 1)), c=np.stack([q.c for q in programs]))
    limit, optimal = SolveStatus.NUMERICAL_LIMIT, SolveStatus.OPTIMAL
    assert [sol.status for sol in batch] == [limit, optimal, optimal, limit]
    for i, (got, q) in enumerate(zip(batch, programs)):
        single = solve(q)
        assert got.status is single.status, i
        assert got.iterations == single.iterations < SolverOptions().max_iters, i
        assert got.x is not None and np.array_equal(got.x, single.x), i


# ---------------------------------------------------------------------------
# grouped Lorentz kernels against a per-block loop


def _grouped_cone():
    # groups of 2 x L3, 3 x L2 and 1 x L4 (radius first), then 2 Nonneg coordinates
    return solver._EmbeddingCone([(3, 2), (2, 3), (4, 1)], 2)


def _block_slices(work):
    for off, nb, d, *_ in work.groups:
        for j in range(nb):
            yield slice(off + j * d, off + (j + 1) * d)


def _interior(work, rng, rows):
    u = rng.normal(size=(rows, work.dim))
    u[:, work.lp] = rng.uniform(0.1, 2.0, size=(rows, work.lp.stop - work.lp.start))
    for sl in _block_slices(work):
        u[:, sl.start] = np.linalg.norm(u[:, sl.start + 1 : sl.stop], axis=1) + rng.uniform(
            0.05, 1.0, rows)
    return u


def _step_max_loop(work, u, du):
    alpha = math.inf
    for i in range(work.lp.start, work.lp.stop):
        if du[i] < 0:
            alpha = min(alpha, -u[i] / du[i])
    for sl in _block_slices(work):
        bar = slice(sl.start + 1, sl.stop)
        u0, ub, d0, db = u[sl.start], u[bar], du[sl.start], du[bar]
        c2, c1, c0 = d0 * d0 - db @ db, 2.0 * (u0 * d0 - ub @ db), u0 * u0 - ub @ ub
        roots = [-u0 / d0] if d0 < 0 else []
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0:
            roots += [(-c1 - math.sqrt(disc)) / (2.0 * c2), (-c1 + math.sqrt(disc)) / (2.0 * c2)]
        alpha = min([alpha] + [r for r in roots if r > 0])
    return alpha


def _jprod_loop(work, u, v):
    out = u * v
    for sl in _block_slices(work):
        out[sl.start] = u[sl] @ v[sl]
        out[sl.start + 1 : sl.stop] = u[sl.start] * v[sl.start + 1 : sl.stop] + v[sl.start] * u[
            sl.start + 1 : sl.stop]
    return out


def test_grouped_lorentz_kernels_match_block_loop():
    rng = np.random.default_rng(7)
    work = _grouped_cone()
    u, v = _interior(work, rng, 6), _interior(work, rng, 6)
    du = rng.normal(size=u.shape)
    alpha = work.step_max(u, du)
    for r in range(len(u)):
        want = _step_max_loop(work, u[r], du[r])
        assert alpha[r] == pytest.approx(want, rel=1e-9)
        # the step lands on the boundary of the cone
        edge = u[r] + alpha[r] * du[r]
        margins = list(edge[work.lp]) + [
            edge[sl.start] - np.linalg.norm(edge[sl.start + 1 : sl.stop])
            for sl in _block_slices(work)
        ]
        assert min(margins) == pytest.approx(0.0, abs=1e-9)
    prod = work.jprod(u, v)
    assert np.allclose(prod, [_jprod_loop(work, u[r], v[r]) for r in range(len(u))], rtol=1e-12)
    # jsolve inverts jprod: lam o jsolve(lam, d) = d
    q = work.jsolve(u, prod)
    assert np.allclose(q, v, rtol=1e-9, atol=1e-12)


def test_nt_scaling_identities():
    rng = np.random.default_rng(8)
    work = _grouped_cone()
    s, z = _interior(work, rng, 5), _interior(work, rng, 5)
    W = solver._Scaling(work, s, z)
    u = rng.normal(size=s.shape)
    assert np.allclose(W.mul(z), W.inv(s), rtol=1e-10, atol=1e-12)
    assert np.allclose(W.mul(W.inv(u)), u, rtol=1e-10, atol=1e-12)
    assert np.allclose(W.inv(W.mul(u)), u, rtol=1e-10, atol=1e-12)
    assert np.allclose(W.sq(u), W.mul(W.mul(u)), rtol=1e-10, atol=1e-12)
    # W z is strictly inside the cone, as the NT scaling point must be
    lam = W.mul(z)
    assert np.all(lam[:, work.lp] > 0)
    for sl in _block_slices(work):
        assert np.all(lam[:, sl.start] > np.linalg.norm(lam[:, sl.start + 1 : sl.stop], axis=1))


def test_failed_factorization_is_retried_with_a_bump(monkeypatch):
    rng = np.random.default_rng(5)
    c, A, K, rhs = _batch_family(rng, unbounded=False)
    p = ConicProgram(c, A, rhs[0], K)
    singles = [solve(ConicProgram(c, A, b, K)) for b in rhs]
    factor = solver._KKT._factor
    calls = []

    def first_of_row_1_fails(Ki, Ri, Ui):
        calls.append(1)
        if len(calls) == 2:  # row 1 in the first iteration, at the static regularization
            Ui[...] = np.nan
            return None
        return factor(Ki, Ri, Ui)

    monkeypatch.setattr(solver._KKT, "_factor", staticmethod(first_of_row_1_fails))
    batch = solve_batch(p, rhs)
    for i, (got, single) in enumerate(zip(batch, singles)):
        assert got.status is single.status, i
        if i != 1 and single.objective is not None:
            assert got.iterations == single.iterations
            assert got.objective == pytest.approx(single.objective, rel=1e-8, abs=1e-8)
    assert batch[1].status is SolveStatus.OPTIMAL
    assert batch[1].objective == pytest.approx(singles[1].objective, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# the reduced KKT solve against the full matrix


def _mixed_program(rng):
    """Free, Zero, Nonneg and L2/L3/L4 columns. Nonneg columns 2 and 3 hold
    their only nonzero in row 0 and column 12 in row 2 (one-row columns);
    Nonneg columns 4 and 11 are dense (multi-row)."""
    K = ConeProduct([free(2), nonneg(3), lorentz(3), zero(1), lorentz(2), nonneg(2),
                     lorentz(4)])
    A = rng.normal(size=(4, K.dim))
    A[1:, 2:4] = 0.0
    A[[0, 1, 3], 12] = 0.0
    return ConicProgram(rng.normal(size=K.dim), A, np.zeros(4), K)


def _dense_program(rng):
    K = ConeProduct([nonneg(3), lorentz(3)])
    return ConicProgram(rng.normal(size=K.dim), rng.normal(size=(2, K.dim)), np.zeros(2), K)


def _lorentz_program(rng):
    K = ConeProduct([lorentz(3), lorentz(2)])
    return ConicProgram(rng.normal(size=K.dim), rng.normal(size=(2, K.dim)), np.zeros(2), K)


def _full_kkt(emb, W, row, r):
    """The unreduced KKT matrix [[rI, A', G'], [A, -rI, 0], [G, 0, -(W^2 + rI)]]
    of one batch row, with G x = -x[cidx], built densely."""
    n, mh, pc = emb.n, emb.mh, emb.work.dim - 1
    size = n + mh + pc
    M = np.zeros((size, size))
    M[:n, n : n + mh] = emb.Ahat.T
    M[n : n + mh, :n] = emb.Ahat
    M[n + mh + np.arange(pc), emb.cidx] = -1.0
    M[emb.cidx, n + mh + np.arange(pc)] = -1.0
    eye = np.eye(emb.work.dim)
    W2 = np.stack([W.sq(np.tile(eye[j], (len(W.w), 1)))[row] for j in range(pc)], axis=1)
    M[n + mh :, n + mh :] = -W2[:pc]
    M[np.diag_indices(size)] += np.concatenate([np.full(n, r), np.full(mh + pc, -r)])
    return M


def _pair_program(rng, case, a):
    """Free, L3, L3, Nonneg and L2 columns (0-1, 2-4, 5-7, 8-9, 10-11; a
    Lorentz block's radius is its last column) over five dense rows, with
    one-row columns whose only nonzero is a: "distinct" puts Lorentz columns
    2, 6 and 10 in rows 0, 1 and 2; "shared" puts Lorentz columns 2 and 3 in
    row 0; "blocked" puts Lorentz column 2 and Nonneg column 8 in row 0 and
    Lorentz column 6 in row 1. Returns the program and the paired columns,
    in program order."""
    K = ConeProduct([free(2), lorentz(3), lorentz(3), nonneg(2), lorentz(2)])
    A = rng.normal(size=(5, K.dim))
    one, paired = {"distinct": ({2: 0, 6: 1, 10: 2}, [2, 6, 10]),
                   "shared": ({2: 0, 3: 0}, [2]),
                   "blocked": ({2: 0, 8: 0, 6: 1}, [6])}[case]
    for j, i in one.items():
        A[:, j] = 0.0
        A[i, j] = a
    return ConicProgram(rng.normal(size=K.dim), A, np.zeros(5), K), paired


def _reduced_solves_match_full_matrix(monkeypatch, rng, emb, bump, tol):
    """Factor-solve and solve a batch of 3 rows at seeded interior iterates
    and compare each row with a dense solve of its unreduced KKT matrix, to
    tol relative to the solution's size. A bump above 1 is reached through
    failing factorizations."""
    kkt = solver._KKT(emb)
    B = 3
    W = solver._Scaling(emb.work, _interior(emb.work, rng, B), _interior(emb.work, rng, B))
    if bump > 1.0:
        # every factorization below the bump fails: B at 1, then per row one
        # at 1e2 before the one at 1e4
        factor, calls = solver._KKT._factor, []

        def below_bump_fails(Ki, Ri, Ui):
            calls.append(1)
            if len(calls) <= B or (len(calls) - B) % 2:
                Ui[...] = np.nan
                return None
            return factor(Ki, Ri, Ui)

        monkeypatch.setattr(solver._KKT, "_factor", staticmethod(below_bump_fails))
    R = rng.normal(size=(B, 2, kkt.size))
    U = np.zeros((B, 2, kkt.size + 1))
    factors = kkt.factor_solve(W.sq_entries(), R.copy(), U)
    R3 = rng.normal(size=(B, kkt.size))
    u3 = np.zeros((B, kkt.size + 1))
    kkt.solve(factors, R3.copy(), u3)
    for i in range(B):
        M = _full_kkt(emb, W, i, solver._STATIC_REG * bump)
        want = np.linalg.solve(M, np.vstack([R[i], R3[i]]).T).T
        got = np.vstack([U[i, :, : kkt.size], u3[i, : kkt.size]])
        assert np.abs(got - want).max() <= tol * np.abs(want).max(), i
    return kkt


@pytest.mark.parametrize("make, n1, nN", [
    (_mixed_program, 3, 5), (_dense_program, 0, 3), (_lorentz_program, 0, 0)])
@pytest.mark.parametrize("bump", [1.0, 1e4])
def test_reduced_kkt_solve_matches_full_matrix(monkeypatch, make, n1, nN, bump):
    rng = np.random.default_rng(11)
    emb = solver._Embedding(make(rng))
    assert (emb.n1, emb.nN) == (n1, nN)
    kkt = _reduced_solves_match_full_matrix(monkeypatch, rng, emb, bump, 1e-9)
    assert kkt.nP == 0  # no Lorentz column has a single nonzero
    if nN == 0:
        assert kkt.rsize == kkt.size  # nothing to eliminate


@pytest.mark.parametrize("case", ["distinct", "shared", "blocked"])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("bump", [1.0, 1e4])
def test_paired_kkt_solve_matches_full_matrix(monkeypatch, case, a, bump):
    rng = np.random.default_rng(12)
    p, paired = _pair_program(rng, case, a)
    emb = solver._Embedding(p)
    kkt = _reduced_solves_match_full_matrix(monkeypatch, rng, emb, bump, 1e-10)
    assert sorted(emb.perm[kkt.pidx[: kkt.nP]].tolist()) == paired
    # each pair takes its column and its row out of the LU; the slacks stay
    assert kkt.rsize == kkt.size - emb.nN - emb.n1 - 2 * len(paired)
    assert kkt.rows.size == 2 * 9 + 4


def test_failed_factorization_of_a_pair_program_is_retried_with_a_bump(monkeypatch):
    # min c.x : A x = b over Free(2) x L3 x L3 x N2 x L2 with three pairs;
    # row 1 of the batch fails its first factorization and goes on at bump 1e2
    rng = np.random.default_rng(6)
    p, _ = _pair_program(rng, "distinct", 1.0)
    x0 = np.concatenate([rng.normal(size=2), [0.3, -0.4, 1.0, 0.5, 0.2, 1.5, 0.7, 1.2, 0.1, 0.8]])
    s0 = np.concatenate([[0.0, 0.0], [0.1, 0.2, 1.0, -0.3, 0.1, 0.9, 0.4, 0.6, 0.2, 0.5]])
    c = p.A.T @ rng.normal(size=5) + s0
    rhs = np.array([p.A @ (x0 * t) for t in (1.0, 0.5, 2.0)])
    assert solver._KKT(solver._Embedding(p)).nP == 3
    singles = [solve(ConicProgram(c, p.A, b, p.cone)) for b in rhs]
    factor = solver._KKT._factor
    calls = []

    def first_of_row_1_fails(Ki, Ri, Ui):
        calls.append(1)
        if len(calls) == 2:  # row 1 in the first iteration, at the static regularization
            Ui[...] = np.nan
            return None
        return factor(Ki, Ri, Ui)

    monkeypatch.setattr(solver._KKT, "_factor", staticmethod(first_of_row_1_fails))
    batch = solve_batch(ConicProgram(c, p.A, rhs[0], p.cone), rhs)
    for i, (got, single) in enumerate(zip(batch, singles)):
        assert single.status is SolveStatus.OPTIMAL
        assert got.status is SolveStatus.OPTIMAL, i
        if i != 1:
            assert got.iterations == single.iterations
        assert got.objective == pytest.approx(single.objective, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("kind", ["lorentz", "orthant"])
def test_cut_program_factors_at_order_207(kind):
    """The cut program of a 36-variable split (150 x 207) factors 207
    unknowns on Lorentz(3) products as on the orthant: every gamma_k
    column with one nonzero pairs with its row, and none is left in the LU."""
    p = _cut_program(*_seeded_split(1, kind, 36))[0]
    assert p.A.shape == (150, 207)
    emb = solver._Embedding(p)
    kkt = solver._KKT(emb)
    assert kkt.rsize == 207
    if kind == "orthant":
        assert kkt.nP == 0
        return
    assert kkt.rsize + 2 * kkt.nP == 351  # the order without the pairs
    one_row_nonneg = {int(np.flatnonzero(emb.Ahat[:, j])[0]) for j in range(emb.n1)}
    qualifying = set()
    for blk, off in p.cone.offsets():
        if blk.kind is BlockKind.LORENTZ:
            for j in range(off, off + blk.dim):
                nz = np.flatnonzero(p.A[:, j])
                if nz.size == 1 and nz[0] not in one_row_nonneg:
                    qualifying.add(j)
    assert len(qualifying) == 72
    assert set(emb.perm[kkt.pidx[: kkt.nP]].tolist()) == qualifying


def test_lorentz_slack_stays_in_the_factored_matrix():
    # min x1 - x3 : x3 - x1 = 0, x in L3 (ex2_1's branch b = 0): every
    # feasible point (t, 0, t) is optimal. Eliminating the Lorentz slack by
    # the inverse of its W^2 + rI ends this solve NumericalLimit.
    p = ConicProgram([1.0, 0.0, -1.0], [[-1.0, 0.0, 1.0]], [0.0], ConeProduct([lorentz(3)]))
    sol = solve(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.iterations == 5
    assert sol.x == pytest.approx([0.5, 0.0, 0.5], abs=1e-6)
    # one of x1 and x3 pairs with the row; the three slacks stay in the LU
    # with their whole W^2 block
    kkt = solver._KKT(solver._Embedding(p))
    assert kkt.nP == 1
    assert kkt.rsize == 3 + 1 + 3 - 2
    assert sorted(set(kkt.rows.tolist())) == [2, 3, 4] and kkt.rows.size == 9
