import math

import numpy as np
import pytest

from conecert import separation
from conecert.cones import ConeProduct, lorentz, nonneg
from conecert.fixtures import builtin
from conecert.model import DisjunctiveSet, RhsFamily
from conecert.separation import (
    Branch,
    SplitDisjunction,
    _verify_cut,
    branches_from_set,
    build_split_set,
    generate_cut,
)
from conecert.solver import ConicProgram, SolveStatus, SolverOptions, solve


def test_split_construction():
    sd = SplitDisjunction(
        np.zeros((0, 2)), np.zeros(0), ConeProduct([nonneg(2)]), [1, 0], 0
    )
    branches = build_split_set(sd)
    assert len(branches) == 2
    lo, hi = branches
    assert lo.A.tolist() == [[1.0, 0.0, 1.0]]
    assert lo.b.tolist() == [0.0]
    assert hi.A.tolist() == [[1.0, 0.0, -1.0]]
    assert hi.b.tolist() == [1.0]
    for br in branches:
        assert br.K.dim == 3  # one appended slack


def test_split_rejects_zero_direction():
    with pytest.raises(ValueError):
        SplitDisjunction(
            np.zeros((0, 2)), np.zeros(0), ConeProduct([nonneg(2)]), [0, 0], 0
        )


def test_split_dimension_mismatch():
    with pytest.raises(ValueError):
        SplitDisjunction(
            np.array([[1.0, 2.0]]), np.zeros(0), ConeProduct([nonneg(2)]), [1, 0], 0
        )


def test_branches_from_set():
    fx = builtin("ex2_4")
    branches = branches_from_set(fx.dset)
    assert len(branches) == 2
    assert all(br.K.dim == 2 for br in branches)


def test_cut_separates_origin():
    branches = branches_from_set(builtin("ex2_4").dset)
    res = generate_cut(branches, [0.0, 0.0])
    assert res.found
    assert res.violation > 1e-6
    assert res.verified
    mu, eta0 = res.inequality.mu, res.inequality.eta0
    # hull vertices satisfy the cut, the origin does not
    for v in ([2.0, 0.0], [0.0, 1.0]):
        assert mu @ np.array(v) >= eta0 - 1e-6
    assert mu @ np.zeros(2) < eta0 - 1e-6


def test_cut_separates_lorentz_point():
    branches = branches_from_set(builtin("ex4_1").dset)
    res = generate_cut(branches, [0.0, 0.0, 0.5])
    assert res.found and res.verified
    assert res.violation > 1e-6
    # the hull requires x3 >= 1 on the slice x1 = x2 = 0
    mu, eta0 = res.inequality.mu, res.inequality.eta0
    assert eta0 - 0.5 * mu[2] == pytest.approx(res.violation, abs=1e-6)


def test_no_cut_for_feasible_points():
    branches = branches_from_set(builtin("ex2_4").dset)
    for xhat in ([2.0, 0.0], [0.0, 1.0], [1.0, 2.0]):
        assert not generate_cut(branches, xhat).found


def test_cut_skips_an_infeasible_branch():
    # ex4_2: x2 + x3 = -1 has no point in L3, so only the branch b = 1 is
    # kept; the box normalization then gives the cut x2 + x3 >= 1 at the origin
    res = generate_cut(branches_from_set(builtin("ex4_2").dset), [0.0, 0.0, 0.0])
    assert res.found and res.verified
    assert res.multipliers[0] is None and res.multipliers[1] is not None
    mu, eta0 = res.inequality.mu, res.inequality.eta0
    assert mu == pytest.approx([0.0, 1.0, 1.0], abs=1e-6)
    assert eta0 == pytest.approx(1.0, abs=1e-6)


def test_all_branches_infeasible_is_an_error():
    dset = DisjunctiveSet(
        np.array([[0.0, 0.0, 1.0]]),
        ConeProduct([lorentz(3)]),
        RhsFamily(explicit=(np.array([-1.0]),)),
    )
    with pytest.raises(ValueError):
        generate_cut(branches_from_set(dset), [0.0, 0.0, 0.0])


def fixture_grid(name):
    """The branches of fixture `name` and six points of its variables: the
    origin, then five draws of 2 * default_rng(3).normal."""
    dset = builtin(name).dset
    rng = np.random.default_rng(3)
    n = dset.A.shape[1]
    return branches_from_set(dset), [np.zeros(n)] + [2.0 * rng.normal(size=n) for _ in range(5)]


def test_cuts_on_a_ray_are_sound():
    # ex2_2 is one branch, the ray {t (1, 0, 1)} in L3, which has no interior
    # point; some points end at a solver limit, which must stay an abstention
    branches, points = fixture_grid("ex2_2")
    for x in points:
        res = generate_cut(branches, x)
        if res.found:
            assert res.verified and res.violation > 1e-6, x
        else:
            assert res.diagnostic, x


def test_branch_union_fidelity():
    rng = np.random.default_rng(0)
    sd = SplitDisjunction(
        np.zeros((0, 2)), np.zeros(0), ConeProduct([nonneg(2)]), [1, 0], 0
    )
    branches = build_split_set(sd)
    res = generate_cut(branches, [0.25, 0.1])
    # random feasible points of each branch satisfy any generated cut
    for br in branches:
        for _ in range(20):
            c = rng.normal(size=br.K.dim)
            sol = solve(ConicProgram(c, br.A, br.b, br.K))
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            x = sol.x[:2]
            assert x[0] >= -1e-7 and x[1] >= -1e-7
            assert x[0] <= 1e-6 or x[0] >= 1.0 - 1e-6
            if res.found:
                assert res.inequality.mu @ x >= res.inequality.eta0 - 1e-6


# Instance "lorentz-n12-3" of `perfbench/run.py --workload separation --seed
# 204`: a split of four L^3 blocks. Its cut is valid, but re-solving a branch
# with the cut as objective ends in NumericalLimit at a non-strictly
# complementary optimum, so only the cut program's own multipliers verify it.
LORENTZ_SPLIT_A = [
    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
    [-0.25683049698237487, 0.370084385906044, 0.4871989192479377, -1.5302793609257457,
     -0.9114393243249646, -0.24352169027766796, -0.01563984774058959, -0.05092068507391588,
     -2.399102103734309, -0.3636470997879122, 0.22862659435224472, -1.1966646964978653],
    [0.3590438706401521, 0.5208946031876064, 0.7848211332636525, 0.28708908723021465,
     0.3169148533769202, -0.5322526993384986, 0.2814983003925007, -0.8503073676312796,
     -1.024568985501752, -0.010162015521922474, 0.3393702819225644, -0.19696012825991735],
]
LORENTZ_SPLIT_B = [3.5739148559851506, -3.88748728488828, -1.01869513806032]
LORENTZ_SPLIT_D = [-1.0, 0.0, -1.0, 1.0, -1.0, 0.0, 2.0, -2.0, -1.0, -2.0, -2.0, 2.0]
LORENTZ_SPLIT_XHAT = [0.0, 0.0, 0.0, 0.675754550157543, 2.175754550157543,
                      3.5739148559851506, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def _lorentz_split_cut():
    sd = SplitDisjunction(LORENTZ_SPLIT_A, LORENTZ_SPLIT_B, ConeProduct([lorentz(3)] * 4),
                          LORENTZ_SPLIT_D, -2)
    branches = build_split_set(sd)
    return branches, generate_cut(branches, LORENTZ_SPLIT_XHAT)


def _seeded_split(seed: int, kind: str, n: int):
    """A split of a bounded base {x in K : A x = b} and a point xhat of the
    base with d.xhat = r0 + 1/2. xhat is nonzero on m - 1 coordinates (orthant)
    or on (m - 1) // 3 interior Lorentz blocks, so it is an extreme point of
    the base and no branch point combines to it. The rows other than the
    trace vanish on p - xhat for two interior points p on either side of
    the split, so both branches are feasible."""
    rng = np.random.default_rng(seed)
    m = n // 4
    if kind == "orthant":
        K, trace = ConeProduct([nonneg(n)]), np.ones(n)
    else:
        K, trace = ConeProduct([lorentz(3)] * (n // 3)), np.tile([0.0, 0.0, 1.0], n // 3)
    while True:
        x0 = np.zeros(n)
        if kind == "orthant":
            x0[rng.choice(n, m - 1, replace=False)] = rng.uniform(0.5, 2.0, m - 1)
            pts = rng.exponential(1.0, (64, n))
        else:
            for blk in rng.choice(n // 3, max(1, (m - 1) // 3), replace=False):
                u = rng.standard_normal(2)
                x0[3 * blk:3 * blk + 3] = (*u, np.linalg.norm(u) * rng.uniform(1.2, 2.0))
            pts = rng.standard_normal((64, n))
            pts[:, 2::3] = np.linalg.norm(pts.reshape(64, -1, 3)[:, :, :2], axis=2) * 1.5
        d = rng.integers(-2, 3, n).astype(float)
        v0 = float(d @ x0)
        if abs(v0) < 0.1:
            continue
        target = math.copysign(math.floor(abs(v0)) + 0.5, v0)
        xhat, r0 = x0 * (target / v0), math.floor(target)
        pts *= (trace @ xhat) / (pts @ trace)[:, None]
        vals = pts @ d
        lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
        if vals[lo] <= r0 - 0.5 and vals[hi] >= r0 + 1.5:
            break
    Q, _ = np.linalg.qr(np.stack([pts[lo] - xhat, pts[hi] - xhat], axis=1))
    R = rng.standard_normal((m - 1, n))
    R -= (R @ Q) @ Q.T
    A = np.vstack([trace, R])
    return build_split_set(SplitDisjunction(A, A @ xhat, K, d, r0)), xhat


def test_cut_verified_by_its_multipliers():
    _, res = _lorentz_split_cut()
    assert res.found and res.verified
    assert res.violation > 1e-6
    assert all(lam is not None for lam in res.multipliers)


def test_raised_rhs_is_not_verified():
    branches, res = _lorentz_split_cut()
    mu, eta0 = res.inequality.mu, res.inequality.eta0
    solver = SolverOptions()
    assert _verify_cut(branches, res.multipliers, mu, eta0, 1e-6, solver)
    assert not _verify_cut(branches, res.multipliers, mu, eta0 + 1e-3, 1e-6, solver)


def _spy_solves(monkeypatch, doctor=None):
    """Count the solves of `generate_cut`, and pass the first one's Solution
    through `doctor`."""
    calls = []

    def spy(prog, opts=None):
        sol = solve(prog, opts)
        if doctor is not None and not calls:
            doctor(sol)
        calls.append(prog)
        return sol

    monkeypatch.setattr(separation, "solve", spy)
    return calls


def _orthant_split_cut():
    branches, xhat = _seeded_split(1, "orthant", 12)
    return branches, generate_cut(branches, xhat)


@pytest.mark.parametrize("cut", [_lorentz_split_cut, _orthant_split_cut],
                         ids=["lorentz", "orthant"])
def test_cut_is_one_solve_when_the_dual_proves_every_branch(monkeypatch, cut):
    calls = _spy_solves(monkeypatch)
    _, res = cut()
    assert len(calls) == 1
    assert res.found and res.verified
    assert all(lam is not None for lam in res.multipliers)


def test_infeasible_branch_is_pre_solved_and_dropped(monkeypatch):
    # ex4_2 at the origin: the dual proves the branch b = 1, the pre-solve
    # finds b = -1 infeasible, and the cut program is solved again without it
    calls = _spy_solves(monkeypatch)
    res = generate_cut(branches_from_set(builtin("ex4_2").dset), [0.0, 0.0, 0.0])
    assert len(calls) == 3
    assert res.found and res.verified
    assert res.multipliers[0] is None and res.multipliers[1] is not None


@pytest.mark.parametrize("doctoring", ["theta zero", "y off the rows"])
def test_doctored_dual_proves_nothing(monkeypatch, doctoring):
    # branch 0's rows are the first K_0.dim + 1 of the cut program: y_0, then
    # the weight theta_0 of its rho0 row
    branches, xhat = _seeded_split(1, "orthant", 12)
    br, nk = branches[0], branches[0].K.dim

    def doctor(sol):
        if doctoring == "theta zero":
            sol.y[nk] = 0.0
        else:  # x_0 = -y_0 / theta_0 moves by |A_0[0]|: in K_0, off A_0 x = b_0
            sol.y[:nk] -= sol.y[nk] * np.abs(br.A[0])

    clean = generate_cut(branches, xhat)
    calls = _spy_solves(monkeypatch, doctor)
    res = generate_cut(branches, xhat)
    # the first solve, then a feasibility solve of branch 0 only
    assert len(calls) == 2
    assert np.array_equal(calls[1].A, br.A)
    assert res.found and res.verified
    assert np.array_equal(res.inequality.mu, clean.inequality.mu)
    assert res.inequality.eta0 == clean.inequality.eta0
