import numpy as np
import pytest

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
