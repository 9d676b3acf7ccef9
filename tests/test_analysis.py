import dataclasses
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.optimize

from conecert import analysis
from conecert.analysis import (
    AnalysisOptions,
    EmptyCutSetError,
    ModelError,
    SupportHandle,
    assumption2_check,
    check_A0,
    check_minimal_necessary_interior,
    check_minimal_sufficient,
    check_sublinear_sufficient,
    decide_minimal_exact,
    dmu_vertices_2d,
    enumerate_valid_equations,
    full_report,
    full_reports,
    theta,
    tight_extreme_ray_search,
    valid_equation_check,
)
from conecert.cones import ConeProduct, lorentz, nonneg, sample_extreme_rays
from conecert.fixtures import builtin, names
from conecert.linalg import least_squares_solve
from conecert.model import MARGIN_TOL, DisjunctiveSet, Inequality, RhsFamily, Status

from oracles import oracle_lp


# ---------------------------------------------------------------------------
# theta


def test_theta_table_and_argmin():
    fx = builtin("ex2_1")
    th = theta(fx.dset, [1.0, 0.0, -1.0])
    assert th.value == pytest.approx(-2.0, abs=1e-6)
    assert th.argmin == "explicit[1]"
    assert {r.label: r.status for r in th.table} == {
        "explicit[0]": "optimal",
        "explicit[1]": "optimal",
    }


def test_theta_matches_oracle_on_orthant():
    fx = builtin("ex2_4")
    mu = np.array([1.0, -1.0])
    th = theta(fx.dset, mu)
    per_branch = []
    for b in fx.dset.B.expand():
        status, value, _ = oracle_lp(mu, fx.dset.A, b)
        assert status == "optimal"
        per_branch.append(value)
    assert th.value == pytest.approx(min(per_branch), abs=1e-6)


def test_theta_unbounded_branch():
    dset = DisjunctiveSet(
        np.array([[1.0, -1.0]]),
        ConeProduct([nonneg(2)]),
        RhsFamily(explicit=(np.array([0.0]),)),
    )
    th = theta(dset, [-1.0, 0.0])
    assert th.value == -math.inf


def test_theta_rejects_zero_mu():
    fx = builtin("ex2_4")
    with pytest.raises(ValueError):
        theta(fx.dset, [0.0, 0.0])


def test_theta_all_branches_infeasible():
    dset = DisjunctiveSet(
        np.array([[0.0, 0.0, 1.0]]),
        ConeProduct([lorentz(3)]),
        RhsFamily(explicit=(np.array([-1.0]), np.array([-2.0]))),
    )
    with pytest.raises(ModelError):
        theta(dset, [0.0, 0.0, 1.0])


def test_theta_table_flags_empty_branch():
    fx = builtin("ex4_2")
    th = theta(fx.dset, fx.inequalities[0].inequality.mu)
    by_label = {r.label: r for r in th.table}
    assert by_label["explicit[0]"].status == "infeasible"
    assert by_label["explicit[1]"].status == "optimal"
    # infeasibility certificate: A^T y in -K*, b.y > 0
    bad = by_label["explicit[0]"]
    y = bad.certificate
    v = fx.dset.A.T @ y
    # -v must lie in L3: radius last
    assert -v[2] >= np.hypot(v[0], v[1]) - 1e-7
    assert float(bad.b @ y) > 1e-8
    assert bad.sigma == math.inf
    # feasible branch carries a verified witness
    good = by_label["explicit[1]"]
    assert fx.dset.K.contains(good.x, tol=1e-6)
    assert np.allclose(fx.dset.A @ good.x, good.b, atol=1e-6)



# ---------------------------------------------------------------------------
# support function


def test_support_known_values():
    fx = builtin("ex4_1")
    h = SupportHandle(fx.dset, [0.0, 1.0, 2.0])
    # one row: the interval D_mu = [-sqrt(3), sqrt(3)] is exact, not solved
    assert h.eval([1.0]) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert h.eval([-1.0]) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert h.eval([0.0]) == pytest.approx(0.0, abs=1e-8)
    for t in (0.0, 1.0, -2.0):
        ht = SupportHandle(fx.dset, [0.0, t, math.hypot(t, 1.0)])
        assert ht.eval([1.0]) == pytest.approx(1.0, abs=1e-6)
        assert ht.eval([-1.0]) == pytest.approx(1.0, abs=1e-6)


def test_support_unbounded_direction():
    fx = builtin("ex4_2")
    h = SupportHandle(fx.dset, [0.0, 0.0, 1.0])
    assert h.eval([1.0]) == pytest.approx(0.5, abs=1e-6)
    assert h.eval([-1.0]) == math.inf


def test_support_empty_cut_set():
    fx = builtin("ex4_2")
    h = SupportHandle(fx.dset, [0.0, 0.0, -1.0])
    with pytest.raises(EmptyCutSetError):
        h.eval([1.0])


def test_check_A0():
    fx = builtin("ex4_1")
    status, payload = SupportHandle(fx.dset, [0.0, 1.0, 2.0]).decide_A0()
    assert status is Status.HOLDS
    lam, gamma = payload["lambda"], payload["gamma"]
    resid = fx.dset.A.T @ lam + gamma - np.array([0.0, 1.0, 2.0])
    assert np.linalg.norm(resid) < 1e-6
    assert fx.dset.K.contains(gamma, tol=1e-7)

    status, payload = SupportHandle(fx.dset, [0.0, 2.0, 1.0]).decide_A0()
    assert status is Status.FAILS
    u = payload["ray"]
    assert fx.dset.K.contains(u, tol=1e-6)
    assert np.linalg.norm(fx.dset.A @ u) < 1e-6 * max(1.0, np.linalg.norm(u))
    assert float(np.array([0.0, 2.0, 1.0]) @ u) < -1e-8

    # two rows and no branch table: the (A.0) program is solved
    fx = builtin("cmir")
    mu = fx.inequalities[0].inequality.mu
    status, payload = SupportHandle(fx.dset, mu).decide_A0()
    assert status is Status.HOLDS
    assert np.linalg.norm(fx.dset.A.T @ payload["lambda"] + payload["gamma"] - mu) < 1e-6
    assert fx.dset.K.contains(payload["gamma"], tol=1e-7)

    # with the branch table, the dual of an optimal row is the witness
    fx = builtin("ex2_4")
    mu = np.array([1.0, -1.0])
    th = theta(fx.dset, mu)
    status, payload = check_A0(th)
    assert status is Status.HOLDS
    assert np.array_equal(payload["lambda"], th.table[0].y)
    assert fx.dset.K.contains(payload["gamma"], tol=1e-6)

    # D_mu = {-2}: the (A.0) program has no strictly feasible point, and its
    # solve can end in PrimalInfeasible; the verified interval decides it
    dset = DisjunctiveSet(
        np.array([[1.0, 0.0, -2.0, 0.0, 2.0, 0.0, 0.0, 2.0]]),
        ConeProduct([lorentz(4), lorentz(2), nonneg(2)]),
        RhsFamily(explicit=(np.array([1.0]),)),
    )
    mu = np.array([-2.0, 0.0, 4.0, 0.0, -6.0, 3.0, 1.0, -3.0])
    status, payload = SupportHandle(dset, mu).decide_A0()
    assert status is Status.HOLDS
    assert payload["lambda"] == pytest.approx([-2.0], abs=1e-9)
    assert dset.K.contains(payload["gamma"], tol=1e-9)


def test_theta_inf_sigma_and_monotone_flag():
    fx = builtin("cmir")
    th = theta(fx.dset, fx.inequalities[0].inequality.mu)
    assert th.inf_sigma == pytest.approx(0.375, abs=1e-6)
    assert th.sigma_argmin == "lattice[0]"
    assert th.monotone_ok


# ---------------------------------------------------------------------------
# the per-coordinate condition (A.1i) through the tight-ray rung on the orthant


def _orthant_sublinearity(dset, mu):
    th = theta(dset, mu)
    rays, gaps = tight_extreme_ray_search(th.handle)
    return rays, gaps, check_sublinear_sufficient(th, th.value, rays)


def test_orthant_sublinearity_holds_and_fails():
    fx = builtin("ex2_4")
    rays, gaps, (status, payload) = _orthant_sublinearity(fx.dset, [1.0, -1.0])
    assert status is Status.HOLDS
    assert np.allclose(gaps, 0.0, atol=1e-9)
    assert np.array_equal([t.z for t in rays], np.eye(2))
    assert "rays" not in payload  # the tight_rays rung lists them
    assert np.array_equal(payload["sum"], np.ones(2))

    dset = DisjunctiveSet(
        np.array([[1.0, 1.0]]),
        ConeProduct([nonneg(2)]),
        RhsFamily(explicit=(np.array([1.0]),)),
    )
    rays, gaps, (status, payload) = _orthant_sublinearity(dset, [1.0, 2.0])
    assert [list(t.z) for t in rays] == [[1.0, 0.0]]
    assert status is Status.FAILS
    assert payload["non_tight"] == [1]
    assert payload["gaps"] == pytest.approx([1.0], abs=1e-6)


def test_orthant_sublinearity_adjoint_image_all_tight():
    fx = builtin("ex2_4")
    mu = fx.dset.A.T @ np.array([2.0])
    rays, gaps, (status, _) = _orthant_sublinearity(fx.dset, mu)
    assert gaps == pytest.approx([0.0, 0.0], abs=1e-6)
    assert len(rays) == fx.dset.n
    assert status is Status.HOLDS


def test_one_row_orthant_report_solves_no_column_program(monkeypatch):
    """On a one-row orthant set the support values sigma(a^i) come from the
    closed-form interval: the report makes no solve over the columns of A."""
    fx = builtin("ex2_4")
    rhs_seen = []
    real_batch = analysis.solve_batch
    monkeypatch.setattr(analysis, "solve_batch",
                        lambda p, rhs, opts=None, c=None: rhs_seen.append(np.asarray(rhs))
                        or real_batch(p, rhs, opts, c))
    for fi in fx.inequalities:
        rep = full_report(fx.dset, fi.inequality)
        assert rep.final_verdict == fi.expected_verdict
        assert rep.entry("tight_rays").values["count"] == fx.dset.n
        assert rep.entry("A1i") is None
    assert rhs_seen
    cols = fx.dset.A.T
    assert not any(r.shape == cols.shape and np.array_equal(r, cols) for r in rhs_seen)


def test_report_solves_one_branch_batch_per_mu(monkeypatch):
    """full_report solves theta's rows and the tight-ray samples in one
    batch of the branch program of mu where the samples are K's extreme
    rays, as on every built-in fixture. On one-row sets mu's rows are B's
    alone: the interval answers the samples. The batch ends with a row per
    branch at objective 0, which Assumption 2 reads. No other batch is
    solved: decide_minimal_exact checks its witness by its own multipliers."""
    batches = []
    real_batch = analysis.solve_batch
    monkeypatch.setattr(analysis, "solve_batch",
                        lambda p, rhs, opts=None, c=None: batches.append((c, len(rhs)))
                        or real_batch(p, rhs, opts, c))
    swept = 0
    for fx in map(builtin, names()):
        dset, n_b = fx.dset, len(fx.dset.B.expand())
        samples = {tuple(np.round(dset.A @ z, 12)) for z in sample_extreme_rays(dset.K, 256)}
        for fi in fx.inequalities:
            batches.clear()
            full_report(dset, fi.inequality)
            mine = n_b if dset.m == 1 else n_b + len(samples)
            want = np.vstack([np.tile(fi.inequality.mu, (mine, 1)), np.zeros((n_b, dset.n))])
            assert [k for _, k in batches] == [mine + n_b], fx.name
            assert np.array_equal(batches[0][0], want), fx.name
            swept += dset.m > 1
    assert swept == 3  # cmir's two inequalities and ex4_3's one


@pytest.mark.parametrize("name", ["cmir", "ex4_1"])
def test_thetas_rows_equal_one_mu_theta(name):
    """The merged batch of several mu (`thetas` with swept directions)
    gives, bit for bit, every row and every swept value that one mu gives
    alone."""
    fx = builtin(name)
    dset, mus = fx.dset, [fi.inequality.mu for fi in fx.inequalities]
    opts = AnalysisOptions()
    sweep = sample_extreme_rays(dset.K, 16) @ dset.A.T
    for mu, got in zip(mus, analysis._thetas(dset, mus, opts, sweep)):
        want = analysis._thetas(dset, [mu], opts, sweep)[0]
        assert [r.status for r in got.table] == [r.status for r in want.table]
        for r, w in zip(got.table, want.table):
            for f in ("value", "x", "y", "sigma", "certificate"):
                assert np.array_equal(getattr(r, f), getattr(w, f)), (name, r.label, f)
        assert got.handle._cache == want.handle._cache
        assert np.array_equal(got.handle.points, want.handle.points)


def test_report_on_sampled_cone_solves_samples_after_validity(monkeypatch):
    """With a Lorentz block of dim >= 3 the tight-ray samples are 256 per
    block, so theta's batch holds B's rows alone, and a row per branch at
    objective 0 for Assumption 2: an invalid inequality solves nothing more,
    and the valid ones of a set solve their samples in one batch after
    validity, with the reports they get one by one."""
    A = np.array([[-2.0, -1.0, 1.0, 0.0, 2.0, 2.0],
                  [0.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
    K = ConeProduct([lorentz(3), lorentz(3)])
    mu = np.array([1.5, 2.8, 2.2, 1.9, -0.9, -0.6]) + A.T @ [0.3, -0.2]
    dset = DisjunctiveSet(A, K, RhsFamily(explicit=(A @ K.canonical_interior_point(),)))
    batches = []
    real_batch = analysis.solve_batch
    monkeypatch.setattr(analysis, "solve_batch",
                        lambda p, rhs, opts=None, c=None: batches.append((c, len(rhs)))
                        or real_batch(p, rhs, opts, c))
    value = theta(dset, mu).value
    samples = {tuple(np.round(A @ z, 12)) for z in sample_extreme_rays(K, 256)}
    zero = np.zeros(dset.n)
    for eta0, expected in ((value + 1.0, [2]), (value, [2, len(samples)])):
        batches.clear()
        full_report(dset, Inequality(mu, eta0))
        assert [k for _, k in batches] == expected
        assert np.array_equal(batches[0][0], [mu, zero])
        assert all(np.array_equal(row, mu) for c, _ in batches[1:] for row in c)
    mu2 = mu + A.T @ [0.1, 0.1]
    ineqs = [Inequality(mu, value), Inequality(mu2, theta(dset, mu2).value),
             Inequality(mu, value + 1.0)]
    singles = [full_report(dset, q).to_json() for q in ineqs]
    batches.clear()
    reports = full_reports(dset, ineqs)
    assert [k for _, k in batches] == [len(ineqs) + 1, 2 * len(samples)]
    assert np.array_equal(batches[0][0], [mu, mu2, mu, zero])
    assert np.array_equal(batches[1][0], np.repeat([mu, mu2], len(samples), axis=0))
    assert [r.to_json() for r in reports] == singles
    assert reports[2].final_verdict == "Invalid"
    assert all(r.entry("tight_rays").values["count"] for r in reports[:2])


# ---------------------------------------------------------------------------
# tight rays and sublinearity


def test_tight_rays_unique_direction():
    fx = builtin("ex4_2")
    rays, gaps = tight_extreme_ray_search(
        SupportHandle(fx.dset, [0.0, 0.0, 1.0], AnalysisOptions(samples=64))
    )
    assert len(rays) == 1
    z = rays[0].z
    assert np.allclose(z, fx.notes["tight_ray"], atol=1e-9)
    others = sorted(g for g in gaps if g > 1e-6)
    assert others[0] > 1e-3


def test_tight_rays_reflect_offgrid_directions_exactly():
    # the ends +-sqrt(3) of D_mu give gamma = (-+sqrt(3), 1, 2) on the
    # boundary of L3, whose reflections lie between the 64 grid angles
    fx = builtin("ex4_1")
    rays, _ = tight_extreme_ray_search(SupportHandle(fx.dset, [0.0, 1.0, 2.0],
                                                     AnalysisOptions(samples=64)))
    assert len(rays) == 2
    expected = [
        np.array([1.0 / math.sqrt(3.0), -1.0 / 3.0, 2.0 / 3.0]),
        np.array([-1.0 / math.sqrt(3.0), -1.0 / 3.0, 2.0 / 3.0]),
    ]
    for r in rays:
        d = r.z / np.linalg.norm(r.z)
        assert any(np.allclose(d, e / np.linalg.norm(e), atol=1e-9) for e in expected)


def test_tight_rays_one_row_lorentz4():
    # mu - lam*a = (-lam, 1, 1, 2) lies in L4 for |lam| <= sqrt(2); each end
    # puts it on the boundary, and its reflection is the only tight ray on
    # that side, which no Gaussian sample of the sphere hits
    dset = DisjunctiveSet(
        np.array([[1.0, 0.0, 0.0, 0.0]]),
        ConeProduct([lorentz(4)]),
        RhsFamily(explicit=(np.array([-1.0]), np.array([1.0]))),
    )
    rays, gaps = tight_extreme_ray_search(SupportHandle(dset, [0.0, 1.0, 1.0, 2.0],
                                                         AnalysisOptions(samples=64)))
    assert min(gaps) > 1e-6
    expected = [np.array([s * math.sqrt(0.5), -0.5, -0.5, 1.0]) / math.sqrt(2.0) for s in (1, -1)]
    assert len(rays) == 2
    for r in rays:
        assert abs(r.gap) <= 1e-12
        assert any(np.allclose(r.z, e, atol=1e-12) for e in expected)


def test_tight_rays_three_row_search_raises_no_warning(monkeypatch):
    """Many sampled directions of this set have sigma = +inf; the search
    must neither compute with those values nor solve any batch beyond its
    sample sweep."""
    A = np.array([[-2.0, -1.0, 1.0, 0.0, 2.0, 2.0],
                  [0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                  [2.0, 1.0, -1.0, 0.0, 0.0, -2.0]])
    K = ConeProduct([lorentz(3), lorentz(3)])
    mu = [1.5682177319691677, 2.784108865984584, 2.215891134015416,
          1.9459060384045517, -0.8906707338596246, -0.6223116935646158]
    dset = DisjunctiveSet(A, K, RhsFamily(explicit=(A @ K.canonical_interior_point(),)))
    batches = []
    real_batch = analysis.solve_batch
    monkeypatch.setattr(analysis, "solve_batch",
                        lambda p, rhs, opts=None, c=None: batches.append(len(rhs))
                        or real_batch(p, rhs, opts, c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rays, gaps = tight_extreme_ray_search(SupportHandle(dset, mu))
    assert len(batches) == 1
    assert math.inf in gaps and rays
    for r in rays:
        assert r.gap <= 1e-6
        assert K.contains(r.z, 1e-12) and K.interior_margin(r.z) == pytest.approx(0.0, abs=1e-12)


def test_tight_rays_cmir_all_five():
    fx = builtin("cmir")
    mu = fx.inequalities[0].inequality.mu
    rays, _ = tight_extreme_ray_search(SupportHandle(fx.dset, mu, AnalysisOptions(samples=16)))
    assert len(rays) == 5


def _distinct_tight_rays_greedy(rays, gaps, tol):
    """The reference: the tight rays in order of gap, each kept unless
    np.min(np.max(...)) of its max-norm distances to the kept rays is not
    above 1e-6 (nan counts as not above)."""
    tight = sorted(((z, float(g)) for z, g in zip(rays, gaps) if g <= tol), key=lambda t: t[1])
    kept: list = []
    for z, g in tight:
        if not kept or np.min(np.max(np.abs(np.array([k for k, _ in kept]) - z), axis=1)) > 1e-6:
            kept.append((z, g))
    return kept


@pytest.mark.parametrize("seed", range(6))
def test_distinct_tight_rays_match_the_greedy_loop(seed):
    # seeded rays with planted near-duplicates (on either side of 1e-6),
    # ties in gap, gaps above tol and nan, and (seeds 0, 2, 4) a ray with a
    # nan coordinate: the blockwise search keeps the same rays in the same
    # order as the greedy loop, with the same gaps; about 240 tight rays
    # span several blocks of the search
    rng = np.random.default_rng(seed)
    k, n = 300, 2 + seed % 4
    rays = rng.normal(size=(k, n))
    twin = rng.choice(k, 60, replace=False)
    rays[twin[:30]] = rays[twin[30:]] + rng.choice([-1.0, 1.0], (30, n)) * rng.choice(
        [1e-7, 5e-7, 2e-6], (30, n))
    gaps = rng.choice([-1e-9, 0.0, 1e-8, 5e-8, 1e-6], k)  # ties; 1e-6 is above tol
    gaps[rng.choice(k, 3, replace=False)] = np.nan
    if seed % 2 == 0:
        rays[rng.integers(k), rng.integers(n)] = np.nan
    # two tight rays exactly 1e-6 apart, which is not distinct
    rays[twin[0]], rays[twin[30]] = 0.0, 0.0
    rays[twin[30], 0], gaps[[twin[0], twin[30]]] = 1e-6, 0.0
    want = _distinct_tight_rays_greedy(rays, gaps, 1e-7)
    got = analysis._distinct_tight_rays(rays, gaps, 1e-7)
    assert 0 < len(got) < np.count_nonzero(gaps <= 1e-7)
    assert len(got) == len(want)
    for r, (z, g) in zip(got, want):
        assert np.array_equal(r.z, z, equal_nan=True) and r.gap == g


def test_distinct_tight_rays_a_nan_ray_first_hides_every_later_ray():
    # the first tight ray is kept even with a nan, and every later ray then
    # has a nan distance to it
    rays, gaps = np.array([[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1e-9, 2e-9])
    got = analysis._distinct_tight_rays(rays, gaps, 1e-7)
    assert len(got) == len(_distinct_tight_rays_greedy(rays, gaps, 1e-7)) == 1


def _sublinear_sufficient(dset, mu, eta0):
    th = theta(dset, mu)
    rays, _ = tight_extreme_ray_search(th.handle)
    return check_sublinear_sufficient(th, eta0, rays)


def test_sublinear_sufficient():
    fx = builtin("ex4_1")
    status, payload = _sublinear_sufficient(fx.dset, [0.0, 1.0, math.sqrt(2.0)], 1.0)
    assert status is Status.HOLDS
    assert payload["margin"] > 1e-6

    fx = builtin("ex4_2")
    status, payload = _sublinear_sufficient(fx.dset, [0.0, 0.0, 1.0], 0.5)
    assert status is Status.INCONCLUSIVE

    # ex2_1: every sampled ray of the arc is tight, and the certificate is
    # the sum of all of them, which points along the cone's axis
    fx = builtin("ex2_1")
    ineq = fx.inequalities[0].inequality
    th = theta(fx.dset, ineq.mu)
    rays, _ = tight_extreme_ray_search(th.handle)
    assert len(rays) == 256
    status, payload = check_sublinear_sufficient(th, ineq.eta0, rays)
    assert status is Status.HOLDS
    assert "rays" not in payload  # the tight_rays rung lists them
    assert np.array_equal(payload["sum"], np.sum([t.z for t in rays], axis=0))
    assert payload["margin"] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# minimality


def _minimal_sufficient(dset, mu, eta0):
    return check_minimal_sufficient(theta(dset, mu), eta0)


def test_minimal_sufficient_holds():
    fx = builtin("ex4_1")
    status, payload = _minimal_sufficient(fx.dset, [0.0, 1.0, math.sqrt(2.0)], 1.0)
    assert status is Status.HOLDS
    assert payload["margin"] > 1e-6
    total = payload["sum"]
    assert fx.dset.K.interior_margin(total) > 0


def test_minimal_sufficient_not_applicable():
    fx = builtin("ex4_1")
    status, payload = _minimal_sufficient(fx.dset, [0.0, 1.0, 2.0], 1.0)
    assert status is Status.NOT_APPLICABLE
    assert payload["inf_sigma"] == pytest.approx(math.sqrt(3.0), abs=1e-6)


def test_minimal_necessary_interior():
    fx = builtin("ex4_1")
    th = theta(fx.dset, [0.0, 1.0, 2.0])
    assert th.inf_sigma == pytest.approx(math.sqrt(3.0), abs=1e-6)
    status, _ = check_minimal_necessary_interior(th, 1.0)
    assert status is Status.FAILS
    th = theta(fx.dset, [0.0, 0.0, 1.0])
    assert th.value == pytest.approx(1.0, abs=1e-6)
    assert th.inf_sigma == pytest.approx(1.0, abs=1e-6)
    status, _ = check_minimal_necessary_interior(th, 1.0)
    assert status is Status.HOLDS
    # boundary mu is out of scope for this test
    status, _ = check_minimal_necessary_interior(theta(fx.dset, [0.0, 1.0, 1.0]), 1.0)
    assert status is Status.NOT_APPLICABLE


def _decide_minimal_exact(dset, mu, eta0):
    return decide_minimal_exact(theta(dset, mu), eta0)


def test_decide_minimal_exact_trio():
    fx = builtin("ex2_4")
    status, payload = _decide_minimal_exact(fx.dset, [1.0, -1.0], -2.0)
    assert status is Status.HOLDS
    assert payload["optimum"] <= 1e-6

    status, payload = _decide_minimal_exact(fx.dset, [1.0, 0.0], 0.0)
    assert status is Status.FAILS
    assert np.allclose(payload["delta"], [1.0, 0.0], atol=1e-6)
    assert payload["witness_verified"]

    fx = builtin("ex2_4_r25")
    status, payload = _decide_minimal_exact(fx.dset, [1.0, -1.0], 0.5)
    assert status is Status.HOLDS


def test_decide_minimal_exact_unbounded_improvement():
    fx = builtin("ex4_3")
    status, payload = _decide_minimal_exact(fx.dset, [-1.0, 1.0], 1.0)
    assert status is Status.FAILS
    assert payload["optimum"] > 0.5
    assert payload["witness_verified"]
    # the branch program agrees: (mu - delta; eta0) is valid and dominates
    assert theta(fx.dset, np.array([-1.0, 1.0]) - payload["delta"]).value >= 1.0 - 1e-6


def test_unverified_exact_witness_is_no_verdict(monkeypatch):
    fx = builtin("ex2_4")
    ineq = next(fi.inequality for fi in fx.inequalities if fi.inequality.name == "x1>=0")
    assert full_report(fx.dset, ineq).final_verdict == "CertifiedNotMinimal"
    monkeypatch.setattr(analysis, "_verify_cut", lambda *args: False)
    rep = full_report(fx.dset, ineq)
    assert rep.entry("minimality_exact").status is Status.FAILS
    assert rep.entry("minimality_exact").values["witness_verified"] is False
    assert rep.final_verdict != "CertifiedNotMinimal"


def test_decide_minimal_exact_requires_validity():
    fx = builtin("ex2_4")
    with pytest.raises(ValueError):
        _decide_minimal_exact(fx.dset, [1.0, -1.0], 5.0)


def test_decide_minimal_exact_abstains_on_a_limit_row():
    # the program holds the optimal rows alone, so its multipliers say
    # nothing about a branch that ended at a solver limit
    fx = builtin("ex2_4")
    th = theta(fx.dset, [1.0, 0.0])
    th.table[0].status, th.had_limit = "limit", True
    status, _ = decide_minimal_exact(th, 0.0)
    assert status is Status.INCONCLUSIVE


def _orthant_grid(count):
    """The first `count` seeded 2x4 orthant decisions at eta0 = theta, as
    (draw, dset, mu, th): integer A and three right-hand sides in [-3, 3]
    and mu in [-2, 2] from default_rng(2026), skipping mu = 0, rejected
    sets, and a theta that is not finite or has a limit row."""
    rng = np.random.default_rng(2026)
    cases = []
    for draw in itertools.count():
        if len(cases) == count:
            return cases
        A = rng.integers(-3, 4, (2, 4)).astype(float)
        bs = tuple(rng.integers(-3, 4, 2).astype(float) for _ in range(3))
        mu = rng.integers(-2, 3, 4).astype(float)
        if not mu.any():
            continue
        try:
            dset = DisjunctiveSet(A, ConeProduct([nonneg(4)]), RhsFamily(explicit=bs))
            th = theta(dset, mu)
        except ValueError:
            continue
        if math.isfinite(th.value) and not th.had_limit:
            cases.append((draw, dset, mu, th))


def _highs_improvement(dset, mu, eta0, th):
    """max sum(delta) over delta >= 0 keeping (mu - delta; eta0) valid on
    the feasible branches, by HiGHS: the optimum, or +inf if unbounded."""
    m, n = dset.A.shape
    bs = [r.b for r in th.table if r.status == "optimal"]
    width = m + n  # per branch: lam free, gamma >= 0, delta + A^T lam + gamma = mu
    nv = n + len(bs) * width
    A_eq = np.zeros((n * len(bs), nv))
    A_ub = np.zeros((len(bs), nv))
    for k, b in enumerate(bs):
        off = n + k * width
        A_eq[k * n:(k + 1) * n, :n] = np.eye(n)
        A_eq[k * n:(k + 1) * n, off:off + m] = dset.A.T
        A_eq[k * n:(k + 1) * n, off + m:off + width] = np.eye(n)
        A_ub[k, off:off + m] = -b  # b.lam >= eta0
    bounds = [(0, None)] * n + ([(None, None)] * m + [(0, None)] * n) * len(bs)
    res = scipy.optimize.linprog(np.concatenate([-np.ones(n), np.zeros(nv - n)]),
                                 A_ub=A_ub, b_ub=np.full(len(bs), -eta0), A_eq=A_eq,
                                 b_eq=np.tile(mu, len(bs)), bounds=bounds, method="highs")
    assert res.status in (0, 3), res.message
    return math.inf if res.status == 3 else -res.fun


def test_decide_minimal_exact_caps_after_a_solver_limit():
    """A program that ends at a solver limit is solved again with the cap,
    as one that ends unbounded is. On 58 seeded orthant decisions every
    decided verdict agrees with HiGHS on the same program, and draws 52 and
    68, whose programs HiGHS and the IPM find unbounded, are Fails at the
    cap with a verified witness. Only draws 38 and 74 may abstain: their
    programs end at a limit, capped or not."""
    abstained, capped = [], {}
    for draw, dset, mu, th in _orthant_grid(58):
        status, payload = decide_minimal_exact(th, th.value)
        if status is Status.INCONCLUSIVE:
            abstained.append(draw)
            continue
        best = _highs_improvement(dset, mu, th.value, th)
        assert (status is Status.FAILS) == (best > 1e-6), (draw, status, best)
        if status is Status.FAILS:
            assert payload["witness_verified"], draw
        if draw in (52, 68):
            capped[draw] = (status, best, payload["optimum"])
    assert set(abstained) <= {38, 74}
    for status, best, optimum in capped.values():
        assert status is Status.FAILS and best == math.inf
        assert optimum == pytest.approx(15.0, abs=1e-6)  # three components at the cap 5
    assert sorted(capped) == [52, 68]


def test_decide_minimal_exact_not_applicable_off_orthant():
    fx = builtin("ex2_1")
    status, _ = _decide_minimal_exact(fx.dset, [1.0, 0.0, -1.0], -2.0)
    assert status is Status.NOT_APPLICABLE


# ---------------------------------------------------------------------------
# Assumption 2


def _orthant_a2_set(rng, kind: str) -> DisjunctiveSet:
    """A seeded orthant set whose first row of A is nonnegative. Its first
    branch comes from an interior point ("interior"), or gives that row
    right-hand side 0 where the row is positive on some coordinates S, so
    that every point has x_S = 0 ("flat"). With "+infeasible" a second
    branch gives the row right-hand side -1, which no x >= 0 meets."""
    m, n = int(rng.integers(2, 4)), int(rng.integers(3, 6))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    x = rng.uniform(0.5, 2.0, n)
    A[0] = rng.integers(0, 3, n)
    if kind.startswith("flat"):
        S = rng.permutation(n)[:int(rng.integers(1, n))]
        A[0] = 0.0
        A[0, S] = rng.integers(1, 3, len(S))
        x[S] = 0.0
    bs = [A @ x]
    if kind.endswith("+infeasible"):
        bs.append(np.concatenate([[-1.0], rng.integers(-2, 3, m - 1)]))
    return DisjunctiveSet(A, ConeProduct([nonneg(n)]), RhsFamily(explicit=tuple(bs)))


def _highs_assumption2(dset: DisjunctiveSet) -> Status:
    """Assumption 2 on the orthant by HiGHS, without the IPM: the largest
    t <= 1 with Ax = b and x - t*1 >= 0 on each branch; Holds iff some
    branch has t > 1e-7."""
    m, n = dset.A.shape
    best = -math.inf
    for b in dset.B.expand():
        res = scipy.optimize.linprog(np.concatenate([np.zeros(n), [-1.0]]),
                                     A_ub=np.hstack([-np.eye(n), np.ones((n, 1))]),
                                     b_ub=np.zeros(n), A_eq=np.hstack([dset.A, np.zeros((m, 1))]),
                                     b_eq=b, bounds=[(None, None)] * n + [(None, 1.0)],
                                     method="highs")
        assert res.status in (0, 2), res.message
        if res.status == 0:
            best = max(best, -res.fun)
    return Status.HOLDS if best > 1e-7 else Status.FAILS


@pytest.mark.parametrize("kind, abstains", [("interior", []), ("flat", []),
                                            ("interior+infeasible", []),
                                            ("flat+infeasible", [])])
def test_assumption2_agrees_with_highs_on_the_orthant(kind, abstains):
    """assumption2_check, read from the branch program at objective 0,
    decides Assumption 2 as a HiGHS max-t program does on 12 seeded orthant
    sets of each kind. A flat branch has no interior point, so its program
    at objective 0 has none either: at flat draw 4 and flat+infeasible draw
    7 the IPM's infeasibility screen fires a step before the optimum. The
    verifier rejects that ray, the row iterates on to its optimum, whose y
    exposes the branch, and the check says Fails, as HiGHS does. At the
    draws `abstains` the check would abstain after a solver limit, as its
    rules ask; it never contradicts HiGHS."""
    rng = np.random.default_rng(24)
    abstained = []
    for draw in range(12):
        dset = _orthant_a2_set(rng, kind)
        status, witness, margin = assumption2_check(dset)
        want = _highs_assumption2(dset)
        assert want is (Status.FAILS if kind.startswith("flat") else Status.HOLDS)
        if status is Status.INCONCLUSIVE:
            assert "limit" in [r.status for r in _zero_table(dset)]
            abstained.append(draw)
            continue
        assert status is want, (kind, draw, margin)
        if status is Status.HOLDS:
            assert margin > 1e-3 and dset.K.interior_margin(witness) > 0.0
        else:
            assert witness is None and margin <= 1e-7
    assert abstained == abstains


def _zero_table(dset: DisjunctiveSet) -> list:
    return analysis.branch_tables([analysis._ZeroObjective(dset, AnalysisOptions())],
                                  dset.B.expand_labeled(), np.empty((0, dset.m)))[0]


@pytest.mark.parametrize("name", ["ex2_2", "ex4_3"])
def test_assumption2_fails_only_on_a_verified_exposing_vector(name):
    """On the two flat fixtures each optimal row's y exposes its branch:
    s = -A^T y lies in K*, |s|_inf = 1 and b.y = 0. A doctored certificate
    is rejected and the reader abstains: y negated moves s out of K*, and b
    moved along y makes b.y nonzero (the polished x then leaves K)."""
    dset, opts = builtin(name).dset, AnalysisOptions()
    table = _zero_table(dset)
    status, witness, margin = analysis._assumption2(dset, table, opts)
    assert status is Status.FAILS and margin <= 1e-7
    rows = witness["branches"]
    assert list(rows) == [r.label for r in table]
    optimal = [r for r in table if r.status == "optimal"]
    assert len(optimal) == 1
    for r in table:
        if r.status == "infeasible":
            assert rows[r.label] == "infeasible"
    row = optimal[0]
    y, s = rows[row.label]["y"], rows[row.label]["s"]
    assert np.max(np.abs(s)) == pytest.approx(1.0)
    assert np.allclose(s, -dset.A.T @ y) and dset.K.dual().contains(s, 1e-9)
    assert abs(row.b @ y) <= 1e-12
    for doctored in (dataclasses.replace(row, y=-row.y),
                     dataclasses.replace(row, b=row.b + row.y)):
        assert abs(doctored.b @ doctored.y) > 1e-3 or not dset.K.dual().contains(
            -dset.A.T @ doctored.y, 1e-3)
        rigged = [doctored if r is row else r for r in table]
        assert analysis._assumption2(dset, rigged, opts)[0] is Status.INCONCLUSIVE


# ---------------------------------------------------------------------------
# polishing: every row at once, against the per-row least-squares loop


def _assumption2_per_row(dset: DisjunctiveSet, table: list, opts: AnalysisOptions):
    """Reference for `analysis._assumption2`: each optimal row polished and
    checked on its own, with one `least_squares_solve` per row."""
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


def _point_sum_per_row(th, eta0: float, tight: list):
    """Reference for `analysis._verify_point_sum` on the tight rows' own
    points: its status, the points polished by one `least_squares_solve`
    per row, and the margin of their sum."""
    dset = th.handle.dset
    M = np.vstack([dset.A, th.handle.mu.reshape(1, -1)])
    points = [r.x + least_squares_solve(M, np.append(r.b, eta0) - M @ r.x)[0] for r in tight]
    total = np.sum(points, axis=0)
    cone_viol = max(0.0, -float(np.min(dset.K.interior_margin(np.array(points)))))
    margin = dset.K.interior_margin(total) / max(np.linalg.norm(total), 1e-300)
    status = Status.HOLDS if margin > MARGIN_TOL and margin > 10.0 * cone_viol else Status.INCONCLUSIVE
    return status, points, margin


def _rel_close(got, want, rel: float = 1e-12) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if not np.all(np.isfinite(want)):
        return np.array_equal(got, want)
    return np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


def _margin_close(got: float, want: float) -> bool:
    """Normalized margins (interior_margin(x)/|x|, of size at most about 1)
    agree to 1e-12, or are the same non-finite value."""
    return abs(got - want) <= 1e-12 if math.isfinite(want) else got == want


def test_stacked_polishing_matches_the_per_row_loop():
    """`_assumption2` and `_verify_point_sum` polish all their rows with one
    pseudo-inverse; the witness, the points and the margins match the
    per-row least-squares loop to 1e-12 relative (the normalized margins to
    1e-12), with identical statuses,
    on every fixture report and the cmir grid (f in {0.1, 0.5, 0.9}, M in
    {6, 12})."""
    opts = AnalysisOptions()
    cases = [(fx.dset, fi.inequality) for fx in map(builtin, names())
             for fi in fx.inequalities]
    assert len(cases) == 13
    for f in (0.1, 0.5, 0.9):
        for M in (6, 12):
            fx = builtin("cmir", f=f, M=M)
            cases += [(fx.dset, fi.inequality) for fi in fx.inequalities]
    seen, statuses = set(), Counter()
    for dset, ineq in cases:
        if id(dset) not in seen:
            seen.add(id(dset))
            table = _zero_table(dset)
            got, want = analysis._assumption2(dset, table, opts), _assumption2_per_row(dset, table, opts)
            assert got[0] is want[0] and _margin_close(got[2], want[2]), dset.A
            statuses["assumption2", got[0]] += 1
            if got[0] is Status.HOLDS:
                assert got[1]["branch"] == want[1]["branch"]
                assert _rel_close(got[1]["witness"], want[1]["witness"])
            elif got[0] is Status.FAILS:
                rows, want_rows = got[1]["branches"], want[1]["branches"]
                assert list(rows) == list(want_rows)
                for label, row in rows.items():
                    if row == "infeasible":
                        assert want_rows[label] == "infeasible"
                    else:
                        assert _rel_close(row["y"], want_rows[label]["y"])
                        assert _rel_close(row["s"], want_rows[label]["s"])
        th = theta(dset, ineq.mu)
        eta0 = float(ineq.eta0)
        tight = analysis._tight_rows(th, eta0)
        if not tight:
            continue
        status, witness = analysis._verify_point_sum(th, eta0, tight, [r.x for r in tight])
        want_status, points, margin = _point_sum_per_row(th, eta0, tight)
        assert status is want_status and _margin_close(witness["margin"], margin), ineq.name
        statuses["points", status] += 1
        if status is Status.HOLDS:
            assert len(witness["points"]) == len(points)
            for got_x, want_x in zip(witness["points"], points):
                assert _rel_close(got_x, want_x), ineq.name
    assert statuses["assumption2", Status.HOLDS] >= 10 and statuses["assumption2", Status.FAILS] >= 2
    assert statuses["points", Status.HOLDS] >= 15 and statuses["points", Status.INCONCLUSIVE] >= 1


# ---------------------------------------------------------------------------
# valid equations


def test_valid_equation_check():
    fx = builtin("ex2_2")
    status, payload = valid_equation_check(fx.dset, [1.0, 0.0, -1.0])
    assert status is Status.HOLDS
    assert payload["eta0"] == pytest.approx(0.0, abs=1e-9)

    fx = builtin("ex2_1")
    status, _ = valid_equation_check(fx.dset, [1.0, 0.0, -1.0])
    assert status is Status.FAILS


def test_enumerate_valid_equations():
    eqs = enumerate_valid_equations(builtin("cmir").dset)
    assert len(eqs) == 1
    mu = eqs[0].mu / np.max(np.abs(eqs[0].mu))
    assert np.allclose(np.abs(mu), [0.0, 0.0, 1.0, 0.0, 1.0], atol=1e-9)
    assert eqs[0].eta0 == pytest.approx(0.0, abs=1e-9)

    assert enumerate_valid_equations(builtin("ex2_1").dset) == []

    eqs = enumerate_valid_equations(builtin("ex2_2").dset)
    assert len(eqs) == 1
    assert eqs[0].eta0 == pytest.approx(0.0)


def test_dmu_vertices_triangle():
    fx = builtin("cmir")
    verts = dmu_vertices_2d(fx.dset, fx.inequalities[0].inequality.mu)
    got = sorted(tuple(np.round(v, 6)) for v in verts)
    assert len(got) == 3
    want = sorted([(-0.5, 1.0), (0.5, 0.0), (1.5, 1.0)])
    for g, w in zip(got, want):
        assert np.allclose(g, w, atol=1e-6)


def test_dmu_vertices_requires_two_rows():
    fx = builtin("ex2_1")
    with pytest.raises(ValueError):
        dmu_vertices_2d(fx.dset, [1.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# full report


def test_full_report_invalid_inequality():
    fx = builtin("ex2_1")
    rep = full_report(fx.dset, Inequality(np.array([1.0, 0.0, -1.0]), -1.5))
    assert rep.final_verdict == "Invalid"
    assert rep.entry("validity").status is Status.FAILS


def test_full_report_nontight_minimal():
    fx = builtin("ex2_4")
    rep = full_report(fx.dset, Inequality(np.array([1.0, -1.0]), -2.0))
    assert rep.final_verdict == "CertifiedMinimal"
    assert rep.entry("tightness").status is Status.FAILS


def test_full_report_records_config():
    fx = builtin("ex2_4")
    opts = AnalysisOptions(tol=1e-7, samples=32)
    rep = full_report(fx.dset, Inequality(np.array([1.0, -1.0]), -2.0), opts)
    assert rep.config["tol"] == 1e-7
    assert rep.config["samples"] == 32
    assert rep.config["margin_tol"] == 1e-7


def test_full_report_json_round_trip():
    import json as _json

    fx = builtin("ex4_1")
    rep = full_report(fx.dset, Inequality(np.array([0.0, 1.0, 2.0]), 1.0, "nu"))
    doc = _json.loads(rep.to_json())
    assert doc["final_verdict"] == "CertifiedNotMinimal"
    names = [e["name"] for e in doc["checks"]]
    assert "validity" in names and "inf_sigma" in names
