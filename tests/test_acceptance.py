"""End-to-end acceptance checks over the bundled fixture problems.

Each test prints a single PASS/FAIL line for its criterion and is designed
to finish in well under five seconds.
"""

import math

import numpy as np
import pytest

from conecert.analysis import (
    AnalysisOptions,
    SupportHandle,
    dmu_vertices_2d,
    enumerate_valid_equations,
    full_report,
    theta,
    tight_extreme_ray_search,
)
from conecert.fixtures import builtin
from conecert.model import Status
from conecert.separation import branches_from_set, generate_cut

from oracles import oracle_lp


def _emit(num: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} acceptance {num}: {label}")
    assert ok, label


def _by_name(fx, name):
    for fi in fx.inequalities:
        if fi.inequality.name == name:
            return fi.inequality
    raise KeyError(name)


def test_acceptance_1_lorentz_interval_cut():
    fx = builtin("ex2_1")
    th = theta(fx.dset, [1.0, 0.0, -1.0])
    rep = full_report(fx.dset, fx.inequalities[0].inequality)
    ok = abs(th.value + 2.0) <= 1e-6 and rep.final_verdict == "CertifiedMinimal"
    _emit(1, "two-point Lorentz disjunction: theta=-2 and the cut is certified minimal", ok)


def test_acceptance_2_orthant_trio():
    fx = builtin("ex2_4")
    ok = True

    ineq = _by_name(fx, "x1-x2>=-2")
    th = theta(fx.dset, ineq.mu)
    rep = full_report(fx.dset, ineq)
    ok &= abs(th.value + 1.0) <= 1e-6
    ok &= rep.final_verdict == "CertifiedMinimal"
    ok &= rep.entry("tightness").status is Status.FAILS

    ineq = _by_name(fx, "x1>=0")
    rep = full_report(fx.dset, ineq)
    ok &= rep.final_verdict == "CertifiedNotMinimal"
    ex = rep.entry("minimality_exact")
    ok &= ex.status is Status.FAILS and bool(ex.values.get("witness_verified"))
    delta = ex.values.get("delta")
    ok &= delta is not None and delta[0] > 0.5

    fx25 = builtin("ex2_4_r25")
    rep = full_report(fx25.dset, _by_name(fx25, "x1-x2>=1/2"))
    ok &= rep.final_verdict == "CertifiedMinimal"

    _emit(2, "orthant two-branch sets: minimal non-tight cut, dominated cut with "
             "verified improving delta, and the shifted variant", ok)


def test_acceptance_3_lorentz_support_values():
    fx = builtin("ex4_1")
    ok = True

    nu = _by_name(fx, "nu")
    h = SupportHandle(fx.dset, nu.mu)
    for z in (1.0, -1.0):
        ok &= abs(h.eval([z]) - math.sqrt(3.0)) <= 1e-6
    ok &= full_report(fx.dset, nu).final_verdict == "CertifiedNotMinimal"

    ok &= full_report(fx.dset, _by_name(fx, "mu_t1")).final_verdict == "CertifiedMinimal"

    for t in (0.0, 1.0, -2.0):
        mu = np.array([0.0, t, math.hypot(t, 1.0)])
        ht = SupportHandle(fx.dset, mu)
        for z in (1.0, -1.0):
            ok &= abs(ht.eval([z]) - 1.0) <= 1e-6

    _emit(3, "Lorentz family: sqrt(3) support values with a not-minimal verdict, "
             "unit support values along the minimal family", ok)


def test_acceptance_4_single_tight_ray():
    fx = builtin("ex4_2")
    ok = True

    th = theta(fx.dset, [0.0, 0.0, 1.0])
    ok &= abs(th.value - 0.5) <= 1e-6

    bad = [r for r in th.table if r.status == "infeasible"]
    ok &= len(bad) == 1 and float(bad[0].b[0]) == -1.0
    cert = bad[0].certificate
    cert_ok = False
    if cert is not None:
        for s in (1.0, -1.0):
            y = s * cert
            img = fx.dset.A.T @ y
            if (
                fx.dset.K.dual().interior_margin(img) >= -1e-6
                and float(bad[0].b @ y) < -1e-9
            ):
                cert_ok = True
    ok &= cert_ok

    rays, gaps = tight_extreme_ray_search(SupportHandle(fx.dset, [0.0, 0.0, 1.0]), budget=64)
    ok &= len(rays) == 1
    expected = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    ok &= np.linalg.norm(rays[0].z / np.linalg.norm(rays[0].z) - expected) <= 1e-6
    others = sorted(g for g in gaps if g > 1e-6)
    ok &= bool(others) and others[0] > 1e-3

    _emit(4, "half-infeasible Lorentz disjunction: theta=1/2, Farkas certificate for "
             "the infeasible branch, exactly one tight extreme ray", ok)


def test_acceptance_5_mixed_cone_lattice_cut():
    fx = builtin("cmir", f=0.25, M=10)
    cut = fx.inequalities[0].inequality
    ok = True

    verts = dmu_vertices_2d(fx.dset, cut.mu)
    expected = [(-0.5, 1.0), (1.5, 1.0), (0.5, 0.0)]
    ok &= len(verts) == 3
    for ev in expected:
        ok &= any(np.linalg.norm(v - np.array(ev)) <= 1e-6 for v in verts)

    th = theta(fx.dset, cut.mu)
    ok &= abs(th.inf_sigma - 0.375) <= 1e-6
    ok &= th.sigma_argmin == "lattice[0]"
    ok &= th.monotone_ok

    ok &= full_report(fx.dset, cut).final_verdict == "CertifiedMinimal"
    ok &= len(enumerate_valid_equations(fx.dset)) == 1

    fx7 = builtin("cmir", f=0.7, M=10)
    th = theta(fx7.dset, fx7.inequalities[0].inequality.mu)
    ok &= abs(th.value - 0.42) <= 1e-6

    _emit(5, "mixed orthant/Lorentz lattice cut: polyhedral multiplier-set vertices, "
             "inf support 0.375 at the base point, minimal verdict, one equation", ok)


def test_acceptance_6_no_interior_point_abstention():
    fx = builtin("ex2_2")
    rep = full_report(fx.dset, fx.inequalities[0].inequality)
    a2 = rep.entry("assumption2")
    ok = a2.status is Status.FAILS
    ok &= float(a2.values["margin"]) <= 1e-7
    ok &= rep.final_verdict != "CertifiedMinimal"
    ok &= rep.final_verdict == "SublinearInconclusiveMinimality"
    _emit(6, "flat (no-interior) set: interior-point check fails and the report "
             "abstains from a minimality certificate", ok)


def test_acceptance_7_core_function_properties():
    rng = np.random.default_rng(5)
    ok = True

    # sublinearity of the support function on a curved fixture
    h = SupportHandle(builtin("ex4_1").dset, [0.0, 1.0, 2.0])
    for _ in range(20):
        z1, z2 = rng.normal(size=1), rng.normal(size=1)
        v1, v2, v12 = h.eval(z1), h.eval(z2), h.eval(z1 + z2)
        if all(math.isfinite(v) for v in (v1, v2, v12)):
            ok &= v12 <= v1 + v2 + 1e-6
        for beta in (0.5, 2.0):
            vb = h.eval(beta * z1)
            if math.isfinite(vb) and math.isfinite(v1):
                ok &= abs(vb - beta * v1) <= 1e-6 * beta

    # inf of the support over rhs never exceeds theta; solver matches an
    # enumeration oracle on random orthant linear programs
    from conecert.cones import ConeProduct, nonneg
    from conecert.model import DisjunctiveSet, RhsFamily
    from conecert.solver import ConicProgram, SolveStatus, solve

    checked = 0
    while checked < 10:
        m, n = 2, 4
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        bs = tuple(A @ rng.uniform(0.0, 2.0, size=n) for _ in range(2))
        dset = DisjunctiveSet(A, ConeProduct([nonneg(n)]), RhsFamily(explicit=bs))
        mu = A.T @ rng.normal(size=m) + rng.uniform(0.0, 1.0, size=n)
        if not np.any(mu):
            continue
        th = theta(dset, mu)
        handle = SupportHandle(dset, mu)
        sigmas = [handle.eval(b) for b in dset.B.expand()]
        inf_sigma = min((v for v in sigmas if not math.isnan(v)), default=math.inf)
        if math.isnan(th.value) or (not math.isfinite(inf_sigma)
                                    and any(map(math.isnan, sigmas))):
            continue
        ok &= inf_sigma <= th.value + 1e-6

        c = rng.integers(-3, 4, size=n).astype(float)
        status, value, _ = oracle_lp(c, A, bs[0])
        sol = solve(ConicProgram(c, A, bs[0], ConeProduct([nonneg(n)])))
        if sol.status is not SolveStatus.NUMERICAL_LIMIT:
            if status == "optimal":
                ok &= sol.status is SolveStatus.OPTIMAL
                ok &= abs(sol.objective - value) <= 1e-6 * (1 + abs(value))
            elif status == "unbounded":
                ok &= sol.status is SolveStatus.DUAL_INFEASIBLE
            else:
                ok &= sol.status is SolveStatus.PRIMAL_INFEASIBLE
        checked += 1

    _emit(7, "support function sublinear and homogeneous, inf-support bounded by "
             "theta, solver agrees with the enumeration oracle", ok)


def test_acceptance_8_separation_soundness():
    ok = True
    cases = [
        ("ex2_4", [0.0, 0.0], [2.0, 0.0]),
        ("ex4_1", [0.0, 0.0, 0.5], [1.0, 0.0, 2.0]),
    ]
    for name, outside, inside in cases:
        branches = branches_from_set(builtin(name).dset)
        res = generate_cut(branches, outside)
        ok &= res.found and res.verified and res.violation > 1e-6
        if res.found:
            dset = builtin(name).dset
            th = theta(dset, res.inequality.mu)
            ok &= th.value >= res.inequality.eta0 - 1e-6
            ok &= res.inequality.mu @ np.array(outside) < res.inequality.eta0 - 1e-6
        ok &= not generate_cut(branches, inside).found
    _emit(8, "separation: verified violated cuts for infeasible points, no cut "
             "for feasible points", ok)
