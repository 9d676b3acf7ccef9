"""The three benchmark workloads: seeded inputs, one op per input, and the
correctness gate applied to every op's output.

Each workload function returns the ops of one *pass* in a fixed canonical
order. The runner warms up on the first op, shuffles the pass with the seed
and then repeats whole passes, so every run measures the same multiset of
ops.

Ops call the package through its module attributes (``analysis.full_report``,
``cli.main``, ``separation.generate_cut``) at call time, never through names
bound when the pass was built, so the tracer's wrappers see the root call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.optimize

from conecert import analysis, cli, fixtures, separation
from conecert.cones import ConeProduct, lorentz, nonneg
from conecert.separation import SplitDisjunction, build_split_set

# Tolerance of the fixture scalar tests and of AnalysisOptions/generate_cut.
TOL = 1e-6


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    # returns None when the output is correct, else the reason it is not
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# corpus: every built-in fixture x every inequality through full_report


def corpus(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for name in fixtures.names():
        fx = fixtures.builtin(name)
        for fi in fx.inequalities:
            ops.append(Op(
                f"{name}/{fi.inequality.name}",
                lambda d=fx.dset, q=fi.inequality: analysis.full_report(d, q),
                lambda rep, fi=fi: _check_fixture_report(rep.to_dict(), fi),
            ))
    return ops


def _check_fixture_report(doc: dict, fi) -> str | None:
    if fi.expected_verdict is not None and doc["final_verdict"] != fi.expected_verdict:
        return f"verdict {doc['final_verdict']} != {fi.expected_verdict}"
    checks = {c["name"]: c["values"] for c in doc["checks"]}
    # "eta0" is the best right-hand side the fixture claims, i.e. theta
    found = {
        "theta": checks.get("validity", {}).get("theta"),
        "eta0": checks.get("validity", {}).get("theta"),
        "inf_sigma": checks.get("inf_sigma", {}).get("inf_sigma"),
    }
    for key, got in found.items():
        if key in fi.scalars and not _close(got, fi.scalars[key]):
            return f"{key} {got!r} != {fi.scalars[key]!r}"
    return None


def _close(got, want: float) -> bool:
    return isinstance(got, float) and abs(got - want) <= TOL


# ---------------------------------------------------------------------------
# lattice: `conecert report FILE --json` on seeded cmir problem files

# One file per truncation in every pass. The op mix is heterogeneous so that
# the tail is the wide truncations, whose all-branches-tight equation builds
# the large joint program of check_minimal_sufficient; the widest is capped
# so that a run holds the >= 40 ops the p75 tail needs.
LATTICE_M = (6, 8, 10, 12)


def lattice(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for M in LATTICE_M:
        f = float(rng.uniform(0.1, 0.9))
        path = workdir / f"cmir-M{M}.json"
        path.write_text(json.dumps(_cmir_problem(f, M)))
        ops.append(Op(
            f"cmir-M{M}",
            lambda p=str(path): _cli_report(p),
            lambda out, f=f: _check_cmir_output(out, f),
        ))
    return ops


def _cmir_problem(f: float, M: int) -> dict:
    """The mixed-integer rounding set of the paper in the problem-file
    format (format_version 1), written without the package's serializer."""
    return {
        "format_version": 1,
        "A": {"shape": [2, 5],
              "entries": [1.0, -1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0]},
        "cone": [{"kind": "nonneg", "dim": 3}, {"kind": "lorentz", "dim": 2}],
        "rhs": {"explicit": [],
                "lattice": {"base": [f, 0.0], "step": [1.0, 0.0], "kmin": -M, "kmax": M}},
        "inequalities": [
            {"name": "cmir_cut", "mu": [2.0 - 2.0 * f, 2.0 * f, 1.0, 2.0 * f - 1.0, 0.0],
             "eta0": f * (2.0 - 2.0 * f)},
            {"name": "t_eq_gamma2", "mu": [0.0, 0.0, 1.0, 0.0, -1.0], "eta0": 0.0},
        ],
    }


def _cli_report(path: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["report", path, "--json"])
    return rc, buf.getvalue()


def _check_cmir_output(out: tuple[int, str], f: float) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit code {rc}"
    reports = {r["inequality"]: r for r in json.loads(text)}
    cut, eq = reports.get("cmir_cut"), reports.get("t_eq_gamma2")
    if cut is None or eq is None:
        return f"missing inequalities, got {sorted(reports)}"
    if cut["final_verdict"] != "CertifiedMinimal":
        return f"cmir_cut verdict {cut['final_verdict']}"
    th = {c["name"]: c for c in cut["checks"]}["validity"]["values"]["theta"]
    if not _close(th, f * (2.0 - 2.0 * f)):
        return f"cmir_cut theta {th!r} != eta0"
    eq_status = {c["name"]: c["status"] for c in eq["checks"]}.get("equation")
    if eq_status != "Holds":
        return f"t_eq_gamma2 equation {eq_status}"
    return None


# ---------------------------------------------------------------------------
# separation: generate_cut on seeded split disjunctions

# Every pass holds four orthant and four Lorentz instances of each size, so
# the seed changes the data but not the mix of program sizes, and the median
# and p95 average over several instances of similar size.
SEPARATION_N = tuple(range(12, 37, 3))


def separation_cuts(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for n in SEPARATION_N:
        for rep, kind in enumerate(("orthant", "lorentz") * 4):
            sd, xhat = _split_instance(rng, n, kind)
            branches = build_split_set(sd)
            ops.append(Op(
                f"{kind}-n{n}-{rep // 2}",
                lambda b=branches, x=xhat: separation.generate_cut(b, x),
                lambda res, b=branches, x=xhat, k=kind: _check_cut(res, b, x, k),
            ))
    return ops


def _split_instance(rng: np.random.Generator, n: int, kind: str):
    """A bounded base {x in K : A x = b}, an extreme point xhat of it with
    d.xhat = r0 + 1/2, and two points of the base on either side of the
    split, so both branches are feasible and xhat is not in their hull.

    xhat is nonzero on whole orthant coordinates or whole interior Lorentz
    blocks and zero elsewhere, so near xhat the base is a pointed cone and
    the cut has depth of the order of the split gap. (An extreme point on a
    curved Lorentz boundary leaves cuts of depth ~1e-5 whose programs the
    solver can end in NumericalLimit.)"""
    m = max(3, n // 4)
    if kind == "orthant":
        K = ConeProduct([nonneg(n)])
        trace = np.ones(n)  # in int K*: bounds the base
    else:
        K = ConeProduct([lorentz(3)] * (n // 3))
        trace = np.tile([0.0, 0.0, 1.0], n // 3)
    while True:
        # the nonzero part of xhat spans a face of dimension < row count
        x0 = np.zeros(n)
        if kind == "orthant":
            x0[rng.choice(n, m - 1, replace=False)] = rng.uniform(0.5, 2.0, m - 1)
        else:
            for blk in rng.choice(n // 3, max(1, (m - 1) // 3), replace=False):
                u = rng.standard_normal(2)
                x0[3 * blk: 3 * blk + 3] = (*u, np.linalg.norm(u) * rng.uniform(1.2, 2.0))
        d = rng.integers(-2, 3, n).astype(float)
        v0 = float(d @ x0)
        if abs(v0) < 0.1:
            continue
        target = math.copysign(math.floor(abs(v0)) + 0.5, v0)
        xhat = x0 * (target / v0)
        r0 = math.floor(target)
        pts = _interior_points(rng, kind, n, 64)
        pts *= (trace @ xhat) / (pts @ trace)[:, None]
        vals = pts @ d
        lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
        if vals[lo] <= r0 - 0.5 and vals[hi] >= r0 + 1.5:
            break
    # rows vanish on p_lo - xhat and p_hi - xhat, so both points lie in the base
    Q, _ = np.linalg.qr(np.stack([pts[lo] - xhat, pts[hi] - xhat], axis=1))
    R = rng.standard_normal((m - 1, n))
    R -= (R @ Q) @ Q.T
    A = np.vstack([trace, R])
    return SplitDisjunction(A, A @ xhat, K, d, r0), xhat


def _interior_points(rng: np.random.Generator, kind: str, n: int, count: int) -> np.ndarray:
    if kind == "orthant":
        return rng.exponential(1.0, (count, n))
    pts = rng.standard_normal((count, n))
    rad = np.linalg.norm(pts.reshape(count, n // 3, 3)[:, :, :2], axis=2)
    pts[:, 2::3] = rad * rng.uniform(1.1, 2.0, rad.shape)
    return pts


def _check_cut(res, branches, xhat: np.ndarray, kind: str) -> str | None:
    if not (res.found and res.verified):
        return f"found={res.found} verified={res.verified} {res.diagnostic}"
    mu, eta0 = res.inequality.mu, res.inequality.eta0
    if not eta0 - float(mu @ xhat) > TOL:
        return f"violation {eta0 - float(mu @ xhat)!r} <= tol"
    if kind == "orthant":
        ns = xhat.size
        for br in branches:
            c = np.zeros(br.K.dim)
            c[:ns] = mu
            lp = scipy.optimize.linprog(c, A_eq=br.A, b_eq=br.b, bounds=(0, None),
                                        method="highs")
            if lp.status == 2:  # infeasible branch: the cut holds vacuously
                continue
            if lp.status != 0:
                return f"HiGHS status {lp.status}: {lp.message}"
            if lp.fun < eta0 - TOL:
                return f"HiGHS branch min {lp.fun!r} < eta0 {eta0!r}"
    return None


# The tail percentile of each workload: the highest of p99.9, p99, p95, p90,
# p75 and p50 that has at least 10 samples beyond it in a 30 s run on the
# reference machine (README.md). It is fixed per workload rather than chosen
# per run, because the number of whole passes in a run varies with machine
# speed and a percentile that moved with it made the tail jump between op
# kinds.
TAIL_PERCENTILE = {"corpus": 75.0, "lattice": 75.0, "separation": 95.0}

WORKLOADS = {
    "corpus": corpus,
    "lattice": lattice,
    "separation": separation_cuts,
}
