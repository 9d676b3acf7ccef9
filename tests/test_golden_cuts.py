"""Golden cuts: `found`, `verified`, `diagnostic`, `mu` and `eta0` of
`generate_cut` on the fixture cuts of `test_separation.py`, on its
LORENTZ_SPLIT instance and on six seeded split disjunctions (orthant and
Lorentz(3) blocks, n in {12, 24}).

The stored values are the output of the code before the cut program and the
exact minimality program shared one multiplier builder; a change to how a
cut is computed must leave them unchanged. Rewrite the file, after arguing
the change, with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_cuts.py
"""

import json
import math
from pathlib import Path

import numpy as np

from conecert.cones import ConeProduct, lorentz, nonneg
from conecert.fixtures import builtin
from conecert.separation import (
    SplitDisjunction,
    branches_from_set,
    build_split_set,
    generate_cut,
)
from test_separation import (
    LORENTZ_SPLIT_A,
    LORENTZ_SPLIT_B,
    LORENTZ_SPLIT_D,
    LORENTZ_SPLIT_XHAT,
)

GOLDEN = Path(__file__).parent / "data" / "golden_cuts.json"
SCALAR_TOL = 1e-9


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


def _cases():
    """(key, branches, xhat) for every pinned cut."""
    cases = [
        ("ex2_4 at 0,0", branches_from_set(builtin("ex2_4").dset), np.zeros(2)),
        ("ex4_1 at 0,0,0.5", branches_from_set(builtin("ex4_1").dset), np.array([0.0, 0.0, 0.5])),
        ("ex4_2 at 0,0,0", branches_from_set(builtin("ex4_2").dset), np.zeros(3)),
        ("lorentz split", build_split_set(SplitDisjunction(
            LORENTZ_SPLIT_A, LORENTZ_SPLIT_B, ConeProduct([lorentz(3)] * 4),
            LORENTZ_SPLIT_D, -2)), np.array(LORENTZ_SPLIT_XHAT)),
    ]
    for seed, kind, n in ((1, "orthant", 12), (2, "orthant", 24), (3, "orthant", 24),
                          (1, "lorentz", 12), (2, "lorentz", 24), (3, "lorentz", 12)):
        cases.append((f"{kind} n={n} seed={seed}", *_seeded_split(seed, kind, n)))
    return cases


def _summary(res) -> dict:
    found = res.inequality is not None
    return {
        "found": res.found,
        "verified": res.verified,
        "diagnostic": res.diagnostic,
        "mu": res.inequality.mu.tolist() if found else None,
        "eta0": res.inequality.eta0 if found else None,
    }


def test_cuts_match_golden():
    golden = json.loads(GOLDEN.read_text())
    cases = _cases()
    assert sorted(key for key, _, _ in cases) == sorted(golden)
    for key, branches, xhat in cases:
        got, want = _summary(generate_cut(branches, xhat)), golden[key]
        for field in ("found", "verified", "diagnostic"):
            assert got[field] == want[field], (key, field)
        if want["mu"] is None:
            assert got["mu"] is None and got["eta0"] is None, key
            continue
        assert np.allclose(got["mu"], want["mu"], rtol=0.0, atol=SCALAR_TOL), (key, got["mu"])
        assert abs(got["eta0"] - want["eta0"]) <= SCALAR_TOL, (key, got["eta0"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    out = {key: _summary(generate_cut(b, x)) for key, b, x in _cases()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cuts to {GOLDEN}")
