"""Golden cuts: `found`, `verified`, `diagnostic`, `mu`, `eta0` and the
violation `eta0 - mu.xhat` of `generate_cut` on the fixture cuts of
`test_separation.py`, on its LORENTZ_SPLIT instance, on six seeded split
disjunctions (orthant and Lorentz(3) blocks, n in {12, 24}) and on the
fixture grid of `test_separation.fixture_grid` ("<fixture> grid <i>",
i = 0 the origin), which holds sets with infeasible branches (ex4_2, ex4_3)
and 21 branches (cmir).

The stored values are the output of the code before the cut program and the
exact minimality program shared one multiplier builder (the grid entries:
before `generate_cut` read branch nonemptiness from the cut program's dual);
a change to how a cut is computed must leave them unchanged. The violations
were added later, from the code of that time, and pin the cut's depth where
`mu` and `eta0` may move along an optimal face that is not unique. Rewrite
the file, after arguing the change, with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_cuts.py
"""

import json
from pathlib import Path

import numpy as np

from conecert.cones import ConeProduct, lorentz
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
    _seeded_split,
    fixture_grid,
)

GOLDEN = Path(__file__).parent / "data" / "golden_cuts.json"
SCALAR_TOL = 1e-9


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
    for name in ("ex2_1", "ex2_4", "ex4_1", "ex4_2", "ex4_3", "cmir"):
        branches, points = fixture_grid(name)
        cases += [(f"{name} grid {i}", branches, x) for i, x in enumerate(points)]
    return cases


def _summary(res) -> dict:
    found = res.inequality is not None
    return {
        "found": res.found,
        "verified": res.verified,
        "diagnostic": res.diagnostic,
        "mu": res.inequality.mu.tolist() if found else None,
        "eta0": res.inequality.eta0 if found else None,
        "violation": res.violation,
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
            assert got["mu"] is None and got["eta0"] is None and got["violation"] is None, key
            continue
        assert np.allclose(got["mu"], want["mu"], rtol=0.0, atol=SCALAR_TOL), (key, got["mu"])
        assert abs(got["eta0"] - want["eta0"]) <= SCALAR_TOL, (key, got["eta0"])
        assert abs(got["violation"] - want["violation"]) <= SCALAR_TOL, (key, got["violation"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    out = {key: _summary(generate_cut(b, x)) for key, b, x in _cases()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cuts to {GOLDEN}")
