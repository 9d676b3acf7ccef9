"""Golden reports: the verdict, every rung's status, the tight-ray count,
theta and inf_sigma of `full_report` on every fixture inequality and on the
cmir grid f in {0.1, 0.25, 0.5, 0.6, 0.9} x M in {6, 8, 10, 12}.

The stored values are the output of the code before the branch program was
batched per (set, mu); a change to how the ladder solves must leave them
unchanged. Rewrite the file, after arguing the change, with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

from conecert.analysis import full_report
from conecert.fixtures import builtin, names

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
SCALAR_TOL = 1e-9


def _cases():
    """(key, set, inequality) for every fixture inequality and the cmir grid."""
    cases = [(f"{fx.name}/{fi.inequality.name}", fx.dset, fi.inequality)
             for fx in map(builtin, names()) for fi in fx.inequalities]
    for f in (0.1, 0.25, 0.5, 0.6, 0.9):
        for M in (6, 8, 10, 12):
            fx = builtin("cmir", f=f, M=M)
            cases += [(f"cmir f={f} M={M}/{fi.inequality.name}", fx.dset, fi.inequality)
                      for fi in fx.inequalities]
    return cases


def _summary(rep) -> dict:
    d = rep.to_dict()
    checks = {c["name"]: c for c in d["checks"]}
    rays = checks.get("tight_rays")
    return {
        "verdict": d["final_verdict"],
        "statuses": {c["name"]: c["status"] for c in d["checks"]},
        "tight_rays": rays["values"]["count"] if rays else None,
        "theta": checks["validity"]["values"]["theta"],
        "inf_sigma": checks["inf_sigma"]["values"]["inf_sigma"] if "inf_sigma" in checks else None,
    }


def _same_scalar(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return (math.isnan(got) and math.isnan(want)) or abs(got - want) <= SCALAR_TOL
    return got == want


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    cases = _cases()
    assert sorted(key for key, _, _ in cases) == sorted(golden)
    for key, dset, ineq in cases:
        got, want = _summary(full_report(dset, ineq)), golden[key]
        for field in ("verdict", "statuses", "tight_rays"):
            assert got[field] == want[field], (key, field)
        for field in ("theta", "inf_sigma"):
            assert _same_scalar(got[field], want[field]), (key, field, got[field], want[field])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    out = {key: _summary(full_report(dset, ineq)) for key, dset, ineq in _cases()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} reports to {GOLDEN}")
